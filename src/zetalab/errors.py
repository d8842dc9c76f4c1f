"""Exception types shared across the package.

Every size guard makes one decision, `GuardError.check(guard, value, limit,
what)`: it raises `GuardError(guard, f"{what} exceeds the guard {limit}")`
when value > limit, so each message ends in the limit it was refused at. A
guard is checked before the work it bounds allocates anything. The one
range check, `zeta.scan.range`, raises its own `GuardError`.
"""


class GuardError(ValueError):
    """A resource or range guard was violated.

    `guard` names the specific limit so callers (and the CLI) can report
    exactly which cap was hit.
    """

    def __init__(self, guard: str, message: str):
        super().__init__(message)
        self.guard = guard

    @classmethod
    def check(cls, guard: str, value, limit, what: str) -> None:
        """Refuse `value` above `limit` under the name `guard`; `what`
        describes the value, such as "N=64"."""
        if value > limit:
            raise cls(guard, f"{what} exceeds the guard {limit}")
