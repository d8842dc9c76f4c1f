"""Output checks, one per job kind, run after the timed rounds.

Each check reads a job's data file (and, where the CLI prints it there, its
stdout) and compares it with `oracles.py` or with properties the output must
have. Sampled estimates are compared with exact values in units of their
reported standard error; every z-score is logged.

Tolerances for sampled estimates. With eight randomized-QMC replicates the
standardized error of the replicate mean follows Student's t with 7 degrees
of freedom; Monte-Carlo quadrature over 200000 samples is normal. A check
fails when |z| exceeds the two-sided 1e-6 quantile: 15.77 for t_7 and 4.89
for the normal law. At about twelve sampled checks per run that is roughly
one false alarm in 80000 runs, while an estimate off by a constant factor
(a normalization slip) still fails by orders of magnitude.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import oracles

T7_CRIT = 15.77
NORMAL_CRIT = 4.89
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
EPS = oracles.MACHINE_EPS


class Checker:
    def __init__(self, log):
        self.log = log
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
            self.log(f"FAIL {message}")

    def z(self, label: str, estimate: float, exact: float, stderr: float, crit: float) -> None:
        z = (estimate - exact) / stderr if stderr > 0 else math.inf
        self.log(f"z {label}: estimate={estimate!r} exact={exact!r} stderr={stderr!r} z={z:+.3f} (|z| <= {crit})")
        self.expect(abs(z) <= crit, f"{label}: |z| = {abs(z):.3f} > {crit}")


def read_rows(path: Path) -> tuple[list[dict], dict]:
    """(rows, meta) of a CSV or JSON data file; CSV fields stay strings."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return payload["rows"], payload["meta"]
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh)), {}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ------------------------------------------------------------ counts


def windowed_bounds(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N, value = int(row["N"]), float(row["value"])
        lower, upper = oracles.diagonal_count(N, 6), oracles.vinogradov_J(N, 6)
        c.log(f"windowed N={N}: D={lower} count={value!r} J62={upper} count/D={value / lower:.6f}")
        c.expect(value == int(value), f"windowed N={N}: {value!r} is not an integer")
        c.expect(lower <= value <= upper, f"windowed N={N}: {value!r} outside [D(N), J_6,2(N)] = [{lower}, {upper}]")
        c.expect(float(row["window3"]) == N**-0.5, f"windowed N={N}: default window is {row['window3']}")


def windowed_full(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N = int(row["N"])
        exact = oracles.vinogradov_J(N, 6)
        c.expect(float(row["value"]) == exact, f"infinite windows N={N}: {row['value']} != J_6,2(N) = {exact}")


def windowed_decimal(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N = int(row["N"])
        exact = oracles.windowed_count_decimal(N, job.params["w3"], job.params["w4"])
        c.log(f"windowed N={N} w3={job.params['w3']!r} w4={job.params['w4']!r}: count={row['value']} decimal={exact}")
        c.expect(float(row["value"]) == exact, f"windowed N={N}: {row['value']} != decimal count {exact}")


def kernel(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N, r, value = int(row["N"]), int(row["r"]), float(row["value"])
        exact, mass = oracles.kernel_sum(N, r, job.params.get("delta"), job.params.get("Delta"))
        c.log(f"kernel N={N} r={r}: value={value!r} reference={exact!r} diff/mass={(value - exact) / mass:.2e}")
        c.expect(abs(value - exact) <= 1e-10 * mass, f"kernel N={N} r={r}: {value!r} != {exact!r}")


def vinogradov(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N, s, value = int(row["N"]), int(row["r"]), float(row["value"])
        exact = oracles.vinogradov_J(N, s)
        c.expect(value == exact, f"J_{s},2({N}): {value!r} != {exact}")
        if s == 2:
            c.expect(value == 2 * N * N - N, f"J_2,2({N}): {value!r} != 2N^2 - N")
        else:
            c.expect(value >= 6 * N**3 - 9 * N**2 + 4 * N, f"J_3,2({N}): {value!r} below the diagonal")


def parabola_exact(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N = int(row["N"])
        lhs = oracles.vinogradov_J(N, 3) ** (1 / 6)
        c.expect(_close(float(row["lhs"]), lhs, 1e-14), f"parabola N={N}: lhs {row['lhs']} != J_3,2^(1/6) = {lhs!r}")
        c.expect(_close(float(row["rhs"]), math.sqrt(N), 1e-15), f"parabola N={N}: rhs {row['rhs']}")
        c.expect(float(row["stderr"]) == 0.0, f"parabola N={N}: exact row has stderr {row['stderr']}")


# ------------------------------------------------------------ sampled


def monte_carlo(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N, r = int(row["N"]), int(row["r"])
        exact, _ = oracles.kernel_sum(N, r)
        c.z(f"quadrature N={N} r={r}", float(row["value"]), exact, float(row["stderr"]), NORMAL_CRIT)


def parabola_sampled(c: Checker, job, rows, meta, stdout):
    from zetalab.decouple import DecouplingExperiment

    p = job.params
    for row in rows:
        N = int(row["N"])
        roots = []
        for trial in range(p["trials"]):
            exp = DecouplingExperiment(2, N, "parabola", p["ensemble"], int(row["samples"]), p["seed"] + trial)
            roots.append(oracles.parabola_sixth_moment(exp.coefficients()) ** (1 / 6))
        exact_ratio = math.fsum(roots) / len(roots) / math.sqrt(N)
        c.z(f"parabola {p['ensemble']} N={N}", float(row["ratio"]), exact_ratio, float(row["stderr"]), T7_CRIT)
        c.expect(_close(float(row["rhs"]), math.sqrt(N), 1e-15), f"parabola N={N}: rhs {row['rhs']}")


def bilinear(c: Checker, job, rows, meta, stdout):
    means = {}
    for row in rows:
        N, lhs, stderr = int(row["N"]), float(row["lhs"]), float(row["stderr"])
        stored = REFERENCE["bilinear_cube_mean"].get(str(N))
        exact = stored["value"] if stored else oracles.bilinear_cube_mean(N)
        means[N] = exact
        # The CLI reports mean^(1/12) with a delta-method stderr; compare the means.
        c.z(f"bilinear N={N}", lhs**12, exact, 12 * lhs**11 * stderr, T7_CRIT)
        c.expect(_close(float(row["rhs"]), math.sqrt(N), 1e-15), f"bilinear N={N}: benchmark {row['rhs']}")
    ns = sorted(means)
    xs = [math.log(n) for n in ns]
    ys = [math.log(means[n] ** (1 / 12) / math.sqrt(n)) for n in ns]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)
    c.log(f"bilinear exact slope over N={ns}: {slope:.4f}")


# ------------------------------------------------------------ critical line


def zeta_scan(c: Checker, job, rows, meta, stdout):
    previous = 0.0
    for row in rows:
        t, az, err = row["t"], row["abs_zeta"], row["abs_err"]
        ref = oracles.zeta_abs(t)
        c.log(f"zeta t={t!r}: |zeta|={az!r} mpmath={ref!r} diff={az - ref:+.2e} abs_err={err:.2e}")
        c.expect(abs(az - ref) <= err + 4 * EPS * ref, f"zeta scan t={t!r}: |{az!r} - {ref!r}| > abs_err {err!r}")
        c.expect(_close(row["ratio_13_84"], az / t ** (13 / 84), 1e-14), f"zeta scan t={t!r}: ratio column")
        c.expect(job.params["t_min"] <= t <= job.params["t_max"] and t > previous,
                 f"zeta scan t={t!r}: grid out of order or range")
        previous = t
    c.expect(meta["running_max"] == max(row["ratio_13_84"] for row in rows), "zeta scan: running_max")


def zeta_afe(c: Checker, job, rows, meta, stdout):
    p = job.params
    grid = [math.exp(math.log(p["t_min"]) + i * (math.log(p["t_max"]) - math.log(p["t_min"])) / (p["points"] - 1))
            for i in range(p["points"])]
    c.expect(len(rows) == p["points"], f"afe: {len(rows)} rows for {p['points']} points")
    violations = 0
    for t_ref, row in zip(grid, rows):
        t, bound, floor = row["t"], row["afe_bound"], row["oracle_floor"]
        c.expect(_close(t, t_ref, 1e-12), f"afe: grid point {t!r} != {t_ref!r}")
        m = int(math.sqrt(t / (2 * math.pi)) + 1e-12)
        weight = sum(n**-0.5 for n in range(1, m + 1))
        tol = 2 * weight * 8 * EPS * (1 + t * math.log(m + 1))
        main = 2 * oracles.afe_main_sum_abs(t) + p["slack"]
        c.expect(abs(bound - main) <= tol, f"afe t={t!r}: bound {bound!r} != 2|S|+C = {main!r}")
        # oracle_floor = |zeta_EM| - abs_err lies in [|zeta| - 2 abs_err, |zeta|]; abs_err
        # stays below 1e-5 up to t = 1e6.
        ref = oracles.zeta_abs(t)
        c.expect(ref - 2e-5 <= floor <= ref + 4 * EPS * ref, f"afe t={t!r}: floor {floor!r} vs |zeta| {ref!r}")
        violations += bound < floor
    c.expect(meta["violations"] == violations, f"afe: violations {meta['violations']} != {violations}")


def zeta_value(c: Checker, job, rows, meta, stdout):
    for row in rows:
        t, az, err = float(row["t"]), float(row["abs_zeta"]), float(row["abs_err"])
        ref = oracles.zeta_abs(t)
        c.expect(abs(az - ref) <= err + 4 * EPS * ref, f"zeta value t={t!r}: |{az!r} - {ref!r}| > {err!r}")


def _phase_sum(c: Checker, label: str, row, ref: complex, scale: float):
    value = complex(float(row["re"]), float(row["im"]))
    err = float(row["err"])
    # float64 phases of size |phi| are off by about eps |phi| each; the sum then
    # drifts like a random walk, 2 pi times the root sum of squares `scale`.
    tol = err + 2 * math.pi * 6 * scale
    dev = abs(value - ref)
    c.log(f"{label}: value={value!r} reference={ref!r} deviation={dev:.3e} err={err:.3e} tolerance={tol:.3e}")
    c.expect(dev <= tol, f"{label}: deviation {dev!r} > {tol!r}")
    c.expect(_close(float(row["abs"]), abs(value), 1e-15), f"{label}: abs column")


def quadruple(c: Checker, job, rows, meta, stdout):
    for row in rows:
        N = int(row["N"])
        ref, scale = oracles.quadruple_sum(N, job.params["x"])
        _phase_sum(c, f"quadruple N={N}", row, ref, scale)


def dyadic(c: Checker, job, rows, meta, stdout):
    for row in rows:
        ref, scale = oracles.dyadic_log_sum(job.params["T"], int(row["M"]))
        _phase_sum(c, f"dyadic M={row['M']}", row, ref, scale)


def coverage(c: Checker, job, rows, meta, stdout):
    found = {row["piece"]: Fraction(row["alpha"]) for row in rows}
    expected = {tag: oracles.crossover(tag) for tag in ("main", "pair", "resonance", "trivial")}
    c.expect(found == expected, f"coverage crossovers {found} != {expected}")
    points = oracles.reduced_fractions_upto_half(job.params["Q"]) + sum(a <= oracles.HALF for a in expected.values())
    c.expect(meta["points_checked"] == points, f"coverage: points_checked {meta['points_checked']} != {points}")
    c.expect("COVERAGE=PASS" in stdout, "coverage: no COVERAGE=PASS line")


def envelope(c: Checker, job, rows, meta, stdout):
    Q = job.params["Q"]
    c.expect(len(rows) == oracles.farey_count(Q), f"envelope: {len(rows)} rows, expected {oracles.farey_count(Q)}")
    previous = Fraction(-1)
    bad = 0
    for row in rows:
        alpha = Fraction(int(row["alpha_num"]), int(row["alpha_den"]))
        p, witness = oracles.envelope(alpha)
        bad += alpha <= previous or (Fraction(int(row["p_num"]), int(row["p_den"])), row["witness"]) != (p, witness)
        previous = alpha
    c.expect(bad == 0, f"envelope: {bad} rows disagree with the piece table or are out of order")


def pairs_search(c: Checker, job, rows, meta, stdout):
    for row in rows:
        word, k, l, value = row["word"], Fraction(row["k"]), Fraction(row["l"]), Fraction(row["value"])
        if word.endswith("X"):
            seed, letters = (Fraction(13, 84), Fraction(55, 84)), word[:-1]
        else:
            seed, letters = (Fraction(0), Fraction(1)), word
        c.expect(oracles.apply_word(letters, seed) == (k, l), f"pairs search: {word} does not give ({k}, {l})")
        c.expect(value == (k + l) / 2 - Fraction(1, 4), f"pairs search: theta({k}, {l}) != {value}")
        c.expect(value <= oracles.TARGET, f"pairs search: {value} is worse than the axiom pair's 13/84")


CHECKS = {f.__name__: f for f in (
    windowed_bounds, windowed_full, windowed_decimal, kernel, vinogradov, parabola_exact, monte_carlo,
    parabola_sampled, bilinear, zeta_scan, zeta_afe, zeta_value, quadruple, dyadic, coverage, envelope,
    pairs_search,
)}


def run_check(job, round_dir: Path, index: int, log) -> list[str]:
    c = Checker(log)
    rows, meta = read_rows(round_dir / job.out)
    c.expect(bool(rows), f"{job.out}: no rows")
    CHECKS[job.check](c, job, rows, meta, (round_dir / f"job{index}.out").read_text())
    return c.problems
