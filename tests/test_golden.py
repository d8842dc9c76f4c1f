"""Byte identity of the CLI: every job of the golden corpus (`tests/golden/`,
written by `tests/golden/regenerate.py` from its job list) exits with the
recorded code and writes the recorded stdout and data file, byte for byte."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from zetalab import cli

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_jobs", GOLDEN / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_corpus_covers_every_leaf_and_matches_the_job_list():
    leaves = {(command, mode) for command, sub in _subcommands(cli._build_parser()).items()
              for mode in _subcommands(sub)}
    assert len(leaves) == 16
    assert {tuple(argv[:2]) for _, argv in golden.JOBS} == leaves
    assert {name: " ".join(argv) for name, argv in golden.JOBS} == {k: v["argv"] for k, v in MANIFEST.items()}
    assert not any("--timing" in argv for _, argv in golden.JOBS)
    written = {golden.data_name(name, argv) for name, argv in golden.JOBS if MANIFEST[name]["exit"] == 0}
    assert {path.name for path in (GOLDEN / "files").iterdir()} == written
    assert {MANIFEST[name]["exit"] for name in MANIFEST} == {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_GUARD}


@pytest.mark.parametrize("name, argv", golden.JOBS, ids=[name for name, _ in golden.JOBS])
def test_job_reproduces_the_corpus(tmp_path, name, argv):
    code, stdout, path = golden.run_job(name, argv, tmp_path)
    assert (code, stdout) == (MANIFEST[name]["exit"], MANIFEST[name]["stdout"])
    recorded = GOLDEN / "files" / path.name
    assert path.exists() == recorded.exists()
    if recorded.exists():
        assert path.read_bytes() == recorded.read_bytes()
