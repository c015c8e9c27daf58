"""main parses argv twice over: once by the command table, else by argparse.

A plain run of the grammar is parsed in one pass by ``cli._parse``; every
other argv (help, --version, abbreviations, usage errors) goes to one
argparse parser that main reuses for the whole process.  These tests pin:

- the table parser agrees with argparse on every argv it accepts, the
  pinned suite runs and CLI queries among them, and declines the argv
  argparse alone can answer;
- help, --version and usage errors print what argparse printed before the
  table parser existed (``golden/cli_usage.json``, at COLUMNS=80);
- argparse is imported only when an argv needs it;
- reusing the shared argparse parser changes nothing.

Run as a plain script (``PYTHONPATH=src python tests/test_cli_parser.py``)
it makes the agreement checks without pytest, on any supported Python.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from covex import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

SEQUENCE = [
    ["member", "grass", "grass_random.json", "2 4 6"],
    ["member", "grass", "grass_random.json"],
    ["verify", "rank-lemma", "--nmax", "2", "--seed", "3"],
    ["--field", "Q", "embed", "0 1 3 0", "embed_rational.json"],
    ["conormal", "member", "grass", "springer_cell.json", "--conditions", "2:1,4:1,6:3"],
]


def _pinned_argvs():
    """Every pinned suite run, every golden CLI query and the valid SEQUENCE."""
    for line in (GOLDEN_DIR / "suite_reports.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            yield from (run.split() for run in line.split(maxsplit=1)[1].split(";"))
    cases = json.loads((GOLDEN_DIR / "cli_stdout.json").read_text(encoding="utf-8"))
    yield from (case["argv"] for case in cases.values())
    yield from (argv for argv in SEQUENCE if argv != SEQUENCE[1])


# argv that only argparse answers: help, --version, an abbreviation, an
# attached value, the end-of-options marker and a negative value
DECLINED = [
    ["-h"],
    ["--version"],
    ["--fie", "Q", "ess", "21"],
    ["--field=Q", "ess", "21"],
    ["ess", "--", "21"],
    ["verify", "rank-lemma", "--nmax", "-1"],
]
# a global option both before verify and after it: the later value wins
TRAILING = ["--seed", "3", "--nmax", "1", "verify", "rank-lemma", "--seed", "5"]


def declines_or_agrees(argv) -> bool:
    """cli._parse declines argv, or returns what argparse returns for it."""
    parsed = cli._parse(list(argv))
    return parsed is None or vars(parsed) == vars(cli.build_parser().parse_args(list(argv)))


def test_table_parser_accepts_every_pinned_run_and_agrees_with_argparse():
    argvs = [*_pinned_argvs(), TRAILING]
    assert len(argvs) > 60
    for argv in argvs:
        assert cli._parse(list(argv)) is not None, argv
        assert declines_or_agrees(argv), argv


def test_table_parser_declines_what_only_argparse_answers():
    for argv in DECLINED:
        assert cli._parse(list(argv)) is None, argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_help_version_and_usage_errors_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads((GOLDEN_DIR / "cli_usage.json").read_text(encoding="utf-8"))
    assert len(cases) >= 16
    for name, case in cases.items():
        assert cli._parse(case["argv"]) is None, name
        assert run(case["argv"]) == (case["exit"], case["stdout"], case["stderr"]), name


PROBE = """
import contextlib, io, sys
from covex import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["member", "matrix", "embed_cell.json", "0 1 3 0"])
print(code, "argparse" in sys.modules)
with contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(["ess"])
    except SystemExit as exc:
        print(exc.code, "argparse" in sys.modules)
"""


def test_argparse_is_imported_only_for_help_and_usage_errors():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        cwd=GOLDEN_DIR,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0 False", "2 True", ""]


def test_shared_parser_matches_a_fresh_parser_per_call(monkeypatch):
    """The sequence mixes a query, a usage error that argparse ends with
    SystemExit, a suite with its global options in trailing position, the
    rational field and the grass conditions.  Run twice through the shared
    parser, it gives the same exit codes and stdout as a run that builds a
    fresh parser for every call."""
    monkeypatch.chdir(GOLDEN_DIR)
    shared = [run(argv)[:2] for argv in SEQUENCE + SEQUENCE]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run(argv)[:2] for argv in SEQUENCE]
    assert shared == fresh + fresh
    assert [code for code, _ in fresh] == [0, 2, 0, 0, 0]
    assert all(out for code, out in fresh if code == 0)


def test_build_parser_stays_fresh_and_the_shared_parser_is_one():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._shared_parser() is cli._shared_parser()


if __name__ == "__main__":
    test_table_parser_accepts_every_pinned_run_and_agrees_with_argparse()
    test_table_parser_declines_what_only_argparse_answers()
    print(f"table parser agrees with argparse under Python {sys.version.split()[0]}")
