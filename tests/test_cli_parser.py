"""main reuses one argument parser per process; reuse must change nothing.

The sequence below mixes a query, a usage error that argparse ends with
SystemExit, a suite with its global options in trailing position, the
rational field and the grass conditions.  Run twice through the shared
parser, it must give the same exit codes and stdout as a run that builds a
fresh parser for every call.
"""

import contextlib
import io
from pathlib import Path

from covex import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

SEQUENCE = [
    ["member", "grass", "grass_random.json", "2 4 6"],
    ["member", "grass", "grass_random.json"],
    ["verify", "rank-lemma", "--nmax", "2", "--seed", "3"],
    ["--field", "Q", "embed", "0 1 3 0", "embed_rational.json"],
    ["conormal", "member", "grass", "springer_cell.json", "--conditions", "2:1,4:1,6:3"],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_shared_parser_matches_a_fresh_parser_per_call(monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    shared = [run(argv) for argv in SEQUENCE + SEQUENCE]
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run(argv) for argv in SEQUENCE]
    assert shared == fresh + fresh
    assert [code for code, _ in fresh] == [0, 2, 0, 0, 0]
    assert all(out for code, out in fresh if code == 0)


def test_build_parser_stays_fresh_and_the_shared_parser_is_one():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._shared_parser() is cli._shared_parser()
