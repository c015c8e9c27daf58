"""Fuzz the CLI over argv and point JSON: documented exit codes, no tracebacks.

Every subcommand, its positionals, their choices and its options come from
the CLI's own parser.  Their values are drawn from small alphabets of valid,
partial and malformed permutations, positions, fields, numbers, conditions
and point files, some of which hold JSON drawn by hypothesis; stray tokens
are mixed in.  Permutations stay at n <= 4, but for one at n = 65, a
matrix of 129 rows and a `--trials` one past MAX_TRIALS, all past the
CLI's caps, and `verify` always gets `--nmax <= 2`, so no example builds a
large table or runs a suite at its acceptance scale.  Whenever the CLI's
table parser accepts an argv, it must return what argparse returns.
"""

import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from covex.cli import build_parser, main
from covex.suites import MAX_TRIALS, SUITE_NAMES
from test_cli_parser import declines_or_agrees

GOLDEN_DIR = Path(__file__).parent / "golden"


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


SUBPARSERS = _subparsers()
COMMANDS = sorted(SUBPARSERS)
PERMS = [
    "21", "132", "2143", "4231", "3412", "4321", "2 0 3 1", "0 1 3 0", "1 2 4 3",
    "01", "2a43", "11", "5", "", "-1", " ".join(map(str, range(65, 0, -1))),
]
POSITIONS = ["1 2 3", "2 4 6", "4 5 6", "1,3", "3 1", "0", "a"]
FIELDS = [
    "p:10007", "p:7", "p:4", "p:abc", "Q", "q", "p:", "p:3317044064679887385961990",
    "p:\u00b2", "p:" + "7" * 5000,
]
NUMBERS = ["0", "1", "2", "-1", "x"]
CONDITIONS = ["4:1", "2:1,4:1,6:3", "0:0,3:2,8:4", "4", "a:b", ":"]
GOLDEN_FILES = sorted(
    str(p) for p in GOLDEN_DIR.glob("*.json") if p.name not in ("cli_stdout.json", "cli_usage.json")
)
MALFORMED_JSON = [
    "{",
    "[]",
    "null",
    '{"rows": 0, "cols": 2, "entries": []}',
    '{"rows": 129, "cols": 1, "entries": []}',
    '{"rows": 2, "cols": 2, "entries": [[1, "a/0"], [0, 1]]}',
    '{"rows": 2, "cols": 2, "entries": [[1, true], [0, 1]]}',
    '{"flag": {"generator": {"rows": 2, "cols": 2, "entries": [[1, 1], [1, 1]]}}, "z": 3}',
    '{"V": {"ambient": 2, "basis": {"rows": 2, "cols": 1, "entries": [[0], [0]]}}, "x": {}}',
    '{"x": {"rows": 1, "cols": 1, "entries": [[1]]}, "y": {"rows": 1, "cols": 1, "entries": [["1/2"]]}}',
    '{"ambient": "abc", "basis": {"rows": 2, "cols": 1, "entries": [[1], [0]]}}',
    '{"ambient": 2.7, "basis": {"rows": 2, "cols": 1, "entries": [[1], [0]]}}',
    '{"n": [2], "generator": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}}',
]

scalars = st.one_of(
    st.integers(-3, 3), st.sampled_from(["1/2", "a", "0/1", "", None, True, 1.5])
)


@st.composite
def matrix_json(draw):
    rows, cols = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    entries = draw(
        st.lists(st.lists(scalars, min_size=0, max_size=3), min_size=0, max_size=3)
    )
    return {"rows": rows, "cols": cols, "entries": entries}


point_json = st.recursive(
    matrix_json(),
    lambda inner: st.dictionaries(
        st.sampled_from(["x", "y", "z", "V", "flag", "generator", "basis", "ambient", "n"]),
        st.one_of(inner, st.integers(0, 4)),
        max_size=3,
    ),
    max_leaves=4,
)

OUTSIDE_ERROR_LINES = [
    re.compile(r"suite [\w-]+: \d+/\d+ cases passed"),  # verify summary
    re.compile(r"\d+ pairs, \d+ mismatches"),  # kl covex-check summary
]
ARGPARSE_ERROR = re.compile(r"covex( [\w-]+)?: error: ")


def _stderr_is_clean(stderr: str, code: int) -> bool:
    """Only `error:` lines (argparse's usage block included) or a summary."""
    lines = stderr.splitlines()
    if any(ARGPARSE_ERROR.match(line) for line in lines):
        return code == 2 and ARGPARSE_ERROR.match(lines[-1]) is not None
    return all(
        line.startswith("error: ") or any(p.fullmatch(line) for p in OUTSIDE_ERROR_LINES)
        for line in lines
    )


# values for each positional (by dest) and option of the subcommands
POSITIONAL_VALUES = {
    "perm": PERMS,
    "index": PERMS + POSITIONS,
    "args": PERMS + ["covex-check"],
    "suite": list(SUITE_NAMES) + ["bogus"],
}
OPTION_VALUES = {
    "--w": PERMS,
    "--conditions": CONDITIONS,
    "--field": FIELDS,
    "--trials": NUMBERS + [str(MAX_TRIALS + 1)],
}


@st.composite
def invocations(draw):
    """A subcommand with mostly well-typed arguments and some stray tokens."""
    files = draw(st.lists(point_json.map(json.dumps), max_size=2))
    files += draw(st.lists(st.sampled_from(MALFORMED_JSON), max_size=1))
    names = [f"drawn{k}.json" for k in range(len(files))]
    point_files = GOLDEN_FILES + names + ["missing.json"]
    stray = st.sampled_from(
        PERMS + POSITIONS + FIELDS + NUMBERS + CONDITIONS + point_files
        + ["--bogus", "--w", "--seed", "-h", "covex-check"]
    )
    argv = []
    if draw(st.booleans()):
        flag = draw(st.sampled_from(["--field", "--seed", "--trials", "--nmax"]))
        argv += [flag, draw(st.sampled_from(OPTION_VALUES.get(flag, NUMBERS)))]
    command = draw(st.sampled_from(COMMANDS))
    argv.append(command)
    for action in SUBPARSERS[command]._actions:
        if action.option_strings:
            flag = action.option_strings[0]
            if flag in ("-h", "--nmax") or draw(st.integers(0, 3)) < 3:
                continue
            argv += [flag, draw(st.sampled_from(OPTION_VALUES.get(flag, NUMBERS)))]
            continue
        for _ in range(draw(st.integers(1, 3)) if action.nargs == "+" else 1):
            if draw(st.integers(0, 5)) == 5:
                argv.append(draw(stray))
            elif action.choices:
                argv.append(draw(st.sampled_from(sorted(action.choices))))
            else:
                argv.append(draw(st.sampled_from(POSITIONAL_VALUES.get(action.dest, point_files))))
    if draw(st.integers(0, 5)) == 5:
        argv.append(draw(stray))
    if command == "verify":
        argv += ["--nmax", draw(st.sampled_from(["-1", "0", "1", "2"]))]
    return argv, dict(zip(names, files))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, -h
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_cli_exit_codes_and_stderr(invocation):
    argv, contents = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in contents.items():
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        argv = [paths.get(token, token) for token in argv]
        assert declines_or_agrees(argv), argv
        code, stderr = _run(argv)
    assert code in (0, 2, 3), (argv, code, stderr)
    assert "Traceback" not in stderr
    assert _stderr_is_clean(stderr, code), (argv, stderr)
