"""Golden reports: suite stdout digests and exact CLI diagnostics.

Every pinned suite report has one line in ``golden/suite_reports.txt``: its
sha256 and the runs that must print it.  The runs with ``--nmax`` at most 4
are made in process at every scale.  The larger runs are the frontier of
each suite; at the CI scale of tests/scale.py each is made in a fresh
``python -m covex.cli`` process, as a user would run it.  The digests and the
expected CLI output were recorded from the reference implementation; any
change to a verdict, a suite detail or a ``dim``/``rank`` diagnostic shows
up here as a mismatch.  The point files under ``golden/`` are chosen so that
every command hits at least one violation.
"""

import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from covex import suites
from covex.cli import main
from scale import sized

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _pinned_reports():
    """(sha256, [argv, ...]) of each line of suite_reports.txt, in file order."""
    for line in (GOLDEN_DIR / "suite_reports.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            digest, runs = line.split(maxsplit=1)
            yield digest, [tuple(run.split()) for run in runs.split(";")]


def _nmax(argv) -> int:
    return int(argv[argv.index("--nmax") + 1])


PINNED = {argv: digest for digest, runs in _pinned_reports() for argv in runs}
IN_PROCESS_RUNS = [argv for argv in PINNED if _nmax(argv) <= 4]

CLI_CASES = json.loads((GOLDEN_DIR / "cli_stdout.json").read_text(encoding="utf-8"))


def _digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def test_each_report_and_each_run_is_pinned_once():
    reports = list(_pinned_reports())
    assert len({digest for digest, _ in reports}) == len(reports)
    assert len(PINNED) == sum(len(runs) for _, runs in reports)


def _run_id(argv) -> str:
    """`--field p:101 verify rank-lemma --nmax 4 --seed 2` reads `p:101 rank-lemma n4 s2`."""
    run = " ".join(argv).replace("--field ", "").replace("verify ", "")
    return run.replace("--nmax ", "n").replace("--trials ", "t").replace("--seed ", "s")


@pytest.mark.parametrize("argv", IN_PROCESS_RUNS, ids=_run_id)
def test_suite_report_digest(argv, capsys):
    assert main(list(argv)) == 0
    assert _digest(capsys.readouterr().out) == PINNED[argv]


# one rational query, pinned in cli_stdout.json, and at CI scale also every
# frontier run: argv -> sha256 of the stdout it must print, exiting 0
_QUERY = CLI_CASES["member_grass_rational"]
FRESH_PROCESS_PINS = {tuple(_QUERY["argv"]): _digest(_QUERY["stdout"])} | sized(
    {}, {argv: digest for argv, digest in PINNED.items() if _nmax(argv) > 4}
)


@pytest.mark.parametrize("argv", list(FRESH_PROCESS_PINS), ids=_run_id)
def test_report_digest_in_a_fresh_process(argv):
    """Each run in its own `python -m covex.cli` process, stdin from
    /dev/null and cwd golden/, compared on the bytes of its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "covex.cli", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        cwd=GOLDEN_DIR,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == FRESH_PROCESS_PINS[argv]


@pytest.mark.parametrize("suite", ["embed-thm", "rank-lemma"])
def test_orbit_representative_suites_draw_nothing(suite, capsys, monkeypatch):
    """embed-thm and rank-lemma check every orbit at its 0/1 representative:
    no generator is made, and the report is the same at every seed and trials."""
    reports = []
    for argv in (["--seed", "0", "--trials", "2"], ["--seed", "9", "--trials", "1"]):
        assert main(["verify", suite, "--nmax", "3", *argv]) == 0
        reports.append(capsys.readouterr().out)
    monkeypatch.setattr(suites, "_rng", None)
    assert main(["verify", suite, "--nmax", "3"]) == 0
    reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    pinned = PINNED[("verify", suite, "--nmax", "3", "--trials", "2", "--seed", "0")]
    assert _digest(reports[0]) == pinned


def test_conormal_grass_report_ignores_trials_seed_and_field(capsys):
    """conormal-grass decides each verdict at the fixed point E_S of the
    target's open cell: its report is the same at every trials, seed and
    field, F_2 included, where sampled Springer covectors would lie in the
    variety by chance."""
    pinned = PINNED[("verify", "conormal-grass", "--nmax", "3", "--trials", "2", "--seed", "0")]
    for prime, trials, seed in product(("2", "3", "101", "10007"), ("1", "30"), ("0", "2")):
        argv = ["--field", f"p:{prime}", "verify", "conormal-grass", "--nmax", "3"]
        assert main([*argv, "--trials", trials, "--seed", seed]) == 0
        assert _digest(capsys.readouterr().out) == pinned, (prime, trials, seed)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout(name, capsys, monkeypatch):
    case = CLI_CASES[name]
    monkeypatch.chdir(GOLDEN_DIR)
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
