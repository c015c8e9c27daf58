"""Golden reports: suite stdout digests and exact CLI diagnostics.

Every pinned suite report has one line in ``golden/suite_reports.txt``: its
sha256 and the runs that must print it.  The runs with ``--nmax`` at most
TIER1_NMAX are made here, the others in CI.  The digests and the expected
CLI output were recorded from the reference implementation; any change to a
verdict, a suite detail or a ``dim``/``rank`` diagnostic shows up here as a
mismatch.  The point files under ``golden/`` are chosen so that every
command hits at least one violation.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from covex import suites
from covex.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# the largest --nmax of a pinned run that tier-1 makes; CI makes the rest
TIER1_NMAX = 4


def _pinned_reports():
    """(sha256, [argv, ...]) of each line of suite_reports.txt, in file order."""
    for line in (GOLDEN_DIR / "suite_reports.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            digest, runs = line.split(maxsplit=1)
            yield digest, [tuple(run.split()) for run in runs.split(";")]


PINNED = {argv: digest for digest, runs in _pinned_reports() for argv in runs}
TIER1_RUNS = [argv for argv in PINNED if int(argv[argv.index("--nmax") + 1]) <= TIER1_NMAX]

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


@pytest.mark.parametrize("argv", TIER1_RUNS, ids=_run_id)
def test_suite_report_digest(argv, capsys):
    assert main(list(argv)) == 0
    assert _digest(capsys.readouterr().out) == PINNED[argv]


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
