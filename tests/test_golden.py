"""Golden reports: suite stdout digests and exact CLI diagnostics.

The digests and the expected CLI output were recorded from the reference
implementation; any change to a verdict, a suite detail or a ``dim``/``rank``
diagnostic shows up here as a mismatch.  The point files under ``golden/``
are chosen so that every command hits at least one violation.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from covex import suites
from covex.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# sha256 of `covex verify <suite> --nmax 3 --trials 2 --seed 0` stdout
SUITE_DIGESTS = {
    "embed-thm": "950cbb35e634a01ffe9c4a14eca0d6c34f0193c565c6289bf6119519ae84093c",
    "rank-lemma": "3ce4b8d1562ec549af5fc004f9c3b645cbb401ac2ca0fe2dadeacd8f34f17121",
    "conormal-matrix": "ce0cbf8b832735d64f5599613a90bc095ad194a2060e8e3d3db2098b0c2b8297",
    "conormal-flag": "2886ab7a869c2a310de550b5f7b87871f0225d0fed6c8d20183b1d3fbdbc9460",
    "conormal-grass": "39cba23f329628b8441a80bb1a61ba391a7e9dced6878df245e4ca50b9ed5836",
    "diagram-chase": "f2ab728f99214aca0632a13b3b78140ef8db86534d0d7ca1afa0496a564b8c27",
    "kl-covex": "a41fd6a95cb1072ea9553fe3943d1dc0ce7456ea9ed57389a265b7f60d48f8f6",
    "multidegree": "f49e862944de536dc216108c3a3486f2201a9805b998078f51e851c3a2d7ece9",
}

# sha256 of `covex verify <suite> --nmax 4` stdout, the acceptance scale
SUITE_DIGESTS_NMAX4 = {
    "kl-covex": "aeff27d3e3f10523b72349c660db22663f3b459d8ca7cd740a54354e4a3d9eb6",
    "multidegree": "4335533c5a61a2f39587dda92fa40146a24ff301ad0522563137fe0e26365fe8",
}

# calibrate-scale digests at seed 1; they hold at seed 2 and, for the
# matrix and flag forms, over F_101 too (see the file's header)
CALIBRATE_DIGESTS = "calibrate_digests.txt"

CLI_CASES = json.loads((GOLDEN_DIR / "cli_stdout.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_suite_report_digest(suite, capsys):
    code = main(["verify", suite, "--nmax", "3", "--trials", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUITE_DIGESTS[suite]


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS_NMAX4))
def test_suite_report_digest_nmax4(suite, capsys):
    code = main(["verify", suite, "--nmax", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUITE_DIGESTS_NMAX4[suite]


def _recorded(suite):
    """(n_max, sha256) of the suite's line in the calibrate digest file."""
    for line in (GOLDEN_DIR / CALIBRATE_DIGESTS).read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if fields and fields[0] == suite:
            return fields[1], fields[2]
    raise LookupError(f"{suite} has no line in {CALIBRATE_DIGESTS}")


def _check_calibrate_digest(capsys, suite, seed, *field):
    n_max, digest = _recorded(suite)
    code = main([*field, "verify", suite, "--nmax", n_max, "--trials", "1", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("seed", [1, 2])
def test_embed_thm_report_matches_the_calibrate_digest(seed, capsys):
    _check_calibrate_digest(capsys, "embed-thm", seed)


@pytest.mark.parametrize("suite", ["conormal-matrix", "conormal-flag"])
def test_conormal_reports_over_f101_match_the_calibrate_digest(suite, capsys):
    """Every direction off the fiber at w's 0/1 matrix is rejected over
    every field, so at p = 101 and seed 2 each reject_rate still reads 1.0
    or null and the report is the seed-1 report at the default prime."""
    _check_calibrate_digest(capsys, suite, 2, "--field", "p:101")


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
    assert hashlib.sha256(reports[0].encode("utf-8")).hexdigest() == SUITE_DIGESTS[suite]


def test_conormal_grass_report_ignores_trials_seed_and_field(capsys):
    """conormal-grass decides each verdict at the fixed point E_S of the
    target's open cell: its report is the same at every trials, seed and
    field, F_2 included, where sampled Springer covectors would lie in the
    variety by chance."""
    for prime, trials, seed in product(("2", "3", "101", "10007"), ("1", "30"), ("0", "2")):
        argv = ["--field", f"p:{prime}", "verify", "conormal-grass", "--nmax", "3"]
        assert main([*argv, "--trials", trials, "--seed", seed]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == SUITE_DIGESTS["conormal-grass"], (prime, trials, seed)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout(name, capsys, monkeypatch):
    case = CLI_CASES[name]
    monkeypatch.chdir(GOLDEN_DIR)
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
