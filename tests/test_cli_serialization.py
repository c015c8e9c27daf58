"""File formats, invariant-checking parsers, and the CLI surface."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from covex import equivariant, kl, suites
from covex.cli import main
from covex.errors import InputError, InvariantError
from covex.exactla import ExactMatrix, FieldSpec, coordinate_subspace
from covex.serialization import (
    matrix_from_json,
    matrix_to_json,
    parse_point_file,
    point_from_json,
    subspace_to_json,
)
from covex.permcore import PartialPermutation
from covex.varieties import Flag

F = FieldSpec.prime()
Q = FieldSpec.rational()


def flag_to_json(flag):
    return {"n": flag.n, "generator": matrix_to_json(flag.generator)}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_matrix_roundtrip():
    m = ExactMatrix.from_rows(F, [[1, 2], [3, 4]])
    assert matrix_from_json(F, matrix_to_json(m)) == m
    q = ExactMatrix.from_rows(Q, [["1/3", 2], [0, "7/2"]])
    assert matrix_from_json(Q, matrix_to_json(q)) == q


def test_matrix_errors():
    with pytest.raises(InputError, match="row 2"):
        matrix_from_json(F, {"rows": 2, "cols": 2, "entries": [[1, 2], [3]]})
    with pytest.raises(InputError, match="scalar"):
        matrix_from_json(F, {"rows": 1, "cols": 1, "entries": [["x"]]})
    with pytest.raises(InputError, match="missing"):
        matrix_from_json(F, {"rows": 1, "entries": [[1]]})


def test_flag_validation():
    good = flag_to_json(Flag(ExactMatrix.identity(F, 3)))
    assert point_from_json(F, "flag", good).n == 3
    singular = {"n": 2, "generator": {"rows": 2, "cols": 2, "entries": [[1, 1], [1, 1]]}}
    with pytest.raises(InputError, match="singular"):
        point_from_json(F, "flag", singular)


def test_subspace_validation():
    v = coordinate_subspace(F, 4, [2, 4])
    assert point_from_json(F, "grass", subspace_to_json(v)) == v
    dependent = {
        "ambient": 3,
        "basis": {"rows": 3, "cols": 2, "entries": [[1, 2], [0, 0], [0, 0]]},
    }
    with pytest.raises(InputError, match="dependent"):
        point_from_json(F, "grass", dependent)


def test_springer_flag_invariant_named(tmp_path):
    payload = {
        "flag": flag_to_json(Flag(ExactMatrix.identity(F, 2))),
        "z": {"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0]]},
    }
    path = write_json(tmp_path, "bad.json", payload)
    with pytest.raises(InvariantError, match="F_1"):
        parse_point_file(path, "springer-flag", F)


def test_parse_point_file_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        parse_point_file(str(path), "matrix", F)
    with pytest.raises(InputError, match="cannot read"):
        parse_point_file(str(tmp_path / "missing.json"), "matrix", F)
    with pytest.raises(InputError, match="unknown point kind"):
        point_from_json(F, "mystery", {})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_ess_and_covex(capsys):
    code, out, _ = run_cli(capsys, "ess", "2143")
    assert code == 0
    assert json.loads(out)["essential"] == [{"col": 2, "rank": 0, "row": 3}]
    code, out, _ = run_cli(capsys, "covex", "2143")
    assert code == 0 and json.loads(out)["covexillary"] is True
    code, out, _ = run_cli(capsys, "covex", "3412")
    assert code == 0 and json.loads(out)["covexillary"] is False


def test_cli_tau_and_embed(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "tau", "2143")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "1 2 5 6 3 4 7 8"
    assert payload["conditions"] == [{"bound": 6, "t": 4}]
    # tau of a non-covexillary permutation is an input error
    code, _, err = run_cli(capsys, "tau", "3412")
    assert code == 2 and "essential boxes" in err

    matrix = write_json(
        tmp_path, "x.json", matrix_to_json(ExactMatrix.zeros(F, 4, 4))
    )
    code, out, _ = run_cli(capsys, "embed", "2143", matrix)
    assert code == 0
    assert json.loads(out)["in_target"] is True


def test_cli_member(capsys, tmp_path):
    matrix = write_json(
        tmp_path, "m.json", matrix_to_json(ExactMatrix.from_rows(F, [[1, 0], [1, 1]]))
    )
    code, out, _ = run_cli(capsys, "member", "matrix", matrix, "12")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["member"] is False
    assert verdict["first_violation"] == {"bound": 0, "dim": 1, "i": 2, "j": 1}
    code, out, _ = run_cli(capsys, "member", "matrix", matrix, "21")
    assert json.loads(out)["member"] is True

    flag = write_json(tmp_path, "f.json", flag_to_json(Flag(ExactMatrix.identity(F, 2))))
    code, out, _ = run_cli(capsys, "member", "flag", flag, "21")
    assert code == 0 and json.loads(out)["member"] is True

    grass = write_json(tmp_path, "g.json", subspace_to_json(coordinate_subspace(F, 4, [3, 4])))
    code, out, _ = run_cli(capsys, "member", "grass", grass, "1,3")
    assert code == 0 and json.loads(out)["member"] is False


def test_cli_conormal(capsys, tmp_path):
    w = PartialPermutation.from_one_line("2143")
    point = write_json(
        tmp_path,
        "pt.json",
        {
            "x": matrix_to_json(w.matrix(F)),
            "y": {"rows": 4, "cols": 4, "entries": [[0, 0, 1, 0]] + [[0] * 4] * 3},
        },
    )
    code, out, _ = run_cli(capsys, "conormal", "member", "matrix", point, "--w", "2 1 4 3")
    assert code == 0 and json.loads(out)["member"] is True

    matrix = write_json(tmp_path, "w.json", matrix_to_json(w.matrix(F)))
    code, out, _ = run_cli(capsys, "conormal", "fiber", "matrix", matrix, "--w", "2 1 4 3")
    assert code == 0
    assert json.loads(out)["dimension"] == 4

    grass_point = write_json(
        tmp_path,
        "gp.json",
        {
            "V": subspace_to_json(coordinate_subspace(F, 4, [1, 3])),
            "x": {"rows": 4, "cols": 4, "entries": [[0, 0, 0, 1]] + [[0] * 4] * 3},
        },
    )
    code, out, _ = run_cli(
        capsys, "conormal", "member", "grass", grass_point, "--conditions", "2:1"
    )
    assert code == 0 and json.loads(out)["member"] is True


def test_cli_kl(capsys):
    code, out, _ = run_cli(capsys, "kl", "1234", "3412")
    assert code == 0
    assert json.loads(out) == {"coefficients": [1, 1], "text": "1 + q"}
    code, out, _ = run_cli(capsys, "kl", "covex-check", "213")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(line["matched"] for line in lines)


def test_cli_schubert(capsys):
    code, out, _ = run_cli(capsys, "schubert", "double", "21")
    assert code == 0 and json.loads(out)["text"] == "-y1 + x1"
    code, out, _ = run_cli(capsys, "schubert", "localize", "12")
    assert code == 0 and "t_polynomial" in json.loads(out)
    code, out, _ = run_cli(capsys, "schubert", "verify", "132")
    assert code == 0 and json.loads(out)["matched"] is True


def test_cli_verify(capsys):
    code, out, err = run_cli(capsys, "verify", "multidegree", "--nmax", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(line["passed"] for line in lines)
    assert "cases passed" in err

    code, _, err = run_cli(capsys, "verify", "unknown-suite")
    assert code == 2 and "unknown suite" in err

    code, _, err = run_cli(capsys, "verify", "conormal-matrix", "--trials", "0")
    assert code == 2 and "trials" in err


def test_cli_field_flag(capsys, tmp_path):
    matrix = write_json(
        tmp_path,
        "q.json",
        {"rows": 1, "cols": 1, "entries": [["1/2"]]},
    )
    code, out, _ = run_cli(capsys, "--field", "Q", "member", "matrix", matrix, "1")
    assert code == 0 and json.loads(out)["member"] is True
    code, _, err = run_cli(capsys, "--field", "p:9", "ess", "21")
    assert code == 2


def test_suite_reports_are_deterministic():
    from covex.suites import SuiteConfig, run_suite

    def render(seed):
        verdicts = run_suite(SuiteConfig("conormal-matrix", n_max=2, trials=3, seed=seed))
        return "\n".join(
            json.dumps(
                {"case": v.case, "details": v.details, "passed": v.passed}, sort_keys=True
            )
            for v in verdicts
        )

    assert render(7) == render(7)


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_bad_compact_permutation(capsys):
    assert_one_error_line(*run_cli(capsys, "ess", "2a43"))


def test_cli_unparsable_field_modulus(capsys):
    assert_one_error_line(*run_cli(capsys, "--field", "p:abc", "ess", "2143"))


def test_cli_grass_fiber_is_an_input_error(capsys, tmp_path):
    matrix = write_json(tmp_path, "x.json", matrix_to_json(ExactMatrix.identity(F, 4)))
    code, out, err = run_cli(capsys, "conormal", "fiber", "grass", matrix, "--w", "2143")
    assert_one_error_line(code, out, err)
    assert "grass" in err


def test_cli_grass_conormal_with_w_requires_a_point_of_gr_n_2n(capsys, tmp_path):
    """V = E_2 in F^4 is a point of Gr(2, 4); --w of size n asks for Gr(n, 2n)."""
    zero = {"rows": 4, "cols": 4, "entries": [[0] * 4] * 4}
    point = write_json(
        tmp_path, "gp.json", {"V": subspace_to_json(coordinate_subspace(F, 4, [1, 2])), "x": zero}
    )
    for w in ("0", "0 1 0"):
        code, out, err = run_cli(capsys, "conormal", "member", "grass", point, "--w", w)
        assert_one_error_line(code, out, err)
        assert "does not live in Gr(n, 2n)" in err
    # at n = 2, E_2 is the image of the zero matrix, on the zero section
    code, out, _ = run_cli(capsys, "conormal", "member", "grass", point, "--w", "0 1")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run_cli(capsys, "conormal", "member", "grass", point, "--conditions", "2:0")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, err = run_cli(capsys, "conormal", "member", "grass", point, "--conditions", "5:0")
    assert_one_error_line(code, out, err)
    assert "0..4" in err


def test_cli_conormal_matrix_requires_w(capsys, tmp_path):
    zero = matrix_to_json(ExactMatrix.zeros(F, 2, 2))
    point = write_json(tmp_path, "pt.json", {"x": zero, "y": zero})
    assert_one_error_line(*run_cli(capsys, "conormal", "member", "matrix", point))


def test_cli_flag_fiber_requires_a_permutation_and_a_cell_point(capsys, tmp_path):
    """A partial --w or a singular G has no flag fiber: exit 2, one error line."""
    cases = [
        ([[0, 0], [0, 0]], "0 0", "requires a permutation"),
        ([[0, 0], [1, 0]], "2 0", "requires a permutation"),
        ([[0, 0], [1, 0]], "2 1", "open cell"),
    ]
    for entries, w, message in cases:
        g = write_json(tmp_path, "g.json", matrix_to_json(ExactMatrix.from_rows(F, entries)))
        code, out, err = run_cli(capsys, "conormal", "fiber", "flag", g, "--w", w)
        assert_one_error_line(code, out, err)
        assert message in err
    g = write_json(tmp_path, "g.json", matrix_to_json(ExactMatrix.from_rows(F, [[0, 1], [1, 0]])))
    code, out, _ = run_cli(capsys, "conormal", "fiber", "flag", g, "--w", "2 1")
    assert code == 0 and json.loads(out)["dimension"] == 0


def test_matrix_from_json_rejects_bad_shapes():
    with pytest.raises(InputError, match="rows"):
        matrix_from_json(F, {"rows": 0, "cols": 3, "entries": []})
    with pytest.raises(InputError, match="cols"):
        matrix_from_json(F, {"rows": 1, "cols": -1, "entries": [[]]})
    # a basis with no columns is the zero subspace and stays valid
    assert matrix_from_json(F, {"rows": 2, "cols": 0, "entries": [[], []]}).shape == (2, 0)


def test_cli_large_prime_modulus_is_fast(capsys):
    # trial division used to hang on a 25-digit prime
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--field", "p:1000000000000000000000007", "ess", "2143")
    assert code == 0 and out
    assert time.perf_counter() - start < 1.0


def test_cli_modulus_beyond_the_primality_range(capsys):
    code, out, err = run_cli(capsys, "--field", f"p:{2**89 - 1}", "ess", "2143")
    assert_one_error_line(code, out, err)
    assert "too large" in err


def _refuse_tables(monkeypatch, above=0):
    """Make building an S_N KL table with N > above fail loudly."""
    build = kl.SymmetricGroupTable.__init__

    def refuse(self, N):
        if N > above:
            raise AssertionError(f"an S_{N} KL table was about to be built")
        build(self, N)

    monkeypatch.setattr(kl.SymmetricGroupTable, "__init__", refuse)
    monkeypatch.setattr(kl, "_TABLES", {})


def test_cli_kl_covex_refuses_n_max_8_before_building_a_table(capsys, monkeypatch):
    _refuse_tables(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "kl-covex", "--nmax", "8")
    assert_one_error_line(code, out, err)
    assert "kl-covex" in err


def test_cli_kl_covex_check_refuses_n_8_before_building_a_table(capsys, monkeypatch):
    _refuse_tables(monkeypatch)
    code, out, err = run_cli(capsys, "kl", "covex-check", "25314768")
    assert_one_error_line(code, out, err)
    assert "kl-covex" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("schubert", "double", "87654321"),
        ("schubert", "verify", "21345678"),
        ("verify", "multidegree", "--nmax", "7"),
    ],
)
def test_cli_refuses_double_schubert_beyond_n_7_before_expanding(capsys, monkeypatch, argv):
    def refuse(image):
        raise AssertionError(f"a double Schubert polynomial in S_{len(image)} was expanded")

    monkeypatch.setattr(equivariant, "_double_schubert_cached", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert "limited to n <=" in err
    assert time.perf_counter() - start < 1.0


# the largest --nmax each suite accepts
SUITE_LIMITS = {
    "covex-equiv": 9,
    "el-roundtrip": 20,
    "embed-thm": 7,
    "rank-lemma": 8,
    "conormal-matrix": 7,
    "conormal-flag": 7,
    "conormal-grass": 7,
    "diagram-chase": 7,
    "kl-covex": 7,
    "multidegree": 6,
}


@pytest.mark.parametrize("suite", list(SUITE_LIMITS))
def test_cli_refuses_partial_permutation_enumeration_beyond_n_7(capsys, monkeypatch, suite):
    """Every suite refuses --nmax past its limit before it enumerates or draws
    anything (1.44 M partial permutations at n = 8), and accepts its limit."""

    def refuse(n, *_):
        raise AssertionError(f"{suite} started its cases (argument {n!r})")

    for name in ("all_partial_permutations", "all_permutations", "_rng"):
        monkeypatch.setattr(suites, name, refuse)
    limit = SUITE_LIMITS[suite]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", suite, "--nmax", str(limit + 1))
    assert_one_error_line(code, out, err)
    assert "Traceback" not in err
    assert f"{suite} is limited to n <= {limit}; got n = {limit + 1}" in err
    assert time.perf_counter() - start < 1.0
    assert suites.SuiteConfig(suite, n_max=limit).resolved().n_max == limit


def _cap_address_space():
    # a regression would expand a 484,912-term polynomial; fail fast instead
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


@pytest.mark.parametrize("action", ["localize", "verify"])
def test_cli_schubert_refuses_n_7_without_traceback(action):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "covex.cli", "schubert", action, "1234567"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        preexec_fn=_cap_address_space,
    )
    assert "Traceback" not in proc.stderr
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert "multidegree is limited to n <= 6" in proc.stderr


def test_cli_fraction_with_denominator_divisible_by_p(capsys, tmp_path):
    matrix = write_json(tmp_path, "x.json", {"rows": 1, "cols": 1, "entries": [["-3/7"]]})
    code, out, err = run_cli(capsys, "--field", "p:7", "embed", "1", matrix)
    assert_one_error_line(code, out, err)
    assert "denominator" in err


def test_cli_kl_refuses_s_10_before_building_a_table(capsys, monkeypatch):
    _refuse_tables(monkeypatch)
    code, out, err = run_cli(
        capsys, "kl", "1 2 3 4 5 6 7 8 9 10", "10 9 8 7 6 5 4 3 2 1"
    )
    assert_one_error_line(code, out, err)
    assert "S_10" in err


def test_cli_kl_covex_check_builds_only_the_flag_side_table(capsys, monkeypatch):
    # the Grassmannian side runs on 5-subsets of 1..10, not inside S_10
    _refuse_tables(monkeypatch, above=5)
    code, out, err = run_cli(capsys, "kl", "covex-check", "25314")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and lines and all(line["matched"] for line in lines)
    assert err == f"{len(lines)} pairs, 0 mismatches\n"


def test_import_cli_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import sys, covex.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_closed_stdout_pipe_exits_2_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "covex.cli", "verify", "covex-equiv", "--nmax", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()  # like `| head -1`: the reader goes away
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert json.loads(first)["suite"] == "covex-equiv"
    assert "Traceback" not in err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: output pipe closed"
    ]
