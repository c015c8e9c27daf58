"""File formats, invariant-checking parsers, and the CLI surface."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from covex import cli, equivariant, kl, suites
from covex.cli import main
from covex.errors import InputError, InvariantError
from covex.exactla import ExactMatrix, FieldSpec, coordinate_subspace
from covex.serialization import (
    matrix_from_json,
    matrix_to_json,
    parse_point_file,
    point_from_json,
    scalar_to_json,
    subspace_to_json,
)
from covex.permcore import PartialPermutation, all_permutations, diagram
from covex.varieties import Flag
from scale import sized

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


GRASS_POINT = "tests/golden/springer_cell.json"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["member", "grass", "tests/golden/grass_random.json", "1 a 3"], "bad index positions"),
        (["conormal", "member", "grass", GRASS_POINT], "provide --w or --conditions"),
        (["conormal", "member", "grass", GRASS_POINT, "--conditions", "2:1,x"], "bad condition 'x'"),
        (["conormal", "member", "grass", GRASS_POINT, "--conditions", "2:1,4"], "bad condition '4'"),
        (["kl", "covex-check", "2143", "1234"], "usage: kl covex-check <w>"),
        (["--field", "Q", "verify", "embed-thm", "--nmax", "1"], "run over a prime field"),
        (["verify", "embed-thm", "--nmax", "0"], "n_max must be at least 1"),
    ],
    ids=[
        "bad-positions",
        "grass-without-conditions",
        "bad-condition",
        "condition-without-colon",
        "covex-check-two-args",
        "verify-over-q",
        "verify-nmax-0",
    ],
)
def test_cli_input_errors(capsys, monkeypatch, argv, message):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert message in err


IDENTITY_2 = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}
E1_IN_F2 = {"rows": 2, "cols": 1, "entries": [[1], [0]]}


@pytest.mark.parametrize(
    "field, command, payload",
    [
        ("p:\u00b2", ["ess", "21"], None),  # a superscript two, a digit to str.isdigit
        ("p:" + "7" * 5000, ["ess", "21"], None),  # past int()'s 4,300-digit limit
        ("p:10007", ["member", "grass", "POINT", "1"], {"ambient": "abc", "basis": E1_IN_F2}),
        ("p:10007", ["member", "grass", "POINT", "1"], {"ambient": 2.7, "basis": E1_IN_F2}),
        ("p:10007", ["member", "flag", "POINT", "21"], {"n": [2], "generator": IDENTITY_2}),
    ],
    ids=["superscript-digit", "5000-digits", "ambient-text", "ambient-float", "n-list"],
)
def test_cli_malformed_field_and_point_sizes(capsys, tmp_path, field, command, payload):
    """A modulus or a point size that is not a plain integer is bad input."""
    if payload is not None:
        path = write_json(tmp_path, "point.json", payload)
        command = [path if a == "POINT" else a for a in command]
    assert_one_error_line(*run_cli(capsys, "--field", field, *command))


ZERO_3 = {"rows": 3, "cols": 3, "entries": [[0] * 3] * 3}
E12_IN_F3 = {"rows": 3, "cols": 2, "entries": [[1, 0], [0, 1], [0, 0]]}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (["member", "matrix", "POINT", "1"], {"rows": 1, "cols": 1, "entries": [[True]]},
         "bad scalar True: expected integer or 'a/b'"),
        (["member", "matrix", "POINT", "1"], {"rows": 1, "cols": 1, "entries": [[1.5]]},
         "bad scalar 1.5: expected integer or 'a/b'"),
        (["member", "matrix", "POINT", "1"], {"rows": 1, "cols": 1, "entries": [[None]]},
         "bad scalar None: expected integer or 'a/b'"),
        (["member", "matrix", "POINT", "12"], [[1, 0], [0, 1]],
         "matrix: expected an object with rows/cols/entries"),
        (["member", "matrix", "POINT", "12"], {"rows": 2, "cols": 2, "entries": [[1, 0]]},
         "matrix: entries must be a list of 2 rows"),
        (["member", "grass", "POINT", "1"], {"ambient": 2},
         "subspace: expected an object with ambient and basis"),
        (["member", "grass", "POINT", "1"], {"ambient": 3, "basis": E1_IN_F2},
         "subspace: basis rows differ from ambient dimension"),
        (["member", "flag", "POINT", "12"], {"n": 2},
         "flag: expected an object with a generator matrix"),
        (["member", "flag", "POINT", "12"], {"generator": E1_IN_F2},
         "flag: generator must be square"),
        (["member", "flag", "POINT", "12"], {"n": 3, "generator": IDENTITY_2},
         "flag: declared n differs from generator size"),
        (["conormal", "member", "matrix", "POINT", "--w", "12"], {"x": IDENTITY_2, "y": ZERO_3},
         "x and y must be square of equal size"),
        (["conormal", "member", "flag", "POINT", "--w", "12"],
         {"flag": {"generator": IDENTITY_2}, "z": ZERO_3}, "z size differs from flag size"),
        (["conormal", "member", "grass", "POINT", "--conditions", "1:0"],
         {"V": {"ambient": 2, "basis": E1_IN_F2}, "x": ZERO_3},
         "x size differs from ambient dimension"),
        (["conormal", "fiber", "matrix", "POINT", "--w", "12"], ZERO_3,
         "matrix size differs from permutation size"),
        (["member", "grass", "POINT", "1 2"], {"ambient": 2, "basis": E1_IN_F2},
         "index length differs from d"),
        (["member", "grass", "POINT", "2 1"], {"ambient": 3, "basis": E12_IN_F3},
         "positions must strictly increase within 1..3"),
        (["member", "flag", "POINT", "2 0"], {"generator": IDENTITY_2},
         "flag Schubert membership requires a permutation"),
    ],
    ids=[
        "entry-true",
        "entry-float",
        "entry-null",
        "matrix-not-an-object",
        "entries-short",
        "subspace-without-basis",
        "basis-rows-not-ambient",
        "flag-without-generator",
        "generator-not-square",
        "declared-n-differs",
        "cotangent-shapes",
        "springer-flag-z-size",
        "springer-grass-x-size",
        "fiber-matrix-size",
        "grass-index-length",
        "grass-index-order",
        "flag-partial-w",
    ],
)
def test_cli_refused_point_files_print_their_message(capsys, tmp_path, command, payload, message):
    """A point file the parsers refuse, or a point of the wrong shape for
    its command, exits 2 with the message as its one line of stderr, and
    no traceback."""
    path = write_json(tmp_path, "point.json", payload)
    code, out, err = run_cli(capsys, *[path if a == "POINT" else a for a in command])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_springer_grass_file_outside_its_invariant_is_bad_input(capsys, tmp_path):
    """Im(x) not inside V breaks SpringerGrassPoint's invariant while the
    file is read: bad input, exit 2, although an InvariantError raised
    anywhere else is a broken internal check and exits 3."""
    x = {"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0]]}
    path = write_json(tmp_path, "springer.json", {"V": {"ambient": 2, "basis": E1_IN_F2}, "x": x})
    code, out, err = run_cli(capsys, "conormal", "member", "grass", path, "--conditions", "1:0")
    assert_one_error_line(code, out, err)
    assert "Im(x) is not contained in V" in err


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


def test_matrix_from_json_refuses_more_than_128_rows_or_columns():
    for rows, cols in ((129, 1), (1, 129)):
        with pytest.raises(InputError, match="at most 128"):
            matrix_from_json(F, {"rows": rows, "cols": cols, "entries": []})
    square = [[0] * 128 for _ in range(128)]
    assert matrix_from_json(F, {"rows": 128, "cols": 128, "entries": square}).shape == (128, 128)


@pytest.mark.parametrize("command", ["ess", "covex", "tau"])
def test_cli_refuses_a_permutation_beyond_n_64(capsys, command):
    """n = 65 is refused before any n x n table is built; n = 64 runs."""
    identity = list(map(str, range(1, 66)))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, " ".join(identity))
    assert_one_error_line(code, out, err)
    assert "limited to n <= 64; got n = 65" in err
    assert time.perf_counter() - start < 1.0
    code, out, _ = run_cli(capsys, command, " ".join(identity[:-1]))
    assert code == 0 and json.loads(out)


def test_cli_refuses_a_conormal_fiber_beyond_n_32(capsys, tmp_path):
    """n = 33 is refused before the point is read; n = 32 answers, at w0
    and at golden/fiber_cell_32.json, b_l w b_r over F_10007 for the w
    below, whose fiber has dimension |D(w)| = 196."""
    zero = write_json(tmp_path, "x.json", matrix_to_json(ExactMatrix.zeros(F, 33, 33)))
    code, out, err = run_cli(capsys, "conormal", "fiber", "matrix", zero, "--w", "0 " * 33)
    assert_one_error_line(code, out, err)
    assert "conormal fibers are limited to n <= 32; got n = 33" in err
    w0 = PartialPermutation.longest(32)
    point = write_json(tmp_path, "w0.json", matrix_to_json(w0.matrix(F)))
    code, out, _ = run_cli(capsys, "conormal", "fiber", "matrix", point, "--w", w0.one_line())
    assert code == 0 and json.loads(out) == {"dimension": 0, "basis": []}
    w = "29 14 22 31 19 18 15 26 13 12 3 9 24 28 6 25 20 27 21 17 11 4 2 1 16 8 23 10 32 7 30 5"
    point = str(Path(__file__).parent / "golden" / "fiber_cell_32.json")
    code, out, _ = run_cli(capsys, "conormal", "fiber", "matrix", point, "--w", w)
    assert code == 0
    assert json.loads(out)["dimension"] == 196 == len(diagram(PartialPermutation.from_one_line(w)))


def test_cli_refuses_more_grass_conditions_than_the_ambient_dimension(capsys, tmp_path):
    V = coordinate_subspace(F, 2, [1])
    x = ExactMatrix.from_rows(F, [[0, 1], [0, 0]])
    point = write_json(tmp_path, "p.json", {"V": subspace_to_json(V), "x": matrix_to_json(x)})
    code, out, _ = run_cli(capsys, "conormal", "member", "grass", point, "--conditions", "1:0,1:0")
    assert code == 0 and json.loads(out)["member"] is True
    code, out, err = run_cli(
        capsys, "conormal", "member", "grass", point, "--conditions", ",".join(["1:0"] * 3000)
    )
    assert_one_error_line(code, out, err)
    assert "at most 2 conditions in Gr(d, 2); got 3000" in err


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
    "rank-lemma": 7,
    "conormal-matrix": 7,
    "conormal-flag": 7,
    "conormal-grass": 6,  # n = 7, one members call at each of 49,626 w, takes 3-4 min
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

    for name in ("all_partial_permutations", "all_permutations", "_rng", "OrbitTable"):
        monkeypatch.setattr(suites, name, refuse)
    limit = SUITE_LIMITS[suite]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", suite, "--nmax", str(limit + 1))
    assert_one_error_line(code, out, err)
    assert "Traceback" not in err
    assert f"{suite} is limited to n <= {limit}; got n = {limit + 1}" in err
    assert time.perf_counter() - start < 1.0
    assert suites.SuiteConfig(suite, n_max=limit).resolved().n_max == limit


def test_cli_refuses_trials_past_the_cap(capsys, monkeypatch):
    """--trials past MAX_TRIALS exits 2 before any case runs; the cap itself
    is accepted."""

    def refuse(*_):
        raise AssertionError("el-roundtrip started its cases")

    for name in ("all_partial_permutations", "_rng"):
        monkeypatch.setattr(suites, name, refuse)
    cap = suites.MAX_TRIALS
    assert cap >= 1000
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "el-roundtrip", "--trials", str(cap + 1))
    assert_one_error_line(code, out, err)
    assert f"trials is limited to {cap:,}; got {cap + 1}" in err
    assert time.perf_counter() - start < 1.0
    assert suites.SuiteConfig("el-roundtrip", trials=cap).resolved().trials == cap


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


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"\xff\xfe{", "not UTF-8 text"),
        (b"[" * 200_000, "nested too deeply"),
        (b'{"rows": 1, "cols": 1, "entries": [[' + b"7" * 4_301 + b"]]}", "more than"),
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_cli_point_file_that_is_not_json_is_bad_input(tmp_path, payload, message):
    """Bytes that are not UTF-8, nesting past the recursion limit and an
    integer literal past the interpreter's digit limit each make json
    fail with an exception that is not JSONDecodeError.  In a fresh
    process, as a user runs it: exit 2, one error line, no traceback."""
    path = tmp_path / "point.json"
    path.write_bytes(payload)
    proc = subprocess.run(
        [sys.executable, "-m", "covex.cli", "member", "matrix", str(path), "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        timeout=60,
    )
    assert "Traceback" not in proc.stderr
    assert_one_error_line(proc.returncode, proc.stdout, proc.stderr)
    assert message in proc.stderr


def reference_double_payload(poly) -> str:
    """What `schubert double` printed in one piece: the payload built whole,
    its text by joining every term with " + " and reading "+ -" as "- "."""
    parts = []
    for exps, c in poly.terms:
        mono = "*".join(
            (name if e == 1 else f"{name}^{e}") for name, e in zip(poly.variables, exps) if e
        )
        if not mono:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(mono if c == 1 else f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    text = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    payload = {
        "variables": list(poly.variables),
        "monomials": [{"exponents": list(exps), "coeff": c} for exps, c in poly.terms],
        "text": text,
    }
    return json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("chunk", [1, cli._TERMS_PER_CHUNK])
def test_cli_schubert_double_streams_the_whole_payload(capsys, monkeypatch, chunk):
    """`schubert double` writes its JSON a chunk of terms at a time; stdout
    is byte-identical to the payload printed whole, for every w in S_5 and
    at chunks of one term, which split every polynomial with more."""
    monkeypatch.setattr(cli, "_TERMS_PER_CHUNK", chunk)
    for w in all_permutations(5):
        code, out, _ = run_cli(capsys, "schubert", "double", w.one_line())
        assert code == 0
        assert out == reference_double_payload(equivariant.double_schubert(w)), w


# sha256 of the stdout of `schubert double`, recorded from the whole-payload print
DOUBLE_SCHUBERT_DIGESTS = sized(
    {"654321": "955347752caddebeb8e6daa5529df12b77dc938a7413c5f19061f8c04430cd8e"},
    {"7654321": "8b128e3a8086f42108a0cfc01fa0b36960a18c673791352069eb9cb6e730366b"},
)


# Runs argv with stdin from /dev/null and stderr to /dev/null, then prints
# its peak RSS in KB to stderr and exits with its code.  A child's ru_maxrss
# counts the memory of the process it was forked from, so the CLI is started
# from this small process and not from the test process, which can be larger
# than the bound.
_PEAK_RSS_LAUNCHER = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], stdin=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("w", sorted(DOUBLE_SCHUBERT_DIGESTS))
def test_cli_schubert_double_in_a_fresh_process_stays_under_220_mb(w):
    """The largest double Schubert polynomial the CLI prints, 7654321 at CI
    scale (about 55 MB of JSON), in a fresh process: the same bytes as the
    whole-payload print, a peak RSS of at most 220 MB and at most 11 s of
    wall time.  Building the polynomial alone peaks near 180 MB."""
    digest = hashlib.sha256()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER]
        + [sys.executable, "-m", "covex.cli", "schubert", "double", w],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
    )
    with proc.stdout:
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
    with proc.stderr:
        peak_kb = int(proc.stderr.read())
    proc.wait()
    wall = time.perf_counter() - start
    assert proc.returncode == 0
    assert digest.hexdigest() == DOUBLE_SCHUBERT_DIGESTS[w]
    assert peak_kb / 1024 <= 220, peak_kb
    assert wall <= 11, wall


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


def test_import_cli_loads_no_numpy_dataclasses_or_inspect():
    """The startup floor of every covex invocation: `import dataclasses`
    alone loads inspect, ast, dis and tokenize, and numpy far more."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = (
        "import sys, covex.cli; "
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Run in a fresh interpreter from golden/: every F_p query kind and every
# suite, then the one rational query of cli_stdout.json.  Prints, as JSON
# lines, each run's exit code and stdout, then the rational modules loaded.
F_P_PROBE = """
import contextlib, io, json, sys
import covex.cli
from covex.suites import SUITE_NAMES
runs = [
    ["member", "matrix", "embed_cell.json", "0 1 3 0"],
    ["embed", "0 1 3 0", "embed_cell.json"],
    ["conormal", "member", "grass", "springer_cell.json", "--w", "2 0 3 1"],
    ["conormal", "member", "flag", "springer_flag_cell.json", "--w", "3142"],
    *(["verify", suite, "--nmax", "3"] for suite in SUITE_NAMES),
    json.loads(sys.argv[1]),
]
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = covex.cli.main(argv)
    loaded = [name for name in ("fractions", "decimal", "numbers") if name in sys.modules]
    print(json.dumps([argv, code, out.getvalue(), loaded]))
"""


def test_f_p_commands_and_suites_never_load_fractions():
    """Over F_p no scalar is rational: `import covex.cli`, the F_p member,
    embed and conormal queries and every suite leave fractions, decimal and
    numbers unloaded.  A `--field Q` query loads fractions on its first
    rational and prints its pinned stdout."""
    golden = Path(__file__).parent / "golden"
    rational = json.loads((golden / "cli_stdout.json").read_text())["member_grass_rational"]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run(
        [sys.executable, "-c", F_P_PROBE, json.dumps(rational["argv"])],
        capture_output=True,
        text=True,
        cwd=golden,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *f_p_runs, (argv, code, out, loaded) = map(json.loads, proc.stdout.splitlines())
    assert len(f_p_runs) == 4 + len(suites.SUITE_NAMES)
    for f_p_argv, f_p_code, f_p_out, f_p_loaded in f_p_runs:
        assert (f_p_code, f_p_loaded) == (0, []), f_p_argv
        assert f_p_out, f_p_argv
    assert argv == rational["argv"]
    assert (code, out) == (rational["exit"], rational["stdout"])
    assert "fractions" in loaded


@pytest.mark.parametrize(
    "call, printed",
    [
        ("FieldSpec.prime().coerce('1/3')", "3336"),
        ("FieldSpec.prime().coerce(2.5)", "5006"),
        ("scalar_from_json(FieldSpec.rational(), '2/4')", "Fraction(1, 2)"),
    ],
)
def test_the_first_rational_scalar_imports_fractions(call, printed):
    """FieldSpec.coerce and scalar_from_json load fractions (through
    exactla._fraction_class) only in the branch that reads a rational; run
    in a fresh interpreter, the call is the one that imports it."""
    probe = (
        "import sys\n"
        "from covex.exactla import FieldSpec\n"
        "from covex.serialization import scalar_from_json\n"
        "before = 'fractions' in sys.modules\n"
        f"print(repr({call}), before, 'fractions' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{printed} False True\n"


def test_scalar_to_json_reads_ints_and_rationals():
    assert scalar_to_json(7) == 7 and type(scalar_to_json(7)) is int
    assert scalar_to_json(True) == 1 and type(scalar_to_json(True)) is int
    assert scalar_to_json(-12) == -12
    assert scalar_to_json(Fraction(4, 2)) == 2 and type(scalar_to_json(Fraction(4, 2))) is int
    assert scalar_to_json(Fraction(-1, 3)) == "-1/3"


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
