"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. The query generator's expected answers agree with a hand-checked fixture
   (the one in tests/test_varieties.py): for w = 12 a matrix lies in the
   matrix Schubert variety exactly when x_21 = 0, and the longest element
   21 contains every matrix.
2. The closed-form conormal fibers the generator uses lie in the fibers the
   package's linear-system oracles solve for, for every covexillary w with
   n <= 3.
3. Every workload runs end to end at tiny scale (n <= 2, a few dozen
   queries), untraced and traced, and prints every metric of BENCHMARK.json
   by name with its unit and a correct, failure-free result line.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import queries  # noqa: E402


def partial_permutations(n: int):
    for image in itertools.product(range(n + 1), repeat=n):
        rows = [v for v in image if v]
        if len(rows) == len(set(rows)):
            yield image


def check_fixture() -> None:
    gen = queries.QueryGenerator(0, covexillary=None, embedding=None)
    rng = random.Random(0)
    us = list(partial_permutations(2))
    assert len(us) == 7, us
    for u in us:
        for field in ("p", "Q"):
            for _ in range(20):
                _, x, _ = gen.cell(u, field, rng)
                expected = queries.bruhat_leq(u, (1, 2))
                assert expected == (x[1][0] == 0), (u, field, x)
                assert queries.bruhat_leq(u, (2, 1)), u
    print("fixture: w = 12 is exactly x_21 = 0, w = 21 holds every matrix")


def check_fibers() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from covex.conormal import conormal_fiber_flag, conormal_fiber_matrix
    from covex.exactla import ExactMatrix, FieldSpec
    from covex.permcore import PartialPermutation, is_covexillary

    field = FieldSpec.prime(queries.PRIME)
    p = queries.PRIME
    gen = queries.QueryGenerator(0, covexillary=None, embedding=None)
    rng = random.Random(1)
    checked = 0
    for n in (1, 2, 3):
        for w in partial_permutations(n):
            pw = PartialPermutation(n, w)
            if not is_covexillary(pw):
                continue
            b_l, x, b_r = gen.cell(w, "p", rng)
            y0 = queries.combination(n, queries.matrix_fiber_support(w), "p", rng)
            y = queries.matmul(
                queries.matmul(queries.upper_inverse(b_r, p), y0, p),
                queries.upper_inverse(b_l, p),
                p,
            )
            fiber = conormal_fiber_matrix(ExactMatrix.from_rows(field, x), pw)
            assert fiber.dim == len(queries.matrix_fiber_support(w)), w
            assert fiber.contains_vector([v for row in y for v in row]), w
            checked += 1
            if not all(w):
                continue
            b_l, g, _ = gen.cell(w, "p", rng)
            z0 = queries.combination(n, queries.flag_fiber_support(w), "p", rng)
            z = queries.matmul(queries.matmul(b_l, z0, p), queries.upper_inverse(b_l, p), p)
            _, zfiber = conormal_fiber_flag(ExactMatrix.from_rows(field, g), pw)
            assert zfiber.dim == len(queries.flag_fiber_support(w)), w
            assert zfiber.contains_vector([v for row in z for v in row]), w
            checked += 1
    print(f"fibers: {checked} closed-form fibers match the package oracles")


def check_runs() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                                  env=os.environ)
            assert proc.returncode == 0, (argv, proc.stderr[-2000:])
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, lines[:-1]
            assert result["attempted"] >= 1
            assert {m: v["unit"] for m, v in result["metrics"].items()} == {
                m["name"]: m["unit"] for m in declared
            }
            for m in declared:
                assert any(
                    line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                    for line in lines[:-1]
                ), f"{workload}: {m['name']} not printed with unit {m['unit']}"
            print(f"run: {workload} trace={trace}: {result['attempted']} operations, "
                  f"{len(declared)} metrics printed with units")


def main() -> None:
    if not Path("src/covex/cli.py").is_file():
        raise SystemExit("run from the root of a covex checkout")
    check_fixture()
    check_fibers()
    check_runs()
    print("selftest ok")


if __name__ == "__main__":
    main()
