"""Seeded query stream for the member-query workload.

Every query is one ``covex`` CLI invocation with a freshly drawn ``w`` and a
freshly drawn point, and its answer is known by construction:

* ``member matrix|flag`` and ``embed``: the point lies in the open B x B
  orbit (or flag cell) of a drawn ``u``, so it lies in the Schubert variety
  of ``w`` exactly when ``u <= w``, which is rank-matrix dominance.
* ``member grass``: the point is the tau-permuted graph of such a matrix and
  the index is the target of ``w``; by the embedding theorem the answer is
  again ``u <= w``.
* ``conormal member matrix|flag|grass``: the covector is a random vector of
  the conormal fiber over a cell point of ``w`` (pushed through the graph
  embedding and Springer coordinates for ``grass``), so the answer is true.

The fibers come from their closed form at a permutation matrix, moved to the
cell point by the Borel elements that produced it, so no elimination runs
here.  Rank matrices, Bruhat order and all matrix arithmetic are computed in
this file; the package supplies only ``is_covexillary``, ``tau`` and the
target index of ``w``.

The mix is stratified: every block holds each (kind, n, field) cell once, a
quarter of them over Q, and the blocks are shuffled together.  Only ``w``,
``u`` and the points are random, so tail percentiles compare across seeds.

Run as a script it writes the point files and ``queries.json`` into a
directory:  python3 perfbench/queries.py --seed 1 --out DIR [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

PRIME = 10007
KINDS = (
    "member-matrix",
    "member-flag",
    "member-grass",
    "embed",
    "conormal-matrix",
    "conormal-flag",
    "conormal-grass",
)
FIELDS = ("p", "p", "p", "Q")  # one query in four runs over the rationals
SCALES = {
    # scale: (sizes n, number of blocks of len(KINDS) * len(n) * len(FIELDS))
    "full": ((4, 5, 6, 7, 8), 15),
    "tiny": ((2,), 1),
}


# ---------------------------------------------------------------- combinatorics
# A partial permutation is its tuple of column images: image[j-1] is the row
# of the dot in column j, or 0 for an empty column (the package's convention).


def rank_matrix(image: tuple[int, ...]) -> list[list[int]]:
    """r[i-1][j-1] = number of dots in rows i..n and columns 1..j."""
    n = len(image)
    return [
        [sum(1 for c in range(j) if image[c] >= i) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def bruhat_leq(u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """u <= w iff the rank matrix of u is entrywise at most that of w."""
    ru, rw = rank_matrix(u), rank_matrix(w)
    return all(a <= b for row_u, row_w in zip(ru, rw) for a, b in zip(row_u, row_w))


def random_partial(n: int, rng: random.Random) -> tuple[int, ...]:
    rows = list(range(1, n + 1))
    rng.shuffle(rows)
    return tuple(r if rng.random() < 0.75 else 0 for r in rows)


def random_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    rows = list(range(1, n + 1))
    rng.shuffle(rows)
    return tuple(rows)


def below_partial(w: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Drop up to two dots of w; fewer dots never raise a rank count."""
    image = list(w)
    dots = [j for j, v in enumerate(image) if v]
    for j in rng.sample(dots, min(len(dots), rng.randrange(3))):
        image[j] = 0
    return tuple(image)


def below_perm(w: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Undo up to two inversions of w by transpositions, going down in Bruhat order."""
    image = list(w)
    for _ in range(rng.randrange(3)):
        inversions = [
            (i, j)
            for i in range(len(image))
            for j in range(i + 1, len(image))
            if image[i] > image[j]
        ]
        if not inversions:
            break
        i, j = rng.choice(inversions)
        image[i], image[j] = image[j], image[i]
    return tuple(image)


def one_line(image: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in image)


# ---------------------------------------------------------------- exact matrices
# Matrices are lists of int rows.  Over F_p entries are reduced mod PRIME; over
# Q the Borel elements have diagonal +-1, so every inverse stays integral.


def matmul(a: list[list[int]], b: list[list[int]], p: int | None) -> list[list[int]]:
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[v % p for v in row] for row in out] if p else out


def perm_matrix(image: tuple[int, ...]) -> list[list[int]]:
    n = len(image)
    m = [[0] * n for _ in range(n)]
    for col, row in enumerate(image):
        if row:
            m[row - 1][col] = 1
    return m


def identity(n: int) -> list[list[int]]:
    return perm_matrix(tuple(range(1, n + 1)))


def random_borel(n: int, p: int | None, rng: random.Random) -> list[list[int]]:
    """Invertible upper-triangular matrix (diagonal +-1 over Q)."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.randrange(1, p) if p else rng.choice((1, -1))
        for j in range(i + 1, n):
            m[i][j] = rng.randrange(p) if p else rng.randint(-3, 3)
    return m


def upper_inverse(b: list[list[int]], p: int | None) -> list[list[int]]:
    """Inverse of an invertible upper-triangular matrix by back substitution."""
    n = len(b)
    inv = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        d = pow(b[i][i], -1, p) if p else b[i][i]  # over Q, d = +-1 = 1/d
        inv[i][i] = d
        for j in range(i + 1, n):
            acc = sum(b[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = (-d * acc) % p if p else -d * acc
    return inv


def combination(
    n: int, allowed: list[tuple[int, int]], field: str, rng: random.Random
) -> list[list[int]]:
    """Random linear combination of the unit matrices E_ab, (a, b) allowed."""
    m = [[0] * n for _ in range(n)]
    for a, b in allowed:
        m[a - 1][b - 1] = rng.randrange(PRIME) if field == "p" else rng.randint(-3, 3)
    return m


def matrix_fiber_support(w: tuple[int, ...]) -> list[tuple[int, int]]:
    """(a, b) with W E_ab and E_ab W strictly upper, W the matrix of w.

    W E_ab = E_{w(a), b} and E_ab W = E_{a, c} with w(c) = b, each zero when
    the column or row is empty, so the fiber at W is a coordinate subspace.
    """
    n = len(w)
    col_of_row = {row: col for col, row in enumerate(w, start=1) if row}
    return [
        (a, b)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if (w[a - 1] == 0 or w[a - 1] < b) and (b not in col_of_row or a < col_of_row[b])
    ]


def flag_fiber_support(w: tuple[int, ...]) -> list[tuple[int, int]]:
    """(a, b) with E_ab and W^-1 E_ab W = E_{w^-1(a), w^-1(b)} strictly upper."""
    n = len(w)
    col_of_row = {row: col for col, row in enumerate(w, start=1)}
    return [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if col_of_row[a] < col_of_row[b]
    ]


def block_matrix(blocks: list[list[list[list[int]]]]) -> list[list[int]]:
    out = []
    for row_of_blocks in blocks:
        for r in range(len(row_of_blocks[0])):
            out.append([v for blk in row_of_blocks for v in blk[r]])
    return out


def permute_rows(tau: tuple[int, ...], m: list[list[int]]) -> list[list[int]]:
    """T m for the permutation matrix T of tau (T e_j = e_tau(j))."""
    out = [None] * len(m)
    for j, t in enumerate(tau):
        out[t - 1] = m[j]
    return out


def conjugate(tau: tuple[int, ...], m: list[list[int]]) -> list[list[int]]:
    """T m T^-1, i.e. entry (tau(i), tau(j)) is m[i][j]."""
    size = len(m)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            out[tau[i] - 1][tau[j] - 1] = m[i][j]
    return out


def neg(m: list[list[int]], p: int | None) -> list[list[int]]:
    return [[(-v) % p if p else -v for v in row] for row in m]


def matrix_json(m: list[list[int]]) -> dict:
    return {"rows": len(m), "cols": len(m[0]) if m else 0, "entries": m}


# ---------------------------------------------------------------- the stream


class QueryGenerator:
    """Draws (w, point, expected answer) for each query kind.

    ``covexillary(image)`` and ``embedding(image)`` are supplied by the caller:
    the first decides covexillarity, the second returns (tau, target index
    positions) of a covexillary w.
    """

    def __init__(self, seed: int, covexillary, embedding):
        self.seed = seed
        self.covexillary = covexillary
        self.embedding = embedding

    def rng(self, index: int) -> random.Random:
        return random.Random(f"perfbench|member-query|{self.seed}|{index}")

    def covexillary_partial(self, n: int, rng: random.Random) -> tuple[int, ...]:
        while True:
            w = random_partial(n, rng)
            if self.covexillary(w):
                return w

    def covexillary_perm(self, n: int, rng: random.Random) -> tuple[int, ...]:
        while True:
            w = random_perm(n, rng)
            if self.covexillary(w):
                return w

    def cell(self, u, field, rng):
        """(b_l, b_l U b_r, b_r) for random Borel elements: a point of the open orbit of u."""
        p = PRIME if field == "p" else None
        n = len(u)
        b_l, b_r = random_borel(n, p, rng), random_borel(n, p, rng)
        return b_l, matmul(matmul(b_l, perm_matrix(u), p), b_r, p), b_r

    def query(self, index: int, kind: str, n: int, field: str) -> dict:
        """One query: argv (point path left as {point}), point JSON, expectation."""
        rng = self.rng(index)
        p = PRIME if field == "p" else None
        head = ["--field", "Q"] if field == "Q" else []
        if kind == "member-flag":
            w = random_perm(n, rng)
            u = below_perm(w, rng) if rng.random() < 0.5 else random_perm(n, rng)
            _, g, _ = self.cell(u, field, rng)
            return self._pack(
                head + ["member", "flag", "{point}", one_line(w)],
                {"n": n, "generator": matrix_json(g)},
                "member",
                bruhat_leq(u, w),
            )
        if kind == "member-matrix":
            w = random_partial(n, rng)
            u = below_partial(w, rng) if rng.random() < 0.5 else random_partial(n, rng)
            _, x, _ = self.cell(u, field, rng)
            return self._pack(
                head + ["member", "matrix", "{point}", one_line(w)],
                matrix_json(x),
                "member",
                bruhat_leq(u, w),
            )
        if kind == "conormal-flag":
            w = self.covexillary_perm(n, rng)
            b_l, g, _ = self.cell(w, field, rng)
            z0 = combination(n, flag_fiber_support(w), field, rng)
            z = matmul(matmul(b_l, z0, p), upper_inverse(b_l, p), p)
            return self._pack(
                head + ["conormal", "member", "flag", "{point}", "--w", one_line(w)],
                {"flag": {"n": n, "generator": matrix_json(g)}, "z": matrix_json(z)},
                "member",
                True,
            )
        w = self.covexillary_partial(n, rng)
        tau, positions = self.embedding(w)
        if kind in ("member-grass", "embed"):
            u = below_partial(w, rng) if rng.random() < 0.5 else random_partial(n, rng)
            _, x, _ = self.cell(u, field, rng)
            expected = bruhat_leq(u, w)
            if kind == "embed":
                return self._pack(
                    head + ["embed", one_line(w), "{point}"],
                    matrix_json(x),
                    "in_target",
                    expected,
                )
            basis = permute_rows(tau, block_matrix([[identity(n)], [x]]))
            return self._pack(
                head + ["member", "grass", "{point}", ",".join(map(str, positions))],
                {"ambient": 2 * n, "basis": matrix_json(basis)},
                "member",
                expected,
            )
        # conormal matrix / grass: y = b_r^-1 y0 b_l^-1 with y0 in the fiber at W
        b_l, x, b_r = self.cell(w, field, rng)
        y0 = combination(n, matrix_fiber_support(w), field, rng)
        y = matmul(matmul(upper_inverse(b_r, p), y0, p), upper_inverse(b_l, p), p)
        if kind == "conormal-matrix":
            return self._pack(
                head + ["conormal", "member", "matrix", "{point}", "--w", one_line(w)],
                {"x": matrix_json(x), "y": matrix_json(y)},
                "member",
                True,
            )
        # grass: g = T h1(x) with h1 = ((I, 0), (x, I)); V = g E_n and
        # g theta(y) g^-1 = T ((-yx, y), (-xyx, xy)) T^-1
        yx, xy = matmul(y, x, p), matmul(x, y, p)
        xyx = matmul(x, yx, p)
        basis = permute_rows(tau, block_matrix([[identity(n)], [x]]))
        big = conjugate(tau, block_matrix([[neg(yx, p), y], [neg(xyx, p), xy]]))
        return self._pack(
            head + ["conormal", "member", "grass", "{point}", "--w", one_line(w)],
            {"V": {"ambient": 2 * n, "basis": matrix_json(basis)}, "x": matrix_json(big)},
            "member",
            True,
        )

    @staticmethod
    def _pack(argv, point, key, expected) -> dict:
        return {"argv": argv, "point": point, "key": key, "expected": expected}


def plan(seed: int, scale: str) -> list[tuple[str, int, str]]:
    """The shuffled (kind, n, field) cells of the stream."""
    sizes, blocks = SCALES[scale]
    cells = [
        (kind, n, field)
        for _ in range(blocks)
        for kind in KINDS
        for n in sizes
        for field in FIELDS
    ]
    random.Random(f"perfbench|member-query|{seed}|plan").shuffle(cells)
    return cells


def package_hooks():
    """The two package calls the generator needs, bound to the covex on sys.path."""
    from covex.embedding import embedding_target, tau_permutation, target_grass_index
    from covex.permcore import PartialPermutation, covexillary_data, is_covexillary

    def covexillary(image):
        return is_covexillary(PartialPermutation(len(image), image))

    def embedding(image):
        data = covexillary_data(PartialPermutation(len(image), image))
        target = embedding_target(data)
        return tau_permutation(data).image, target_grass_index(target).positions

    return covexillary, embedding


def write_stream(seed: int, scale: str, out: Path) -> int:
    """Write one point file per query plus queries.json; returns the count."""
    generator = QueryGenerator(seed, *package_hooks())
    out.mkdir(parents=True, exist_ok=True)
    queries = []
    for index, (kind, n, field) in enumerate(plan(seed, scale)):
        q = generator.query(index, kind, n, field)
        path = out / f"q{index:05d}.json"
        path.write_text(json.dumps(q.pop("point")), encoding="utf-8")
        q["argv"] = [str(path) if a == "{point}" else a for a in q["argv"]]
        q.update(kind=kind, n=n, field=field)
        queries.append(q)
    (out / "queries.json").write_text(json.dumps(queries), encoding="utf-8")
    return len(queries)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()
    write_stream(args.seed, args.scale, args.out)


if __name__ == "__main__":
    main()
