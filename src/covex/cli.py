"""Command-line front end.

All primary output is JSON on stdout (one object, or JSON lines for suite
reports); human-oriented summaries go to stderr.  Exit codes: 0 when the
requested computation succeeded (membership verdicts count as success
regardless of the boolean answer), 2 for input errors and for a reader that
closes stdout early, 3 for verification failures and for an internal check
that breaks (InvariantError).  A point file that breaks its structural
invariants is bad input, so point files are read through ``_point``.

Two parsers read one grammar, the ``_COMMANDS`` table.  A plain run of it
(exact option names, each value apart from its option and not starting with
"-", valid choices and ints, the right positionals) is parsed in one pass by
``_parse``, without importing argparse.  Every other argv goes to argparse:
-h, --version, abbreviations, --opt=value, --, negative values and every
usage error, so help, errors and exit codes are argparse's own.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import types

from . import __version__
from .conormal import (
    conormal_fiber_flag,
    conormal_fiber_matrix,
    conormal_flag_violations,
    conormal_grass_violations,
    conormal_matrix_violations,
    vector_rows,
)
from .embedding import (
    check_target_space,
    embed_point,
    target_grass_index,
    weight_map,
)
from .equivariant import (
    check_multidegree_size,
    double_schubert,
    origin_restriction,
    verify_multidegree,
)
from .errors import CovexError, InputError, InvariantError, NotCovexillaryError
from .exactla import ExactMatrix, FieldSpec
from .kl import covexillary_kl_check, kl_polynomial
from .permcore import PartialPermutation, covexillary_data, essential_set
from .serialization import (
    matrix_to_json,
    parse_point_file,
    subspace_to_json,
)
from .suites import SuiteConfig, run_suite
from .varieties import (
    GrassIndex,
    flag_schubert_violation,
    grass_condition_checks,
    grass_schubert_violation,
    locate_grass_cell,
    matrix_schubert_violation,
)


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


# terms per write of `schubert double`: a chunk of n = 7 terms is under 1 MB
_TERMS_PER_CHUNK = 4096


def _emit_double_schubert(poly) -> None:
    """Print what _emit prints for {"variables", "monomials", "text"} of poly,
    a chunk of terms at a time.

    At n = 7 that JSON is about 55 MB, so neither the list of monomials nor
    the text is built whole: each chunk goes through json.dumps alone, and
    the pieces are joined as json.dumps joins them (sorted keys, ", " and
    ": ").  A JSON string escapes character by character, so the text's
    chunks concatenate to its whole encoding.
    """
    write = sys.stdout.write
    terms = poly.terms
    write('{"monomials": [')
    for start in range(0, len(terms), _TERMS_PER_CHUNK):
        chunk = [
            {"coeff": c, "exponents": list(exps)}
            for exps, c in terms[start : start + _TERMS_PER_CHUNK]
        ]
        write((", " if start else "") + json.dumps(chunk, sort_keys=True)[1:-1])
    write('], "text": "')
    pieces = poly._text_pieces()
    while text := "".join(itertools.islice(pieces, _TERMS_PER_CHUNK)):
        write(json.dumps(text)[1:-1])
    write('", "variables": ' + json.dumps(list(poly.variables)) + "}\n")


# ess and covex build n x n tables: about 100 MB at n = 1,000
MAX_PERM_N = 64
# a conormal fiber spans up to n^2 vectors of n^2 entries: about 1 s at n = 32
MAX_FIBER_N = 32


def _perm(text: str | None) -> PartialPermutation:
    if text is None:
        raise InputError("missing partial permutation (pass --w)")
    w = PartialPermutation.from_one_line(text)
    if w.n > MAX_PERM_N:
        raise InputError(f"partial permutations are limited to n <= {MAX_PERM_N}; got n = {w.n}")
    return w


def _point(path: str, kind: str, field: FieldSpec):
    """parse_point_file, with a broken point invariant raised as InputError."""
    try:
        return parse_point_file(path, kind, field)
    except InvariantError as exc:
        raise InputError(str(exc)) from exc


def _positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"bad index positions {text!r}") from exc


def _cmd_ess(args, field: FieldSpec) -> int:
    w = _perm(args.perm)
    conditions = essential_set(w)
    _emit(
        {
            "n": w.n,
            "w": w.one_line(),
            "essential": [
                {"row": c.row, "col": c.col, "rank": c.rank} for c in conditions
            ],
        }
    )
    return 0


def _cmd_covex(args, field: FieldSpec) -> int:
    w = _perm(args.perm)
    try:
        data = covexillary_data(w)
    except NotCovexillaryError as exc:
        _emit(
            {
                "covexillary": False,
                "violating_boxes": [list(exc.first), list(exc.second)],
                "w": w.one_line(),
            }
        )
        return 0
    _emit(
        {
            "covexillary": True,
            "m": data.m,
            "p": list(data.p),
            "q": list(data.q),
            "r": list(data.r),
            "t": [p + q for p, q, _ in data.chain[1:]],
            "w": w.one_line(),
        }
    )
    return 0


def _cmd_tau(args, field: FieldSpec) -> int:
    w = _perm(args.perm)
    data = covexillary_data(w)
    _emit(
        {
            "tau": data.tau.one_line(),
            "conditions": [{"t": t, "bound": data.n + c} for t, c in data.grass_conditions],
            "grass_index": list(target_grass_index(data).positions),
            "weights": {
                str(k): f"{sym}{idx}" for k, (sym, idx) in sorted(weight_map(data).items())
            },
        }
    )
    return 0


def _cmd_embed(args, field: FieldSpec) -> int:
    w = _perm(args.perm)
    data = covexillary_data(w)
    x = _point(args.matrix, "matrix", field)
    point = embed_point(x, data)
    per_condition = [
        dict(zip(("t", "dim", "bound", "ok"), check))
        for check in grass_condition_checks(point, data.grass_conditions)
    ]
    _emit(
        {
            "image_basis": subspace_to_json(point),
            "in_target": all(c["ok"] for c in per_condition),
            "conditions": per_condition,
            "cell": list(locate_grass_cell(point).positions),
        }
    )
    return 0


def _cmd_member(args, field: FieldSpec) -> int:
    if args.kind == "matrix":
        x = _point(args.point, "matrix", field)
        violation = matrix_schubert_violation(x, _perm(args.index))
        keys = ("i", "j", "dim", "bound")
    elif args.kind == "flag":
        flag = _point(args.point, "flag", field)
        violation = flag_schubert_violation(flag, _perm(args.index))
        keys = ("i", "j", "dim", "bound")
    else:
        subspace = _point(args.point, "grass", field)
        positions = _positions(args.index)
        idx = GrassIndex(subspace.dim, subspace.ambient, positions)
        violation = grass_schubert_violation(subspace, idx)
        keys = ("i", "dim", "bound")
    _emit(
        {
            "member": violation is None,
            "first_violation": None if violation is None else dict(zip(keys, violation)),
        }
    )
    return 0


def _grass_conditions(args, point) -> tuple[tuple[int, int], ...]:
    if args.w is not None:
        data = covexillary_data(_perm(args.w))
        check_target_space(point.V, data)
        return data.grass_conditions
    if args.conditions is None:
        raise InputError("provide --w or --conditions t:c,t:c for the grass form")
    chunks, N = args.conditions.split(","), point.V.ambient
    if len(chunks) > N:  # each pair of conditions is a bound
        raise InputError(f"at most {N} conditions in Gr(d, {N}); got {len(chunks)}")
    out = []
    for chunk in chunks:
        t, _, c = chunk.partition(":")
        try:
            out.append((int(t), int(c)))
        except ValueError as exc:
            raise InputError(f"bad condition {chunk!r}") from exc
    return tuple(out)


def _cmd_conormal(args, field: FieldSpec) -> int:
    if args.action == "member":
        if args.kind == "matrix":
            point = _point(args.point, "cotangent", field)
            [violations] = conormal_matrix_violations(point.x, _perm(args.w), [point.y.entries])
        elif args.kind == "flag":
            point = _point(args.point, "springer-flag", field)
            [violations] = conormal_flag_violations(point.flag, _perm(args.w), [point])
        else:
            point = _point(args.point, "springer-grass", field)
            conditions = _grass_conditions(args, point)
            [violations] = conormal_grass_violations(point.V, conditions, [point])
        _emit({"member": not violations, "violations": violations})
        return 0
    # fiber
    if args.kind == "grass":
        raise InputError("no conormal fiber for the grass form; use matrix or flag")
    w = _perm(args.w)
    if w.n > MAX_FIBER_N:
        raise InputError(f"conormal fibers are limited to n <= {MAX_FIBER_N}; got n = {w.n}")
    x = _point(args.point, "matrix", field)
    if args.kind == "matrix":
        fiber = conormal_fiber_matrix(x, w)
    else:
        _, fiber = conormal_fiber_flag(x, w)
    basis = [matrix_to_json(ExactMatrix(field, vector_rows(v, w.n))) for v in fiber.vectors]
    _emit({"dimension": fiber.dim, "basis": basis})
    return 0


def _cmd_kl(args, field: FieldSpec) -> int:
    if args.args[0] == "covex-check":
        if len(args.args) != 2:
            raise InputError("usage: kl covex-check <w>")
        w = _perm(args.args[1])
        rows = covexillary_kl_check(w)
        for row in rows:
            _emit(
                {
                    "u": PartialPermutation(w.n, row.u).one_line(),
                    "u_hat": list(row.u_hat),
                    "flag_poly": str(row.flag_poly),
                    "grass_poly": str(row.grass_poly),
                    "matched": row.matched,
                }
            )
        mismatches = sum(1 for row in rows if not row.matched)
        print(f"{len(rows)} pairs, {mismatches} mismatches", file=sys.stderr)
        return 0 if mismatches == 0 else 3
    if len(args.args) != 2:
        raise InputError("usage: kl <u> <w>  or  kl covex-check <w>")
    u, w = _perm(args.args[0]), _perm(args.args[1])
    poly = kl_polynomial(u, w)
    _emit({"coefficients": list(poly.coeffs), "text": str(poly)})
    return 0


def _cmd_schubert(args, field: FieldSpec) -> int:
    w = _perm(args.perm)
    if args.action == "double":
        _emit_double_schubert(double_schubert(w))
        return 0
    if args.action == "localize":
        check_multidegree_size(w.n)
        origin, in_t, in_xy = origin_restriction(covexillary_data(w))
        _emit(
            {
                "point": list(origin.positions),
                "t_polynomial": str(in_t),
                "xy_polynomial": str(in_xy),
            }
        )
        return 0
    report = verify_multidegree(w)
    schubert, localization = report.texts()
    _emit({"matched": report.matched, "schubert": schubert, "localization": localization})
    return 0 if report.matched else 3


def _cmd_verify(args, field: FieldSpec) -> int:
    config = SuiteConfig(
        suite=args.suite,
        n_max=args.nmax,
        trials=args.trials,
        prime=field.p if field.is_prime else None,
        seed=args.seed,
    )
    if not field.is_prime:
        raise InputError("verification suites run over a prime field")
    verdicts = run_suite(config)
    failures = 0
    for verdict in verdicts:
        _emit(
            {
                "suite": verdict.suite,
                "case": verdict.case,
                "passed": verdict.passed,
                "details": verdict.details,
            }
        )
        failures += not verdict.passed
    print(
        f"suite {args.suite}: {len(verdicts) - failures}/{len(verdicts)} cases passed",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 3


# The grammar, declared once: _parse reads it on the hot path and build_parser
# hands it to argparse.  A command is (help, function, positionals, options),
# each argument a name and its add_argument keywords; an option without a
# default sets nothing unless it is given (argparse.SUPPRESS).
_GLOBALS = [
    ("--field", {"default": "p:10007", "help": "coefficient field: p:<prime> or Q (default p:10007)"}),
    ("--seed", {"type": int, "default": 0, "help": "base seed for suites"}),
    ("--trials", {"type": int, "default": None, "help": "suite trial override"}),
    ("--nmax", {"type": int, "default": None, "help": "suite size override"}),
]
_PERM = [("perm", {})]
_KIND = ("kind", {"choices": ("matrix", "flag", "grass")})
_POINT = ("point", {"help": "JSON point file"})
_COMMANDS = {
    "ess": ("essential set of a partial permutation", _cmd_ess, _PERM, []),
    "covex": ("covexillary data or the violating boxes", _cmd_covex, _PERM, []),
    "tau": ("interleaving permutation and target conditions", _cmd_tau, _PERM, []),
    "embed": ("embed a matrix and test the target conditions", _cmd_embed,
              [*_PERM, ("matrix", {"help": "JSON matrix file"})], []),
    "member": ("Schubert variety membership", _cmd_member,
               [_KIND, _POINT, ("index", {"help": "permutation one-line, or positions for grass"})],
               []),
    "conormal": ("conormal membership and fibers", _cmd_conormal,
                 [("action", {"choices": ("member", "fiber")}), _KIND, _POINT],
                 [("--w", {"default": None, "help": "partial permutation one-line"}),
                  ("--conditions", {"default": None, "help": "grass conditions t:c,t:c"})]),
    "kl": ("Kazhdan-Lusztig polynomials", _cmd_kl,
           [("args", {"nargs": "+", "metavar": "u w | covex-check w"})], []),
    "schubert": ("double Schubert polynomials and localization", _cmd_schubert,
                 [("action", {"choices": ("double", "localize", "verify")}), *_PERM], []),
    # verify accepts the global options in trailing position as well
    "verify": ("run a verification suite", _cmd_verify, [("suite", {})],
               [(flag, {"type": kw.get("type")}) for flag, kw in _GLOBALS]),
}


def _parse(argv: list[str]) -> types.SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, in one pass over argv;
    None unless every option is an exact one of its scope, with a value that
    does not start with "-", every choice and int is valid and the count of
    positionals is right."""
    values = {flag[2:]: kw["default"] for flag, kw in _GLOBALS}
    scope, positionals, words = dict(_GLOBALS), None, []
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            kw, value = scope.get(token), next(tokens, "-")
            if kw is None or value.startswith("-"):
                return None
            try:
                values[token[2:]] = (kw.get("type") or str)(value)
            except ValueError:
                return None
        elif positionals is None:
            if token not in _COMMANDS:
                return None
            _, func, positionals, options = _COMMANDS[token]
            values.update(command=token, func=func)
            values.update((flag[2:], kw["default"]) for flag, kw in options if "default" in kw)
            scope = dict(options)
        else:
            words.append(token)
    if positionals is None or len(words) < len(positionals):
        return None
    if positionals[-1][1].get("nargs") == "+":
        words[len(positionals) - 1 :] = [words[len(positionals) - 1 :]]
    if len(words) != len(positionals):
        return None
    for (dest, kw), word in zip(positionals, words):
        if word not in kw.get("choices", (word,)):
            return None
        values[dest] = word
    return types.SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="covex",
        description="Exact verification toolkit for covexillary Schubert varieties.",
    )
    parser.add_argument("--version", action="version", version=f"covex {__version__}")
    for flag, kw in _GLOBALS:
        parser.add_argument(flag, **kw)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, kw in positionals:
            p.add_argument(dest, **kw)
        for flag, kw in options:
            p.add_argument(flag, **{"default": argparse.SUPPRESS, **kw})
        p.set_defaults(func=func)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The argparse parser main falls back on, built on its first call and
    reused after.

    Parsing leaves no state on an ArgumentParser, so one serves every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or _shared_parser().parse_args(argv)
    try:
        field = FieldSpec.parse(args.field)
        code = args.func(args, field)
        sys.stdout.flush()
        return code
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CovexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (covex verify ... | head).  Point
        # the descriptor at /dev/null so the flush at exit cannot fail again.
        _silence_stdout()
        print("error: output pipe closed", file=sys.stderr)
        return 2


def _silence_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-memory stream has no descriptor to redirect
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
