"""Command-line front end.

All primary output is JSON on stdout (one object, or JSON lines for suite
reports); human-oriented summaries go to stderr.  Exit codes: 0 when the
requested computation succeeded (membership verdicts count as success
regardless of the boolean answer), 2 for input errors and for a reader that
closes stdout early, 3 for verification failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .conormal import (
    conormal_fiber_flag,
    conormal_fiber_matrix,
    conormal_flag_violations,
    conormal_grass_violations,
    conormal_matrix_violations,
    vector_to_matrix,
)
from .embedding import (
    check_target_space,
    embed_point,
    fixed_point_index,
    target_grass_index,
    weight_map,
)
from .equivariant import (
    apply_weight_map,
    check_multidegree_size,
    double_schubert,
    grass_restriction,
    verify_multidegree,
)
from .errors import CovexError, InputError, NotCovexillaryError
from .exactla import FieldSpec
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


def _perm(text: str | None) -> PartialPermutation:
    if text is None:
        raise InputError("missing partial permutation (pass --w)")
    return PartialPermutation.from_one_line(text)


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
            "t": [data.t_at(i) for i in range(1, data.m + 1)],
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
    x = parse_point_file(args.matrix, "matrix", field)
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
        x = parse_point_file(args.point, "matrix", field)
        violation = matrix_schubert_violation(x, _perm(args.index))
        keys = ("i", "j", "dim", "bound")
    elif args.kind == "flag":
        flag = parse_point_file(args.point, "flag", field)
        violation = flag_schubert_violation(flag, _perm(args.index))
        keys = ("i", "j", "dim", "bound")
    else:
        subspace = parse_point_file(args.point, "grass", field)
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
    out = []
    for chunk in args.conditions.split(","):
        t, _, c = chunk.partition(":")
        try:
            out.append((int(t), int(c)))
        except ValueError as exc:
            raise InputError(f"bad condition {chunk!r}") from exc
    return tuple(out)


def _cmd_conormal(args, field: FieldSpec) -> int:
    if args.action == "member":
        if args.kind == "matrix":
            point = parse_point_file(args.point, "cotangent", field)
            violations = conormal_matrix_violations(point, _perm(args.w))
        elif args.kind == "flag":
            point = parse_point_file(args.point, "springer-flag", field)
            violations = conormal_flag_violations(point, _perm(args.w))
        else:
            point = parse_point_file(args.point, "springer-grass", field)
            violations = conormal_grass_violations(point, _grass_conditions(args, point))
        _emit({"member": not violations, "violations": violations})
        return 0
    # fiber
    if args.kind == "grass":
        raise InputError("no conormal fiber for the grass form; use matrix or flag")
    w = _perm(args.w)
    x = parse_point_file(args.point, "matrix", field)
    if args.kind == "matrix":
        fiber = conormal_fiber_matrix(x, w)
    else:
        _, fiber = conormal_fiber_flag(x, w)
    basis = [matrix_to_json(vector_to_matrix(field, v, w.n)) for v in fiber.vectors]
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
                    "u": row.u.one_line(),
                    "u_hat": list(row.u_hat.positions),
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
        poly = double_schubert(w)
        _emit(
            {
                "variables": list(poly.variables),
                "monomials": [
                    {"exponents": list(exps), "coeff": c} for exps, c in poly.terms
                ],
                "text": str(poly),
            }
        )
        return 0
    if args.action == "localize":
        check_multidegree_size(w.n)
        data = covexillary_data(w)
        v_hat = target_grass_index(data)
        origin = fixed_point_index(PartialPermutation.zero(w.n), data)
        localized = grass_restriction(v_hat, origin)
        _emit(
            {
                "point": list(origin.positions),
                "t_polynomial": str(localized),
                "xy_polynomial": str(apply_weight_map(localized, weight_map(data), w.n)),
            }
        )
        return 0
    report = verify_multidegree(w)
    _emit(
        {
            "matched": report.matched,
            "schubert": str(report.schubert_side),
            "localization": str(report.localization_side),
        }
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covex",
        description="Exact verification toolkit for covexillary Schubert varieties.",
    )
    parser.add_argument("--version", action="version", version=f"covex {__version__}")
    parser.add_argument(
        "--field",
        default="p:10007",
        help="coefficient field: p:<prime> or Q (default p:10007)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed for suites")
    parser.add_argument("--trials", type=int, default=None, help="suite trial override")
    parser.add_argument("--nmax", type=int, default=None, help="suite size override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ess", help="essential set of a partial permutation")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_ess)

    p = sub.add_parser("covex", help="covexillary data or the violating boxes")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_covex)

    p = sub.add_parser("tau", help="interleaving permutation and target conditions")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("embed", help="embed a matrix and test the target conditions")
    p.add_argument("perm")
    p.add_argument("matrix", help="JSON matrix file")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("member", help="Schubert variety membership")
    p.add_argument("kind", choices=["matrix", "flag", "grass"])
    p.add_argument("point", help="JSON point file")
    p.add_argument("index", help="permutation one-line, or positions for grass")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("conormal", help="conormal membership and fibers")
    p.add_argument("action", choices=["member", "fiber"])
    p.add_argument("kind", choices=["matrix", "flag", "grass"])
    p.add_argument("point", help="JSON point file")
    p.add_argument("--w", default=None, help="partial permutation one-line")
    p.add_argument("--conditions", default=None, help="grass conditions t:c,t:c")
    p.set_defaults(func=_cmd_conormal)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig polynomials")
    p.add_argument("args", nargs="+", metavar="u w | covex-check w")
    p.set_defaults(func=_cmd_kl)

    p = sub.add_parser("schubert", help="double Schubert polynomials and localization")
    p.add_argument("action", choices=["double", "localize", "verify"])
    p.add_argument("perm")
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")
    # accept the global knobs in trailing position as well
    p.add_argument("--field", default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    p.add_argument("--nmax", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call and reused after.

    Parsing leaves no state on an ArgumentParser, so one serves every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        field = FieldSpec.parse(args.field)
        code = args.func(args, field)
        sys.stdout.flush()
        return code
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
