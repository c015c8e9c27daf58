"""JSON (de)serialization for every point kind the CLI exchanges.

Matrices are {"rows": r, "cols": c, "entries": [[...]]} with integer
entries over a prime field and integers or "a/b" strings over the
rationals.  Structured points wrap matrices under descriptive keys.
Parsing validates shapes and structural invariants up front and reports
the offending field in the error message.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any

from .conormal import CotangentMatrixPoint, SpringerFlagPoint, SpringerGrassPoint
from .errors import InputError
from .exactla import ExactMatrix, FieldSpec, Subspace, _fraction_class
from .varieties import Flag


def scalar_to_json(value) -> Any:
    """An int as itself; any other scalar is a rational, read as an int or "a/b"."""
    if type(value) is int:
        return value
    if value.denominator == 1:
        return int(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def scalar_from_json(field: FieldSpec, value) -> Any:
    if isinstance(value, str):
        Fraction = _fraction_class()
        try:
            num, _, den = value.partition("/")
            parsed = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad scalar {value!r}: {exc}") from exc
        return field.coerce(parsed)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"bad scalar {value!r}: expected integer or 'a/b'")
    return field.coerce(value)


# twice cli.MAX_PERM_N: a point of Gr(n, 2n) has 2n rows
MAX_MATRIX_SIZE = 128


def matrix_to_json(matrix: ExactMatrix) -> dict:
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[scalar_to_json(v) for v in row] for row in matrix.entries],
    }


def _check_size(where: str, name: str, value: Any, least: int) -> None:
    """InputError unless value is an int (not a bool) in least..MAX_MATRIX_SIZE."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{where}: {name} must be an integer >= {least}")
    if value > MAX_MATRIX_SIZE:
        raise InputError(f"{where}: {name} must be at most {MAX_MATRIX_SIZE}")


def matrix_from_json(field: FieldSpec, data: Any, where: str = "matrix") -> ExactMatrix:
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object with rows/cols/entries")
    try:
        rows, cols, entries = data["rows"], data["cols"], data["entries"]
    except KeyError as exc:
        raise InputError(f"{where}: missing field {exc}") from exc
    _check_size(where, "rows", rows, 1)
    _check_size(where, "cols", cols, 0)
    if not isinstance(entries, list) or len(entries) != rows:
        raise InputError(f"{where}: entries must be a list of {rows} rows")
    # a plain int is a field element once reduced mod p (as it is over Q);
    # only strings and other values go through scalar_from_json
    p = field.p
    parsed = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"{where}: row {i} must have {cols} entries")
        if p is None:
            parsed.append(
                tuple([v if type(v) is int else scalar_from_json(field, v) for v in row])
            )
        else:
            parsed.append(
                tuple([v % p if type(v) is int else scalar_from_json(field, v) for v in row])
            )
    return ExactMatrix(field, tuple(parsed))


def subspace_to_json(subspace: Subspace) -> dict:
    return {
        "ambient": subspace.ambient,
        "basis": matrix_to_json(subspace.basis_matrix),
    }


def subspace_from_json(field: FieldSpec, data: Any, where: str = "subspace") -> Subspace:
    if not isinstance(data, dict) or "ambient" not in data or "basis" not in data:
        raise InputError(f"{where}: expected an object with ambient and basis")
    ambient = data["ambient"]
    _check_size(where, "ambient", ambient, 1)
    basis = matrix_from_json(field, data["basis"], f"{where}.basis")
    if basis.rows != ambient:
        raise InputError(f"{where}: basis rows differ from ambient dimension")
    span = Subspace.column_span(basis)
    if span.dim != basis.cols:
        raise InputError(f"{where}: basis columns are linearly dependent")
    return span


def flag_from_json(field: FieldSpec, data: Any, where: str = "flag") -> Flag:
    if not isinstance(data, dict) or "generator" not in data:
        raise InputError(f"{where}: expected an object with a generator matrix")
    generator = matrix_from_json(field, data["generator"], f"{where}.generator")
    if not generator.is_square():
        raise InputError(f"{where}: generator must be square")
    n = data.get("n", generator.rows)
    _check_size(where, "n", n, 1)
    if n != generator.rows:
        raise InputError(f"{where}: declared n differs from generator size")
    flag = Flag(generator)
    # the whole rank, read off the cached profile that the flag predicates reuse
    if generator.southwest_profile[0][-1] != generator.rows:
        raise InputError(f"{where}: generator is singular, dim F_i would be wrong")
    return flag


POINT_KINDS = ("matrix", "flag", "grass", "cotangent", "springer-flag", "springer-grass")


def point_from_json(field: FieldSpec, kind: str, data: Any):
    """Build and validate a typed point from parsed JSON."""
    if kind == "matrix":
        return matrix_from_json(field, data)
    if kind == "flag":
        return flag_from_json(field, data)
    if kind == "grass":
        return subspace_from_json(field, data)
    if kind == "cotangent":
        if not isinstance(data, dict) or "x" not in data or "y" not in data:
            raise InputError("cotangent point: expected an object with x and y")
        return CotangentMatrixPoint(
            matrix_from_json(field, data["x"], "x"),
            matrix_from_json(field, data["y"], "y"),
        )
    if kind == "springer-flag":
        if not isinstance(data, dict) or "flag" not in data or "z" not in data:
            raise InputError("springer flag point: expected an object with flag and z")
        return SpringerFlagPoint(
            flag_from_json(field, data["flag"], "flag"),
            matrix_from_json(field, data["z"], "z"),
        )
    if kind == "springer-grass":
        if not isinstance(data, dict) or "V" not in data or "x" not in data:
            raise InputError("springer grass point: expected an object with V and x")
        return SpringerGrassPoint(
            subspace_from_json(field, data["V"], "V"),
            matrix_from_json(field, data["x"], "x"),
        )
    raise InputError(f"unknown point kind {kind!r} (one of {', '.join(POINT_KINDS)})")


def parse_point_file(path: str | os.PathLike[str], kind: str, field: FieldSpec):
    """Load a typed point from a JSON file, enforcing invariants at parse time.

    Every way the file can fail to be JSON raises InputError: unreadable,
    not UTF-8, malformed, nested past the recursion limit, or holding an
    integer literal longer than the interpreter converts (4,300 digits by
    default).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        # json.loads raises a plain ValueError only for an over-long integer literal
        raise InputError(
            f"{path}: invalid JSON: an integer has more than"
            f" {sys.get_int_max_str_digits()} digits"
        ) from exc
    return point_from_json(field, kind, data)
