"""JSON interchange for transfer matrices and constant matrices.

Entries are {num, den} coefficient lists, ascending by power of z, every
coefficient an exact decimal string "a" or "a/b".  No floating point is
accepted anywhere in the format; round-tripping reproduces the canonical
matrix bit for bit.  A coefficient list is read straight into an integer
polynomial over the lcm of its denominators, with no `Fraction` per
coefficient; constant matrices are read through the same parser.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .rational import Poly, RatFun
from .transfer import TransferMatrix


class InputFormatError(ValueError):
    """Malformed matrix file or coefficient string."""


# The denominator takes no sign, as in Fraction's own string syntax.
_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_pair(raw) -> tuple[int, int]:
    """(n, d) with d > 0 for one coefficient, not reduced."""
    if isinstance(raw, str):
        text = raw.strip()
        if not _COEFF_RE.match(text):
            raise InputFormatError(
                f"bad coefficient {raw!r}: expected an exact 'a' or 'a/b' "
                "integer string (no decimals)")
        num, _, den = text.partition("/")
        n, d = int(num), int(den or 1)
        if not d:
            # the message Fraction(n, 0) raises
            raise InputFormatError(f"bad coefficient {raw!r}: Fraction({n}, 0)")
        return n, d
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw, 1
    raise InputFormatError(
        f"coefficients must be integer or 'a/b' strings, got {raw!r}")


def _parse_coeff(raw) -> Fraction:
    return Fraction(*_parse_pair(raw))


def _poly_from_json(raws) -> Poly:
    """The polynomial of a coefficient list, built over the lcm of its
    denominators without a Fraction per coefficient."""
    pairs = [_parse_pair(c) for c in raws]
    den = math.lcm(*(d for _, d in pairs))
    return Poly._scaled([n * (den // d) for n, d in pairs], 1, den)


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _entry_from_json(obj) -> RatFun:
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise InputFormatError(f"matrix entry must be a num/den object, got {obj!r}")
    num = _poly_from_json(obj["num"])
    den_list = obj["den"]
    if not den_list:
        raise InputFormatError("empty denominator coefficient list")
    den = _poly_from_json(den_list)
    if den.is_zero:
        raise InputFormatError("zero denominator in matrix entry")
    return RatFun(num, den)


def entry_to_json(e: RatFun) -> dict:
    return {
        "num": [_coeff_str(c) for c in e.num.coeffs] or ["0"],
        "den": [_coeff_str(c) for c in e.den.coeffs],
    }


def matrix_to_json(m: TransferMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[entry_to_json(e) for e in row] for row in m.entries],
    }


def _grid(obj, what: str):
    """The entry grid of a {rows, cols, entries} object, shape-checked."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} file must hold a JSON object")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        grid = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"missing or bad matrix fields: {exc}") from exc
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise InputFormatError(
            f"entry grid does not match declared shape {rows}x{cols}")
    return grid


def matrix_from_json(obj) -> TransferMatrix:
    grid = _grid(obj, "matrix")
    return TransferMatrix([[_entry_from_json(e) for e in row] for row in grid])


def constant_matrix_from_json(obj):
    """Grid of exact rationals from {rows, cols, entries: [["a", ...], ...]}."""
    grid = _grid(obj, "constant matrix")
    return tuple(tuple(_parse_coeff(c) for c in row) for row in grid)


def constant_matrix_to_json(a) -> dict:
    return {
        "rows": len(a),
        "cols": len(a[0]) if a else 0,
        "entries": [[_coeff_str(Fraction(c)) for c in row] for row in a],
    }


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path: str) -> TransferMatrix:
    return matrix_from_json(_read_json(path))


def load_constant_matrix(path: str):
    return constant_matrix_from_json(_read_json(path))


def dump_matrix(m: TransferMatrix, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
