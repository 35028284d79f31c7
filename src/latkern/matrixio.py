"""JSON interchange for transfer matrices and constant matrices.

Entries are {num, den} coefficient lists, ascending by power of z, every
coefficient an exact decimal string "a" or "a/b".  No floating point is
accepted anywhere in the format; round-tripping reproduces the canonical
matrix bit for bit.  Coefficient text is read and written on integer
parts: a coefficient list is checked in one regex pass and read straight
into an integer polynomial over the lcm of its denominators, and each
written coefficient comes from a polynomial's content and primitive part,
with no `Fraction` per coefficient either way.  `json_text` writes every
JSON document the package emits.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .rational import Poly, RatFun, poly_text, quotient_text
from .transfer import TransferMatrix


class InputFormatError(ValueError):
    """Malformed matrix file or coefficient string."""


class OutputPathError(ValueError):
    """An output file or directory that cannot be written."""


# The denominator takes no sign, as in Fraction's own string syntax.
_COEFF = r"[+-]?\d+(?:/\d+)?"
_COEFF_RE = re.compile(rf"^{_COEFF}$")
# Coefficients joined by commas, each padded with the whitespace that
# `_parse_pair` strips; no coefficient holds a comma.
_PADDED = rf"\s*{_COEFF}\s*"
_COEFF_LIST_RE = re.compile(rf"{_PADDED}(?:,{_PADDED})*")


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


def _batch_ints(raws: list):
    """(ints, den) with raws[i] == ints[i] / den, from one regex pass over
    the coefficients joined by commas and int() on the pieces; None unless
    every coefficient is one `_parse_pair` accepts, with the pieces exactly
    the coefficients (so none held a comma)."""
    try:
        # A JSON integer joins as its digits; any other non-string as "",
        # which is no coefficient.
        text = ",".join([c if type(c) is str else
                         str(c) if type(c) is int else "" for c in raws])
        parts = text.split(",")
        if len(parts) != len(raws) or not _COEFF_LIST_RE.fullmatch(text):
            return None
        if "/" not in text:
            return list(map(int, parts)), 1
        nums, dens = [], []
        for part in parts:
            n, _, d = part.partition("/")
            nums.append(int(n))
            dens.append(int(d) if d else 1)
    except ValueError:  # more digits than str() or int() converts
        return None
    if 0 in dens:
        return None
    den = math.lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


def _poly_from_json(raws) -> Poly:
    """The polynomial of a coefficient list, built over the lcm of its
    denominators without a Fraction per coefficient.  A list the batch
    refuses is read again one coefficient at a time, which raises the
    message for its first bad coefficient if it has one."""
    if not isinstance(raws, list):
        raise InputFormatError(
            f"num and den must be JSON lists of coefficients, got {raws!r}")
    batch = _batch_ints(raws)
    if batch is None:
        pairs = [_parse_pair(c) for c in raws]
        den = math.lcm(*(d for _, d in pairs))
        batch = [n * (den // d) for n, d in pairs], den
    ints, den = batch
    return Poly._scaled(ints, 1, den)


def _ratio_str(n: int, d: int) -> str:
    """The text of the reduced fraction n/d, d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _coeff_strs(p: Poly) -> list[str]:
    """The coefficient texts of p from its content n/d and primitive part:
    n/d is reduced, so gcd(x, d) reduces n*x/d."""
    n, d = p._n, p._d
    if d == 1:
        return [str(n * x) for x in p._p]
    gcd = math.gcd
    return [_ratio_str(n * (x // g), d // g)
            for x in p._p for g in (gcd(x, d),)]


def _entry_from_json(obj) -> RatFun:
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise InputFormatError(f"matrix entry must be a num/den object, got {obj!r}")
    num = _poly_from_json(obj["num"])
    den = _poly_from_json(obj["den"])
    if not obj["den"]:
        raise InputFormatError("empty denominator coefficient list")
    if den.is_zero:
        raise InputFormatError("zero denominator in matrix entry")
    return RatFun(num, den)


def entry_to_json(e: RatFun) -> dict:
    return {"num": _coeff_strs(e.num) or ["0"], "den": _coeff_strs(e.den)}


def matrix_to_json(m: TransferMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[entry_to_json(e) for e in row] for row in m.entries],
    }


def matrix_json_str(obj: dict) -> str:
    """str(matrix_from_json(obj)) for a matrix_to_json dict, read off its
    coefficient texts: a report is printed without parsing it back."""
    return "[" + "; ".join(
        ", ".join(quotient_text(poly_text(e["num"]), poly_text(e["den"]))
                  for e in row)
        for row in obj["entries"]) + "]"


def _grid(obj, what: str):
    """The entry grid of a {rows, cols, entries} object, shape-checked."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} file must hold a JSON object")
    rows, cols, grid = (obj.get(k) for k in ("rows", "cols", "entries"))
    for name, size in (("rows", rows), ("cols", cols)):
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise InputFormatError(
                f"{name} must be a JSON integer of at least 1, got {size!r}")
    if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
        raise InputFormatError("entries must be a list of rows")
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
        "entries": [[_ratio_str(c.numerator, c.denominator)
                     for c in map(Fraction, row)] for row in a],
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


def json_text(obj) -> str:
    """obj as JSON text indented by two spaces with sorted keys: the same
    bytes as the standard library's encoder with indent=2, sort_keys=True,
    which runs in pure Python whenever it indents.  obj nests dicts with
    str keys, lists and tuples over str, int, bool and None; any other
    value or key raises TypeError."""
    return _json_text(obj, "\n")


def _json_text(obj, nl: str) -> str:
    """json_text of obj placed after the line break and indent nl."""
    t = type(obj)
    if t is str:
        return _json_str(obj)
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join(
            [_json_text(x, inner) for x in obj]) + nl + "]")
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        # _json_str raises TypeError on a key that is not a str.
        return ("{" + inner + ("," + inner).join(
            [_json_str(k) + ": " + _json_text(v, inner)
             for k, v in sorted(obj.items())]) + nl + "}")
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def dump_matrix_json(obj: dict, path: str):
    """Write a matrix_to_json dict to path in one write; OutputPathError
    if path cannot be written."""
    text = json_text(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise OutputPathError(f"cannot write {path}: {exc}") from exc


def make_output_dir(path: str):
    """Create the directory path if missing; OutputPathError if it cannot
    be created (a file of that name, a read-only parent)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OutputPathError(f"cannot write {path}: {exc}") from exc


def check_output_dir(path: str, names):
    """OutputPathError now, creating nothing, if the directory path could
    not receive the files names: path exists and is not a directory, the
    nearest existing ancestor that make_output_dir would create under is
    not a directory, or one of the names is a directory inside path.  Run
    before the work, so a doomed run fails at once; the writes still
    report what no check can foresee (permissions, a full disk)."""
    if os.path.isdir(path):
        for name in names:
            target = os.path.join(path, name)
            if os.path.isdir(target):
                raise _unwritable(errno.EISDIR, target)
    elif os.path.exists(path):
        raise _unwritable(errno.EEXIST, path)
    else:
        first = path  # the first directory os.makedirs would create
        while (parent := os.path.dirname(first)) and not os.path.exists(parent):
            first = parent
        if parent and not os.path.isdir(parent):
            raise _unwritable(errno.ENOTDIR, path, first)


def check_output_file(path: str):
    """OutputPathError now, creating nothing, if the file path could not
    be written: it is a directory, or its parent is missing or is not a
    directory."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise _unwritable(errno.EISDIR, path)
    if not os.path.exists(parent):
        raise _unwritable(errno.ENOENT, path)
    if not os.path.isdir(parent):
        raise _unwritable(errno.ENOTDIR, path)


def _unwritable(code: int, path: str, where: str | None = None
                ) -> OutputPathError:
    """The OutputPathError that writing path would raise, for this errno
    on where (path itself by default)."""
    exc = OSError(code, os.strerror(code), where or path)
    return OutputPathError(f"cannot write {path}: {exc}")


def dump_matrix(m: TransferMatrix, path: str):
    dump_matrix_json(matrix_to_json(m), path)
