"""Exact verification of CLI outputs, independent of the library.

Nothing here imports latkern.  Matrices from the JSON files are held as
unreduced fractions of integer polynomials (QF), which is enough to test
identities exactly: a fraction is zero iff its numerator is, and its order
at infinity is deg den - deg num whether or not it is reduced.  Laurent
coefficients come from schoolbook long division over Fraction.

Each verifier raises Mismatch with a reason; verify() turns that into a
string, so the caller can count failures.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

INF = math.inf


class Mismatch(Exception):
    """An output that does not satisfy its exact check."""


def check(flag: bool, reason: str):
    if not flag:
        raise Mismatch(reason)


# -- integer polynomial fractions ----------------------------------------

def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _padd(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


class QF:
    """num/den with integer coefficient lists, ascending; not reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num, den = _trim(list(num)), _trim(list(den))
        check(bool(den), "zero denominator")
        if not num:
            den = [1]
        g = 0
        for c in num + den:
            g = math.gcd(g, c)
        if den[-1] < 0:
            g = -g
        self.num = [c // g for c in num]
        self.den = [c // g for c in den]

    @classmethod
    def from_json(cls, obj) -> QF:
        check(isinstance(obj, dict) and "num" in obj and "den" in obj,
              f"not a num/den entry: {obj!r}")
        num = [parse_coeff(c) for c in obj["num"]]
        den = [parse_coeff(c) for c in obj["den"]]
        scale = math.lcm(*(c.denominator for c in num + den))
        return cls([int(c * scale) for c in num], [int(c * scale) for c in den])

    @classmethod
    def const(cls, c: int) -> QF:
        return cls([c], [1])

    def __add__(self, other: QF) -> QF:
        if self.den == other.den:
            return QF(_padd(self.num, other.num), self.den)
        return QF(_padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
                  _pmul(self.den, other.den))

    def __neg__(self) -> QF:
        return QF([-c for c in self.num], self.den)

    def __sub__(self, other: QF) -> QF:
        return self + (-other)

    def __mul__(self, other: QF) -> QF:
        return QF(_pmul(self.num, other.num), _pmul(self.den, other.den))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def order(self):
        return INF if self.is_zero else len(self.den) - len(self.num)

    def constant_term(self) -> Fraction:
        """Coefficient of z^0 in the expansion of a causal fraction."""
        if self.order() != 0:
            return Fraction(0)
        return Fraction(self.num[-1], self.den[-1])


def parse_coeff(raw) -> Fraction:
    check(isinstance(raw, str), f"coefficient is not a string: {raw!r}")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise Mismatch(f"bad coefficient {raw!r}") from exc


def parse_matrix(obj):
    check(isinstance(obj, dict), "matrix is not an object")
    rows, cols, grid = obj.get("rows"), obj.get("cols"), obj.get("entries")
    check(isinstance(grid, list) and len(grid) == rows
          and all(isinstance(r, list) and len(r) == cols for r in grid),
          "matrix shape does not match its entries")
    return [[QF.from_json(e) for e in row] for row in grid]


def load_matrix(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(json.load(fh))


def matmul(a, b):
    check(len(a[0]) == len(b), "dimension mismatch")
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            acc = QF.const(0)
            for k, x in enumerate(row):
                if not x.is_zero and not b[k][j].is_zero:
                    acc = acc + x * b[k][j]
            new_row.append(acc)
        out.append(new_row)
    return out


def identity(n: int):
    return [[QF.const(1 if i == j else 0) for j in range(n)] for i in range(n)]


def matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_equal(a, b) -> bool:
    return (len(a) == len(b) and len(a[0]) == len(b[0])
            and all((x - y).is_zero for ra, rb in zip(a, b)
                    for x, y in zip(ra, rb)))


def is_causal(a) -> bool:
    return all(e.order() >= 0 for row in a for e in row)


def rank(rows) -> int:
    """Rank of a constant matrix over Q by Gaussian elimination."""
    work = [[Fraction(c) for c in row] for row in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def is_bicausal(a) -> bool:
    n = len(a)
    return (len(a[0]) == n and is_causal(a)
            and rank([[e.constant_term() for e in row] for row in a]) == n)


def apply(a, u):
    return [row[0] for row in matmul(a, [[x] for x in u])]


# -- Laurent expansion ---------------------------------------------------

def laurent(e: QF, first: int, last: int) -> list[Fraction]:
    """Coefficients of z^-t, t = first..last, by long division."""
    count = last - first + 1
    if count <= 0:
        return []
    if e.is_zero:
        return [Fraction(0)] * count
    t0 = e.order()
    den = e.den[::-1]                       # descending powers
    rem = [Fraction(c) for c in e.num[::-1]]
    steps = last - t0 + 1
    rem += [Fraction(0)] * max(0, steps + len(den) - len(rem))
    quotient = []
    for k in range(max(steps, 0)):
        c = rem[k] / den[0]
        quotient.append(c)
        if c:
            for i, d in enumerate(den):
                rem[k + i] -= c * d
    # quotient[k] is the coefficient at index t0 + k
    return [quotient[t - t0] if t >= t0 else Fraction(0)
            for t in range(first, last + 1)]


def _map_order(a):
    orders = [e.order() for row in a for e in row]
    return min(orders) if orders else INF


def _markov(a, t: int):
    return [[laurent(e, t, t)[0] for e in row] for row in a]


def _coeff_grid(obj, p: int, m: int):
    check(isinstance(obj, list) and len(obj) == p
          and all(isinstance(r, list) and len(r) == m for r in obj),
          "coefficient grid has the wrong shape")
    return [[parse_coeff(c) for c in row] for row in obj]


# -- per-command verifiers -----------------------------------------------

def _classify(op, code, report, files):
    check(code == 0, f"exit code {code}, expected 0")
    f = load_matrix(op["argv"][1])
    p, m = len(f), len(f[0])
    k0 = _map_order(f)
    if k0 == INF:
        expected = {"map_order": "inf", "causal": True,
                    "strictly_causal": True, "order_consistent": True,
                    "instantaneous": False, "nonlatent": False,
                    "bicausal": False}
    else:
        consistent = rank(_markov(f, k0)) == m
        expected = {
            "map_order": k0,
            "causal": k0 >= 0,
            "strictly_causal": k0 >= 1,
            "order_consistent": consistent,
            "instantaneous": consistent and k0 == 0,
            "nonlatent": consistent and k0 == 1,
            "bicausal": p == m and k0 >= 0 and rank(_markov(f, 0)) == p,
        }
    check(report.get("report") == expected,
          f"classification {report.get('report')} != {expected}")


def _expand(op, code, report, files):
    check(code == 0, f"exit code {code}, expected 0")
    f = load_matrix(op["argv"][1])
    terms = int(op["argv"][3])
    k0 = _map_order(f)
    check(report.get("map_order") == ("inf" if k0 == INF else k0),
          f"map order {report.get('map_order')} != {k0}")
    start = 0 if k0 == INF else k0
    series = [[laurent(e, start, start + terms - 1) for e in row] for row in f]
    got = report.get("terms")
    check(isinstance(got, list) and len(got) == terms,
          f"expected {terms} terms")
    for k, term in enumerate(got):
        check(term.get("index") == start + k, f"term {k} has the wrong index")
        grid = _coeff_grid(term.get("coeff"), len(f), len(f[0]))
        expected = [[s[k] for s in row] for row in series]
        check(grid == expected, f"coefficient at index {start + k} differs")


def _simulate(op, code, report, files):
    check(code == 0, f"exit code {code}, expected 0")
    f = load_matrix(op["argv"][1])
    u = [row[0] for row in load_matrix(op["argv"][2])]
    horizon = int(op["argv"][4])
    k0 = _map_order(f)
    f_start = 0 if k0 == INF else min(k0, 0)
    u_orders = [e.order() for e in u if not e.is_zero]
    u_start = min(min(u_orders), 0) if u_orders else 0
    start = f_start + u_start
    last = horizon + min(f_start, u_start)
    fs = [[laurent(e, f_start, horizon) for e in row] for row in f]
    us = [laurent(e, u_start, horizon) for e in u]
    check(report.get("horizon") == horizon, "wrong horizon")
    out = report.get("output")
    check(isinstance(out, list) and len(out) == last - start + 1,
          f"expected indices {start}..{last}")
    for k, term in enumerate(out):
        t = start + k
        check(term.get("index") == t, f"output {k} has the wrong index")
        grid = _coeff_grid(term.get("coeff"), len(f), 1)
        for i, row in enumerate(fs):
            y = sum((row[j][s - f_start] * us[j][t - s - u_start]
                     for j in range(len(u))
                     for s in range(f_start, t - u_start + 1)), Fraction(0))
            check(grid[i][0] == y, f"output {i} at index {t} differs")


def _latency(op, code, report, files):
    check(code == 0, f"exit code {code}, expected 0")
    body = report.get("report", {})
    nu = op["expect"]["nu"]
    check(body.get("latency_indices") == nu,
          f"latency indices {body.get('latency_indices')} != {nu}")
    check(body.get("latency_indices") == [-o - 1 for o in body.get("orders")],
          "indices do not match the generator's column orders")
    f = load_matrix(op["argv"][1])
    d = parse_matrix(body.get("generator"))
    check(len(d) == len(f[0]) == len(d[0]), "generator is not m x m")
    check(is_causal(matmul(f, d)), "a generator column has improper response")


def _factor(op, code, report, files):
    f = load_matrix(op["argv"][1])
    h = load_matrix(op["argv"][2])
    if op["expect"]["yes"]:
        check(code == 0 and report.get("decision") == "yes",
              f"built factorization answered {report.get('decision')} "
              f"with exit code {code}")
    if code == 0:
        check(report.get("decision") == "yes", "exit 0 without a yes")
        g = parse_matrix(report.get("factor"))
        check(is_causal(g), "factor is not causal")
        check(mat_equal(matmul(g, f), h), "g * f != h")
        return
    check(code == 1 and report.get("decision") == "no",
          f"exit code {code} with decision {report.get('decision')}")
    u = [QF.from_json(e) for e in report.get("witness")]
    check(len(u) == len(f[0]), "witness has the wrong length")
    check(all(e.order() >= 0 for e in apply(f, u)), "f * u is not proper")
    check(any(e.order() < 0 for e in apply(h, u)), "h * u is proper")


def _equiv(op, code, report, files):
    f1 = load_matrix(op["argv"][1])
    f2 = load_matrix(op["argv"][2])
    mode = op["argv"][4]
    expect = op["expect"]
    if expect["equivalent"]:
        check(code == 0 and report.get("equivalent") is True,
              f"equivalent pair answered {report.get('equivalent')} "
              f"with exit code {code}")
        post = parse_matrix(report.get("post"))
        check(is_bicausal(post), "post-compensator is not bicausal")
        lhs = matmul(post, f1)
        if mode == "two-sided":
            pre = parse_matrix(report.get("pre"))
            check(is_bicausal(pre), "pre-compensator is not bicausal")
            lhs = matmul(lhs, pre)
        check(mat_equal(lhs, f2), "compensated map differs from the target")
        return
    check(code == 1 and report.get("equivalent") is False,
          f"inequivalent pair answered {report.get('equivalent')} "
          f"with exit code {code}")
    witness = report.get("witness")
    if mode == "two-sided":
        check(witness == {"indices_first": expect["nu1"],
                          "indices_second": expect["nu2"]},
              f"index witness {witness} does not match construction")
        return
    u = [QF.from_json(e) for e in witness]
    proper = [all(e.order() >= 0 for e in apply(f, u)) for f in (f1, f2)]
    check(proper[0] != proper[1],
          "witness is in both latency kernels or in neither")


def _realize(op, code, report, files):
    check(code == 0, f"exit code {code}, expected 0")
    nu = op["expect"]["nu"]
    check(report.get("nu") == nu, f"nu {report.get('nu')} != {nu}")
    sigma = report.get("sigma")
    check(len(sigma) == len(nu) and all(s <= n for s, n in zip(sigma, nu)),
          f"sigma {sigma} exceeds nu {nu}")
    f = load_matrix(op["argv"][1])
    l = load_matrix(op["argv"][2])
    paths = report.get("files", {})
    for name in ("v", "g"):
        check(files.get(name) == paths.get(name), f"{name}.json path differs")
        with open(paths[name], encoding="utf-8") as fh:
            check(json.load(fh) == report.get(name),
                  f"{name}.json differs from the report")
    v = load_matrix(paths["v"])
    g = load_matrix(paths["g"])
    check(is_causal(g), "g is not causal")
    check(is_bicausal(v), "v is not bicausal")
    loop = matadd(identity(len(f[0])), matmul(g, f))
    check(mat_equal(matmul(loop, l), v), "(I + g f) l != v")


def _worstcase(op, code, report, files):
    check(code == 0, f"exit code {code}, expected 0")
    l = parse_matrix(report.get("precompensator"))
    check(len(l) == len(op["expect"]["nu"]), "precompensator is not m x m")
    check(is_bicausal(l), "precompensator is not bicausal")


VERIFIERS = {
    "classify": _classify,
    "expand": _expand,
    "simulate": _simulate,
    "latency": _latency,
    "factor": _factor,
    "equiv": _equiv,
    "realize": _realize,
    "worstcase": _worstcase,
}


def verify(op: dict, code, stdout: str, files=None) -> str | None:
    """None when the output is correct, otherwise the reason it is not.

    files maps "v"/"g" to the paths a realize operation should have
    written.
    """
    try:
        report = json.loads(stdout)
        check(isinstance(report, dict), "report is not a JSON object")
        check(report.get("exit_status") == code,
              f"exit_status {report.get('exit_status')} != exit code {code}")
        check(report.get("command") == op["kind"], "wrong command in report")
        VERIFIERS[op["kind"]](op, code, report, files or {})
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


_COEFF = re.compile(r"^-?\d+(/\d+)?$")


def coefficient_sizes(obj, acc=(0, 0)) -> tuple[int, int]:
    """(max bit length, max degree) of the exact numbers in a report.

    Bits cover every coefficient string, in matrices and expansions alike;
    degrees cover every num/den coefficient list.
    """
    bits, deg = acc
    if isinstance(obj, str):
        if _COEFF.match(obj):
            q = Fraction(obj)
            bits = max(bits, q.numerator.bit_length(),
                       q.denominator.bit_length())
    elif isinstance(obj, dict):
        if isinstance(obj.get("num"), list) and isinstance(obj.get("den"), list):
            deg = max(deg, len(obj["num"]) - 1, len(obj["den"]) - 1)
        for v in obj.values():
            bits, deg = coefficient_sizes(v, (bits, deg))
    elif isinstance(obj, list):
        for v in obj:
            bits, deg = coefficient_sizes(v, (bits, deg))
    return bits, deg
