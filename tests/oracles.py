"""Independent oracles used to freeze expected values.

Everything here recomputes quantities by definitions only: schoolbook
long division for expansions, permutation-sum determinants for minors,
window scans for properness, coefficient lists for the column degrees and
high-coefficient matrix of a polynomial matrix (a TransferMatrix with
polynomial entries; high_coefficient_data).  None of it shares code with the library's
decision procedures, except reference_causal_factor and
reference_left_factor, which keep earlier constructions of the causal and
the bicausal left factor built from column reduction and one inversion,
reference_latency_generator, which keeps the earlier kernel generator
column-reduced from the Smith form, reference_coprime_fraction, which
keeps the earlier coprime fraction built by inverting the GCRD over Q(z)
and column-reducing it with column_reduce_poly (the library's earlier
polynomial column reduction), reference_krylov_kernel_basis, which
keeps the earlier Krylov elimination over Fractions, and
reference_image_complement, which keeps the earlier image complement
read off b1, the inverse replay of the Smith row record.
proper_independence_check, the rank test on leading coefficients, reads
leading_data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from latkern import linalg
from latkern.polymatrix import CoprimeFraction, hermite_gcrd
from latkern.properbasis import (column_reduce_at_infinity, leading_data,
                                 smith_at_infinity)
from latkern.rational import ORD_INF, Poly, RatFun, poly_lcm
from latkern.simulate import SeriesMatrix
from latkern.transfer import InternalCheckError, TransferMatrix


def long_division(num_coeffs, den_coeffs, horizon):
    """Laurent coefficients of num/den as a dict {t: coeff} up to horizon.

    num_coeffs / den_coeffs are ascending Fraction lists.  Plain long
    division in descending powers, one subtraction per emitted term.
    """
    num = {i: Fraction(c) for i, c in enumerate(num_coeffs) if c}
    den = {i: Fraction(c) for i, c in enumerate(den_coeffs) if c}
    if not den:
        raise ZeroDivisionError
    out = {}
    if not num:
        return out
    dtop = max(den)
    dlead = den[dtop]
    while num:
        ntop = max(num)
        t = dtop - ntop  # power z^ntop corresponds to index t = -ntop... shifted
        if t > horizon:
            break
        c = num[ntop] / dlead
        out[t] = c
        for k, dv in den.items():
            key = ntop - dtop + k
            num[key] = num.get(key, Fraction(0)) - c * dv
            if num[key] == 0:
                del num[key]
    return out


def _strip(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_add_ref(a, b):
    """Sum of ascending coefficient lists, coefficient by coefficient."""
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _strip(x + y for x, y in zip(a, b))


def poly_mul_ref(a, b):
    """Product of ascending coefficient lists, schoolbook over Fraction."""
    a, b = _strip(a), _strip(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def poly_divmod_ref(a, b):
    """(q, r) with a = q b + r and deg r < deg b, by long division over
    Fraction, one leading term at a time."""
    r, b = _strip(a), _strip(b)
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        q[k] = c
        r = _strip(r[:k] + [x - c * y for x, y in zip(r[k:], b)])
    return _strip(q), r


def poly_gcd_ref(a, b):
    """Monic gcd by the Euclidean algorithm over Fraction."""
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, poly_divmod_ref(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def expansion_oracle(r: RatFun, horizon: int):
    """{t: coeff} for the expansion of a RatFun, by long division."""
    return long_division(r.num.coeffs, r.den.coeffs, horizon)


def convolve_dicts(a, b, horizon):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            t = i + j
            if t <= horizon:
                out[t] = out.get(t, Fraction(0)) + x * y
    return {t: c for t, c in out.items() if c != 0}


def series_product_coeff(a, a_start, b, b_start, t):
    """Coefficient matrix at index t of the product of two matrix series.

    a and b are lists of coefficient matrices (rows of Fractions) at
    indices a_start, a_start + 1, ... and b_start, b_start + 1, ...;
    indices outside a list are 0.  Schoolbook over Fraction: the sum of
    a_i b_(t-i), one scalar product at a time.
    """
    rows, inner, cols = len(a[0]), len(b[0]), len(b[0][0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i, ai in enumerate(a):
        j = t - (a_start + i) - b_start
        if not 0 <= j < len(b):
            continue
        for r in range(rows):
            for c in range(cols):
                for k in range(inner):
                    out[r][c] += Fraction(ai[r][k]) * Fraction(b[j][k][c])
    return tuple(tuple(row) for row in out)


def agrees_with(a: SeriesMatrix, b: SeriesMatrix) -> bool:
    """Coefficientwise equality of two series on their common window,
    from the earlier start to the earlier horizon.  Each entry is an
    integer sequence over its own denominator, so entries are compared by
    cross-multiplying; a series is zero before its start."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return False
    lo = min(a.start, b.start)
    hi = min(a.horizon, b.horizon)
    for arow, brow in zip(a._entries, b._entries):
        for (x, dx), (y, dy) in zip(arow, brow):
            x = ([0] * (a.start - lo) + x)[:hi - lo + 1]
            y = ([0] * (b.start - lo) + y)[:hi - lo + 1]
            if [e * dy for e in x] != [e * dx for e in y]:
                return False
    return True


def add_dicts(a, b):
    out = dict(a)
    for t, c in b.items():
        out[t] = out.get(t, Fraction(0)) + c
    return {t: c for t, c in out.items() if c != 0}


def permutation_det(entries) -> RatFun:
    """Determinant by the full permutation sum (no elimination)."""
    n = len(entries)
    total = RatFun.const(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = RatFun.const(sign)
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term
    return total


def minor_order_table(f):
    """{k: minimum order among k x k minors (ORD_INF if all vanish)}.

    Determinants by cofactor expansion along the first selected row, with
    shared submatrix determinants memoized; no elimination involved.
    """
    memo = {}

    def det(rows, cols):
        if (rows, cols) not in memo:
            if len(rows) == 1:
                memo[rows, cols] = f.entry(rows[0], cols[0])
            else:
                acc = RatFun.const(0)
                r = rows[0]
                rest = rows[1:]
                for idx, c in enumerate(cols):
                    e = f.entry(r, c)
                    if e.is_zero:
                        continue
                    sub = det(rest, cols[:idx] + cols[idx + 1:])
                    term = e * sub
                    acc = acc + term if idx % 2 == 0 else acc - term
                memo[rows, cols] = acc
        return memo[rows, cols]

    table = {}
    for k in range(1, min(f.rows, f.cols) + 1):
        best = ORD_INF
        for rows in combinations(range(f.rows), k):
            for cols in combinations(range(f.cols), k):
                d = det(rows, cols)
                if not d.is_zero:
                    best = min(best, d.order())
        table[k] = best
    return table


def min_minor_order(f, k):
    """Minimum order among k x k minors, ORD_INF if all vanish."""
    return minor_order_table(f)[k]


def image_is_proper(f, u, floor=None) -> bool:
    """Properness of f*u decided by scanning expansion windows only.

    The scan covers [floor, 0]; floor defaults to a bound below which no
    coefficient can live (sum of orders of the factors).
    """
    image_dicts = []
    for i in range(f.rows):
        acc = {}
        for j in range(f.cols):
            e = f.entry(i, j)
            x = u[j]
            if e.is_zero or x.is_zero:
                continue
            d = convolve_dicts(expansion_oracle(e, 0 - x.order()),
                               expansion_oracle(x, 0 - e.order()), 0)
            acc = add_dicts(acc, d)
        image_dicts.append(acc)
    return all(all(t >= 0 for t in d) for d in image_dicts)


def hstack(a, b):
    """The block matrix [a, b]."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    return TransferMatrix([list(x) + list(y)
                           for x, y in zip(a.entries, b.entries)])


def reference_latency_generator(f):
    """(generator, its inverse, orders) of f's latency kernel.

    The earlier construction: column-reduce b2^-1 * diag(z^sigma) from the
    Smith form f = b1 * delta * b2 to an ordered proper basis raw * w, and
    invert it as w^-1 * diag(z^-sigma) * b2, with w^-1 by Gauss-Jordan.
    """
    s = smith_at_infinity(f)
    raw = TransferMatrix([[e * RatFun.zpow(k) for e, k in zip(row, s.sigma)]
                          for row in s.b2_inv.entries])
    raw_inv = TransferMatrix([[e * RatFun.zpow(-k) for e in row]
                              for row, k in zip(s.b2.entries, s.sigma)])
    pb, w = column_reduce_at_infinity(raw)
    return pb.columns, w.inverse() * raw_inv, pb.orders


def reference_causal_factor(f, h):
    """g with g*f = h that is zero on the constant completion of the image.

    The construction from a column-reduced image basis: reduce f to a
    proper basis f*w of its image, extend it by unit columns to a proper
    basis of the output space, and solve g * [f*w, units] = [h*w, 0] by
    inverting that basis.  Valid whenever h = g*f has a causal solution.
    """
    pb, w = column_reduce_at_infinity(f)
    completion = extend_to_proper_basis(pb, f.rows)
    basis = pb.columns
    target = h * w
    if completion is not None:
        basis = hstack(basis, completion)
        target = hstack(target, TransferMatrix.zero(h.rows, completion.cols))
    return target * basis.inverse()


def extend_to_proper_basis(partial, ambient_dim: int):
    """Constant unit columns completing the leading coefficients to K^n.

    The union of the proper basis partial and the returned columns is a
    proper basis of the full n-dimensional Laurent space, and the two
    spans form a proper direct sum.  Unit vectors are tried from the
    lowest index and kept when they raise the rank.  Returns None when the
    partial basis is full; partial=None stands for the empty basis and
    yields identity columns.
    """
    k = partial.columns.cols if partial is not None else 0
    if k > ambient_dim:
        raise ValueError("partial basis larger than ambient space")
    if k == ambient_dim:
        return None
    rows = ([list(row) for row in partial.leading_matrix] if k
            else [[] for _ in range(ambient_dim)])
    chosen = []
    for i in range(ambient_dim):
        trial = [row + [Fraction(1 if r == i else 0)]
                 for r, row in enumerate(rows)]
        if linalg.rank(trial) == len(trial[0]):
            rows = trial
            chosen.append(i)
    return TransferMatrix.from_columns(
        [[RatFun.const(1 if r == i else 0) for r in range(ambient_dim)]
         for i in chosen])


def proper_independence_check(cols):
    """Whether the leading coefficients are independent over K.

    Returns (flag, leading matrix).  A zero vector is never properly
    independent.
    """
    cols = [tuple(c) for c in cols]
    orders, lead_matrix = leading_data(cols)
    if any(o == ORD_INF for o in orders):
        return False, lead_matrix
    return linalg.rank(lead_matrix) == len(cols), lead_matrix


def unit_completion(lead_cols, ambient_dim: int) -> tuple:
    """Indices of the unit vectors that complete span(lead_cols) to K^n.

    The earlier image-complement route, on the leads of b1 rather than
    the annihilator rows of b1^-1: the pivot columns past the leads in one
    echelon form of [lead_cols | I], greedy from the lowest index.
    """
    k = len(lead_cols)
    rows = [[c[r] for c in lead_cols] + list(unit)
            for r, unit in enumerate(linalg.eye(ambient_dim))]
    return tuple(c - k for c in linalg._echelon(rows) if c >= k)


def reference_image_complement(s) -> tuple:
    """unit_completion on the constant terms of the first len(s.sigma)
    columns of b1, replayed from the inverse of the Smith row record."""
    b1 = TransferMatrix(s.row_ops.inverse())
    lead_cols = [[row[j].laurent_coeff(0) for row in b1.entries]
                 for j in range(len(s.sigma))]
    return unit_completion(lead_cols, b1.rows)


def reference_left_factor(f1, f2):
    """Bicausal l with f2 = l * f1, given equal latency kernels.

    The construction from column-reduced image bases: reduce both maps to
    proper bases of their images, extend each with unit columns to a
    proper basis of the output space, and map basis to basis by inverting
    the first: the image part carries f1's coordinates to f2's, the
    complement part is matched columnwise.
    """
    pb1, w1 = column_reduce_at_infinity(f1)
    pb2, _ = column_reduce_at_infinity(f2)
    r1 = extend_to_proper_basis(pb1, f1.rows)
    r2 = extend_to_proper_basis(pb2, f1.rows)
    target = f2 * w1
    source = pb1.columns
    if r1 is not None:
        source = hstack(source, r1)
        target = hstack(target, r2)
    return target * source.inverse()


def column_reduce_poly(p: TransferMatrix):
    """Column-reduced form of a nonsingular polynomial matrix.

    Returns (p', w, w_inv) with p' = p * w, w unimodular with inverse w_inv
    (replayed from the record of column operations), and the matrix of
    highest-column-degree coefficients of p' nonsingular; the sum of column
    degrees then equals deg det p.  Each step lowers one column degree, so
    a singular p, and only a singular p, reaches a zero column: ValueError.
    """
    if p.rows != p.cols:
        raise ValueError("column reduction here expects a square matrix")
    n = p.cols
    cols = [list(c) for c in zip(*poly_entries(p))]
    ops = linalg.RowOps(n, Poly.one(), cols)
    degs = [max(e.degree for e in col) for col in cols]
    highs = [tuple(e.coeff(d) for e in col) for col, d in zip(cols, degs)]
    while True:
        if min(degs) < 0:
            raise ValueError("column reduction of a singular matrix")
        alpha = linalg.nullspace_vector(tuple(zip(*highs)))
        if alpha is None:
            break
        support = [i for i, x in enumerate(alpha) if x != 0]
        j = max(support, key=lambda i: (degs[i], -i))
        # Column j becomes sum_i alpha_i * z^(degs[j] - degs[i]) * column i;
        # only column j changes, so only its degree and high row are redone.
        ops.scale(j, alpha[j])
        for i in support:
            if i != j:
                ops.add(j, i, Poly.const(alpha[i]).shift(degs[j] - degs[i]))
        new_deg = max(e.degree for e in cols[j])
        if new_deg >= degs[j]:
            raise InternalCheckError("lead cancellation did not lower the "
                                     "column degree")
        degs[j] = new_deg
        highs[j] = tuple(e.coeff(new_deg) for e in cols[j])
    # The record acts on columns, so w and w^-1 are its replays transposed.
    return (TransferMatrix(zip(*cols)), TransferMatrix(zip(*ops.transform())),
            TransferMatrix(zip(*ops.inverse())))


def reference_coprime_fraction(v):
    """Right coprime fraction v = num * den^-1 with column-reduced den.

    The construction by inversion: divide the GCRD r of (A, d I) out of
    the common-denominator fraction v = A * (d I)^-1 as num = A * r^-1 and
    den = d * r^-1 over Q(z), then column-reduce den.  Degree, reproduction
    and coprimeness are checked by permutation-sum determinants, an
    inverse of den and a second GCRD.
    """
    d = Poly.one()
    for row in v.entries:
        for e in row:
            d = poly_lcm(d, e.den)
    m = v.cols
    abar = TransferMatrix([[e.num * (d // e.den) for e in row]
                           for row in v.entries])
    dmat = TransferMatrix.diag([d] * m)
    r, _, _ = hermite_gcrd(abar, dmat)
    r_inv = r.inverse()
    num, den = abar * r_inv, dmat * r_inv
    poly_entries(num)
    den, cert, _ = column_reduce_poly(den)
    num = num * cert
    degrees, _ = high_coefficient_data(den)
    assert poly_matrix_det(den).degree == sum(degrees)
    assert num * den.inverse() == v
    gc, _, _ = hermite_gcrd(num, den)
    assert poly_matrix_det(gc).degree == 0
    return CoprimeFraction(num, den, degrees)


def poly_entries(t) -> list:
    """The Poly entries of a transfer matrix with polynomial entries, row
    by row; ValueError names the first entry that is not polynomial."""
    for row in t.entries:
        for e in row:
            if not e.is_polynomial:
                raise ValueError(f"entry {e} is not polynomial")
    return [[e.num for e in row] for row in t.entries]


def high_coefficient_data(p):
    """(column degrees, high-coefficient matrix) of a polynomial matrix,
    read off the coefficient lists: the degree of column j is the largest
    index of a nonzero coefficient in its entries (-1 for a zero column),
    and the high-coefficient matrix holds each entry's coefficient at its
    column's degree (zeros in a zero column)."""
    coeffs = [[e.coeffs for e in row] for row in poly_entries(p)]
    degrees = tuple(max(len(row[j]) for row in coeffs) - 1
                    for j in range(p.cols))
    high = tuple(tuple(c[d] if 0 <= d < len(c) else Fraction(0)
                       for c, d in zip(row, degrees)) for row in coeffs)
    return degrees, high


def poly_matrix_det(p) -> Poly:
    """Determinant of a square polynomial matrix by the permutation sum."""
    return permutation_det(p.entries).num


def reference_krylov_kernel_basis(abar: TransferMatrix, d: Poly):
    """(degrees, k) as krylov_kernel_basis returns them, by the earlier
    elimination over Q: the residues of z^i * abar * e_j mod d are Fraction
    vectors, each basis vector is scaled to 1 at its pivot, and the
    dependence of each column on the ones before it is carried as Fraction
    coefficients.  The pivots and the dependencies are those of the
    fraction-free elimination, so the two results are equal."""
    n = d.degree
    tail = d.coeffs[:n]  # d is monic: z^n = -sum_i tail[i] z^i mod d
    m = abar.cols
    residues = {}
    for j in range(m):
        vec = []
        for row in abar.entries:
            c = (row[j].num % d).coeffs
            vec += c + (Fraction(0),) * (n - len(c))
        residues[j] = vec
    basis = []  # (pivot, vector with 1 at the pivot, {(i, j): coefficient})
    degrees, kernel = [0] * m, [None] * m
    i = 0
    while residues:
        for j in list(residues):
            x, comb = residues[j], {}
            for piv, w, wcomb in basis:
                a = x[piv]
                if a:
                    x = [xe - a * we if we else xe for xe, we in zip(x, w)]
                    for label, c in wcomb.items():
                        comb[label] = comb.get(label, 0) + a * c
            # x = z^i abar e_j - sum comb[label] * (column label)
            piv = next((t for t, xe in enumerate(x) if xe), None)
            if piv is None:
                coeffs = [[Fraction(0)] * (i + 1) for _ in range(m)]
                coeffs[j][i] = Fraction(1)
                for (ii, jj), c in comb.items():
                    coeffs[jj][ii] -= c
                degrees[j], kernel[j] = i, [Poly(c) for c in coeffs]
                del residues[j]
                continue
            a = x[piv]
            wcomb = {label: -c / a for label, c in comb.items()}
            wcomb[i, j] = 1 / a
            basis.append((piv, [xe / a for xe in x], wcomb))
        for j, vec in residues.items():
            shifted = []
            for b in range(0, len(vec), n):
                top = vec[b + n - 1]
                shifted += [(vec[b + t - 1] if t else 0) - top * tail[t]
                            for t in range(n)]
            residues[j] = shifted
        i += 1
    return degrees, TransferMatrix(zip(*kernel))
