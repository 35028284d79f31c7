"""Proper bases, column reduction, Smith form at infinity, order chains."""

import random
from fractions import Fraction

import pytest

from latkern import linalg
from latkern.properbasis import (ProperBasis, _unit_completion, column_order,
                                 column_reduce_at_infinity, leading_data,
                                 order_chain, proper_independence_check,
                                 smith_at_infinity)
from latkern.rational import ORD_INF, Poly, RatFun
from latkern.transfer import TransferMatrix
from oracles import extend_to_proper_basis, min_minor_order

from gen import (rand_full_rank_matrix, rand_nonzero_matrix, rand_ratfun,
                 rand_strictly_causal_injective)

z = RatFun.zpow
one = RatFun.const(1)
zero = RatFun.const(0)


def test_proper_independence_examples():
    ok, leads = proper_independence_check([(one, z(-1)), (z(-1), one)])
    assert ok and leads == ((1, 0), (0, 1))
    ok, leads = proper_independence_check([(one, zero), (one, z(-1))])
    assert not ok and leads == ((1, 1), (0, 0))
    assert not proper_independence_check([(zero, zero)])[0]


def predictable_order_holds(pb: ProperBasis, rng, trials=200) -> bool:
    cols = pb.columns.columns()
    for _ in range(trials):
        alphas = [rand_ratfun(rng, 3) for _ in cols]
        if all(a.is_zero for a in alphas):
            continue
        combo = [RatFun.const(0)] * len(cols[0])
        term_orders = []
        for a, col in zip(alphas, cols):
            if a.is_zero:
                continue
            term_orders.append(a.order() + column_order(col))
            combo = [acc + a * e for acc, e in zip(combo, col)]
        expected = min(term_orders)
        got = column_order(combo)
        if got != expected:
            return False
    return True


def test_column_reduce_example_pair():
    m = TransferMatrix.from_columns([[one, zero], [one, z(-1)]])
    pb, w = column_reduce_at_infinity(m)
    assert w.classify().bicausal
    assert m * w == pb.columns
    assert proper_independence_check(pb.columns.columns())[0]
    assert pb.orders == (0, 1)


def test_column_reduce_already_proper_is_permutation():
    d = TransferMatrix.diag([z(1), z(3)])
    pb, w = column_reduce_at_infinity(d)
    assert pb.orders == (-3, -1)
    # w only reorders the columns
    assert all(e in (RatFun.const(0), RatFun.const(1))
               for row in w.entries for e in row)
    assert d * w == pb.columns


def test_column_reduce_dependent_leads():
    m = TransferMatrix.from_columns([[z(-1), z(-1)], [z(-1), zero]])
    before = sum(column_order(c) for c in m.columns())
    pb, w = column_reduce_at_infinity(m)
    assert w.classify().bicausal and m * w == pb.columns
    assert sum(pb.orders) >= before
    rng = random.Random(31)
    assert predictable_order_holds(pb, rng, trials=20)


def test_column_reduce_rejects_rank_deficiency():
    m = TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]])
    with pytest.raises(ValueError, match="full column rank"):
        column_reduce_at_infinity(m)


def refuse_rank(self):
    raise RuntimeError("TransferMatrix.rank called")


def test_column_reduce_stops_at_the_order_bound(monkeypatch):
    # (z - 1)/(z - 2) never cancels to zero against 1, but every
    # cancellation raises the order sum, which full column rank bounds by
    # the sum of the denominator degrees (here 1): after two
    # cancellations the sum is 2 and the columns are proved dependent.
    monkeypatch.setattr(TransferMatrix, "rank", refuse_rank)
    nullspace_vector = linalg.nullspace_vector
    cancellations = []  # each follows a dependency of the leads

    def counting(a):
        alpha = nullspace_vector(a)
        if alpha is not None:
            cancellations.append(alpha)
        return alpha

    monkeypatch.setattr(linalg, "nullspace_vector", counting)
    m = TransferMatrix([[one, RatFun(Poly([-1, 1]), Poly([-2, 1]))]])
    with pytest.raises(ValueError, match="full column rank"):
        column_reduce_at_infinity(m)
    assert 1 <= len(cancellations) <= 2


def test_column_reduce_rejects_a_rational_dependency(monkeypatch):
    # A 3x3 matrix whose third column is a rational combination of the
    # other two.
    rng = random.Random(34)
    c0, c1 = rand_full_rank_matrix(rng, 3, 2, 2).columns()
    x, y = rand_ratfun(rng, 2, nonzero=True), rand_ratfun(rng, 2, nonzero=True)
    m = TransferMatrix.from_columns([c0, c1, [x * e0 + y * e1
                                              for e0, e1 in zip(c0, c1)]])
    monkeypatch.setattr(TransferMatrix, "rank", refuse_rank)
    with pytest.raises(ValueError, match="full column rank"):
        column_reduce_at_infinity(m)


def test_predictable_order_property_random():
    rng = random.Random(32)
    for _ in range(5):
        m = rand_full_rank_matrix(rng, 3, 2, 2)
        pb, _ = column_reduce_at_infinity(m)
        assert predictable_order_holds(pb, rng, trials=50)


def test_span_dimension_equals_lead_dimension():
    rng = random.Random(33)
    for _ in range(10):
        m = rand_full_rank_matrix(rng, 3, 2, 2)
        pb, _ = column_reduce_at_infinity(m)
        assert linalg.rank(pb.leading_matrix) == pb.columns.cols == m.rank()


def test_extension_examples():
    cols = [(z(-1), z(-2))]
    orders, leads = leading_data(cols)
    pb = ProperBasis(TransferMatrix.from_columns(cols), tuple(orders), leads)
    comp = extend_to_proper_basis(pb, 2)
    assert comp == TransferMatrix.from_columns([[zero, one]])

    full_pb, _ = column_reduce_at_infinity(TransferMatrix.identity(2))
    assert extend_to_proper_basis(full_pb, 2) is None

    assert extend_to_proper_basis(None, 2) == TransferMatrix.identity(2)


def test_unit_completion_is_the_greedy_rank_route():
    # One echelon form of [leads | I] picks the unit vectors that a rank
    # per candidate picks, greedy from the lowest index; the leads may be
    # dependent or zero.
    rng = random.Random(72)
    for _ in range(60):
        n, k = rng.randint(1, 4), rng.randint(0, 3)
        leads = [[Fraction(rng.choice([0, 0, 1, -2, 3])) for _ in range(n)]
                 for _ in range(k)]
        chosen, vectors = [], list(leads)
        for i in range(n):
            unit = [Fraction(int(r == i)) for r in range(n)]
            before = linalg.rank(tuple(zip(*vectors))) if vectors else 0
            if linalg.rank(tuple(zip(*(vectors + [unit])))) > before:
                vectors.append(unit)
                chosen.append(i)
        assert _unit_completion(leads, n) == tuple(chosen)


def test_proper_direct_sum_order_rule():
    rng = random.Random(34)
    for _ in range(10):
        m = rand_full_rank_matrix(rng, 3, 2, 2)
        pb, _ = column_reduce_at_infinity(m)
        comp = extend_to_proper_basis(pb, 3)
        for _ in range(20):
            a = [rand_ratfun(rng, 2) for _ in range(pb.columns.cols)]
            b = [rand_ratfun(rng, 2) for _ in range(comp.cols)]
            s1 = pb.columns.apply(a)
            s2 = comp.apply(b)
            total = [x + y for x, y in zip(s1, s2)]
            o1 = column_order(s1)
            o2 = column_order(s2)
            assert column_order(total) == min(o1, o2)


def test_smith_examples():
    s = smith_at_infinity(TransferMatrix.diag([z(-1), z(-3)]))
    assert s.sigma == (1, 3)
    assert s.b1 == TransferMatrix.identity(2)
    assert s.b2 == TransferMatrix.identity(2)

    f = TransferMatrix([[z(-1), z(-2)], [zero, z(-3)]])
    s2 = smith_at_infinity(f)
    assert s2.sigma == (1, 3)
    # frozen from the minor oracle: min entry order 1, det order 4
    assert min_minor_order(f, 1) == 1 and min_minor_order(f, 2) == 4

    low = TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]])
    s3 = smith_at_infinity(low)
    assert s3.sigma == (1,)
    assert min_minor_order(low, 1) == 1 and min_minor_order(low, 2) == ORD_INF
    assert s3.reassemble() == low


def test_smith_rejects_zero():
    with pytest.raises(ValueError):
        smith_at_infinity(TransferMatrix.zero(2, 2))


def test_smith_soundness_random():
    rng = random.Random(35)
    for _ in range(25):
        p, m = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_nonzero_matrix(rng, p, m, 2)
        s = smith_at_infinity(f)
        assert s.b1.classify().bicausal and s.b2.classify().bicausal
        assert s.reassemble() == f
        assert all(a <= b for a, b in zip(s.sigma, s.sigma[1:]))
        partial = 0
        for k, sig in enumerate(s.sigma, start=1):
            partial += sig
            assert partial == min_minor_order(f, k)


def test_order_chain_examples():
    ch = order_chain(TransferMatrix.diag([z(1), z(3)]))
    assert (ch.k_lower, ch.k_upper) == (-3, -1)
    assert ch.mu == {-3: 1, -2: 1, -1: 2}
    assert ch.subspaces[-3] == ((0,), (1,))
    assert linalg.rank(ch.subspaces[-1]) == 2

    ch2 = order_chain(TransferMatrix.diag([z(1), z(1)]))
    assert (ch2.k_lower, ch2.k_upper) == (-1, -1)
    assert ch2.mu == {-1: 2}

    reduced = TransferMatrix.from_columns([[one, zero], [zero, z(-1)]])
    ch3 = order_chain(reduced)
    assert ch3.mu == {0: 1, 1: 2}
    assert ch3.subspaces[0] == ((1,), (0,))


def test_order_chain_rejects_improper_generator():
    with pytest.raises(ValueError, match="properly independent"):
        order_chain(TransferMatrix.from_columns([[one, zero], [one, z(-1)]]))


def test_smith_carries_b2_inverse_random():
    rng = random.Random(36)
    for m in range(1, 5):
        for p in (m, m + 1):
            f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                  max_deg=1)
            s = smith_at_infinity(f)
            assert s.b2 * s.b2_inv == TransferMatrix.identity(m)
            assert s.b1 * s.b1_inv == TransferMatrix.identity(p)
    for _ in range(10):
        # wide and rank-deficient maps too: every row and column op is
        # mirrored
        p, m = rng.randint(1, 3), rng.randint(1, 3)
        s = smith_at_infinity(rand_nonzero_matrix(rng, p, m, 2))
        assert s.b2 * s.b2_inv == TransferMatrix.identity(m)
        assert s.b1 * s.b1_inv == TransferMatrix.identity(p)


def test_column_reduce_transform_random():
    rng = random.Random(37)
    for m in range(1, 5):
        for p in (m, m + 1):
            f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                  max_deg=1)
            pb, w = column_reduce_at_infinity(f)
            assert w.classify().bicausal and f * w == pb.columns
            assert proper_independence_check(pb.columns.columns())[0]
