"""Transfer matrices: Markov coefficients, classification, inversion."""

import random

import pytest

import latkern.transfer
from latkern.rational import ORD_INF, Poly, RatFun
from latkern.transfer import SingularMatrixError, TransferMatrix
from oracles import expansion_oracle

from gen import rand_matrix, rand_nonzero_matrix, rand_bicausal, rand_ratfun

z = RatFun.zpow


def test_markov_examples():
    f = TransferMatrix.scalar(RatFun(Poly([1]), Poly([-1, 1])))
    assert f.markov(3) == ((1,),)
    g = TransferMatrix.scalar(RatFun(Poly([2, 1]), Poly([0, 1])))
    assert g.markov(0) == ((1,),)
    d = TransferMatrix.diag([z(-1), z(-3)])
    assert d.markov(1) == ((1, 0), (0, 0))
    assert d.markov(0) == ((0, 0), (0, 0))


def test_map_order_examples():
    assert TransferMatrix.diag([z(-1), z(-3)]).order() == 1
    assert TransferMatrix([[z(1), z(-1)]]).order() == -1
    assert TransferMatrix.zero(2, 2).order() == ORD_INF


def test_classify_examples():
    r = TransferMatrix.scalar(RatFun(Poly([2, 1]), Poly([0, 1]))).classify()
    assert r.causal and r.bicausal and r.instantaneous
    assert not r.strictly_causal

    col = TransferMatrix.from_columns([[z(-1), z(-1)]]).classify()
    assert col.strictly_causal and col.order_consistent and col.nonlatent

    # all-z^-1 2x2 kills (1, -1): frozen from the order-jump oracle
    flat = TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]])
    image = flat.apply([RatFun.const(1), RatFun.const(-1)])
    assert all(e.is_zero for e in image)  # order jumps to infinity
    rep = flat.classify()
    assert rep.strictly_causal and not rep.order_consistent


def test_invert_examples():
    f = TransferMatrix.scalar(RatFun(Poly([2, 1]), Poly([0, 1])))
    assert f.inverse() == TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([2, 1])))

    g = TransferMatrix([[z(-1), RatFun.const(0)], [z(-2), RatFun.const(1)]])
    gi = g.inverse()
    assert g * gi == TransferMatrix.identity(2)
    assert gi == TransferMatrix([[z(1), RatFun.const(0)],
                                 [-z(-1), RatFun.const(1)]])

    with pytest.raises(SingularMatrixError) as err:
        TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]]).inverse()
    witness = err.value.witness
    assert witness == (RatFun.const(1), RatFun.const(-1))


def test_static_strict_split_examples():
    f = TransferMatrix.scalar(RatFun(Poly([2, 1]), Poly([0, 1])))
    l0, h = f.static_strict_split()
    assert l0 == ((1,),)
    assert h == TransferMatrix.scalar(RatFun(Poly([2]), Poly([0, 1])))

    g = TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([2, 1])))
    # frozen from the expansion oracle: A0 = 1, A1 = -2
    d = expansion_oracle(g.entry(0, 0), 1)
    assert d[0] == 1 and d[1] == -2
    l0, h = g.static_strict_split()
    assert l0 == ((1,),)
    assert h == TransferMatrix.scalar(RatFun(Poly([-2]), Poly([2, 1])))
    assert h.classify().strictly_causal

    l0, h = TransferMatrix.scalar(z(-1)).static_strict_split()
    assert l0 == ((0,),) and h == TransferMatrix.scalar(z(-1))


def test_split_requires_causal():
    with pytest.raises(ValueError):
        TransferMatrix.scalar(z(1)).static_strict_split()


def test_apply_examples():
    d = TransferMatrix.diag([z(-1), z(-3)])
    assert d.apply([z(1), z(3)]) == (RatFun.const(1), RatFun.const(1))
    assert TransferMatrix.scalar(z(-1)).apply([RatFun.const(0)]) == (RatFun.const(0),)
    # frozen from the convolution oracle at horizon 5
    row = TransferMatrix([[z(-1), z(-2)]])
    out = row.apply([RatFun.const(1), z(1)])
    assert out == (RatFun(Poly([2]), Poly([0, 1])),)
    d5 = expansion_oracle(out[0], 5)
    assert d5 == {1: 2}
    with pytest.raises(ValueError):
        row.apply([RatFun.const(1)])


def test_transpose_rank_examples():
    flat = TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]])
    t, r = flat.transpose(), flat.rank()
    assert r == 1 and t == flat
    assert TransferMatrix.diag([z(-1), z(-3)]).rank() == 2
    assert TransferMatrix.zero(2, 3).rank() == 0


def test_classify_matches_window_definition():
    rng = random.Random(21)
    for _ in range(100):
        f = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        rep = f.classify()
        window_causal = all(
            not any(v for row in f.markov(k) for v in row)
            for k in range(-10, 0))
        assert rep.causal == window_causal


def test_order_consistency_means_constant_order_drop():
    rng = random.Random(22)
    checked = 0
    while checked < 30:
        f = rand_nonzero_matrix(rng, 2, 2, 2)
        rep = f.classify()
        drops = set()
        for _ in range(20):
            u = [rand_ratfun(rng, 3) for _ in range(2)]
            if all(x.is_zero for x in u):
                continue
            image = f.apply(u)
            if all(e.is_zero for e in image):
                drops.add(ORD_INF)
                continue
            iord = min(e.order() for e in image if not e.is_zero)
            uord = min(x.order() for x in u if not x.is_zero)
            drops.add(iord - uord)
        if rep.order_consistent:
            assert drops == {rep.map_order}
        else:
            # a kernel vector of the leading coefficient shows the jump
            from latkern import linalg
            killer = linalg.nullspace_vector(f.markov(rep.map_order))
            u = [RatFun.const(c) for c in killer]
            image = f.apply(u)
            jumped = (all(e.is_zero for e in image)
                      or min(e.order() for e in image if not e.is_zero)
                      > rep.map_order)
            assert jumped
        checked += 1


def test_bicausal_inverse_properties():
    rng = random.Random(23)
    for _ in range(25):
        b = rand_bicausal(rng, 2, 2)
        rep = b.classify()
        assert rep.bicausal
        binv = b.inverse()
        inv_rep = binv.classify()
        assert inv_rep.bicausal and inv_rep.map_order == 0
        from latkern import linalg
        assert binv.markov(0) == linalg.invert(b.markov(0))


def test_static_strict_split_roundtrip_random():
    rng = random.Random(24)
    for _ in range(30):
        f = rand_bicausal(rng, 2, 3)
        l0, h = f.static_strict_split()
        assert TransferMatrix.from_constant(l0) + h == f
        assert h.classify().strictly_causal


def test_products_skip_pairs_with_a_zero_factor(monkeypatch):
    # A pair with a zero factor adds nothing to an entry of a product, so
    # no RatFun product is formed for it, as a parts product or as a
    # _mul_reduced.  The values are the plain sums.
    rng = random.Random(61)
    a, b = rand_nonzero_matrix(rng, 3, 4, 2), rand_nonzero_matrix(rng, 4, 2, 2)
    a = TransferMatrix([[0 if (i + j) % 2 else e for j, e in enumerate(row)]
                        for i, row in enumerate(a.entries)])
    b = TransferMatrix([[0 if i == 1 else e for e in row]
                        for i, row in enumerate(b.entries)])
    u = [rand_ratfun(rng, 2), RatFun.const(0), rand_ratfun(rng, 2), 0]
    want_ab = [[sum((a.entry(i, k) * b.entry(k, j) for k in range(4)),
                    RatFun.const(0)) for j in range(2)] for i in range(3)]
    want_au = [sum((a.entry(i, k) * u[k] for k in range(4)), RatFun.const(0))
               for i in range(3)]
    zero_operands = []
    mul = RatFun._mul_reduced
    mul_parts = latkern.transfer._mul_parts

    def checked(self, num, den):
        if self.is_zero or num.is_zero:
            zero_operands.append((self, num))
        return mul(self, num, den)

    def checked_parts(x, y):
        if not x[2] or not y[2]:
            zero_operands.append((x, y))
        return mul_parts(x, y)

    monkeypatch.setattr(RatFun, "_mul_reduced", checked)
    monkeypatch.setattr(latkern.transfer, "_mul_parts", checked_parts)
    assert a * b == TransferMatrix(want_ab)
    assert a.apply(u) == tuple(want_au)
    assert TransferMatrix.zero(2, 3) * a == TransferMatrix.zero(2, 4)
    assert zero_operands == []


def test_dense_product_makes_no_ratfun_sum(monkeypatch):
    # Each entry of a product stays in parts form from its first product
    # to its last sum, so no canonical RatFun sum is formed on the way.
    rng = random.Random(62)
    a, b = rand_nonzero_matrix(rng, 3, 3, 2), rand_nonzero_matrix(rng, 3, 3, 2)
    a = TransferMatrix([[e or RatFun.const(1) for e in row]
                        for row in a.entries])
    b = TransferMatrix([[e or z(-1) for e in row] for row in b.entries])
    want = [[sum((a.entry(i, k) * b.entry(k, j) for k in range(3)),
                 RatFun.const(0)) for j in range(3)] for i in range(3)]

    def refuse(self, other, sign):
        raise AssertionError("RatFun._add_reduced called")

    monkeypatch.setattr(RatFun, "_add_reduced", refuse)
    assert a * b == TransferMatrix(want)
