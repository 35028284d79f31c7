"""Convolution harness: agreement with exact arithmetic on windows."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkern.rational import Poly, RatFun
from latkern.simulate import SeriesMatrix, simulate_response
from latkern.transfer import TransferMatrix

from gen import rand_bicausal, rand_matrix, rand_ratfun, rationals
from oracles import agrees_with, expansion_oracle, series_product_coeff

z = RatFun.zpow


def test_simulate_matches_apply_and_expand():
    rng = random.Random(81)
    horizon = 15
    for _ in range(50):
        p, m = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_matrix(rng, p, m, 2)
        u = [rand_ratfun(rng, 2) for _ in range(m)]
        series = simulate_response(f, u, horizon)
        exact = f.apply(u)
        valid = series.horizon
        for i, e in enumerate(exact):
            for t in range(series.start, valid + 1):
                assert series.coeff(t)[i][0] == e.laurent_coeff(t)


def _mixed_matrix():
    """A zero entry, a negative-order entry, and an entry of order 50."""
    return TransferMatrix([
        [RatFun.const(0), RatFun(Poly([1, 0, 2, 3]), Poly([-1, 1])), z(-50)],
        [RatFun(Poly([2]), Poly([Fraction(1, 2), 0, 1])), z(-3),
         RatFun(Poly([1, 1]), Poly([3, 1]))],
    ])


@pytest.mark.parametrize("horizon", [1, 40])
def test_from_transfer_window_matches_oracle(horizon):
    rng = random.Random(83)
    cases = [_mixed_matrix(), TransferMatrix.zero(2, 2)]
    cases += [rand_matrix(rng, 2, 3, 4) for _ in range(5)]
    for f in cases:
        s = SeriesMatrix.from_transfer(f, horizon)
        assert s.start == (0 if f.is_zero else min(f.order(), 0))
        oracle = [[expansion_oracle(e, horizon) for e in row]
                  for row in f.entries]
        for t in range(s.start, horizon + 1):
            assert s.coeff(t) == f.markov(t)
            assert s.coeff(t) == tuple(tuple(d.get(t, 0) for d in row)
                                       for row in oracle)


def test_from_transfer_window_matches_sympy_series():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    horizon = 12
    rng = random.Random(84)
    for f in [_mixed_matrix()] + [rand_matrix(rng, 2, 2, 3)
                                  for _ in range(3)]:
        s = SeriesMatrix.from_transfer(f, horizon)
        for i, row in enumerate(f.entries):
            for j, e in enumerate(row):
                # z^-t is w^t: expand the entry as a Laurent series in w.
                num = sum(sympy.Rational(c) * w**-k
                          for k, c in enumerate(e.num.coeffs))
                den = sum(sympy.Rational(c) * w**-k
                          for k, c in enumerate(e.den.coeffs))
                ser = sympy.series(num / den, w, 0, horizon + 1).removeO()
                ser = sympy.expand(ser)
                for t in range(s.start, horizon + 1):
                    assert s.coeff(t)[i][j] == Fraction(str(ser.coeff(w, t)))


small_polys = st.lists(rationals, max_size=4).map(Poly)


@st.composite
def shared_den_matrices(draw):
    """p x m maps whose nonzero entries share at most two denominators.

    About a fifth of the entries are zero.  A numerator may outrank its
    denominator (a negative start), and a denominator z^k with k up to 8
    starts entries after short horizons.
    """
    p, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dens = draw(st.lists(st.one_of(small_polys.filter(lambda q: not q.is_zero),
                                   st.integers(0, 8).map(Poly.z)),
                         min_size=1, max_size=2))
    return TransferMatrix([[RatFun.const(0) if draw(st.integers(0, 4)) == 0
                            else RatFun(draw(small_polys),
                                        draw(st.sampled_from(dens)))
                            for _ in range(m)] for _ in range(p)])


@settings(max_examples=150, deadline=None)
@given(shared_den_matrices(), st.integers(0, 12))
def test_from_transfer_matches_entrywise_expansion(f, horizon):
    # Entries over a shared denominator are convolutions with one
    # expansion of 1/den; each must be the pair laurent_ints gives.
    s = SeriesMatrix.from_transfer(f, horizon)
    assert s.start == (0 if f.is_zero else min(f.order(), 0))
    assert s._entries == [[e.laurent_ints(s.start, horizon) for e in row]
                          for row in f.entries]


def test_series_product_window():
    f = TransferMatrix.scalar(z(-1))
    g = TransferMatrix.scalar(RatFun(Poly([1]), Poly([-1, 1])))
    sf = SeriesMatrix.from_transfer(f, 10)
    sg = SeriesMatrix.from_transfer(g, 10)
    prod = sf * sg
    exact = SeriesMatrix.from_transfer(f * g, prod.horizon)
    assert agrees_with(prod, exact)


@st.composite
def coeff_lists(draw, rows, cols):
    """(start, coefficient matrices): starts -2..1, 1..8 terms, and about
    a quarter of the entries zero throughout."""
    start = draw(st.integers(-2, 1))
    length = draw(st.integers(1, 8))
    zero = [Fraction(0)] * length
    entries = [[zero if draw(st.integers(0, 3)) == 0
                else draw(st.lists(rationals, min_size=length,
                                   max_size=length))
                for _ in range(cols)] for _ in range(rows)]
    return start, [[[entries[r][c][k] for c in range(cols)]
                    for r in range(rows)] for k in range(length)]


def series(start, coeffs):
    rows, cols = len(coeffs[0]), len(coeffs[0][0])
    return SeriesMatrix(start, coeffs, start + len(coeffs) - 1, rows, cols)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_series_product_matches_fraction_convolution(data):
    p, m, q = (data.draw(st.integers(1, 3)) for _ in range(3))
    sa, ca = data.draw(coeff_lists(p, m))
    sb, cb = data.draw(coeff_lists(m, q))
    a, b = series(sa, ca), series(sb, cb)
    prod = a * b
    assert (prod.rows, prod.cols) == (p, q)
    assert prod.start == sa + sb
    # The product is known only while both factors are.
    assert prod.horizon == min(a.horizon + sb, b.horizon + sa)
    for t in range(prod.start, prod.horizon + 1):
        assert prod.coeff(t) == series_product_coeff(ca, sa, cb, sb, t)


def _scaled(s, factors):
    """The same series with entry (r, c) stored over factors[r][c] times
    its denominator."""
    entries = [[([x * k for x in nums], den * k)
                for (nums, den), k in zip(row, krow)]
               for row, krow in zip(s._entries, factors)]
    return SeriesMatrix._make(s.start, s.horizon, s.rows, s.cols, entries)


def test_agrees_with_ignores_the_integer_scale():
    f = TransferMatrix([[RatFun(Poly([1, 2]), Poly([Fraction(1, 3), 0, 1])),
                         RatFun.const(0)],
                        [z(-2), RatFun(Poly([Fraction(5, 7)]), Poly([-1, 2]))]])
    s = SeriesMatrix.from_transfer(f, 9)
    scaled = _scaled(s, [[7, 5], [1, 12]])
    assert scaled._entries != s._entries
    assert agrees_with(s, scaled) and agrees_with(scaled, s)
    assert all(scaled.coeff(t) == s.coeff(t) for t in range(s.start, 10))
    # A product sums over the lcm of its partial denominators, so it is
    # stored at another scale than the expansion of the exact product.
    g = TransferMatrix([[RatFun(Poly([Fraction(2, 3)]), Poly([1, 1])), z(-1)],
                        [RatFun.const(Fraction(1, 4)), z(-3)]])
    prod = s * SeriesMatrix.from_transfer(g, 9)
    exact = SeriesMatrix.from_transfer(f * g, prod.horizon)
    assert ([d for row in prod._entries for _, d in row]
            != [d for row in exact._entries for _, d in row])
    assert agrees_with(prod, exact) and agrees_with(exact, prod)
    # The common window starts at the earlier start; the later series is
    # zero there.
    early = SeriesMatrix(-2, [[[0]], [[0]], [[1]], [[Fraction(1, 2)]]], 1,
                         1, 1)
    late = SeriesMatrix(0, [[[1]], [[Fraction(1, 2)]], [[7]]], 2, 1, 1)
    assert agrees_with(_scaled(early, [[4]]), _scaled(late, [[6]]))
    earlier = SeriesMatrix(-2, [[[0]], [[5]], [[1]], [[Fraction(1, 2)]]], 1,
                           1, 1)
    assert not agrees_with(late, earlier)


@pytest.mark.parametrize("where", ["start", "horizon"])
def test_agrees_with_detects_one_changed_coefficient(where):
    f = TransferMatrix([[RatFun(Poly([1, 2]), Poly([Fraction(1, 3), 0, 1])),
                         z(1)],
                        [RatFun(Poly([Fraction(5, 7)]), Poly([-1, 2])),
                         RatFun.const(0)]])
    horizon = 6
    s = SeriesMatrix.from_transfer(f, horizon)
    t = s.start if where == "start" else horizon
    for r in range(2):
        for c in range(2):
            coeffs = [[list(row) for row in s.coeff(k)]
                      for k in range(s.start, horizon + 1)]
            coeffs[t - s.start][r][c] += Fraction(1, 10**6)
            bumped = SeriesMatrix(s.start, coeffs, horizon, 2, 2)
            assert not agrees_with(s, bumped)
            assert not agrees_with(bumped, s)
            assert not agrees_with(_scaled(bumped, [[3, 3], [3, 3]]), s)


def test_constructor_checks_coefficient_shapes():
    with pytest.raises(ValueError, match="not 1 x 1"):
        SeriesMatrix(0, [[[1, 2]]], 0, 1, 1)
    with pytest.raises(ValueError, match="not 2 x 1"):
        SeriesMatrix(0, [[[1], [2]], [[3]]], 1, 2, 1)
    with pytest.raises(ValueError, match="window"):
        SeriesMatrix(0, [[[1]]], 1, 1, 1)


def test_simulate_rejects_wrong_input_length_before_expanding(monkeypatch):
    def refuse(*args):
        raise AssertionError("f was expanded")

    monkeypatch.setattr(SeriesMatrix, "from_transfer", refuse)
    f = TransferMatrix([[z(-1), z(-2)]])
    with pytest.raises(ValueError, match="3 entries .* 2 columns"):
        simulate_response(f, [RatFun.const(1)] * 3, 5)


def test_expansion_builds_no_fraction_window(monkeypatch, tmp_path, capsys):
    # Series expand on integers.  laurent_coeff still reads one index
    # through laurent_window, so only windows of two or more indices are
    # refused; realize expands no series at all.
    from latkern.cli import main
    from latkern.matrixio import dump_matrix

    window = RatFun.laurent_window

    def refuse(self, start, horizon):
        if horizon > start:
            raise AssertionError("laurent_window expanded a window")
        return window(self, start, horizon)

    rng = random.Random(83)
    f = rand_matrix(rng, 2, 2, 3)
    monkeypatch.setattr(RatFun, "laurent_window", refuse)
    s = SeriesMatrix.from_transfer(f, 12)
    for t in range(s.start, 13):
        assert s.coeff(t) == f.markov(t)

    plant = TransferMatrix([[z(-1), z(-2)], [RatFun.const(0), z(-3)]])
    loop = TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],
                           [RatFun.const(2), RatFun.const(1)]])
    paths = [str(tmp_path / "f.json"), str(tmp_path / "l.json")]
    dump_matrix(plant, paths[0])
    dump_matrix(loop, paths[1])
    assert main(["--json", "realize", *paths,
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert '"exit_status": 0' in capsys.readouterr().out


def test_series_inverse_matches_exact_inverse():
    rng = random.Random(82)
    for _ in range(10):
        b = rand_bicausal(rng, 2, 2)
        sb = SeriesMatrix.from_transfer(b, 12)
        inv = sb.inverse()
        exact = SeriesMatrix.from_transfer(b.inverse(), 12)
        assert agrees_with(inv, exact)


def test_series_inverse_rejects_singular_constant():
    s = SeriesMatrix.from_transfer(TransferMatrix.scalar(z(-1)), 5)
    with pytest.raises(ValueError):
        s.inverse()


def test_series_inverse_needs_a_causal_series():
    # Stored from index -1 with a zero there: causal, so it inverts.
    s = SeriesMatrix(-1, [[[0]], [[2]], [[1]]], 1, 1, 1)
    inv = s.inverse()
    assert [inv.coeff(t) for t in (0, 1)] == [((Fraction(1, 2),),),
                                              ((Fraction(-1, 4),),)]
    with pytest.raises(ValueError, match="causal"):
        SeriesMatrix(-1, [[[3]], [[2]], [[1]]], 1, 1, 1).inverse()

