"""The record of elementary row operations behind every elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from latkern.linalg import RowOps
from latkern.rational import Poly, RatFun
from latkern.transfer import TransferMatrix

scalars = st.one_of(st.integers(-3, 3).map(Fraction),
                    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
units = scalars.filter(bool)
polys = st.lists(scalars, max_size=3).map(Poly)
nonzero_polys = polys.filter(bool)
ratfuns = st.builds(RatFun, polys, nonzero_polys)
# (matrix type, entries, multipliers of add, multipliers of scale, one);
# the "poly" record works on Poly entries, read back as polynomial
# TransferMatrix entries.
FIELDS = {
    "poly": (TransferMatrix, polys, polys, units, Poly.one()),
    "ratfun": (TransferMatrix, ratfuns, ratfuns, ratfuns.filter(bool),
               RatFun.const(1)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_replays_match_the_recorded_steps(field, data):
    # transform() maps the rows before the steps to the rows after them,
    # and inverse() is its two-sided inverse.
    matrix, entries, adds, scales, one = FIELDS[field]
    n = data.draw(st.integers(1, 3))
    width = data.draw(st.integers(1, 3))
    before = [[data.draw(entries) for _ in range(width)] for _ in range(n)]
    ops = RowOps(n, one, [list(row) for row in before])
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(["swap", "add", "scale"]))
        i = data.draw(st.integers(0, n - 1))
        if kind == "scale":
            ops.scale(i, data.draw(scales))
            continue
        j = data.draw(st.integers(0, n - 1))
        if kind == "swap":
            ops.swap(i, j)
        elif i != j:
            ops.add(i, j, data.draw(adds))
    t = matrix(ops.transform())
    assert t * matrix(before) == matrix(ops.rows)
    assert t * matrix(ops.inverse()) == matrix.identity(n)
    assert matrix(ops.inverse()) * t == matrix.identity(n)
