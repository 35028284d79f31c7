"""Latency kernels: construction, membership, indices, equivalences."""

import dataclasses
import json
import random
import sys

import pytest

import latkern.latency
import latkern.properbasis
from latkern.cli import main
from latkern.factor import causal_factor
from latkern.latency import (KernelNotFinitelyGenerated, compensation_equivalence,
                             latency_kernel, module_contains,
                             strictly_polynomial_basis)
from latkern.matrixio import dump_matrix
from latkern.properbasis import column_reduce_at_infinity, smith_at_infinity
from latkern.rational import Poly, RatFun
from latkern.transfer import InternalCheckError, TransferMatrix
from oracles import (image_is_proper, reference_latency_generator,
                     reference_left_factor)

from gen import (corrupt_entry, move_out_of_kernel, rand_bicausal,
                 rand_causal, rand_full_rank_matrix, rand_ratfun,
                 rand_state_pair, rand_strictly_causal_injective)

z = RatFun.zpow


def test_kernel_diag_example():
    k = latency_kernel(TransferMatrix.diag([z(-1), z(-3)]))
    assert k.orders == (-3, -1)
    assert k.indices == (2, 0)
    cols = [k.generator.column(0), k.generator.column(1)]
    assert cols[0] == (RatFun.const(0), z(3))
    assert cols[1] == (z(1), RatFun.const(0))


def test_kernel_scalar_example():
    f = TransferMatrix.scalar(RatFun(Poly([1]), Poly([0, -1, 1])))
    k = latency_kernel(f)
    assert k.indices == (1,)
    d = k.generator.entry(0, 0)
    assert d.order() == -2 and (d * z(-2)).order() == 0


def test_kernel_state_space_example():
    # frozen from the membership oracle: z^-1 * (z^-2, z^-1) is proper
    f = TransferMatrix.from_columns([[z(-2), z(-1)]])
    assert image_is_proper(f, [z(1)])
    assert not image_is_proper(f, [z(2)])
    k = latency_kernel(f)
    assert k.indices == (0,)
    assert k.generator == TransferMatrix.scalar(z(1))


def test_kernel_rejects_rank_deficiency():
    with pytest.raises(KernelNotFinitelyGenerated):
        latency_kernel(TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]]))


def test_kernel_soundness_random():
    rng = random.Random(41)
    for _ in range(10):
        f, nu_bound = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
        k = latency_kernel(f)
        d_inv = k.generator.inverse()
        assert d_inv.classify().strictly_causal
        assert (z(1) * d_inv).classify().causal
        assert k.indices == nu_bound
        # membership equivalence against the window oracle
        sigma_max = max(n + 1 for n in k.indices)
        for _ in range(15):
            u = [rand_ratfun(rng, 2) for _ in range(2)]
            if all(x.is_zero for x in u):
                continue
            if min(x.order() for x in u if not x.is_zero) < -sigma_max:
                u = [x * z(-sigma_max) for x in u]
            assert k.contains(u) == image_is_proper(f, u)


def test_strictly_polynomial_examples():
    d = TransferMatrix.scalar(RatFun(Poly([1, 1])))
    out = strictly_polynomial_basis(d, d.inverse())
    assert out == TransferMatrix.scalar(z(1))
    assert (d.inverse() * out).classify().bicausal

    d2 = TransferMatrix.diag([z(1), z(3)])
    assert strictly_polynomial_basis(d2, d2.inverse()) == d2

    d3 = TransferMatrix.scalar(RatFun(Poly([1, 1, 1]), Poly([0, 1])))
    assert (strictly_polynomial_basis(d3, d3.inverse())
            == TransferMatrix.scalar(z(1)))


def test_strictly_polynomial_rejects_non_strictly_causal_inverse():
    # identity has a bicausal inverse, so it is no latency-kernel generator
    # of a strictly causal map; the precondition check must say so.
    with pytest.raises(InternalCheckError, match="inverse not strictly causal"):
        strictly_polynomial_basis(TransferMatrix.identity(2),
                                  TransferMatrix.identity(2))


def test_strictly_polynomial_zero_constant_terms():
    rng = random.Random(42)
    for _ in range(10):
        f, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
        k = latency_kernel(f)
        poly = k.poly_generator
        for row in poly.entries:
            for e in row:
                assert e.is_polynomial and e.num.coeff(0) == 0


def test_latency_indices_examples():
    assert latency_kernel(TransferMatrix.diag([z(-1), z(-3)])).indices == (2, 0)
    assert latency_kernel(TransferMatrix.diag([z(-1), z(-1)])).indices == (0, 0)
    f = TransferMatrix.scalar(RatFun(Poly([1]), Poly([0, -1, 1])))
    assert latency_kernel(f).indices == (1,)


def test_module_contains_examples():
    r = module_contains(TransferMatrix.scalar(z(2)), TransferMatrix.scalar(z(1)))
    assert r.contains and not r.equal
    assert r.certificate == TransferMatrix.scalar(z(-1))

    r = module_contains(TransferMatrix.scalar(z(1)), TransferMatrix.scalar(z(2)))
    assert not r.contains and r.witness == (0, 0, -1)

    d = TransferMatrix.diag([z(1), z(3)])
    r = module_contains(d, d)
    assert r.contains and r.equal


def test_module_contains_rejects_singular():
    with pytest.raises(ValueError):
        module_contains(TransferMatrix([[z(1), z(1)], [z(1), z(1)]]),
                        TransferMatrix.identity(2))
    with pytest.raises(ValueError):
        module_contains(TransferMatrix([[z(1), z(2)]]),
                        TransferMatrix.identity(2))


def test_order_list_monotonicity_under_containment():
    rng = random.Random(43)
    for _ in range(10):
        f, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
        k = latency_kernel(f)
        # a submodule: scale one generator column by z^-1
        scaled = k.generator * TransferMatrix.diag([z(-1), RatFun.const(1)])
        assert module_contains(k.generator, scaled).contains
        sub = latency_kernel_like(scaled)
        for j, mu in sub.mu.items():
            full_mu = k.chain.mu.get(
                j, 0 if j < k.chain.k_lower else k.generator.cols)
            assert mu <= full_mu


def latency_kernel_like(d: TransferMatrix):
    from latkern.properbasis import column_reduce_at_infinity, order_chain
    pb, _ = column_reduce_at_infinity(d)
    return order_chain(pb.columns)


def test_compensation_post_example():
    f1 = TransferMatrix.scalar(z(-1))
    f2 = TransferMatrix.scalar(z(-1) * RatFun(Poly([1, 1]), Poly([0, 1])))
    res = compensation_equivalence(f1, f2, "post")
    assert res.equivalent
    assert res.post == TransferMatrix.scalar(RatFun(Poly([1, 1]), Poly([0, 1])))


def test_compensation_diag_swap():
    f1 = TransferMatrix.diag([z(-1), z(-3)])
    f2 = TransferMatrix.diag([z(-3), z(-1)])
    two = compensation_equivalence(f1, f2, "two_sided")
    assert two.equivalent
    assert two.post * f1 * two.pre == f2
    # the swapped modules genuinely differ, so no post-only factor exists
    post = compensation_equivalence(f1, f2, "post")
    assert not post.equivalent
    u = post.witness
    assert image_is_proper(f2, list(u)) != image_is_proper(f1, list(u))


def test_compensation_index_mismatch():
    res = compensation_equivalence(TransferMatrix.scalar(z(-1)),
                                   TransferMatrix.scalar(z(-2)), "two_sided")
    assert not res.equivalent and res.witness == ((0,), (1,))


def test_index_invariance_under_bicausal_composition():
    rng = random.Random(44)
    for _ in range(10):
        f, nu = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
        lpo = rand_bicausal(rng, 2, 2)
        lpr = rand_bicausal(rng, 2, 2)
        composed = lpo * f * lpr
        assert latency_kernel(composed).indices == nu


def test_non_strictly_causal_maps_carry_a_warning():
    # injective but only causal: indices may go negative, no polynomial basis
    f = TransferMatrix.scalar(RatFun(Poly([2, 1]), Poly([0, 1])))  # 1 + 2 z^-1
    k = latency_kernel(f)
    assert not k.strictly_causal_input
    assert k.poly_generator is None
    assert k.indices == (-1,)
    # membership still characterizes proper images
    assert k.contains([RatFun.const(1)])
    assert not k.contains([z(1)])
    assert image_is_proper(f, [RatFun.const(1)])
    assert not image_is_proper(f, [z(1)])


def test_state_pairs_are_nonlatent():
    rng = random.Random(45)
    from latkern.feedback import StateSpace, from_state_space
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        a, b = rand_state_pair(rng, n, m)
        f = from_state_space(StateSpace(a, b))
        k = latency_kernel(f)
        assert all(v == 0 for v in k.indices)


def test_kernel_carries_certified_generator_inverse():
    rng = random.Random(44)
    for m in range(1, 5):
        for p in (m, m + 1):
            f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                  max_deg=1)
            k = latency_kernel(f)
            assert k.generator * k.generator_inv == TransferMatrix.identity(m)
            assert k.generator_inv == k.generator.inverse()


def test_corrupt_smith_inverse_is_caught(monkeypatch):
    def corrupted(f):
        s = smith_at_infinity(f)
        return dataclasses.replace(s, b2_inv=corrupt_entry(s.b2_inv))

    monkeypatch.setattr("latkern.latency.smith_at_infinity", corrupted)
    f, _ = rand_strictly_causal_injective(random.Random(45), 2, 2, max_nu=2,
                                          max_deg=1)
    with pytest.raises(InternalCheckError, match="carried inverse"):
        latency_kernel(f)


def test_corrupt_b2_inverse_constant_term_is_caught(monkeypatch):
    # b2^-1 * t and t^-1 * b2 are still inverse to each other, so
    # d * d^-1 == I holds; t's constant term [[1, 1], [1, 1]] is singular,
    # so b2^-1 * t is not bicausal and the leads of d have rank 1.
    t = TransferMatrix([[1, 1], [1, 1 + z(-1)]])
    t_inv = TransferMatrix([[z(1) + 1, -z(1)], [-z(1), z(1)]])
    assert t * t_inv == TransferMatrix.identity(2)

    def corrupted(f):
        s = smith_at_infinity(f)
        s = dataclasses.replace(s, b2_inv=s.b2_inv * t)
        # b2 is replayed from the column record on first read: corrupt the
        # cached factor along with b2^-1.
        vars(s)["b2"] = t_inv * s.b2
        return s

    monkeypatch.setattr("latkern.latency.smith_at_infinity", corrupted)
    f, _ = rand_strictly_causal_injective(random.Random(46), 2, 2, max_nu=2,
                                          max_deg=1)
    with pytest.raises(InternalCheckError, match="not a proper basis"):
        latency_kernel(f)


def _equiv_cli(tmp_path, f1, f2, mode):
    """Exit code of latkern --json equiv f1 f2 --mode mode."""
    paths = [str(tmp_path / "f1.json"), str(tmp_path / "f2.json")]
    dump_matrix(f1, paths[0])
    dump_matrix(f2, paths[1])
    return main(["--json", "equiv", *paths, "--mode", mode])


def test_post_witness_from_a_moved_generator_column_is_caught(
        monkeypatch, tmp_path, capsys):
    # equiv reads its answer off uncertified kernels and certifies the
    # witness of a post "no" instead: one map sends u to a causal vector,
    # the other does not.  A generator column moved out of its kernel makes
    # equivalent maps look inequivalent; the check exits 3, never 1.
    build = latkern.latency.build_latency_kernel
    monkeypatch.setattr(latkern.latency, "build_latency_kernel",
                        lambda f: move_out_of_kernel(build(f)))
    rng = random.Random(66)
    f, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
    l = rand_bicausal(rng, 2, 1)
    message = "equivalence witness does not separate the latency kernels"
    for f2, mode in ((l * f, "post"), (f * l, "pre")):
        with pytest.raises(InternalCheckError, match=message):
            compensation_equivalence(f, f2, mode)
        assert _equiv_cli(tmp_path, f, f2, mode) == 3
        assert json.loads(capsys.readouterr().out) == {"command": "equiv",
                                                       "error": message}


def test_equivalence_yes_from_a_corrupted_b1_inverse_is_caught(
        monkeypatch, tmp_path, capsys):
    # A "yes" is certified by its compensators: l (and l_pr) bicausal with
    # l * f1 * l_pr == f2.  A moved entry of b1^-1, off which l is read,
    # exits 3 in post and two-sided mode alike.
    def corrupted(g):
        s = smith_at_infinity(g)
        s.__dict__["b1_inv"] = corrupt_entry(s.b1_inv)
        return s

    rng = random.Random(69)
    f, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
    lpo, lpr = rand_bicausal(rng, 2, 1), rand_bicausal(rng, 2, 1)
    monkeypatch.setattr("latkern.latency.smith_at_infinity", corrupted)
    for f2, mode in ((lpo * f, "post"), (lpo * f * lpr, "two-sided")):
        with pytest.raises(InternalCheckError, match="constructed left"):
            compensation_equivalence(f, f2, mode.replace("-", "_"))
        assert _equiv_cli(tmp_path, f, f2, mode) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith("constructed left factor")


def test_two_sided_no_certifies_both_kernels(monkeypatch, tmp_path, capsys):
    # Differing index lists decide a two-sided "no", so both kernels are
    # certified before it is given.  A raised sigma in the first map's
    # Smith form gives equivalent maps different lists; the reassembly
    # check exits 3, never 1.
    rng = random.Random(67)
    f, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
    f2 = rand_bicausal(rng, 2, 1) * f * rand_bicausal(rng, 2, 1)
    assert compensation_equivalence(f, f2, "two_sided").equivalent

    def raised(g):
        s = smith_at_infinity(g)
        if g != f:
            return s
        return dataclasses.replace(s, sigma=(s.sigma[0] + 1, *s.sigma[1:]))

    monkeypatch.setattr("latkern.latency.smith_at_infinity", raised)
    message = "Smith form does not reassemble the map"
    with pytest.raises(InternalCheckError, match=message):
        compensation_equivalence(f, f2, "two_sided")
    assert _equiv_cli(tmp_path, f, f2, "two-sided") == 3
    assert json.loads(capsys.readouterr().out) == {"command": "equiv",
                                                   "error": message}


def test_refusal_waits_for_the_reassembly(monkeypatch, tmp_path, capsys):
    # A map of rank below m is refused (exit 2) only once its Smith form
    # reassembles it: a form that lost a sigma of an injective map is a
    # failed certificate (exit 3) on every command that builds a kernel.
    def short(g):
        s = smith_at_infinity(g)
        return dataclasses.replace(s, sigma=s.sigma[:-1])

    monkeypatch.setattr("latkern.latency.smith_at_infinity", short)
    f, _ = rand_strictly_causal_injective(random.Random(68), 2, 2, max_nu=2,
                                          max_deg=1)
    message = "Smith form does not reassemble the map"
    with pytest.raises(InternalCheckError, match=message):
        latency_kernel(f)
    fp = str(tmp_path / "f.json")
    dump_matrix(f, fp)
    for args in (["latency", fp], ["factor", fp, fp],
                 ["equiv", fp, fp, "--mode", "post"],
                 ["equiv", fp, fp, "--mode", "two-sided"]):
        assert main(["--json", *args]) == 3
        assert json.loads(capsys.readouterr().out) == {"command": args[0],
                                                       "error": message}


def test_generator_matches_the_column_reduced_route():
    # raw = b2^-1 * diag(z^sigma) is already proper, so column reduction
    # only sorts its columns: the generator, its inverse and the orders
    # equal the earlier column-reduced construction, strictly causal or
    # not, square or tall.
    rng = random.Random(47)
    for m in range(1, 4):
        for p in (m, m + 1):
            f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                  max_deg=1)
            for g in (f, rand_full_rank_matrix(rng, p, m, 2)):
                k = latency_kernel(g)
                d, d_inv, orders = reference_latency_generator(g)
                assert k.generator == d and k.generator_inv == d_inv
                assert k.orders == orders


def test_polynomial_generator_built_on_first_read_only(monkeypatch):
    build = strictly_polynomial_basis
    calls = []

    def refuse(d, d_inv):
        raise RuntimeError("strictly_polynomial_basis called")

    def counting(d, d_inv):
        calls.append(d)
        return build(d, d_inv)

    rng = random.Random(58)
    f, nu = rand_strictly_causal_injective(rng, 3, 3, max_nu=2, max_deg=1)
    monkeypatch.setattr(latkern.latency, "strictly_polynomial_basis", refuse)
    assert causal_factor(f, rand_causal(rng, 2, 3, 1) * f).decision
    f2 = rand_bicausal(rng, 3, 1) * f
    assert compensation_equivalence(f, f2, "post").equivalent
    assert compensation_equivalence(f, f2 * rand_bicausal(rng, 3, 1),
                                    "two_sided").equivalent

    monkeypatch.setattr(latkern.latency, "strictly_polynomial_basis",
                        counting)
    k = latency_kernel(f)
    assert k.indices == nu and not calls
    poly = k.poly_generator
    assert k.poly_generator is poly and len(calls) == 1
    assert poly == build(k.generator, k.generator_inv)


def test_equivalence_compensators_match_reference_construction():
    # The compensators are read off the first map's Smith factors; the
    # reference builds them from column-reduced image bases and one
    # inversion of size p.  Both are the unique map taking f1 to f2 and the
    # unit complement of f1's image to that of f2's, so they must agree.
    # Two pairs of each shape.
    rng = random.Random(61)
    for m in range(1, 4):
        for p in 2 * (m, m + 1, m + 2):
            f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                  max_deg=1)
            f2 = rand_bicausal(rng, p, 1) * f
            res = compensation_equivalence(f, f2, "post")
            assert res.equivalent
            assert res.post == reference_left_factor(f, f2)

            g1 = f.transpose()
            g2 = g1 * rand_bicausal(rng, p, 1)
            res = compensation_equivalence(g1, g2, "pre")
            assert res.equivalent
            assert res.pre == reference_left_factor(
                f, g2.transpose()).transpose()

            f2 = rand_bicausal(rng, p, 1) * f * rand_bicausal(rng, m, 1)
            res = compensation_equivalence(f, f2, "two_sided")
            assert res.equivalent
            assert res.post == reference_left_factor(f * res.pre, f2)


def test_post_equivalence_inverts_only_complement_blocks(monkeypatch):
    # No column reduction, no inversion at p = m and only the
    # (p - m)-square complement block at p > m.
    inverse = TransferMatrix.inverse
    reduce = column_reduce_at_infinity
    shapes, reductions = [], []

    def counting_inverse(self):
        shapes.append((self.rows, self.cols))
        return inverse(self)

    def counting_reduce(a):
        reductions.append(a)
        return reduce(a)

    monkeypatch.setattr(TransferMatrix, "inverse", counting_inverse)
    monkeypatch.setattr(latkern.properbasis, "column_reduce_at_infinity",
                        counting_reduce)
    rng = random.Random(62)
    for m in (1, 2, 3):
        for p in (m, m + 1, m + 2):
            f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2,
                                                  max_deg=1)
            shapes.clear()
            reductions.clear()
            res = compensation_equivalence(f, rand_bicausal(rng, p, 1) * f,
                                           "post")
            assert res.equivalent
            assert not reductions
            if p == m:
                assert not shapes
            else:
                assert shapes and set(shapes) == {(p - m, p - m)}


def test_kernels_read_b1_inverse_and_never_b1(monkeypatch):
    # b1^-1 is replayed from the Smith form's record on first read.  An
    # uncertified kernel never reads it; the reassembly check of a
    # certified kernel and the yes branch of causal_factor do.  The record
    # is never replayed backwards into b1.
    from latkern import linalg
    from latkern.feedback import worst_case_precompensator
    forms = []

    def recording(f):
        forms.append(smith_at_infinity(f))
        return forms[-1]

    def refusing(self):
        if any(self is s.row_ops for s in forms):
            raise RuntimeError("the Smith row record was inverted")
        return inverse(self)

    inverse = linalg.RowOps.inverse
    monkeypatch.setattr("latkern.latency.smith_at_infinity", recording)
    monkeypatch.setattr(linalg.RowOps, "inverse", refusing)
    rng = random.Random(61)
    f, nu = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    assert latkern.latency.build_latency_kernel(f).indices == nu
    assert "b1_inv" not in vars(forms[-1])
    assert latency_kernel(f).indices == nu
    assert worst_case_precompensator(f).classify().bicausal
    assert len(forms) == 3
    assert all("b1_inv" in vars(s) for s in forms[1:])
    assert causal_factor(f, rand_causal(rng, 2, 3, 1) * f).decision
    assert "b1_inv" in vars(forms[-1])


def test_kernel_paths_compute_no_rank(monkeypatch):
    # The kernel generator is read straight off the Smith form, with no
    # rank over Q(z) and no column reduction, so no kernel, factor,
    # equivalence or feedback realization computes either.
    from latkern.feedback import vg_representation

    def refuse(*args):
        raise RuntimeError("TransferMatrix.rank or column reduction called")

    rng = random.Random(65)
    f, nu = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    h_yes = rand_causal(rng, 2, 3, 1) * f
    h_no = TransferMatrix([[z(1), 0]])
    l_po, l_pr = rand_bicausal(rng, 3, 1), rand_bicausal(rng, 2, 1)
    square, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2,
                                               max_deg=1)
    l = rand_bicausal(rng, 2, 1)
    monkeypatch.setattr(TransferMatrix, "rank", refuse)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("latkern")
                and hasattr(mod, "column_reduce_at_infinity")):
            monkeypatch.setattr(mod, "column_reduce_at_infinity", refuse)
    assert latency_kernel(f).indices == nu
    assert causal_factor(f, h_yes).decision
    assert not causal_factor(f, h_no).decision
    assert compensation_equivalence(f, l_po * f, "post").equivalent
    assert compensation_equivalence(f, l_po * f * l_pr,
                                    "two_sided").equivalent
    rep = vg_representation(square, l)
    assert all(s <= n for s, n in zip(rep.sigma, rep.nu))


def test_kernel_path_forms_no_arithmetic_on_zero_entries(monkeypatch):
    # A block-diagonal plant plants zeros in every Smith factor.  Scaling
    # a zero entry of b2^-1 or b2 by z^±sigma, as for the generator, its
    # inverse and the reassembly's delta * b2, and a record replay adding
    # c * y to a zero x all skip RatFun arithmetic on the zero; the
    # certificates still hold.
    rng = random.Random(71)
    f2, _ = rand_strictly_causal_injective(rng, 2, 2, max_nu=2, max_deg=1)
    zero = RatFun.const(0)
    f = TransferMatrix([[f2.entry(0, 0), f2.entry(0, 1), zero],
                        [f2.entry(1, 0), f2.entry(1, 1), zero],
                        [zero, zero, z(-2)]])
    zero_operands = []
    mul, add = RatFun._mul_reduced, RatFun._add_reduced

    def checked_mul(self, num, den):
        if self.is_zero or num.is_zero:
            zero_operands.append(("mul", self, num))
        return mul(self, num, den)

    def checked_add(self, other, sign):
        if self.is_zero or other.is_zero:
            zero_operands.append(("add", self, other))
        return add(self, other, sign)

    monkeypatch.setattr(RatFun, "_mul_reduced", checked_mul)
    monkeypatch.setattr(RatFun, "_add_reduced", checked_add)
    k = latency_kernel(f)
    s = k.smith
    assert (TransferMatrix(s.row_ops.inverse()) * s.b1_inv
            == TransferMatrix.identity(3))
    assert s.b2 * s.b2_inv == TransferMatrix.identity(3)
    assert k.generator * k.generator_inv == TransferMatrix.identity(3)
    assert any(e.is_zero for row in s.b2_inv.entries for e in row)
    assert zero_operands == []
