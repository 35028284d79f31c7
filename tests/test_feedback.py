"""Closed loops, feedback realizations, worst-case precompensators."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from latkern import feedback
from latkern.cli import main
from latkern.feedback import (PreconditionError, StateSpace, closed_loop,
                              from_state_space, is_nonlatency_check,
                              static_feedback_realizable,
                              static_state_feedback_test, vg_representation,
                              worst_case_precompensator)
from latkern.latency import latency_kernel
from latkern.matrixio import dump_matrix
from latkern.polymatrix import reachability_indices
from latkern.rational import Poly, RatFun
from latkern.simulate import SeriesMatrix
from latkern.transfer import InternalCheckError, TransferMatrix

from gen import (rand_bicausal, rand_matrix, rand_state_pair,
                 rand_strictly_causal_injective)
from oracles import agrees_with, static_state_feedback_containment

z = RatFun.zpow


def strictly_causal_2x2(rng):
    while True:
        f = rand_matrix(rng, 2, 2, 2)
        if not f.is_zero and f.order() >= 1:
            return f
        f = f * z(-2)
        if f.order() >= 1:
            return f


def test_closed_loop_identity_case():
    f = TransferMatrix.scalar(z(-1))
    i = TransferMatrix.identity(1)
    assert closed_loop(f, TransferMatrix.scalar(0), i, i) == f


def test_closed_loop_scalar_example():
    f = TransferMatrix.scalar(z(-1))
    i = TransferMatrix.identity(1)
    loop = closed_loop(f, i, i, i)
    assert loop == TransferMatrix.scalar(RatFun(Poly([1]), Poly([1, 1])))


def test_closed_loop_with_precompensation_simulates():
    f = TransferMatrix.scalar(z(-1))
    i = TransferMatrix.identity(1)
    l_pr = TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1])))
    loop = closed_loop(f, i, l_pr, i)
    expected = TransferMatrix.scalar(RatFun(Poly([1]), Poly([1, 1]))) * l_pr
    assert loop == expected
    lhs = SeriesMatrix.from_transfer(loop, 20)
    rhs = (SeriesMatrix.from_transfer(
        TransferMatrix.scalar(RatFun(Poly([1]), Poly([1, 1]))), 20)
        * SeriesMatrix.from_transfer(l_pr, 20))
    assert agrees_with(lhs, rhs)


def test_closed_loop_rejects_bad_arguments():
    f = TransferMatrix.scalar(z(-1))
    i = TransferMatrix.identity(1)
    with pytest.raises(PreconditionError, match="strictly causal"):
        closed_loop(i, i, i, i)
    with pytest.raises(PreconditionError, match="causal"):
        closed_loop(f, TransferMatrix.scalar(z(1)), i, i)
    with pytest.raises(PreconditionError, match="bicausal"):
        closed_loop(f, i, f, i)


def test_closed_loop_forms_agree_random():
    rng = random.Random(71)
    for _ in range(20):
        f = strictly_causal_2x2(rng)
        g = rand_matrix(rng, 2, 2, 1)
        if not g.is_zero and g.order() < 0:
            g = g * z(g.order())
        l_pr = rand_bicausal(rng, 2, 1)
        l_po = rand_bicausal(rng, 2, 1)
        loop = closed_loop(f, g, l_pr, l_po)
        assert (TransferMatrix.identity(2) + g * f).classify().bicausal
        loop_out = TransferMatrix.identity(2) + f * g
        assert loop_out.classify().bicausal
        assert loop == l_po * loop_out.inverse() * f * l_pr
        assert loop.classify().strictly_causal


def test_closed_loop_certifies_its_one_inverse(monkeypatch):
    # closed_loop inverts I + g f once, and (I + g f) * X == I is the
    # check on that inverse: a perturbed X is an internal failure.
    rng = random.Random(78)
    f = strictly_causal_2x2(rng)
    g = rand_matrix(rng, 2, 2, 1)
    if not g.is_zero and g.order() < 0:
        g = g * z(g.order())
    l_pr, l_po = rand_bicausal(rng, 2, 1), rand_bicausal(rng, 2, 1)
    expected = closed_loop(f, g, l_pr, l_po)
    exact = TransferMatrix.inverse
    inverted = []

    def counting(self):
        inverted.append(self)
        return exact(self)

    monkeypatch.setattr(TransferMatrix, "inverse", counting)
    assert closed_loop(f, g, l_pr, l_po) == expected
    assert inverted == [TransferMatrix.identity(2) + g * f]

    def perturbed(self):
        x = exact(self)
        return x + TransferMatrix([[z(-3) if (i, j) == (0, 0) else 0
                                    for j in range(x.cols)]
                                   for i in range(x.rows)])

    monkeypatch.setattr(TransferMatrix, "inverse", perturbed)
    with pytest.raises(InternalCheckError, match="closed-loop inverse"):
        closed_loop(f, g, l_pr, l_po)


def test_static_feedback_examples():
    f = TransferMatrix.scalar(z(-1))
    l = TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1])))
    res = static_feedback_realizable(f, l)
    assert res.realizable
    assert res.g == TransferMatrix.identity(1)
    assert res.static_part == ((1,),)

    f2 = TransferMatrix.scalar(z(-2))
    res2 = static_feedback_realizable(f2, l)
    assert not res2.realizable
    assert res2.witness == (z(2),)


def test_static_feedback_refuses_non_injective_plants():
    # Injectivity is decided by the latency kernel, in the same order of
    # checks as before: strictly causal plant, injective plant, bicausal l.
    l = TransferMatrix.identity(2)
    flat = TransferMatrix([[z(-1), z(-1)], [z(-1), z(-1)]])
    for f in (flat, TransferMatrix.zero(2, 2), TransferMatrix.zero(3, 2)):
        with pytest.raises(PreconditionError, match="plant must be injective"):
            static_feedback_realizable(f, l)
        with pytest.raises(PreconditionError, match="plant must be injective"):
            static_feedback_realizable(f, TransferMatrix.scalar(z(-1)))
    with pytest.raises(PreconditionError, match="strictly causal"):
        static_feedback_realizable(TransferMatrix([[1, 1], [1, 1]]), l)
    with pytest.raises(PreconditionError, match="bicausal"):
        static_feedback_realizable(TransferMatrix.diag([z(-1), z(-2)]),
                                   TransferMatrix.diag([z(-1), z(-1)]))


def test_static_feedback_builds_one_smith_form(monkeypatch):
    # The kernel that tests injectivity is the one the factor reads: one
    # Smith form per call, and no rank over Q(z).
    import latkern.latency
    from latkern import transfer

    calls = []
    smith = latkern.latency.smith_at_infinity

    def counting(f):
        calls.append(f)
        return smith(f)

    def refuse(self):
        raise RuntimeError("TransferMatrix.rank called")

    monkeypatch.setattr(latkern.latency, "smith_at_infinity", counting)
    monkeypatch.setattr(transfer.TransferMatrix, "rank", refuse)
    rng = random.Random(73)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    gain = TransferMatrix.from_constant([[1, 2, 0], [0, 1, -1]])
    l_yes = (TransferMatrix.identity(2) + gain * f).inverse()
    res = static_feedback_realizable(f, l_yes)
    assert res.realizable and res.g * f == gain * f and len(calls) == 1
    res = static_feedback_realizable(f, TransferMatrix.diag([z(1) / (z(1) + 1),
                                                             1]))
    assert not res.realizable and len(calls) == 2


def test_feedback_constructions_never_call_causal_factor(monkeypatch):
    # Each construction certifies one identity that implies g * f == h for
    # the factor it builds: (I + g f) l == v in vg_representation and
    # L + g f == l^-1 in static_feedback_realizable.  So neither calls the
    # certified causal_factor: patched to raise wherever a latkern module
    # binds it, the results stay the same.
    import sys

    rng = random.Random(76)
    cases = []
    for m, p in ((1, 1), (2, 2), (2, 3)):
        f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2, max_deg=1)
        gain = TransferMatrix.from_constant(
            [[rng.randint(-2, 2) for _ in range(p)] for _ in range(m)])
        l_yes = (TransferMatrix.identity(m) + gain * f).inverse()
        cases.append((f, rand_bicausal(rng, m, 2), l_yes))

    def results():
        return [(vg_representation(f, l), static_feedback_realizable(f, l),
                 static_feedback_realizable(f, l_yes))
                for f, l, l_yes in cases]

    expected = results()
    assert all(yes.realizable for _, _, yes in expected)
    assert not all(res.realizable for _, res, _ in expected)

    def refuse(*args, **kwargs):
        raise RuntimeError("causal_factor called")

    for name, module in list(sys.modules.items()):
        if ((name == "latkern" or name.startswith("latkern."))
                and hasattr(module, "causal_factor")):
            monkeypatch.setattr(module, "causal_factor", refuse)
    assert results() == expected


def test_nonlatent_plants_realize_everything():
    rng = random.Random(72)
    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a, b = rand_state_pair(rng, n, m)
        f = from_state_space(StateSpace(a, b))
        l = rand_bicausal(rng, m, 2)
        res = static_feedback_realizable(f, l)
        assert res.realizable
        l_inv = l.inverse()
        assert TransferMatrix.from_constant(res.static_part) + res.g * f == l_inv


def test_vg_representation_example():
    f = TransferMatrix.scalar(z(-2))
    l = TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1])))
    rep = vg_representation(f, l)
    assert rep.g == TransferMatrix.scalar(0)
    assert rep.v == l
    assert rep.sigma == (1,) and rep.nu == (1,)


def test_vg_representation_nonlatent_gives_static_remainder():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a, b = rand_state_pair(rng, n, m)
        f = from_state_space(StateSpace(a, b))
        l = rand_bicausal(rng, m, 2)
        rep = vg_representation(f, l)
        assert all(s == 0 for s in rep.sigma)


def test_vg_representation_random_pipeline():
    rng = random.Random(74)
    for _ in range(8):
        m = rng.randint(1, 2)
        f, nu = rand_strictly_causal_injective(rng, m + rng.randint(0, 1), m,
                                               max_nu=2, max_deg=1)
        l = rand_bicausal(rng, m, 2)
        rep = vg_representation(f, l)
        loop = TransferMatrix.identity(m) + rep.g * f
        assert loop.inverse() * rep.v == l
        assert rep.v.classify().bicausal
        assert all(s <= n for s, n in zip(rep.sigma, rep.nu))
        # remainder and its inverse share reachability indices
        assert reachability_indices(rep.v)[0] == \
            reachability_indices(rep.v.inverse())[0]
        # correction term certificates
        kernel = latency_kernel(f)
        d = kernel.poly_generator
        v_inv = rep.v.inverse()
        shifted = v_inv * (d * z(-1))
        assert all(e.is_polynomial for row in shifted.entries for e in row)


def test_realization_identity_rejects_perturbations(monkeypatch):
    rng = random.Random(75)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    l = rand_bicausal(rng, 2, 2)
    rep = vg_representation(f, l)
    loop = TransferMatrix.identity(2) + rep.g * f
    feedback._check_realization(loop, rep.v, l)

    def bump(m):
        # a strictly causal change to one entry keeps every map causal
        return m + TransferMatrix([[z(-3) if (i, j) == (0, 0) else 0
                                    for j in range(m.cols)]
                                   for i in range(m.rows)])

    for bad_loop, v in [(bump(loop), rep.v), (loop, bump(rep.v))]:
        with pytest.raises(InternalCheckError,
                           match="realization identity failed"):
            feedback._check_realization(bad_loop, v, l)
    # End to end: a factor rho of the correction term off by a strictly
    # causal map, where vg_representation builds it, perturbs the loop;
    # the realization identity is the only check of rho * f == phi.
    exact = feedback.construct_causal_factor

    def off(f, h, kernel=None):
        outcome = exact(f, h, kernel=kernel)
        return replace(outcome, g=bump(outcome.g))

    monkeypatch.setattr(feedback, "construct_causal_factor", off)
    with pytest.raises(InternalCheckError, match="realization identity failed"):
        vg_representation(f, l)


def test_noncausal_feedback_compensator_is_caught(monkeypatch, tmp_path,
                                                  capsys):
    # With p > m, rho * f == phi leaves rho free up to a left annihilator
    # of f, here a row of b1^-1 below the first m: a non-causal multiple
    # of it keeps (I + g f) * l == v, so only the causality check on
    # g = v * rho can stop the answer.
    rng = random.Random(79)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    l = rand_bicausal(rng, 2, 2)
    exact = feedback.construct_causal_factor

    def off(f, h, kernel=None):
        outcome = exact(f, h, kernel=kernel)
        annihilator = TransferMatrix([kernel.smith.b1_inv.entries[2]])
        assert (annihilator * f).is_zero
        noncausal = TransferMatrix([[z(3)], [0]]) * annihilator
        return replace(outcome, g=outcome.g + noncausal)

    monkeypatch.setattr(feedback, "construct_causal_factor", off)
    with pytest.raises(InternalCheckError,
                       match="feedback compensator is not causal"):
        vg_representation(f, l)
    paths = [str(tmp_path / "f.json"), str(tmp_path / "l.json")]
    dump_matrix(f, paths[0])
    dump_matrix(l, paths[1])
    assert main(["--json", "realize", *paths,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "realize", "error": "feedback compensator is not causal"}


def test_worst_case_examples():
    f = TransferMatrix.scalar(z(-2))
    l = worst_case_precompensator(f)
    assert l == TransferMatrix.scalar(RatFun(Poly([0, 1]), Poly([1, 1])))
    rep = vg_representation(f, l)
    assert sum(rep.sigma) == sum(rep.nu) == 1

    d = TransferMatrix.diag([z(-1), z(-3)])
    rep2 = vg_representation(d, worst_case_precompensator(d))
    assert sum(rep2.sigma) == sum(rep2.nu) == 2


def test_worst_case_nonlatent_trivial():
    ss = StateSpace(a=((0, 1), (0, 0)), b=((0,), (1,)))
    f = from_state_space(ss)
    l = worst_case_precompensator(f)
    rep = vg_representation(f, l)
    assert sum(rep.sigma) == 0 == sum(rep.nu)


def test_from_state_space_examples():
    assert from_state_space(StateSpace(a=((0,),), b=((1,),))) == \
        TransferMatrix.scalar(z(-1))
    ss = StateSpace(a=((0, 1), (0, 0)), b=((0,), (1,)))
    # frozen from the adjugate: (zI-A)^-1 = [[1/z, 1/z^2], [0, 1/z]]
    assert from_state_space(ss) == TransferMatrix.from_columns([[z(-2), z(-1)]])
    zero_b = from_state_space(StateSpace(a=((1,),), b=((0,),)))
    assert zero_b.is_zero


def test_nonlatency_check_examples():
    rep = is_nonlatency_check(StateSpace(a=((0, 1), (0, 0)), b=((0,), (1,))))
    assert rep.injective and rep.nonlatent and rep.indices == (0,)

    rep2 = is_nonlatency_check(StateSpace(a=((0,),), b=((0,),)))
    assert not rep2.injective
    assert rep2.static_kernel == ((Fraction(1),),)

    rng = random.Random(75)
    for _ in range(10):
        n = rng.randint(1, 4)
        a, b = rand_state_pair(rng, n, rng.randint(1, n))
        assert is_nonlatency_check(StateSpace(a, b)).nonlatent


def test_static_state_feedback_examples():
    ss = StateSpace(a=((0, 1), (0, 0)), b=((0,), (1,)))
    l_yes = TransferMatrix.scalar(
        RatFun(Poly([1, 0, 1]), Poly([0, 0, 1]))).inverse()
    res = static_state_feedback_test(ss, l_yes)
    assert res.realizable and res.witness is None
    assert res.gain == ((1, 0),)

    res_id = static_state_feedback_test(ss, TransferMatrix.identity(1))
    assert res_id.realizable and res_id.gain == ((0, 0),)

    l_no = TransferMatrix.scalar(
        RatFun(Poly([1, 0, 0, 1]), Poly([0, 0, 0, 1]))).inverse()
    res_no = static_state_feedback_test(ss, l_no)
    assert not res_no.realizable


def test_static_state_feedback_no_carries_a_witness():
    # The witness u is a generator of the polynomial inputs with
    # polynomial state response, and one product shows l^-1 u is not
    # polynomial.
    ss = StateSpace(a=((0, 1), (0, 0)), b=((0,), (1,)))
    l_no = TransferMatrix.scalar(
        RatFun(Poly([1, 0, 0, 1]), Poly([0, 0, 0, 1]))).inverse()
    cases = [(ss, l_no)]
    rng = random.Random(77)
    while len(cases) < 6:
        n = rng.randint(2, 3)
        a, b = rand_state_pair(rng, n, 2)
        cases.append((StateSpace(a, b), rand_bicausal(rng, 2, 2)))
    for ss, l in cases:
        res = static_state_feedback_test(ss, l)
        assert not res.realizable
        u = list(res.witness)
        assert all(e.is_polynomial for e in u)
        assert all(e.is_polynomial for e in from_state_space(ss).apply(u))
        assert not all(e.is_polynomial for e in l.inverse().apply(u))


def test_static_state_feedback_corrupted_gain_is_caught(monkeypatch):
    # The gain's only certificate is static_factor's g*f == strict: a
    # wrong solution of its window system is an internal failure, never
    # a gain handed back.
    from latkern import linalg

    ss = StateSpace(a=((0, 1), (0, 0)), b=((0,), (1,)))
    l_yes = TransferMatrix.scalar(
        RatFun(Poly([1, 0, 1]), Poly([0, 0, 1]))).inverse()
    exact = linalg.solve
    monkeypatch.setattr(linalg, "solve",
                        lambda a, b: [x + 1 for x in exact(a, b)])
    with pytest.raises(InternalCheckError,
                       match="static factor reconstruction failed"):
        static_state_feedback_test(ss, l_yes)


def test_static_state_feedback_refuses_dependent_inputs():
    # the columns of B are dependent, so the state-output map is not
    # injective
    ss = StateSpace(a=((0, 1), (0, 0)), b=((1, 2), (2, 4)))
    with pytest.raises(PreconditionError, match="B full column rank"):
        static_state_feedback_test(ss, TransferMatrix.identity(2))


def test_static_state_feedback_routes_agree_random():
    rng = random.Random(76)
    for _ in range(12):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a, b = rand_state_pair(rng, n, m)
        ss = StateSpace(a, b)
        f = from_state_space(ss)
        if rng.random() < 0.5:
            gain = TransferMatrix.from_constant(
                [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(m)])
            core = TransferMatrix.identity(m) + gain * f
            if not core.classify().bicausal:
                continue
            l = core.inverse()
            res = static_state_feedback_test(ss, l)
            assert res.realizable
            got = TransferMatrix.from_constant(res.static_part) \
                + TransferMatrix.from_constant(res.gain) * f
            assert got == l.inverse()
        else:
            l = rand_bicausal(rng, m, 2)
            res = static_state_feedback_test(ss, l)
        assert res.realizable == static_state_feedback_containment(f, l)
