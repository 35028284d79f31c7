"""Acceptance suite: every criterion at its stated sample count.

Each test prints one PASS/FAIL line (run with -s to see them).  All
comparisons are exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

from latkern.factor import causal_factor
from latkern.feedback import (StateSpace, closed_loop, from_state_space,
                              is_nonlatency_check, static_state_feedback_test,
                              vg_representation, worst_case_precompensator)
from latkern.latency import latency_kernel
from latkern.properbasis import (column_order, column_reduce_at_infinity,
                                 smith_at_infinity)
from latkern.rational import ORD_INF, RatFun
from latkern.simulate import SeriesMatrix
from latkern.transfer import TransferMatrix
from oracles import (add_dicts, agrees_with, convolve_dicts,
                     expansion_oracle, image_is_proper, minor_order_table,
                     static_state_feedback_containment)

from gen import (rand_bicausal, rand_full_rank_matrix, rand_matrix,
                 rand_nonzero_matrix, rand_ratfun, rand_state_pair,
                 rand_strictly_causal_injective)

z = RatFun.zpow


def report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_valuation_and_expansion():
    """500 random rationals: ord/lead match expand; ring morphism exact."""
    rng = random.Random(1001)
    horizon = 40
    samples = [rand_ratfun(rng, 6, nonzero=True) for _ in range(500)]
    ok = True
    for r in samples:
        # entries of degree <= 6 have order >= -6
        s = r.laurent_window(-6, horizon)
        first = next((t, c) for t, c in enumerate(s, -6) if c != 0)
        t0, lead = first
        ok &= t0 == r.order() and lead == r.leading_coeff()
        oracle = expansion_oracle(r, horizon)
        ok &= all(s[t + 6] == oracle.get(t, Fraction(0))
                  for t in range(r.order(), horizon + 1))
    for a, b in zip(samples[0::2], samples[1::2]):
        valid = min(horizon + a.order(), horizon + b.order(), horizon)
        da = expansion_oracle(a, horizon)
        db = expansion_oracle(b, horizon)
        conv = convolve_dicts(da, db, valid)
        lo = a.order() + b.order()
        ok &= (a * b).laurent_window(lo, valid) == \
            [conv.get(t, Fraction(0)) for t in range(lo, valid + 1)]
        tot = a + b
        sd = add_dicts(da, db)
        if tot.is_zero:
            ok &= not sd
        else:
            lo = min(a.order(), b.order())
            ok &= tot.laurent_window(lo, horizon) == \
                [sd.get(t, Fraction(0)) for t in range(lo, horizon + 1)]
    report("valuation/expansion suite (500 rationals, horizon 40)", ok)


def test_criterion_2_predictable_order():
    """Reduced bases: order of combinations equals min term order, exactly."""
    rng = random.Random(1002)
    ok = True
    for _ in range(6):
        p = rng.randint(2, 3)
        m = rng.randint(1, p)
        basis, _ = column_reduce_at_infinity(rand_full_rank_matrix(rng, p, m, 2))
        cols = basis.columns.columns()
        for _ in range(200):
            alphas = [rand_ratfun(rng, 3) for _ in cols]
            if all(a.is_zero for a in alphas):
                continue
            combo = [RatFun.const(0)] * p
            orders = []
            for a, col in zip(alphas, cols):
                if a.is_zero:
                    continue
                orders.append(a.order() + column_order(col))
                combo = [acc + a * e for acc, e in zip(combo, col)]
            ok &= column_order(combo) == min(orders)
    report("predictable order on reduced bases (6 bases x 200 tuples)", ok)


def test_criterion_3_smith_at_infinity():
    """100 random matrices up to 4x4: exact reassembly; minor orders."""
    rng = random.Random(1003)
    ok = True
    for _ in range(100):
        p, m = rng.randint(1, 4), rng.randint(1, 4)
        f = rand_nonzero_matrix(rng, p, m, 3)
        s = smith_at_infinity(f)
        ok &= s.reassembles(f)
        # b1^-1 is bicausal exactly when b1 is
        ok &= s.b1_inv.classify().bicausal and s.b2.classify().bicausal
        minors = minor_order_table(f)
        partial = 0
        for k, sig in enumerate(s.sigma, start=1):
            partial += sig
            ok &= partial == minors[k]
        if len(s.sigma) < min(p, m):
            ok &= minors[len(s.sigma) + 1] == ORD_INF
    report("Smith factorization at infinity (100 matrices, minor oracle)", ok)


def test_criterion_4_latency_kernel_soundness():
    """Kernel inverses strictly causal; membership matches the window oracle."""
    rng = random.Random(1004)
    ok = True
    trials = 0
    kernels = []
    for _ in range(12):
        m = rng.randint(1, 2)
        f, _ = rand_strictly_causal_injective(rng, m + rng.randint(0, 1), m,
                                              max_nu=3, max_deg=1)
        k = latency_kernel(f)
        d_inv = k.generator.inverse()
        ok &= d_inv.classify().strictly_causal
        ok &= (z(1) * d_inv).classify().causal
        kernels.append((f, k, m))
    while trials < 300:
        f, k, m = kernels[trials % len(kernels)]
        shift = max(n + 1 for n in k.indices)
        u = [rand_ratfun(rng, 2) for _ in range(m)]
        if all(x.is_zero for x in u):
            continue
        if min(x.order() for x in u if not x.is_zero) < -shift:
            u = [x * z(-shift) for x in u]
        ok &= k.contains(u) == image_is_proper(f, u)
        trials += 1
    report("latency kernel soundness (12 kernels, 300 membership trials)", ok)


def test_criterion_5_causal_factorization():
    """200 random pairs: yes gives exact causal factor, no gives a witness."""
    rng = random.Random(1005)
    ok = True
    yes_count = 0
    for _ in range(200):
        m = rng.randint(1, 2)
        p = m + rng.randint(0, 1)
        f, _ = rand_strictly_causal_injective(rng, p, m, max_nu=2, max_deg=1)
        h = rand_matrix(rng, rng.randint(1, 2), m, 2)
        out = causal_factor(f, h)
        if out.decision:
            yes_count += 1
            ok &= out.g * f == h
            ok &= out.g.classify().causal
        else:
            ok &= image_is_proper(f, list(out.witness))
            ok &= not image_is_proper(h, list(out.witness))
    ok &= 0 < yes_count < 200  # both branches exercised
    report(f"causal factorization decisions (200 pairs, {yes_count} yes)", ok)


def test_criterion_6_index_invariance():
    """Latency indices survive 100 bicausal pre/post compositions."""
    rng = random.Random(1006)
    ok = True
    for _ in range(20):
        m = rng.randint(1, 2)
        f, nu = rand_strictly_causal_injective(rng, m, m, max_nu=2, max_deg=1)
        for _ in range(5):
            lpo = rand_bicausal(rng, m, 3)
            lpr = rand_bicausal(rng, m, 3)
            ok &= latency_kernel(lpo * f * lpr).indices == nu
    report("latency index invariance (100 bicausal compositions)", ok)


def test_criterion_7_state_pairs_nonlatent():
    """50 random (A, B), B full column rank: all latency indices zero, and
    is_nonlatency_check reports the map injective and nonlatent."""
    rng = random.Random(1007)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        a, b = rand_state_pair(rng, n, m)
        rep = is_nonlatency_check(StateSpace(a, b))
        ok &= rep.injective and all(v == 0 for v in rep.indices)
        ok &= rep.nonlatent
    report("state-output maps are nonlatent (50 pairs, n <= 5)", ok)


def test_criterion_8_feedback_realization_pipeline():
    """50 realizations: exact identity, bicausal remainder, index bound,
    and 30-step simulation agreement."""
    rng = random.Random(1008)
    ok = True
    for _ in range(50):
        m = rng.randint(1, 2)
        f, nu = rand_strictly_causal_injective(rng, m + rng.randint(0, 1), m,
                                               max_nu=3, max_deg=1)
        l = rand_bicausal(rng, m, 2)
        rep = vg_representation(f, l)
        loop = TransferMatrix.identity(m) + rep.g * f
        ok &= loop.inverse() * rep.v == l
        ok &= rep.v.classify().bicausal
        ok &= all(s <= n for s, n in zip(rep.sigma, rep.nu))
        ok &= rep.nu == nu
        lhs = SeriesMatrix.from_transfer(l, 30)
        rhs = (SeriesMatrix.from_transfer(loop, 30).inverse()
               * SeriesMatrix.from_transfer(rep.v, 30))
        ok &= agrees_with(lhs, rhs)
    report("feedback realization pipeline (50 pairs, simulated to 30)", ok)


def test_criterion_9_nonlatent_static_remainder():
    """25 nonlatent plants: the remainder comes out static."""
    rng = random.Random(1009)
    ok = True
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a, b = rand_state_pair(rng, n, m)
        f = from_state_space(StateSpace(a, b))
        l = rand_bicausal(rng, m, 2)
        rep = vg_representation(f, l)
        ok &= all(s == 0 for s in rep.sigma)
    report("nonlatent plants give static remainders (25 cases)", ok)


def test_criterion_10_worst_case_tightness():
    """25 worst-case generators: realization meets the latency budget."""
    rng = random.Random(1010)
    ok = True
    for _ in range(25):
        m = rng.randint(1, 2)
        f, nu = rand_strictly_causal_injective(rng, m + rng.randint(0, 1), m,
                                               max_nu=2, max_deg=1)
        l = worst_case_precompensator(f)
        rep = vg_representation(f, l)
        ok &= sum(rep.sigma) == sum(rep.nu) == sum(nu)
    report("worst-case precompensator tightness (25 plants)", ok)


def test_criterion_11_static_state_feedback_equivalence():
    """50 state-space instances: the two solvability tests agree and every
    yes yields a verified constant gain."""
    rng = random.Random(1011)
    ok = True
    yes_count = 0
    for i in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a, b = rand_state_pair(rng, n, m)
        ss = StateSpace(a, b)
        f = from_state_space(ss)
        if i % 2 == 0:
            gain = TransferMatrix.from_constant(
                [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(m)])
            core = TransferMatrix.identity(m) + gain * f
            l = core.inverse()
        else:
            l = rand_bicausal(rng, m, 2)
        res = static_state_feedback_test(ss, l)
        ok &= res.realizable == static_state_feedback_containment(f, l)
        if res.realizable:
            yes_count += 1
            got = TransferMatrix.from_constant(res.static_part) \
                + TransferMatrix.from_constant(res.gain) * f
            ok &= got == l.inverse()
    ok &= yes_count >= 25
    report(f"static state feedback test agreement (50 cases, {yes_count} yes)", ok)


def test_criterion_12_closed_loop_forms():
    """100 random configurations: the two closed-loop composites coincide,
    l_po f (I + g f)^-1 l_pr from closed_loop and the pushed-through
    l_po (I + f g)^-1 f l_pr formed here."""
    rng = random.Random(1012)
    ok = True
    for _ in range(100):
        m = rng.randint(1, 2)
        p = rng.randint(1, 2)
        f = rand_matrix(rng, p, m, 2)
        if f.is_zero:
            f = TransferMatrix([[z(-1)] * m for _ in range(p)])
        if f.order() < 1:
            f = f * z(f.order() - 1)
        g = rand_matrix(rng, m, p, 2)
        if not g.is_zero and g.order() < 0:
            g = g * z(g.order())
        l_pr = rand_bicausal(rng, m, 2)
        l_po = rand_bicausal(rng, p, 2)
        pushed = (l_po * (TransferMatrix.identity(p) + f * g).inverse()
                  * f * l_pr)
        ok &= closed_loop(f, g, l_pr, l_po) == pushed
    report("closed-loop composite forms agree (100 configurations)", ok)
