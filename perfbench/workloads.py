"""The benchmark's workloads: rounds of CLI operations on seeded instances.

A round holds one operation per slot (command x size x shift orders).
Every round has the same slots with the same structure (shape, degrees,
shift orders, yes/no branch); only the coefficients differ.  So rounds
cost about the same, and a run's mix of work does not depend on how many
rounds fit in its time.  The seed only draws coefficients.  Each
operation carries what its verifier needs to know from construction
(latency indices, whether a factorization exists).

realize  realize on strictly causal injective plants, (m, p) in
         {(1,1), (1,2), (2,2), (2,3)}, latency indices covering 0..3,
         entry degree 1, bicausal precompensators of degree 2; worstcase
         on the m = 2 plants and the (1,2) plant.  The only workload
         that reaches feedback and polymatrix.
kernel   latency, factor (half built yes, half random) and equivalence
         (post and two-sided, m <= 2) on plants up to 4 x 4.
         Elimination-heavy, no series expansion.
series   classify, expand --terms 40, simulate --horizon 40 on random
         maps up to 3 x 3 with entry degrees 0..5.  Division recurrences
         rather than gcds, and the largest JSON outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import instances
from latkern.matrixio import matrix_to_json

HORIZON = 40
# Slots: (m, p, shift orders sigma); the latency indices are sigma - 1.
REALIZE_SLOTS = [(1, 1, (2,)), (1, 2, (4,)), (2, 2, (1, 3)), (2, 3, (2, 4))]
KERNEL_SLOTS = [(2, 2, (1, 4)), (2, 3, (2, 3)), (3, 3, (1, 2, 4)),
                (3, 4, (2, 3, 4)), (4, 4, (1, 2, 3, 4))]
# Shift orders of the inequivalent partner in equivalence checks (m <= 2).
OTHER_SIGMA = {(2, 2): (2, 3), (2, 3): (1, 4)}
SERIES_SHAPES = [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)]  # (p, m)

# Rounds generated at set-up.  A run longer than this reuses rounds from
# the start; the count of rounds run is reported, so reuse is visible.
POOL_ROUNDS = {"realize": 40, "kernel": 8, "series": 40}


class InstanceWriter:
    """Writes input matrices as JSON files and digests their bytes."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0
        self.digest = hashlib.sha256()

    def write(self, matrix) -> str:
        text = json.dumps(matrix_to_json(matrix), indent=2, sort_keys=True)
        path = os.path.join(self.directory, f"in{self.count:05d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        self.digest.update(text.encode())
        return path


def _op(kind: str, argv, **expect) -> dict:
    return {"kind": kind, "argv": list(argv), "expect": expect}


def _realize_round(rng, w: InstanceWriter, r: int):
    ops = []
    for m, p, sigma in REALIZE_SLOTS:
        f, nu = instances.injective_plant(rng, p, m, sigma, 1)
        l = instances.rand_bicausal(rng, m, 2)
        fp, lp = w.write(f), w.write(l)
        ops.append(_op("realize", ["realize", fp, lp], nu=nu))
        # worstcase at m = 1 takes a few ms, so it runs on one m = 1 plant
        # only.  That gives a round seven operations: an odd count puts
        # the median inside one slot's spread of times, not in the gap
        # between two slots, where it jumps from run to run.
        if m > 1 or p > 1:
            ops.append(_op("worstcase", ["worstcase", fp], nu=nu))
    return ops


def _kernel_round(rng, w: InstanceWriter, r: int):
    ops = []
    for m, p, sigma in KERNEL_SLOTS:
        f, nu = instances.injective_plant(rng, p, m, sigma, 1)
        fp = w.write(f)
        ops.append(_op("latency", ["latency", fp], nu=nu))
        h_yes = instances.rand_causal(rng, m, p, 1) * f
        ops.append(_op("factor", ["factor", fp, w.write(h_yes)], yes=True))
        h_rand = instances.rand_matrix(rng, m, m, 1)
        ops.append(_op("factor", ["factor", fp, w.write(h_rand)], yes=None))
        if (m, p) not in OTHER_SIGMA:
            continue
        # Every round checks one equivalent and one inequivalent pair; the
        # two slots swap roles from round to round.
        equivalent = (r + m + p) % 2 == 0
        if equivalent:
            other, nu2 = f, nu
        else:
            other, nu2 = instances.injective_plant(rng, p, m,
                                                   OTHER_SIGMA[m, p], 1)
        lpo = instances.rand_bicausal(rng, p, 1)
        lpr = instances.rand_bicausal(rng, m, 1)
        ops.append(_op("equiv", ["equiv", fp, w.write(lpo * other),
                                 "--mode", "post"],
                       equivalent=equivalent))
        ops.append(_op("equiv", ["equiv", fp, w.write(lpo * other * lpr),
                                 "--mode", "two-sided"],
                       equivalent=equivalent, nu1=nu, nu2=nu2))
    return ops


def _series_round(rng, w: InstanceWriter, r: int):
    ops = []
    for slot, (p, m) in enumerate(SERIES_SHAPES):
        fp = w.write(instances.rand_matrix(rng, p, m, 5, offset=slot))
        up = w.write(instances.rand_input(rng, m, 3, offset=slot))
        ops.append(_op("classify", ["classify", fp]))
        ops.append(_op("expand", ["expand", fp, "--terms", str(HORIZON)]))
        ops.append(_op("simulate", ["simulate", fp, up,
                                    "--horizon", str(HORIZON)]))
    return ops


ROUND_BUILDERS = {
    "realize": _realize_round,
    "kernel": _kernel_round,
    "series": _series_round,
}


def build(workload: str, seed: int, directory: str, after_round=None):
    """(rounds, input digest): every input written under directory.

    after_round, if given, is called with no arguments after each round.
    """
    rng = random.Random(f"{workload}:{seed}")
    writer = InstanceWriter(directory)
    build_round = ROUND_BUILDERS[workload]
    rounds = []
    for r in range(POOL_ROUNDS[workload]):
        rounds.append(build_round(rng, writer, r))
        if after_round:
            after_round()
    return rounds, writer.digest.hexdigest()
