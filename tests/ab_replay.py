"""Time two checkouts of latkern on the same operations in one process.

The parent checkout's src/latkern is copied under another package name
(every import inside the package is relative, so the copy is a package
of its own) and imported beside this checkout's latkern.  The first
ROUNDS rounds of a benchmark workload (perfbench/workloads.py, seed 1
unless --seed says otherwise) then run through both `cli.main` with
--json, alternating operation by operation: parent then change on one
operation, change then parent on the next, and the other way round on
the next repetition.  Every run's exit code and stdout must equal the
other side's, and for realize the written v.json and g.json too; the
script stops at the first difference.  Per repetition it prints both
total times and their ratio, change / parent.

With --plants M it times the library instead, at a size no workload
reaches: vg_representation and worst_case_precompensator on one plant of
size M from tests/gen.py (rand_strictly_causal_injective(rng, M, M),
then l = rand_bicausal(rng, M), rng = random.Random(seed)), the two
sides alternating as above.  v, g, the indices and the worst-case l,
printed as JSON by each side's matrixio, must be equal as text.

Interleaving in one process puts both sides under the same host speed
at nearly the same moment, so the ratio is far steadier than between
separate benchmark processes on a host whose speed drifts.  Run it with
this checkout as PARENT for an A/A control.

    python tests/ab_replay.py PARENT [--workload kernel] [--seed 1]
                              [--rounds 8] [--reps 6]
    python tests/ab_replay.py PARENT --plants M [--seed 1] [--reps 6]

PARENT is a checkout root that holds src/latkern, for example a
`git archive` of the parent commit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
                os.path.join(ROOT, "tests")]

import workloads  # noqa: E402
from gen import rand_bicausal, rand_strictly_causal_injective  # noqa: E402
from latkern.matrixio import matrix_to_json  # noqa: E402

PARENT_PACKAGE = "latkern_ab_parent"


class OutputMismatch(AssertionError):
    """The two checkouts disagree on one operation."""


def _import_parent(parent_root: str, scratch: str):
    """parent_root's src/latkern, imported as PARENT_PACKAGE."""
    source = os.path.join(parent_root, "src", "latkern")
    if not os.path.isfile(os.path.join(source, "cli.py")):
        raise SystemExit(f"no src/latkern/cli.py under {parent_root}")
    shutil.copytree(source, os.path.join(scratch, PARENT_PACKAGE),
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in [m for m in sys.modules
                 if m == PARENT_PACKAGE or m.startswith(PARENT_PACKAGE + ".")]:
        del sys.modules[name]
    sys.path.insert(0, scratch)
    try:
        return importlib.import_module(PARENT_PACKAGE)
    finally:
        sys.path.remove(scratch)


def _run(main, argv, out_dir):
    """(seconds, exit code, stdout, written files) of one operation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    files = []
    if out_dir is not None:
        for name in ("v.json", "g.json"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files.append(fh.read())
                os.remove(path)
            else:
                files.append(None)
    return seconds, code, buf.getvalue(), files


def cli_runner(package: str):
    """run(op) -> (seconds, output) of one workload operation through
    package's cli.main."""
    main = importlib.import_module(package + ".cli").main

    def run(op):
        argv = ["--json"] + op["argv"]
        out_dir = None
        if op["kind"] == "realize":
            out_dir = "out"
            argv += ["--out-dir", out_dir]
        seconds, *result = _run(main, argv, out_dir)
        return seconds, result

    return run


def plant_runner(package: str):
    """run(op) -> (seconds, output text) of vg_representation and
    worst_case_precompensator in package on the plant op["f"], op["l"],
    given as matrix JSON; reading the inputs is not timed."""
    feedback = importlib.import_module(package + ".feedback")
    matrixio = importlib.import_module(package + ".matrixio")

    def run(op):
        f, l = (matrixio.matrix_from_json(op[key]) for key in ("f", "l"))
        start = time.perf_counter()
        rep = feedback.vg_representation(f, l)
        worst = feedback.worst_case_precompensator(f)
        seconds = time.perf_counter() - start
        return seconds, json.dumps([
            matrixio.matrix_to_json(rep.v), matrixio.matrix_to_json(rep.g),
            list(rep.sigma), list(rep.nu), matrixio.matrix_to_json(worst)])

    return run


def plant(size: int, seed: int) -> dict:
    """The operation of --plants: a strictly causal injective size x size
    plant f and a bicausal precompensator l from tests/gen.py, as matrix
    JSON."""
    rng = random.Random(seed)
    f, _ = rand_strictly_causal_injective(rng, size, size)
    l = rand_bicausal(rng, size)
    return {"argv": ["--plants", str(size), "--seed", str(seed)],
            "f": matrix_to_json(f), "l": matrix_to_json(l)}


def replay(parent_run, change_run, ops, reps: int,
           report=print) -> list[float]:
    """Per repetition, the ratio of the change's total time to the
    parent's over ops; raises OutputMismatch on the first difference."""
    sides = (("parent", parent_run), ("change", change_run))
    ratios = []
    for rep in range(reps):
        totals = {"parent": 0.0, "change": 0.0}
        for k, op in enumerate(ops):
            outputs = {}
            order = sides if (k + rep) % 2 == 0 else sides[::-1]
            for name, run in order:
                seconds, outputs[name] = run(op)
                totals[name] += seconds
            if outputs["parent"] != outputs["change"]:
                raise OutputMismatch(f"operation {k} differs: {op['argv']}")
        ratio = totals["change"] / totals["parent"]
        ratios.append(ratio)
        report(f"rep {rep + 1}: parent {totals['parent']:.4f} s  "
               f"change {totals['change']:.4f} s  ratio {ratio:.3f}")
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout root holding src/latkern")
    parser.add_argument("--workload", default="kernel",
                        choices=sorted(workloads.ROUND_BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--reps", type=int, default=6)
    parser.add_argument("--plants", type=int, metavar="M", default=None,
                        help="time realize and worstcase on a plant of "
                             "size M instead of a workload")
    args = parser.parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="latkern-ab-") as scratch:
        _import_parent(os.path.abspath(args.parent), scratch)
        os.chdir(scratch)
        try:
            if args.plants is not None:
                runner, ops = plant_runner, [plant(args.plants, args.seed)]
                equal = "outputs"
                print(f"plant of size {args.plants} seed {args.seed}: "
                      "vg_representation and worst_case_precompensator")
            else:
                os.makedirs("inputs")
                os.makedirs("out")
                rounds, _ = workloads.build(args.workload, args.seed,
                                            "inputs")
                runner = cli_runner
                ops = [op for ops in rounds[:args.rounds] for op in ops]
                equal = "stdout"
                print(f"{args.workload} seed {args.seed}: {len(ops)} "
                      f"operations from {min(args.rounds, len(rounds))} "
                      "rounds")
            ratios = replay(runner(PARENT_PACKAGE), runner("latkern"), ops,
                            args.reps)
        finally:
            os.chdir(cwd)
    print(f"median ratio {statistics.median(ratios):.3f} "
          f"(min {min(ratios):.3f}, max {max(ratios):.3f}); "
          f"{equal} equal on every operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
