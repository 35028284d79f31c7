"""One digest per benchmark workload of everything the CLI emits on a seed.

Builds each workload's rounds with perfbench/workloads.py (seed 1 unless
--seed says otherwise), runs every operation once through
latkern.cli.main with --json, and prints per workload one SHA-256 over,
operation by operation, the exit code, the stdout and, for realize, the
bytes of the written v.json and g.json.  Two checkouts whose digests
agree emit the same output on every operation.

Each workload runs in WORKDIR (by default one fixed directory under the
system's temporary directory): inputs are written under the relative
path inputs/ and realize writes to out/, so the paths inside the
reports, and the digests, are the same whatever WORKDIR and checkout.
Those two subdirectories are removed before and after each workload;
nothing else in WORKDIR is touched.

    python tests/seed_outputs.py [--seed N] [--workdir DIR] [workload ...]

latkern is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from latkern.cli import main as cli_main  # noqa: E402


def workload_digest(name: str, seed: int, workdir: str):
    """(operation count, SHA-256 hex digest) of one workload's outputs,
    run in workdir."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return _digest_here(name, seed)
    finally:
        os.chdir(cwd)


def _digest_here(name: str, seed: int):
    inputs, out_dir = "inputs", "out"
    for path in (inputs, out_dir):
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(inputs)
    rounds, _ = workloads.build(name, seed, inputs)
    digest = hashlib.sha256()
    count = 0
    for ops in rounds:
        for op in ops:
            argv = ["--json"] + op["argv"]
            if op["kind"] == "realize":
                argv += ["--out-dir", out_dir]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            digest.update(f"{count} {code}\n".encode())
            digest.update(buf.getvalue().encode())
            if op["kind"] == "realize":
                for file in ("v.json", "g.json"):
                    path = os.path.join(out_dir, file)
                    if os.path.exists(path):
                        with open(path, "rb") as fh:
                            digest.update(fh.read())
                        os.remove(path)
                    else:
                        digest.update(f"no {file}\n".encode())
            count += 1
    for path in (inputs, out_dir):
        shutil.rmtree(path, ignore_errors=True)
    return count, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=sorted(workloads.ROUND_BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", default=os.path.join(
        tempfile.gettempdir(), "latkern-seed-outputs"))
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    for name in args.workloads:
        count, hexdigest = workload_digest(name, args.seed, args.workdir)
        print(f"{name} seed {args.seed}: {count} operations {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
