"""Which test notices when one certificate check of latkern is switched off.

A certificate check is a `raise InternalCheckError(...)` statement in
src/latkern.  For each one, the script copies this checkout (without
.git and caches) into a work directory, replaces that statement by
`pass`, and runs the tier-1 suite there with -x.  It prints per site
the first failing test, or "survived" when every test passes.  The
source lints of tests/test_tooling.py (LINTS) are deselected in those
runs: a mutant that only a lint catches, by an import it leaves unused
say, shows no test of the check itself, so it counts as surviving.

    python tests/mutate_certificates.py

It has no options.  Copies go under a temporary directory, one per
processor at a time (at most JOBS), and are removed once their run
ends.  Run it from any directory: paths are taken from this file's
location.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache")
LINTS = ("test_no_assert_statements_in_package",
         "test_runtime_imports_are_stdlib_only",
         "test_no_unused_imports_in_package",
         "test_private_names_have_a_caller")
# Each copy runs a whole tier-1 suite; more than two at once gain little
# and multiply the memory the runs hold.
JOBS = min(2, os.cpu_count() or 1)


def sites(src_dir: str) -> list[tuple[str, int, int]]:
    """(file name, first line, last line) of every `raise
    InternalCheckError(...)` statement under src_dir, in file and line
    order."""
    found = []
    for name in sorted(os.listdir(src_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [(name, node.lineno, node.end_lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)
                  and isinstance(node.exc, ast.Call)
                  and isinstance(node.exc.func, ast.Name)
                  and node.exc.func.id == "InternalCheckError"]
    return sorted(found)


def mutate(text: str, first: int, last: int) -> str:
    """text with lines first..last (1-based) replaced by one `pass` at the
    indentation of line first."""
    lines = text.splitlines(keepends=True)
    indent = lines[first - 1][:len(lines[first - 1])
                              - len(lines[first - 1].lstrip())]
    lines[first - 1:last] = [indent + "pass\n"]
    return "".join(lines)


def first_failure(output: str, code: int) -> str:
    """The first failing test in pytest's short summary, "survived" when
    the run passed."""
    if code == 0:
        return "survived"
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    return f"pytest exit {code}, no failing test named"


def run_site(site, workdir: str) -> str:
    name, first, last = site
    copy = os.path.join(
        tempfile.mkdtemp(prefix=f"{name[:-3]}-{first}-", dir=workdir), "repo")
    try:
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        path = os.path.join(copy, "src", "latkern", name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutate(text, first, last))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                "-p", "no:cacheprovider", "--continue-on-collection-errors",
                "--basetemp", os.path.join(copy, "pytest-tmp")]
        argv += [f"--deselect=tests/test_tooling.py::{lint}"
                 for lint in LINTS]
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                              text=True)
        return first_failure(proc.stdout, proc.returncode)
    finally:
        shutil.rmtree(os.path.dirname(copy), ignore_errors=True)


def main() -> int:
    todo = sites(os.path.join(ROOT, "src", "latkern"))
    workdir = tempfile.mkdtemp(prefix="latkern-mutants-")
    survived = 0
    try:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = pool.map(lambda s: run_site(s, workdir), todo)
            for (name, first, _), result in zip(todo, results):
                survived += result == "survived"
                print(f"{name}:{first}: {result}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(todo)} sites, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
