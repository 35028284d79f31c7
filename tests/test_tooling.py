"""Source-level checks on the package itself."""

import ast
import importlib
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import latkern
import latkern.latency
import latkern.transfer

SRC = Path(latkern.__file__).parent
SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a certificate written as one
    # would silently stop being checked.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in latkern: " + ", ".join(found)


def test_runtime_imports_are_stdlib_only():
    # latkern has no runtime dependencies: every absolute import names a
    # standard-library module or latkern itself.
    allowed = sys.stdlib_module_names | {"latkern"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, "non-stdlib imports in latkern: " + ", ".join(found)


def test_no_unused_imports_in_package():
    # Deleting a helper can leave the names it used imported for nothing.
    # __init__ imports only to re-export, so it is not checked.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, "unused imports in latkern: " + ", ".join(found)


def _references(node):
    """Names and attribute names read anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_private_names_have_a_caller():
    # A private function, method or class that nothing else in the package
    # references is dead code; a reference from inside its own definition
    # (recursion) does not count.
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))]
    refs = {}
    for tree in trees:
        for name in _references(tree):
            refs[name] = refs.get(name, 0) + 1
    found = []
    for path, tree in zip(sorted(SRC.glob("*.py")), trees):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                inside = sum(n == node.name for n in _references(node))
                if refs.get(node.name, 0) <= inside:
                    found.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not found, "private names without a caller: " + ", ".join(found)


def test_internal_check_error_defined_once():
    assert latkern.InternalCheckError is latkern.transfer.InternalCheckError
    assert latkern.latency.InternalCheckError is latkern.transfer.InternalCheckError


def test_certificate_holds_under_python_O(tmp_path):
    # The same precondition check as in test_latency, the factor
    # reconstruction check against corrupted image coordinates, the factor
    # and post-equivalence reconstruction checks against a corrupted b1^-1
    # as in test_factor, the coprime-fraction certificates against a corrupted
    # u^-1 and the reachability-basis certificate against a corrupted K as
    # in test_polymatrix, the factor witness check against a generator
    # column moved out of the kernel as in test_factor, the realization
    # identity (the one check of rho * f == phi) against a perturbed rho as
    # in test_feedback, directly and through the realize command, and the
    # static factor certificate against a wrong solve as in test_cli, in an
    # interpreter that strips assert statements.
    script = (
        "import dataclasses, sys\n"
        "import latkern.cli\n"
        "import latkern.latency\n"
        "from latkern.factor import causal_factor\n"
        "from latkern.latency import (compensation_equivalence,\n"
        "                             strictly_polynomial_basis)\n"
        "from latkern.properbasis import smith_at_infinity\n"
        "from latkern.rational import RatFun\n"
        "from latkern.transfer import InternalCheckError, TransferMatrix\n"
        "print(sys.flags.optimize)\n"
        "try:\n"
        "    i2 = TransferMatrix.identity(2)\n"
        "    strictly_polynomial_basis(i2, i2)\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no InternalCheckError under -O')\n"
        "f = TransferMatrix.diag([RatFun.zpow(-1), RatFun.zpow(-2)])\n"
        "k = latkern.latency.latency_kernel(f)\n"
        "rows = [list(row) for row in k.image_coordinates.entries]\n"
        "rows[0][-1] = rows[0][-1] + 1\n"
        "k.__dict__['image_coordinates'] = TransferMatrix(rows)\n"
        "try:\n"
        "    causal_factor(f, f, kernel=k)\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no InternalCheckError under -O')\n"
        "def corrupted(f):\n"
        "    s = smith_at_infinity(f)\n"
        "    rows = [list(row) for row in s.b1_inv.entries]\n"
        "    rows[0][-1] = rows[0][-1] + 1\n"
        "    s.__dict__['b1_inv'] = TransferMatrix(rows)\n"
        "    return s\n"
        "latkern.latency.smith_at_infinity = corrupted\n"
        "f = TransferMatrix.diag([RatFun.zpow(-1), RatFun.zpow(-2)])\n"
        "try:\n"
        "    causal_factor(f, f)\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no InternalCheckError under -O')\n"
        "l = TransferMatrix([[1, 0], [1, 2]])\n"
        "try:\n"
        "    compensation_equivalence(f, l * f, 'post')\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no InternalCheckError under -O')\n"
        "import latkern.polymatrix\n"
        "from latkern.rational import Poly\n"
        "krylov = latkern.polymatrix.krylov_kernel_basis\n"
        "def corrupted_krylov(abar, d):\n"
        "    degrees, k = krylov(abar, d)\n"
        "    rows = [list(row) for row in k.entries]\n"
        "    rows[0][0] = rows[0][0] + Poly.one()\n"
        "    return degrees, TransferMatrix(rows)\n"
        "latkern.polymatrix.krylov_kernel_basis = corrupted_krylov\n"
        "for entry in ('right_coprime_fraction', 'reachability_indices'):\n"
        "    try:\n"
        "        getattr(latkern.polymatrix, entry)(l * f)\n"
        "    except InternalCheckError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        sys.exit('no InternalCheckError under -O')\n"
        "latkern.polymatrix.krylov_kernel_basis = krylov\n"
        "import latkern.feedback\n"
        "from latkern.feedback import vg_representation\n"
        "from latkern.matrixio import dump_matrix\n"
        "latkern.latency.smith_at_infinity = smith_at_infinity\n"
        "import latkern.factor\n"
        "build = latkern.factor.build_latency_kernel\n"
        "def moved(f):\n"
        "    k = build(f)\n"
        "    cols = k.generator.columns()\n"
        "    cols[0] = [RatFun.zpow(1) * e for e in cols[0]]\n"
        "    d = TransferMatrix.from_columns(cols)\n"
        "    return dataclasses.replace(k, generator=d)\n"
        "latkern.factor.build_latency_kernel = moved\n"
        "try:\n"
        "    causal_factor(f, l * f)\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no InternalCheckError under -O')\n"
        "latkern.factor.build_latency_kernel = build\n"
        "z = RatFun.zpow\n"
        "f = TransferMatrix([[z(-1), z(-2)], [0, z(-3)]])\n"
        "l = TransferMatrix([[RatFun(Poly([1, 1]), Poly([2, 1])), z(-1)],\n"
        "                    [2, 1]])\n"
        "construct = latkern.feedback.construct_causal_factor\n"
        "def off_rho(f, h, kernel=None):\n"
        "    outcome = construct(f, h, kernel=kernel)\n"
        "    rows = [list(row) for row in outcome.g.entries]\n"
        "    rows[0][0] = rows[0][0] + z(-3)\n"
        "    return dataclasses.replace(outcome, g=TransferMatrix(rows))\n"
        "latkern.feedback.construct_causal_factor = off_rho\n"
        "try:\n"
        "    vg_representation(f, l)\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no InternalCheckError under -O')\n"
        "paths = [sys.argv[1] + '/f.json', sys.argv[1] + '/l.json']\n"
        "dump_matrix(f, paths[0])\n"
        "dump_matrix(l, paths[1])\n"
        "code = latkern.cli.main(['--json', 'realize', *paths,\n"
        "                         '--out-dir', sys.argv[1] + '/out'])\n"
        "print(code, file=sys.stderr)\n"
        "latkern.feedback.construct_causal_factor = construct\n"
        "import latkern.linalg\n"
        "from latkern.factor import static_factor\n"
        "solve = latkern.linalg.solve\n"
        "latkern.linalg.solve = lambda a, b: [x + 1 for x in solve(a, b)]\n"
        "try:\n"
        "    static_factor(f, 2 * f)\n"
        "except InternalCheckError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('no InternalCheckError under -O')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    (optimize, precondition, coordinates, reconstruction, left, coprime,
     krylov, witness, rho, *realize, static) = proc.stdout.splitlines()
    assert optimize == "1"
    assert "inverse not strictly causal" in precondition
    assert coordinates == "causal factor reconstruction failed"
    assert reconstruction == "causal factor reconstruction failed"
    assert left == "constructed left factor does not map f1 to f2"
    assert coprime == krylov == "reachability basis leaves the module"
    assert witness == "factor witness does not refute"
    assert rho == "realization identity failed"
    assert proc.stderr.splitlines()[-1] == "3"
    assert json.loads("\n".join(realize)) == {
        "command": "realize", "error": "realization identity failed"}
    assert static == "static factor reconstruction failed"


def test_benchmark_trace_entries_resolve():
    # perfbench --trace 1 wraps these names from outside the library; a
    # rename here would silently drop its span.  The module is only read.
    spec = importlib.util.spec_from_file_location("spantrace", SPANTRACE)
    spantrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spantrace)
    missing = []
    for metric, (module, attr) in spantrace.LAYER_ENTRIES.items():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{metric}: {module}.{attr}")
    assert len(spantrace.LAYER_ENTRIES) == 27
    assert not missing, "unresolved trace entries: " + ", ".join(missing)


def test_latency_kernel_inverts_no_matrix(monkeypatch):
    # The Smith form carries b2^-1, and the generator and its inverse are
    # b2^-1 and b2 with scaled, reordered columns and rows, so building the
    # kernel, its strictly polynomial basis and a membership test needs no
    # Gauss-Jordan inversion.
    from gen import rand_strictly_causal_injective

    def refuse(self):
        raise RuntimeError("TransferMatrix.inverse called")

    f, nu = rand_strictly_causal_injective(random.Random(47), 3, 3,
                                           max_nu=2, max_deg=1)
    monkeypatch.setattr(latkern.transfer.TransferMatrix, "inverse", refuse)
    k = latkern.latency.latency_kernel(f)
    assert k.indices == nu and k.poly_generator is not None
    assert k.contains(k.generator.column(0))


def test_ab_replay_runs_a_against_a(capsys):
    # tests/ab_replay.py with this checkout as its own parent: one kernel
    # round, both sides equal on every operation, one ratio printed.
    import ab_replay
    assert ab_replay.main([str(SRC.parents[1]), "--rounds", "1",
                           "--reps", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kernel seed 1: 19 operations from 1 rounds"
    assert out[1].startswith("rep 1: parent ") and " ratio " in out[1]
    assert out[2].endswith("stdout equal on every operation")


def test_ab_replay_stops_at_a_difference(tmp_path, capsys):
    # A parent whose cli prints one more line differs on the first
    # operation.
    import ab_replay
    copy = tmp_path / "src" / "latkern"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "cli.py", "a") as fh:
        fh.write("\n_main = main\n\n\ndef main(argv=None):\n"
                 "    code = _main(argv)\n    print('extra')\n"
                 "    return code\n")
    with pytest.raises(ab_replay.OutputMismatch, match="operation 0 "):
        ab_replay.main([str(tmp_path), "--rounds", "1", "--reps", "1"])
