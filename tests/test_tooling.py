"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import latkern
import latkern.latency
import latkern.transfer

SRC = Path(latkern.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a certificate written as one
    # would silently stop being checked.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in latkern: " + ", ".join(found)


def test_internal_check_error_defined_once():
    assert latkern.InternalCheckError is latkern.transfer.InternalCheckError
    assert latkern.latency.InternalCheckError is latkern.transfer.InternalCheckError
