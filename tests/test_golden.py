"""Golden outputs: the SHA-256 of `--json` stdout on fixed inputs.

Any change to how a report is computed or printed moves a digest, so a
speed-up that claims byte-identical output is held to it here.  Inputs
come from the seeded generators in `gen.py`; paths in the report are
relative to a temporary working directory, so they do not vary.
"""

import hashlib
import random

import pytest

from latkern.cli import main
from latkern.matrixio import dump_matrix
from latkern.transfer import TransferMatrix

from gen import (rand_bicausal, rand_matrix, rand_ratfun,
                 rand_strictly_causal_injective)


def _inputs():
    rng = random.Random(2024)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    l = rand_bicausal(rng, 2, 2)
    g = rand_matrix(rng, 2, 3, 3)
    u = TransferMatrix([[rand_ratfun(rng, 3)] for _ in range(3)])
    return {"f.json": f, "l.json": l, "g.json": g, "u.json": u}


GOLDEN = [
    (["realize", "f.json", "l.json", "--out-dir", "out"],
     "deecbe353539fce1eb8f66dee0cf8ba9f9405aea379934f2bcbbb5d5af41cc3a"),
    (["simulate", "g.json", "u.json", "--horizon", "25"],
     "8798ce7e13a9475e33ec681899125d018a1db33517cf108878c91777d78fba7a"),
    (["expand", "g.json", "--terms", "25"],
     "b737ef618993e6dfcfa8867093f16426d8fc2cc40d45628cfab94fba1290a925"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a[0] for a, _ in GOLDEN])
def test_json_stdout_digest(argv, digest, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LATKERN_HORIZON", raising=False)
    for name, matrix in _inputs().items():
        dump_matrix(matrix, name)
    assert main(["--json"] + argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
