"""Golden outputs: the SHA-256 of stdout on fixed inputs, with and
without `--json`, and of every seed-1 output of two benchmark workloads.

Any change to how a report is computed or printed moves a digest, so a
speed-up that claims byte-identical output is held to it here.  Inputs
come from the seeded generators in `gen.py`; paths in the report are
relative to a temporary working directory, so they do not vary.
"""

import hashlib
import random

import pytest

import latkern.cli
import latkern.matrixio
from latkern.cli import main
from latkern.matrixio import dump_matrix
from latkern.transfer import TransferMatrix

import seed_outputs
from gen import (rand_bicausal, rand_matrix, rand_ratfun,
                 rand_strictly_causal_injective)


def _inputs():
    rng = random.Random(2024)
    f, _ = rand_strictly_causal_injective(rng, 3, 2, max_nu=2, max_deg=1)
    l = rand_bicausal(rng, 2, 2)
    g = rand_matrix(rng, 2, 3, 3)
    u = TransferMatrix([[rand_ratfun(rng, 3)] for _ in range(3)])
    # Kernel-path inputs, drawn after the ones above so those stay fixed:
    # h_yes = c f with c causal factors; h_no is a random map; post and
    # two-sided are bicausal compensations of f.
    h_yes = rand_bicausal(rng, 3, 1) * f
    h_no = rand_matrix(rng, 3, 2, 1)
    post = rand_bicausal(rng, 3, 1) * f
    two_sided = rand_bicausal(rng, 3, 1) * f * rand_bicausal(rng, 2, 1)
    return {"f.json": f, "l.json": l, "g.json": g, "u.json": u,
            "h_yes.json": h_yes, "h_no.json": h_no, "post.json": post,
            "two_sided.json": two_sided}


# (test id, argv, exit code, digest); the kernel path is covered by
# latency, factor (one yes, one no) and equivalence (post, two-sided).
GOLDEN = [
    ("realize", ["realize", "f.json", "l.json", "--out-dir", "out"], 0,
     "2be874fc820af4342dc1871321f3ed3b7ec3659167cb346f0510a2e7a4263b91"),
    ("simulate", ["simulate", "g.json", "u.json", "--horizon", "25"], 0,
     "8798ce7e13a9475e33ec681899125d018a1db33517cf108878c91777d78fba7a"),
    ("expand", ["expand", "g.json", "--terms", "25"], 0,
     "b737ef618993e6dfcfa8867093f16426d8fc2cc40d45628cfab94fba1290a925"),
    ("latency", ["latency", "f.json"], 0,
     "3d76ce014dd8ba24440954f5792babaa2b2e0e54aeafba65b58cc2adfbcb45a2"),
    ("factor-yes", ["factor", "f.json", "h_yes.json"], 0,
     "59228849c2319c8435db75b2800dc24cecab06216b12f9bdbadc48c56918f728"),
    ("factor-no", ["factor", "f.json", "h_no.json"], 1,
     "4514176a5e4140a81f37bf292fe3882361f00c929eb7e9a9aa0b39dee6bbc17a"),
    ("equiv-post", ["equiv", "f.json", "post.json", "--mode", "post"], 0,
     "06b6617a580e1a56973e36290250f1b7185ef1a15b5a04254a825b7bfca02e5c"),
    ("equiv-two-sided",
     ["equiv", "f.json", "two_sided.json", "--mode", "two-sided"], 0,
     "39f72290b3ca101b24b4e6361e8fb1ce6cc4bdbafc262b6b1d32071d02f3144d"),
]


@pytest.mark.parametrize("argv,code,digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_json_stdout_digest(argv, code, digest, tmp_path, capsys,
                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, matrix in _inputs().items():
        dump_matrix(matrix, name)
    assert main(["--json"] + argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Text-mode stdout of the same argv, by test id.
TEXT_DIGESTS = {
    "realize":
        "99516170d8360064592e2ec1c760cced50dd2da53a71faeba9d9b57b4870ed4d",
    "simulate":
        "9ea8f74069d87b20dafa1edba0b3e6f73cac519ad9143fc90a377325c6ebcf81",
    "expand":
        "7cdf4bf7db39f6ddfe8c13e206867e5b07fc101692903d048d991ae50e0a92c9",
    "latency":
        "47f134b97101dd5765ea41835baea35b8481c83f84ca5a7d3ccad118fc0ee00d",
    "factor-yes":
        "6a6e8ca58ca3b98d0b9083b943b7873a2b2caf01902f64d24f3520f70be97a78",
    "factor-no":
        "3610cc7b549f6ff554e8acc6fc4ca135dca83a9fb7a861d306f2255021d5ec26",
    "equiv-post":
        "1a757b562e641d4e96ac62fe998c7e1d0be8eac664201576ae4ca8c7e0af2d15",
    "equiv-two-sided":
        "5c4f689abc69fb6cf223289765d640a1f248545af5bd3d6b57ae5d670a74a3be",
}


def _run_text(argv, code, tmp_path, capsys, monkeypatch):
    """Text-mode stdout of argv on the golden inputs; checks the exit."""
    monkeypatch.chdir(tmp_path)
    for name, matrix in _inputs().items():
        dump_matrix(matrix, name)
    assert main(argv) == code
    return capsys.readouterr().out


@pytest.mark.parametrize("tid,argv,code", [g[:3] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_text_stdout_digest(tid, argv, code, tmp_path, capsys, monkeypatch):
    out = _run_text(argv, code, tmp_path, capsys, monkeypatch)
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_DIGESTS[tid]


@pytest.mark.parametrize("argv,code", [g[1:3] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_text_mode_prints_matrices_without_parsing_them(argv, code, tmp_path,
                                                        capsys, monkeypatch):
    # Inputs load through the real parser; any other matrix_from_json
    # call, such as one reading a report matrix back to print it, raises.
    parse = latkern.matrixio.matrix_from_json

    def refuse(obj):
        raise AssertionError("a report matrix was parsed to be printed")

    monkeypatch.setattr(latkern.cli, "load_matrix",
                        lambda path: parse(latkern.matrixio._read_json(path)))
    monkeypatch.setattr(latkern.matrixio, "matrix_from_json", refuse)
    monkeypatch.setattr(latkern.cli, "matrix_from_json", refuse,
                        raising=False)
    out = _run_text(argv, code, tmp_path, capsys, monkeypatch)
    assert out and "error" not in out


# (operations, digest) of tests/seed_outputs.py on seed 1: every output of
# the benchmark workloads that reach the kernel path and realize.
SEED_DIGESTS = {
    "kernel": (152, "bff9a01ebc07eccf5c07e7fcedec1a73"
                    "a0abdd95a6da9b703f6d49236eb89193"),
    "realize": (280, "1c44f9953d7fc6e864b5223eaa979414"
                     "89bfce757f74d2e2af9c8ec5284c4edb"),
}


@pytest.mark.parametrize("workload", sorted(SEED_DIGESTS))
def test_seed_1_workload_digest(workload, tmp_path):
    assert (seed_outputs.workload_digest(workload, 1, str(tmp_path))
            == SEED_DIGESTS[workload])
