"""The benchmark's verifiers accept real outputs and reject corrupted ones.

Each case runs one small operation through the CLI, checks that the
untouched output verifies, then corrupts it (a changed coefficient, a
wrong exit code, an invalid witness) and checks that the run's failure
count goes up.  Run with:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import instances  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from latkern.cli import main as cli_main  # noqa: E402


@pytest.fixture
def writer(tmp_path):
    return workloads.InstanceWriter(str(tmp_path))


def execute(op, tmp_path):
    """(op, elapsed, code, stdout, files) as the runner records it."""
    runner = run.Runner(cli_main, str(tmp_path / "out"))
    return (op,) + runner.run(op)


def failures(result) -> int:
    return len(run.check_results([result])[0])


def with_report(result, edit, code=None):
    """Copy of result with its JSON report edited (and exit code set)."""
    op, elapsed, old_code, out, files = result
    report = json.loads(out)
    edit(report)
    if code is not None:
        report["exit_status"] = code
    return (op, elapsed, old_code if code is None else code,
            json.dumps(report), files)


def bump(coeff: str) -> str:
    """A different exact coefficient."""
    q = Fraction(coeff) + 1
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def zero_witness(report):
    report["witness"] = [{"num": ["0"], "den": ["1"]} for _ in report["witness"]]


def plant(rng, writer, p=2, m=2, sigma=(1, 3)):
    f, nu = instances.injective_plant(rng, p, m, sigma, 1)
    return f, writer.write(f), nu


def test_series_commands(writer, tmp_path):
    rng = random.Random(1)
    fp = writer.write(instances.rand_matrix(rng, 2, 2, 3))
    up = writer.write(instances.rand_input(rng, 2, 2))
    ops = [workloads._op("classify", ["classify", fp]),
           workloads._op("expand", ["expand", fp, "--terms", "8"]),
           workloads._op("simulate", ["simulate", fp, up, "--horizon", "8"])]
    for op in ops:
        good = execute(op, tmp_path)
        assert failures(good) == 0, op["kind"]
        assert failures(with_report(good, lambda r: None, code=1)) == 1

    classify = execute(ops[0], tmp_path)
    def flip(r):
        r["report"]["causal"] = not r["report"]["causal"]
    assert failures(with_report(classify, flip)) == 1

    expand = execute(ops[1], tmp_path)
    def edit_expand(r):
        r["terms"][3]["coeff"][1][0] = bump(r["terms"][3]["coeff"][1][0])
    assert failures(with_report(expand, edit_expand)) == 1

    simulate = execute(ops[2], tmp_path)
    def edit_simulate(r):
        r["output"][-1]["coeff"][0][0] = bump(r["output"][-1]["coeff"][0][0])
    assert failures(with_report(simulate, edit_simulate)) == 1


def test_latency_and_factor(writer, tmp_path):
    rng = random.Random(2)
    f, fp, nu = plant(rng, writer)
    latency = execute(workloads._op("latency", ["latency", fp], nu=nu),
                      tmp_path)
    assert failures(latency) == 0
    def edit_indices(r):
        r["report"]["latency_indices"] = list(reversed(nu))
        r["report"]["orders"] = [-i - 1 for i in reversed(nu)]
    assert failures(with_report(latency, edit_indices)) == 1
    def edit_generator(r):
        entry = r["report"]["generator"]["entries"][0][0]
        entry["num"][-1] = bump(entry["num"][-1])
    assert failures(with_report(latency, edit_generator)) == 1

    h_yes = writer.write(instances.rand_causal(rng, 2, 2, 1) * f)
    yes = execute(workloads._op("factor", ["factor", fp, h_yes], yes=True),
                  tmp_path)
    assert failures(yes) == 0
    def edit_factor(r):
        entry = r["factor"]["entries"][1][0]
        entry["num"][0] = bump(entry["num"][0])
    assert failures(with_report(yes, edit_factor)) == 1
    def say_no(r):
        r.update(decision="no", witness=[{"num": ["1"], "den": ["1"]}] * 2)
    assert failures(with_report(yes, say_no, code=1)) == 1

    h_no = writer.write(instances.rand_matrix(rng, 2, 2, 1))
    no = execute(workloads._op("factor", ["factor", fp, h_no], yes=None),
                 tmp_path)
    assert no[2] == 1 and failures(no) == 0
    assert failures(with_report(no, zero_witness)) == 1


def test_equivalence(writer, tmp_path):
    rng = random.Random(3)
    f, fp, nu = plant(rng, writer)
    other, nu2 = instances.injective_plant(rng, 2, 2, (2, 2), 1)
    lpo = instances.rand_bicausal(rng, 2, 1)
    lpr = instances.rand_bicausal(rng, 2, 1)

    post = execute(workloads._op(
        "equiv", ["equiv", fp, writer.write(lpo * f), "--mode", "post"],
        equivalent=True), tmp_path)
    assert failures(post) == 0
    def edit_post(r):
        entry = r["post"]["entries"][0][1]
        entry["num"][0] = bump(entry["num"][0])
    assert failures(with_report(post, edit_post)) == 1

    post_no = execute(workloads._op(
        "equiv", ["equiv", fp, writer.write(lpo * other), "--mode", "post"],
        equivalent=False), tmp_path)
    assert post_no[2] == 1 and failures(post_no) == 0
    assert failures(with_report(post_no, zero_witness)) == 1

    two_no = execute(workloads._op(
        "equiv", ["equiv", fp, writer.write(lpo * other * lpr),
                  "--mode", "two-sided"],
        equivalent=False, nu1=nu, nu2=nu2), tmp_path)
    assert failures(two_no) == 0
    def swap(r):
        w = r["witness"]
        w["indices_first"], w["indices_second"] = (w["indices_second"],
                                                   w["indices_first"])
    assert failures(with_report(two_no, swap)) == 1


def test_realize_and_worstcase(writer, tmp_path):
    rng = random.Random(4)
    f, fp, nu = plant(rng, writer, p=2, m=1, sigma=(3,))
    lp = writer.write(instances.rand_bicausal(rng, 1, 2))
    realize = execute(workloads._op("realize", ["realize", fp, lp], nu=nu),
                      tmp_path)
    assert failures(realize) == 0
    assert failures(with_report(realize, lambda r: r.update(nu=[0]))) == 1

    # A changed coefficient in v.json, consistently in file and report.
    op, elapsed, code, out, files = realize
    report = json.loads(out)
    entry = report["v"]["entries"][0][0]
    entry["num"][0] = bump(entry["num"][0])
    with open(files["v"], "w", encoding="utf-8") as fh:
        json.dump(report["v"], fh)
    assert failures((op, elapsed, code, json.dumps(report), files)) == 1

    worst = execute(workloads._op("worstcase", ["worstcase", fp], nu=nu),
                    tmp_path)
    assert failures(worst) == 0
    def singular(r):
        r["precompensator"]["entries"][0][0] = {"num": ["1"], "den": ["0", "1"]}
    assert failures(with_report(worst, singular)) == 1


def test_crash_counts_as_failure(writer):
    op = workloads._op("classify", ["classify", writer.write(
        instances.rand_matrix(random.Random(5), 1, 1, 1))])
    assert failures((op, 0.0, RuntimeError("boom"), "", None)) == 1
    assert failures((op, 0.0, 0, "not json", None)) == 1


def test_inputs_depend_only_on_seed(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.POOL_ROUNDS, "series", 2)
    digests = []
    for i, seed in enumerate((7, 7, 8)):
        directory = tmp_path / str(i)
        directory.mkdir()
        digests.append(workloads.build("series", seed, str(directory))[1])
    assert digests[0] == digests[1] != digests[2]


def test_meter_probes_a_share_of_the_work():
    meter = speed.Meter()
    meter.sample(0.0)
    assert meter.count == 1
    meter.sample(0.05)
    assert meter.count > 1
    assert meter.total >= speed.Meter.SHARE * 0.05
    assert meter.speed() == speed.REFERENCE_S * meter.count / meter.total
    assert speed.reference_work() == speed.reference_work()


def test_meter_scales_each_piece_by_the_probes_around_it():
    meter = speed.Meter()
    meter.WINDOW_PROBES = 2
    # Probes of 1 ms (twice the reference speed), then of 4 ms (half).
    meter.samples = [(1, 0.001), (1, 0.001), (1, 0.004), (1, 0.004)]
    assert meter.local_speed(0) == speed.REFERENCE_S * 2 / 0.002
    assert meter.local_speed(1) == speed.REFERENCE_S * 2 / 0.002
    assert meter.local_speed(3) == speed.REFERENCE_S * 2 / 0.008
    assert meter.scale([1.0] * 4)[3] == meter.local_speed(3)
    meter.WINDOW_PROBES = 8     # more than there are: every sample counts
    assert meter.local_speed(0) == meter.speed()
    with pytest.raises(ValueError):
        meter.scale([1.0])


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
