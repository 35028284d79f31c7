"""latkern benchmark: seeded CLI workloads, timed in-process, checked exactly.

    python3 perfbench/run.py --workload realize|kernel|series --seed N
                             --seconds S --trace 0|1 [--results FILE]

One client calls latkern.cli.main(["--json", ...]) in this process, one
operation after another (a closed loop), with stdout captured.  In-process
calls keep interpreter start-up (about 55 ms) out of the short operations;
set-up time reports it instead.  A run executes whole rounds of the
workload until the operations have taken --seconds at the reference
speed (below; and at least MIN_OPS operations, so p90 has ten samples
above it), then verifies every output
outside the timed interval (see verify.py).

The host's speed drifts, so the times in the result line are at the
reference speed (speed.py): each operation's time is multiplied by the
machine speed that reference probes measured just before and just after
it.  Set-up time is wall-clock time: it is mostly import and file
writing, which the reference computation does not track.  The record
keeps the wall-clock values and the speed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same rounds
with every layer entry point wrapped in a span recorder (spantrace.py),
replays the same operations untraced to measure the recorder's overhead,
and reports the per-layer metrics.  End-to-end numbers come only from
untraced runs.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it is the full record (environment, input
digest, sample counts, failure reasons); --results appends that record to
a file for compare.py.
"""

from time import perf_counter

_MODULE_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import spantrace  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")   # inputs and --out-dir files
OUTPUT = os.path.join(ROOT, ".perfbench-out")    # span dumps

WORKLOADS = ("realize", "kernel", "series")
SETUP_REPEATS = 3       # set-up runs at least this often,
SETUP_MIN_S = 3.0       # and again until it has taken this long,
MAX_SETUP_REPEATS = 9   # but at most this often; the median is reported
IMPORT_REPEATS = 5      # fresh interpreters timed importing latkern
MIN_OPS = 110       # leaves at least ten samples above p90

END_TO_END = {      # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {}
    aggregated = {p for parts in spantrace.AGGREGATES.values() for p in parts}
    for name in list(spantrace.LAYER_ENTRIES) + list(spantrace.AGGREGATES):
        if name in aggregated:
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["rational.coeff_bits_max"] = "bits"
    units["rational.degree_max"] = "count"
    units["factor.yes_ratio"] = "ratio"
    units["cli.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def process_age() -> float:
    """Seconds since this process started (interpreter start-up included).

    Falls back to the time since this module began loading where /proc
    is unavailable.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0 <= age < 3600:
            return age
    except (OSError, ValueError, IndexError):
        pass
    return perf_counter() - _MODULE_START


def git_revision() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_library():
    """Import latkern from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import latkern
        import latkern.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import latkern from {SRC}: {exc}")
    origin = os.path.realpath(latkern.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: latkern was imported from {origin}, "
                         f"not from {SRC}")
    return latkern.cli.main


class Runner:
    """Runs operations through the CLI and keeps what verification needs."""

    def __init__(self, cli_main, out_root: str):
        self.cli_main = cli_main
        self.out_root = out_root
        self.count = 0

    def run(self, op: dict, call=None):
        """(seconds, exit code or exception, stdout, expected files)."""
        argv = ["--json"] + op["argv"]
        files = None
        if op["kind"] == "realize":
            out_dir = os.path.join(self.out_root, f"op{self.count:06d}")
            argv += ["--out-dir", out_dir]
            files = {n: os.path.join(out_dir, f"{n}.json") for n in ("v", "g")}
        self.count += 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            try:
                code = (call(self.cli_main, argv) if call
                        else self.cli_main(argv))
            except SystemExit as exc:
                code = exc
            except Exception as exc:  # a crash is a failed operation
                code = exc
            elapsed = perf_counter() - start
        return elapsed, code, buf.getvalue(), files

    def run_rounds(self, rounds, seconds: float, meter, call=None):
        """(results, wall seconds per round): whole rounds until the
        operations have taken seconds at the reference speed and there
        are at least MIN_OPS of them.  The meter samples the machine's
        speed after every operation, outside the timed intervals.
        Counting time at the reference speed keeps the number of rounds,
        and so the inputs run, the same in fast and slow phases of the
        host."""
        results, round_s = [], []
        while (len(results) < MIN_OPS
               or sum(round_s) * meter.speed() < seconds):
            spent = 0.0
            for op in rounds[len(round_s) % len(rounds)]:
                res = self.run(op, call)
                meter.sample(res[0])
                spent += res[0]
                results.append((op,) + res)
            round_s.append(spent)
        return results, round_s


def check_results(results):
    """(failures, coefficient bits, degree) over all results."""
    failures = []
    bits = deg = 0
    for op, _, code, out, files in results:
        if isinstance(code, BaseException):
            reason = f"raised {type(code).__name__}: {code}"
        else:
            reason = verify.verify(op, code, out, files)
        if reason is None:
            bits, deg = verify.coefficient_sizes(json.loads(out), (bits, deg))
        else:
            failures.append(f"{op['kind']} {' '.join(op['argv'][1:])}: {reason}")
    return failures, bits, deg


def latency_metrics(lat) -> dict:
    """Throughput and latency quantiles of operation times in seconds."""
    p90 = statistics.quantiles(lat, n=10)[-1]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "samples": len(lat),
        "samples_above_p90": sum(1 for x in lat if x > p90),
    }


def per_kind(results) -> dict:
    kinds = {}
    for op, elapsed, *_ in results:
        kinds.setdefault(op["kind"], []).append(elapsed)
    return {k: {"n": len(v), "median_ms": statistics.median(v) * 1e3,
                "total_s": sum(v)} for k, v in sorted(kinds.items())}


def import_times() -> list:
    """Seconds for a fresh interpreter to start and import latkern.cli
    from src/, IMPORT_REPEATS times.  Each child is waited for."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import latkern.cli"
    times = []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                       check=True)
        times.append(perf_counter() - start)
    return times


class Laps:
    """Times work in segments and samples the meter after each segment,
    so that the probes stay out of the time."""

    def __init__(self, meter):
        self.meter = meter
        self.laps = []
        self.mark = perf_counter()

    def __call__(self):
        seconds = perf_counter() - self.mark
        self.laps.append(seconds)
        self.meter.sample(seconds)
        self.mark = perf_counter()


def set_up(workload: str, seed: int, cli_main, work: str):
    """(rounds, input digest, wall seconds per repeat, reference-speed
    seconds per repeat).

    Generates and writes the instances, then warms up with one operation
    of each kind; repeats that as SETUP_REPEATS and SETUP_MIN_S ask, and
    uses the last repeat's inputs.  A meter samples the machine's speed
    after every generated round and every warm-up operation, untimed.
    """
    import workloads
    meter = speed.Meter()
    repeats, digests = [], set()
    for i in range(MAX_SETUP_REPEATS):
        if i >= SETUP_REPEATS and sum(map(sum, repeats)) >= SETUP_MIN_S:
            break
        laps = Laps(meter)
        inputs = os.path.join(work, f"inputs{i}")
        os.mkdir(inputs)
        rounds, digest = workloads.build(workload, seed, inputs, laps)
        digests.add(digest)
        warm = Runner(cli_main, os.path.join(work, f"warm{i}"))
        seen = set()
        for op in rounds[0]:
            if op["kind"] not in seen:
                seen.add(op["kind"])
                warm.run(op)
                laps()
        repeats.append(laps.laps)
    if len(digests) != 1:
        raise SystemExit("perfbench: instance generation is not deterministic")
    scaled = meter.scale([t for laps in repeats for t in laps])
    wall, ref, at = [], [], 0
    for laps in repeats:
        wall.append(sum(laps))
        ref.append(sum(scaled[at:at + len(laps)]))
        at += len(laps)
    return rounds, digests.pop(), wall, ref


def layer_metrics(tracer, bits: int, deg: int, overhead: float):
    """(per-layer metrics, share of operation time per entry)."""
    layers = tracer.layer_metrics()
    metrics = {}
    for name in per_layer_units():
        entry, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s") and entry in layers:
            metrics[name] = layers[entry][0 if kind == "calls" else 1]
    calls = layers["factor.causal_factor"][0]
    metrics["rational.coeff_bits_max"] = bits
    metrics["rational.degree_max"] = deg
    metrics["factor.yes_ratio"] = tracer.factor_yes / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = overhead
    total = layers["cli"][2]
    shares = {name: {"calls": c, "self_share": s / total,
                     "inclusive_share": incl / total}
              for name, (c, s, incl) in layers.items() if c}
    return {name: metrics[name] for name in per_layer_units()}, shares


def print_report(record, units, samples):
    print(f"latkern benchmark: workload={record['workload']} "
          f"seed={record['seed']} trace={record['trace']} "
          f"rounds={record['rounds']} digest={record['input_digest'][:16]}")
    for name, m in record["metrics"].items():
        n = samples.get(units[name])
        extra = f"  (n={n})" if n else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{extra}")
    if not record["trace"]:
        sp = record["speed"]
        print(f"  operation times above are at the reference speed; "
              f"machine speed {sp['run']:.3f}; wall-clock values:")
        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
            unit = END_TO_END[name]
            print(f"  {'wall ' + name:34s} {record['wall'][name]:14.6g} {unit}")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']})")
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    if "layer_share" in record:
        print("  share of operation time (self / inclusive):")
        for name, share in sorted(record["layer_share"].items(),
                                  key=lambda kv: -kv[1]["inclusive_share"]):
            print(f"    {name:34s} {share['self_share']:7.1%} "
                  f"{share['inclusive_share']:7.1%}  calls={share['calls']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append the full record to FILE")
    args = parser.parse_args(argv)

    # Pin the environment: the default verification horizon (40).
    os.environ.pop("LATKERN_HORIZON", None)
    cli_main = import_library()
    import_s = process_age()

    os.makedirs(SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        rounds, digest, setup_times, setup_ref = set_up(
            args.workload, args.seed, cli_main, work)
        imports = import_times()
        runner = Runner(cli_main, os.path.join(work, "out"))
        meter = speed.Meter()
        if args.trace:
            tracer = spantrace.Tracer()
            tracer.install()
            try:
                results, round_s = runner.run_rounds(
                    rounds, args.seconds, meter, tracer.operation)
            finally:
                tracer.uninstall()
            replay = [(op,) + runner.run(op) for op, *_ in results]
            overhead = (sum(r[1] for r in results)
                        / sum(r[1] for r in replay))
            checked = results + replay
        else:
            results, round_s = runner.run_rounds(rounds, args.seconds,
                                                 meter)
            checked = results
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verify_start = perf_counter()
        failures, bits, deg = check_results(checked)
        verify_s = perf_counter() - verify_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            os.rmdir(SCRATCH)

    wall = latency_metrics([r[1] for r in results])
    wall["setup_s"] = (statistics.median(imports)
                       + statistics.median(setup_times))
    lat = latency_metrics(meter.scale([r[1] for r in results]))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "input_digest": digest, "pool_rounds": len(rounds),
        "rounds": len(round_s), "round_s": round_s,
        "per_kind": per_kind(results),
        "samples": lat["samples"],
        "samples_above_p90": lat["samples_above_p90"],
        "attempted": len(checked), "failed": len(failures),
        "fail_ratio": len(failures) / len(checked),
        "failures": failures[:20],
        "wall": wall,
        "speed": {"run": meter.speed(),
                  "probes": meter.count, "probe_s": meter.total,
                  "reference_s": speed.REFERENCE_S},
        "import_s": import_s, "import_runs_s": imports,
        "setup_runs_s": setup_times, "setup_runs_ref_s": setup_ref,
        "verify_s": verify_s,
        "coeff_bits_max": bits, "degree_max": deg,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "git_revision": git_revision(),
            "latkern_horizon": "default (LATKERN_HORIZON unset)",
        },
    }
    if args.trace:
        units = per_layer_units()
        metrics, record["layer_share"] = layer_metrics(tracer, bits, deg,
                                                       overhead)
        os.makedirs(OUTPUT, exist_ok=True)
        spans_path = os.path.join(
            OUTPUT, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        units = END_TO_END
        metrics = {
            "ops_per_s": lat["ops_per_s"],
            "op_p50_ms": lat["op_p50_ms"],
            "op_p90_ms": lat["op_p90_ms"],
            "setup_s": (statistics.median(imports)
                        + statistics.median(setup_ref)),
            "peak_rss_mb": rss_mb,
            "success_ratio": 1 - len(failures) / len(checked),
        }
    record["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}

    print_report(record, units, {"ms": lat["samples"], "1/s": lat["samples"],
                                 "s": None if args.trace else len(setup_times)})
    line = json.dumps(record, sort_keys=True)
    print(line)
    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
