"""lyagate benchmark: one workload per run, end-to-end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload ex1d-embed --seed 1 --seconds 25 --trace 0

The workloads are defined in `workloads.py`; BENCHMARK.json names them and
the metrics with their units. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
print every metric by name and unit, with the base counts behind each ratio.

--trace 0 times set-up in SETUP_RUNS fresh processes, then runs operations
for --seconds and reports the end-to-end metrics. Their times are rescaled
to the machine's nominal speed with the calibration kernel of `speed.py`,
timed before every operation and, inside each probe, right after its
set-up. --trace 1 skips the probes,
records spans around every lyagate layer (see `tracer.py`) on every other
operation, reports the per-layer metrics, and writes the spans to
perfbench/out/.

Load comes from this one process: no pools, and BLAS capped at one thread.
"""

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 12
PROBE_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def missing_inputs():
    need = [os.path.join(SRC, "lyagate", "__init__.py"),
            os.path.join(ROOT, "demos", "specs", "example1d.json"),
            os.path.join(ROOT, "demos", "specs", "phase_plane.json"),
            os.path.join(ROOT, "BENCHMARK.json")]
    return [p for p in need if not os.path.isfile(p)]


def time_setups(workload, seed):
    """Fresh-process set-up times, each with the calibration passes its
    probe made right after set-up.

    The caller has already set up once in this process, so the file cache
    holds everything a probe reads.
    """
    times, cals, problems = [], [], []
    for _ in range(SETUP_RUNS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        reply = json.loads(proc.stdout.splitlines()[-1])
        problems += reply["problems"]
        times.append(reply["ready"] - t0)
        cals.append(reply["cal"])
    return times, cals, problems


class Record:
    """One operation: wall seconds (None if it raised), the calibration
    pass just before it, whether it was traced, and its checked Outcome."""

    def __init__(self, seconds, cal, traced, outcome):
        self.seconds = seconds
        self.cal = cal
        self.traced = traced
        self.outcome = outcome


def measure(work, seed, seconds, tracer):
    """Run operations for `seconds`; with a tracer, trace every other one."""
    import speed
    from tracer import OP
    from workloads import Outcome
    records = []
    deadline = time.perf_counter() + seconds
    i = 1    # operation 0 is the warm-up
    while time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        cal = speed.kernel_seconds()
        dt, outcome = None, None
        with tracer.installed() if traced else nullcontext():
            try:
                with tracer.span(OP) if traced else nullcontext():
                    t0 = time.perf_counter()
                    result = work.op(seed, i)
                    dt = time.perf_counter() - t0
            except Exception as exc:
                # A raising operation fails all it attempted and makes the
                # run incorrect; the run goes on.
                traceback.print_exc()
                outcome = Outcome(work.batch, work.batch,
                                  {"exception": work.batch},
                                  ["%s: operation %d raised %r"
                                   % (work.name, i, exc)])
        if outcome is None:
            outcome = work.check(result)
        records.append(Record(dt, cal, traced, outcome))
        i += 1
    return records


def main(argv=None):
    args = parse_args(argv)
    missing = missing_inputs()
    if missing:
        print("benchmark inputs missing: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.seed < 0 or args.seconds <= 0:
        print("need --workload in %s, --seed >= 0 and --seconds > 0" % names,
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    # Timed first, so that numpy's import, which speed.py would otherwise
    # do before it, counts in cli.import_s.
    t0 = time.perf_counter()
    import workloads
    from lyagate import expr
    import_s = time.perf_counter() - t0

    import speed
    import stats
    import tracer as tr

    work = workloads.WORKLOADS[args.workload]()
    tracer = tr.Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        with tracer.span(tr.SETUP) if tracer else nullcontext():
            problems = work.setup(args.seed)
    compilers = (expr.compile_scalar, expr.compile_vector, expr.compile_field)
    hits = sum(f.cache_info().hits for f in compilers)
    misses = sum(f.cache_info().misses for f in compilers)

    problems += work.check(work.op(args.seed, 0)).problems   # warm-up
    setup_times, setup_cals = [], []
    if not args.trace:
        setup_times, setup_cals, probe_problems = time_setups(args.workload,
                                                              args.seed)
        problems += probe_problems
    records = measure(work, args.seed, args.seconds, tracer)

    done = [r for r in records if r.seconds is not None]
    if not done:
        print("no operation completed", file=sys.stderr)
        return 1
    times = [r.seconds for r in done]
    attempted = sum(r.outcome.attempted for r in records)
    failed = sum(r.outcome.failed for r in records)
    kinds = {}
    for r in records:
        problems += r.outcome.problems
        for k, v in r.outcome.kinds.items():
            kinds[k] = kinds.get(k, 0) + v
    nominal = speed.CAL_NOMINAL_S
    cal = statistics.median(r.cal for r in records)

    if args.trace:
        untraced = [r.seconds for r in done if not r.traced]
        traced = [r.seconds for r in done if r.traced]
        values = tr.layer_metrics(tracer.spans)
        values["cli.import_s"] = import_s
        values["expr.compile_misses"] = misses
        values["expr.compile_hit_ratio"] = hits / (hits + misses)
        values["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0)
        wanted = spec["per_layer"]
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        # Each operation is rescaled by the kernel pass just before it, and
        # each set-up by the passes its probe made right after it.
        scaled = [r.seconds * nominal / r.cal for r in done]
        values = {
            "setup_s": statistics.median(
                t * nominal / c for t, c in zip(setup_times, setup_cals)),
            "op_p50_s": statistics.median(scaled),
            "throughput_per_s": work.batch * len(scaled) / sum(scaled),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]

    print("machine: %d cores, Python %s, numpy %s, scipy %s, BLAS threads 1"
          % (os.cpu_count(), platform.python_version(),
             sys.modules["numpy"].__version__,
             sys.modules["scipy"].__version__))
    print("workload %s  seed %d  trace %d  operation = %s of %d %s"
          % (args.workload, args.seed, args.trace,
             "check_sound batch" if work.unit == "traces" else "build",
             work.batch, work.unit))
    print("calibration kernel: median %.4f s over %d operations, nominal"
          " %.4f s; end-to-end times are wall times x nominal / kernel"
          % (cal, len(records), nominal))
    if setup_cals:
        print("calibration kernel after set-up: median %.4f s over %d probes"
              % (statistics.median(setup_cals), len(setup_cals)))
    print_wall(work, times, setup_times)
    print("%-34s %.4f  (%d failed / %d %s attempted)"
          % ("fail_ratio", stats.fail_ratio(failed, attempted), failed,
             attempted, work.unit))
    if kinds:
        print("failure kinds: %s" % json.dumps(kinds, sort_keys=True))
    for m in wanted:
        print("%-34s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    for p in problems:
        print("CHECK FAILED: %s" % p)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_wall(work, times, setup_times):
    """Unscaled wall times, under the names a lyagate user would use."""
    alias = "verdict_p50_s" if work.unit == "traces" else "abstract_p50_s"
    print("%-34s %.6g s wall  (median of %d operations)"
          % (alias, statistics.median(times), len(times)))
    if work.unit == "traces":
        print("%-34s %.6g 1/s wall  (batch %d)"
              % ("traces_per_s", work.batch * len(times) / sum(times),
                 work.batch))
    if setup_times:
        print("setup_s wall samples: %s"
              % " ".join("%.4f" % t for t in setup_times))


if __name__ == "__main__":
    sys.exit(main())
