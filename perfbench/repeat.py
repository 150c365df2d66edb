"""Run the benchmark once per seed and report each end-to-end metric's spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload nav-embed --seeds 101-110

Runs `run.py --trace 0` one seed after another (never in parallel), then
prints for every end-to-end metric the median, the quartile spread
(q3 - q1) / median of statistics.quantiles(n=4), and the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged. Every
run lasts run_seconds of BENCHMARK.json. The raw results go to
perfbench/out/repeat-<workload>-<first seed>-<last seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True,
                   help="inclusive range such as 101-110")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        print("seed %d: correct=%s failed=%d/%d %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            " ".join("%s=%.5g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "repeat-%s-%d-%d.json" % (
        args.workload, args.seeds[0], args.seeds[-1]))
    with open(path, "w") as fh:
        json.dump({"seeds": args.seeds, "seconds": seconds,
                   "results": results}, fh, indent=1)

    steady = all(r["correct"] for r in results)
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
        flag = ""
        if spread >= m["bound"] / 3:
            flag = "  SPREAD >= bound/3"
            steady = False
        print("%-18s median %.6g %s  spread %.4f  bound %.2f%s" % (
            m["name"], statistics.median(values), m["unit"], spread, m["bound"],
            flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
