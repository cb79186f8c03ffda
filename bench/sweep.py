"""Run bench/run.py over several seeds and summarize each metric.

    python3 bench/sweep.py --seeds 1-10 [--trace 0] [--record FILE]

It runs every workload of BENCHMARK.json for its run_seconds.  For every
workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median (the spread; null where the median is 0), next to the metric's
bound from BENCHMARK.json.  One run of this command, with the default
single seed, runs all three workloads, checks their outputs and prints
every end-to-end metric.
With --record FILE the summary, with the provenance of the last run, is
appended as one point to the JSON list in FILE; bench/trajectory.json holds
the points measured so far, oldest first.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description="multi-seed nk6 benchmark sweep")
    parser.add_argument("--seeds", type=seed_list, default=[1], help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    summary, ok, provenance = {}, True, None
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance = json.loads(lines[0].split(" ", 1)[1])
            ok &= result["correct"]
            print(f"{workload} seed {seed}: {took:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        width = max(map(len, values))
        print(f"\n{workload}\n  {'metric':<{width}} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, s in summary[workload].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<{width}} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {spread:>8} {bounds.get(name, ''):>6}")
        print(flush=True)
    if args.record:
        points = json.loads(args.record.read_text()) if args.record.exists() else []
        del provenance["seed"]
        points.append({"git_commit": provenance.pop("git_commit"), "provenance": provenance,
                       "seeds": args.seeds, "seconds": seconds, "trace": args.trace,
                       "summary": summary})
        args.record.write_text(json.dumps(points, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
