"""nk6 benchmark: three certificate workloads, timed end to end and per layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload certify-dvv-32 --seed 1 --seconds 30 --trace 0

Workloads (the reasons are in BENCHMARK.json):
  certify-dvv-32  `nk6 integrate --model dvv --rule 32,32,32`, one 32^3 batch
  analyze-dvv     `cli.analyze_point` on one seeded chart point per op
  verify-sweep    `nk6 verify --model dvv` over seeds derived from --seed

Each run starts one workload process (worker.py) with `src/` on PYTHONPATH
and the BLAS thread count pinned to 1; an untraced run also times 20 fresh
set-up processes between its ops (setup_s is their median).  The workload
is a closed loop with one client.  Every op's output is checked against the
reference values within nk6.cli.DEFAULT_TOLERANCES.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  Their times are scaled to a reference host speed, read by the
fixed work of hostspeed.py every 0.2 s of the run and once more in each
set-up process, because a shared host's speed moves raw times between runs
by more than most code changes do.  It also prints the unscaled times and
the host speed, fail_ratio, the op latencies, and each metric under the
name it has on its workload (certify_s, analyze_points_per_s,
analyze_p90_ms, verify_runs_per_s).

--trace 1 wraps the public functions of every nk6 module on every second op
and reports the per-layer metrics, a per-layer table, trace.overhead_ratio
(traced op time over untraced op time) and trace.escaped_calls (calls of a
wrapped function's code that skipped its wrapper, counted under a profiler
on one extra, untimed op).  Both print a table, then one JSON line
{"correct", "attempted", "failed", "metrics"}, and write the full result,
with provenance, under .bench_out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify-dvv-32", "analyze-dvv", "verify-sweep")
DEADLINE_S = 170.0      # a run ends, or is abandoned, within this
BLAS_THREADS = "1"

# The names the end-to-end metrics go by on each workload's op.
ALIASES = {
    "certify-dvv-32": {"certify_s": ("op_median_ms", 1e-3, "s")},
    "analyze-dvv": {"analyze_points_per_s": ("ops_per_ref_s", 1.0, "1/s"),
                    "analyze_p90_ms": ("op_p90_ms", 1.0, "ms")},
    "verify-sweep": {"verify_runs_per_s": ("ops_per_ref_s", 1.0, "1/s")},
}


def worker_env():
    env = dict(os.environ)
    # bytecode caches on, as for an installed nk6, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, deadline):
    """Run worker.py to completion and return its JSON line; None on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"), *args]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: {' '.join(args)} did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        print(f"error: worker {' '.join(args)} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(res):
    """The bounded metrics.  Times are scaled to the reference host speed of
    hostspeed.py: the run's throughput by the speed its probes read, each
    set-up time by the speed read in its own process."""
    setup = [s * hostspeed.speed([p]) for s, p in zip(res["setup_s"], res["setup_probe_s"])]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_ref_s": (len(res["op_s"]) / res["wall_s"] / hostspeed.speed(res["probe_s"]),
                          "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def as_measured(res):
    """The same times unscaled, with the host speed they were scaled by."""
    return {
        "raw_setup_s": (statistics.median(res["setup_s"]), "s"),
        "raw_ops_per_s": (len(res["op_s"]) / res["wall_s"], "1/s"),
        "host_speed": (hostspeed.speed(res["probe_s"]), "1"),
    }


def latency(times):
    """Median op latency, and p90 by nearest rank where at least ten ops lie
    beyond it.  They are printed but not reported: on a shared 2-core host
    the median of batch-size-1 ops moves by up to 25% between runs, and a
    certify run has too few ops for a p90, so throughput is the bounded
    metric of op speed."""
    out = {"op_median_ms": (statistics.median(times) * 1e3, "ms")}
    rank = math.ceil(0.9 * len(times))
    if len(times) - rank >= 10:
        out["op_p90_ms"] = (sorted(times)[rank - 1] * 1e3, "ms")
    return out


def per_layer(res):
    metrics = {k: tuple(v) for k, v in res["layers"].items()}
    traced = [t for t, tr in zip(res["op_s"], res["traced"]) if tr]
    plain = [t for t, tr in zip(res["op_s"], res["traced"]) if not tr]
    ratio = statistics.fmean(traced) / statistics.fmean(plain)
    metrics["trace.overhead_ratio"] = (ratio, "1")
    return metrics


def print_tables(workload, metrics, res, trace):
    n = len(res["op_s"])
    print(f"workload {workload}: {n} ops in {res['wall_s']:.3f} s, {len(res['failures'])} failed, "
          f"fail_ratio {len(res['failures']) / n:.4g}")
    for reason in res["failures"][:10]:
        print(f"  FAILED {reason}")
    if not trace:
        shown = dict(metrics, **as_measured(res), **latency(res["op_s"]))
        for name, (value, unit) in shown.items():
            print(f"  {name:<24} {value:>14.6g} {unit}")
        for name, (source, scale, unit) in ALIASES[workload].items():
            if source in shown:
                print(f"  {name:<24} {shown[source][0] * scale:>14.6g} {unit}  (= {source})")
        return
    op_s = sum(metrics[f"{m}.self_s"][0] for m in MODULES)
    wall = statistics.fmean(t for t, tr in zip(res["op_s"], res["traced"]) if tr)
    print(f"  per traced op: {op_s:.6g} s in the layers' self times, {wall:.6g} s wall, "
          f"overhead ratio {metrics['trace.overhead_ratio'][0]:.4f}, "
          f"calls that skipped their wrapper {metrics['trace.escaped_calls'][0]:g}")
    for name, n in res["escaped"].items():
        print(f"  ESCAPED {name}: {n:+d} calls of its code against its wrapper's count")
    print(f"  {'function':<40} {'calls/op':>10} {'rows/op':>12} {'self s/op':>12} {'share':>7}")
    funcs = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".calls")},
                   key=lambda f: -metrics[f + ".self_s"][0])
    for f in funcs:
        rows = metrics.get(f + ".rows", ("-",))[0]
        self_s = metrics[f + ".self_s"][0]
        print(f"  {f:<40} {metrics[f + '.calls'][0]:>10.6g} {rows:>12.6} "
              f"{self_s:>12.6g} {self_s / op_s if op_s else 0:>7.1%}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".rows")) and name.rsplit(".", 1)[0] not in funcs:
            print(f"  {name:<40} {value:>.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="nk6 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nk6" / "__init__.py").is_file():
        print(f"error: no nk6 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    work = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.trace:
        work += ["--spans", str(OUT / f"{tag}-spans.jsonl")]
    res = run_worker(work, deadline)
    if res is None:
        return 1

    metrics = per_layer(res) if args.trace else end_to_end(res)
    attempted, failed = len(res["op_s"]), len(res["failures"])
    provenance = dict(res["provenance"], nproc=os.cpu_count(),
                      affinity=len(os.sched_getaffinity(0)),
                      git_commit=git_commit(), seed=args.seed)
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print_tables(args.workload, metrics, res, args.trace)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        dict(summary, workload=args.workload, seconds=args.seconds, provenance=provenance,
             setup_s=res["setup_s"], setup_probe_s=res["setup_probe_s"],
             probe_s=res["probe_s"], wall_s=res["wall_s"], op_s=res["op_s"],
             traced=res["traced"], failures=res["failures"]), indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
