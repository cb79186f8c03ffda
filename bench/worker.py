"""One workload process of the nk6 benchmark.

`run.py` starts this file with `src/` on PYTHONPATH and the BLAS thread
count pinned.  With `--setup-only` it times a fresh process getting ready
(import nk6, default_table(), model build) and exits.  Otherwise it runs one
workload as a closed loop with one client for `--seconds` seconds, checks
every op's output and prints one JSON line of raw samples.  An untraced run
also times SETUP_RUNS `--setup-only` processes between its ops and runs the
host-speed probe of hostspeed.py throughout.  Every op
goes through nk6's real entry points, `nk6.cli.main` and
`nk6.cli.analyze_point`.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# verify-sweep runs `verify --seed s` for consecutive s from
# seed * VERIFY_STRIDE, so runs with different benchmark seeds verify
# disjoint ranges of program seeds.
VERIFY_STRIDE = 100_000

# Chart points an op produces results for, the base of
# models.jet.rows_per_node: the 32^3 quadrature nodes of a certify, one
# analyzed point, and the min(--samples, 200) sample points of verify's
# immersion suite (its Berger suite reuses the first 50 of them).
NODES_PER_OP = {"certify-dvv-32": 32**3, "analyze-dvv": 1, "verify-sweep": 200}

# Set-up processes timed in an untraced run; setup_s is their median.
SETUP_RUNS = 20
# Host-speed probes run in each set-up process after its set-up is timed.
SETUP_PROBES = 10


def _cli(nk6, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = nk6.cli.main(argv)
    return rc, buf.getvalue()


def certify_ops(nk6, checks, model, seed):
    """`integrate --model dvv --rule 32,32,32`; the rule is fixed, so the
    seed is unused.  Every report of the run must match the first byte for
    byte."""
    argv = ["integrate", "--model", "dvv", "--rule", "32,32,32"]
    first = []

    def check(out):
        bad = checks.check_certify(*out)
        if not first:
            first.append(out[1])
        elif out[1] != first[0]:
            bad.append("report differs from the run's first certify report")
        return bad

    while True:
        yield (lambda: _cli(nk6, argv)), check


def analyze_ops(nk6, checks, model, seed):
    """One `cli.analyze_point` request per chart point, with points drawn
    from the seed the way `nk6 analyze --random` draws them."""
    import numpy as np

    rng = np.random.default_rng(seed)
    while True:
        for q in model.chart.random_points(64, rng):
            yield (lambda q=q: nk6.cli.analyze_point(model, q)), checks.check_analyze_row


def verify_ops(nk6, checks, model, seed):
    """`verify --model dvv` over consecutive seeds derived from the seed."""
    for i in itertools.count():
        argv = ["verify", "--model", "dvv", "--seed", str(seed * VERIFY_STRIDE + i)]
        yield (lambda argv=argv: _cli(nk6, argv)), (lambda out: checks.check_verify(*out))


WORKLOADS = {
    "certify-dvv-32": certify_ops,
    "analyze-dvv": analyze_ops,
    "verify-sweep": verify_ops,
}


def provenance(nk6):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nk6": nk6.__version__,
    }


def time_setup(src):
    """Set-up time of one fresh `--setup-only` process, and the mean time
    of the host-speed reference run right after it in that process."""
    proc = subprocess.run([sys.executable, __file__, "--src", str(src), "--setup-only"],
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    return out["setup_s"], out["probe_s"]


def run_loop(nk6, ops, seconds, recorder, setup_runs, src, probe):
    """Closed loop: start the next op only after the previous one ends, and
    stop starting ops once `seconds` have passed.  With a recorder every
    second op is traced, so the run holds traced and untraced ops.

    Between ops, `setup_runs` set-up processes are timed at even steps of
    the run's time.  The host's speed changes for minutes at a time, so
    set-up is timed over the same stretch as the ops, not in a burst of its
    own.  Their time is left out of the run's wall time, and so is the time
    of the host-speed probe, when there is one."""
    from spans import install

    samples, failures, setup = [], [], []
    min_ops = 2 if recorder else 1
    probed = (lambda: probe.total) if probe else (lambda: 0.0)
    start, paused = time.perf_counter(), 0.0
    if probe:
        probe.start()
    try:
        for i, (call, check) in enumerate(ops):
            elapsed = time.perf_counter() - start - paused - probed()
            while len(setup) < setup_runs and elapsed >= len(setup) * seconds / setup_runs:
                if probe:
                    probe.stop()
                t0 = time.perf_counter()
                setup.append(time_setup(src))
                paused += time.perf_counter() - t0
                if probe:
                    probe.start()
            if i >= min_ops and elapsed >= seconds:
                break
            traced = recorder is not None and i % 2 == 1
            if traced:
                recorder.op = i
                restore = install(nk6, recorder)
            p0, t0 = probed(), time.perf_counter()
            try:
                out, bad = call(), None
            except Exception as exc:  # a failed op is counted, never skipped
                out, bad = None, [f"{type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0 - (probed() - p0)
            if traced:
                restore()
            bad = bad or check(out)
            samples.append((dt, traced))
            if bad:
                failures.append(f"op {i}: " + "; ".join(bad))
    finally:
        if probe:
            probe.stop()
    return samples, failures, setup, time.perf_counter() - start - paused - probed()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace every second op and write its spans here")
    args = parser.parse_args(argv)
    if not args.setup_only and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required without --setup-only")

    t0 = time.perf_counter()
    import nk6.cli

    model = nk6.models.resolve_model("dvv", nk6.models.default_table())
    setup_s = time.perf_counter() - t0
    if args.src.resolve() not in Path(nk6.__file__).resolve().parents:
        print(f"error: imported nk6 from {nk6.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    import hostspeed

    if args.setup_only:
        probe_s = [hostspeed.reference() for _ in range(SETUP_PROBES)]
        print(json.dumps({"setup_s": setup_s, "probe_s": sum(probe_s) / len(probe_s)}))
        return 0

    import checks
    import spans

    recorder = spans.SpanRecorder() if args.spans else None
    ops = WORKLOADS[args.workload](nk6, checks, model, args.seed)
    # this process has written the bytecode caches, so set-up processes
    # started from here find them, as an installed nk6 would
    # the probe would land inside traced spans, so only untraced runs have one
    probe = None if recorder else hostspeed.Probe()
    samples, failures, setup, wall = run_loop(
        nk6, ops, args.seconds, recorder, 0 if recorder else SETUP_RUNS, args.src, probe)
    result = {
        "setup_s": [s for s, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "probe_s": probe.times if probe else [],
        "op_s": [dt for dt, _ in samples],
        "traced": [tr for _, tr in samples],
        "failures": failures,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": provenance(nk6),
    }
    if recorder:
        recorder.write(args.spans)
        layers = recorder.summary(sum(tr for _, tr in samples), NODES_PER_OP[args.workload])
        # one more op, untimed and unchecked, under the profiler: every call
        # of a wrapped function's code must have gone through its wrapper
        call, _ = next(ops)
        counts = spans.coverage(nk6, call)
        escaped = {n: seen - wrapped for n, (wrapped, seen) in counts.items() if seen != wrapped}
        layers["trace.escaped_calls"] = (sum(map(abs, escaped.values())), "count")
        result["layers"], result["escaped"] = layers, escaped
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
