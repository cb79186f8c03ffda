"""Tests of the benchmark's own output checks and span recorder.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

import json
import time

import numpy as np
import pytest

import checks
import hostspeed
import spans
import worker
import nk6.cli


@pytest.fixture(scope="module")
def certify_report():
    # a coarse rule already meets every certify tolerance on the Berger sphere
    rc, text = worker._cli(nk6, ["integrate", "--model", "dvv", "--rule", "12,12,12"])
    assert checks.check_certify(rc, text) == []
    return text


@pytest.fixture(scope="module")
def dvv():
    return nk6.models.resolve_model("dvv", nk6.models.default_table())


def doctored(text, **changes):
    doc = json.loads(text)
    doc["inequality"].update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("change", [
    {"integral": 1e-6},
    {"integral": -1e-6},
    {"classification": "strict"},
    {"classification": "geodesic"},
    {"volume": 32 * np.pi**2 / 9 * (1 + 2e-6)},
    {"hsq_range": [25 / 8, 25 / 8 + 1e-7]},
    {"theta_range": [np.sqrt(5) / 2 - 1e-5, np.sqrt(5) / 2]},
    {"theta_range": None},
])
def test_certify_check_flags_doctored_report(certify_report, change):
    assert checks.check_certify(0, doctored(certify_report, **change))


def test_certify_check_flags_exit_code_and_garbage(certify_report):
    assert checks.check_certify(1, certify_report)
    assert checks.check_certify(0, certify_report[:-20])


def test_certify_ops_require_byte_identical_reports(certify_report):
    ops = worker.certify_ops(nk6, checks, None, 0)
    _, check = next(ops)
    assert check((0, certify_report)) == []
    assert check((0, certify_report)) == []
    assert check((0, certify_report.replace("\n", "\n ", 1))) == [
        "report differs from the run's first certify report"]


def test_analyze_check(dvv):
    q = np.array([0.7, 0.9, 1.7])
    row = nk6.cli.analyze_point(dvv, q)
    assert checks.check_analyze_row(row) == []
    assert checks.check_analyze_row(dict(row, error="chart degenerate"))
    assert checks.check_analyze_row(dict(row, theta=row["theta"] + 1e-5))
    assert checks.check_analyze_row(dict(row, hsq=float("nan")))


def test_verify_check():
    good = json.dumps({"summary": {"checks": 3, "failures": 0, "passed": True}})
    bad = json.dumps({"summary": {"checks": 3, "failures": 1, "passed": False}})
    assert checks.check_verify(0, good) == []
    assert checks.check_verify(0, bad)
    assert checks.check_verify(1, good)
    assert checks.check_verify(0, "")


def test_self_time_excludes_children():
    rec = spans.SpanRecorder()
    outer = rec.enter("a.outer", 0)
    inner = rec.enter("b.inner", 4)
    rec.leave(inner, 1.0, 3.0)
    rec.leave(outer, 0.0, 5.0)
    assert rec.spans[inner][3] == outer
    assert rec.spans[outer][6] == pytest.approx(3.0)
    assert rec.spans[inner][6] == pytest.approx(2.0)


def test_wrappers_see_internal_calls_and_restore(dvv):
    originals = {name: spans._owner(nk6, where).__dict__[name.split(".", 1)[1]]
                 for name, (where, _, _) in spans.WRAPPED.items()}
    rec = spans.SpanRecorder()
    restore = spans.install(nk6, rec)
    try:
        t0 = time.perf_counter()
        nk6.cli.analyze_point(dvv, np.array([0.7, 0.9, 1.7]))
        wall = time.perf_counter() - t0
    finally:
        restore()
    for name, (where, _, _) in spans.WRAPPED.items():
        assert spans._owner(nk6, where).__dict__[name.split(".", 1)[1]] is originals[name]
    layers = rec.summary(1, 1)
    names = [s[0] for s in rec.spans]
    # nabla_h -> frame -> jet and canonical_basis -> maximize_theta are caught
    nab = names.index("geometry.nabla_h")
    assert any(rec.spans[i][3] == nab and names[i] == "geometry.frame"
               for i in range(len(names)))
    basis = names.index("canonical.canonical_basis")
    assert any(rec.spans[i][3] == basis and names[i] == "canonical.maximize_theta"
               for i in range(len(names)))
    assert layers["cli.analyze_point.calls"][0] == 1
    assert layers["models.jet.calls"][0] >= 3
    assert layers["canonical.maximize_theta.max_grad"][0] < 1e-8
    # self times telescope: the modules' sum is the outermost span's time
    modules = sum(layers[f"{m}.self_s"][0] for m in spans.MODULES)
    assert modules == pytest.approx(wall, rel=0.05)


# One small op of each workload's kind, quick enough to run under a profiler.
SMALL_OPS = {
    "certify": lambda dvv: worker._cli(nk6, ["integrate", "--model", "dvv", "--rule", "12,12,12"]),
    "analyze": lambda dvv: nk6.cli.analyze_point(dvv, np.array([0.7, 0.9, 1.7])),
    "verify": lambda dvv: worker._cli(nk6, ["verify", "--model", "dvv", "--seed", "1"]),
}


@pytest.mark.parametrize("op", SMALL_OPS)
def test_every_call_goes_through_its_wrapper(dvv, op):
    counts = spans.coverage(nk6, lambda: SMALL_OPS[op](dvv))
    assert {name: c for name, c in counts.items() if c[0] != c[1]} == {}
    assert counts["models.jet"][0] > 0
    assert counts["geometry.frame"][0] > 0


def test_coverage_flags_a_call_that_skips_its_wrapper(dvv):
    frame = nk6.geometry.frame  # bound before the wrappers go in
    counts = spans.coverage(nk6, lambda: frame(dvv, np.array([[0.7, 0.9, 1.7]])))
    assert counts["geometry.frame"] == (0, 1)
    assert counts["models.jet"][0] == counts["models.jet"][1] > 0


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    res = {"op_s": [1.0, 2.0], "traced": [False, True], "wall_s": 3.0, "peak_rss_mb": 1.0,
           "setup_s": [0.1], "setup_probe_s": [0.01], "probe_s": [0.01],
           "layers": dict(spans.SpanRecorder().summary(1, 1),
                          **{"trace.escaped_calls": (0, "count")})}
    e2e = run.end_to_end(res)
    layers = run.per_layer(res)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in layers.items()]


def test_times_scale_to_reference_host_speed():
    import run

    res = {"op_s": [0.5] * 10, "wall_s": 5.0, "peak_rss_mb": 1.0,
           "setup_s": [0.1, 0.3, 0.2], "setup_probe_s": [hostspeed.REF_S * 2] * 3,
           "probe_s": [hostspeed.REF_S * 2, hostspeed.REF_S * 2]}
    e2e = run.end_to_end(res)
    # a host at half the reference speed: twice the throughput, half the set-up
    assert e2e["ops_per_ref_s"][0] == pytest.approx(4.0)
    assert e2e["setup_s"][0] == pytest.approx(0.1)


def test_probe_samples_during_a_long_call_and_is_taken_out():
    probe = hostspeed.Probe()
    probe.start()
    try:
        t0, p0 = time.perf_counter(), probe.total
        end = t0 + 5 * hostspeed.PERIOD_S
        while time.perf_counter() < end:    # one long op in pure Python
            sum(range(1000))
        dt = time.perf_counter() - t0
    finally:
        probe.stop()
    assert len(probe.times) >= 3
    assert probe.total - p0 == pytest.approx(sum(probe.times), rel=0.5)
    assert 0 < probe.total < dt
