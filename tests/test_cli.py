"""Command-line interface: subcommands, exit codes, determinism."""

import json

import numpy as np
import pytest

from nk6 import canonical, cli, geometry, models
from conftest import random_chart_points


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_reference_model(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "dvv", "--seed", "7", "--samples", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["summary"]["passed"] is True
    names = {c["name"] for s in doc["suites"] for c in s["checks"]}
    assert {"lagrangian", "h_values", "g_orientation", "codazzi", "laplacian"} <= names
    for suite in doc["suites"]:
        for check in suite["checks"]:
            assert "formula" in check and "max_residual" in check


def test_fd_step_option_is_gone(capsys):
    # nabla_h and the Laplacian's metric terms take no finite-difference step
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--fd-step", "1e-5"])
    assert exc.value.code == 2
    assert "--fd-step" in capsys.readouterr().err


def test_verify_synthetic_runs_matrix_suite_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "synthetic:c")
    assert code == 0
    doc = json.loads(out)
    suite_names = {s["name"] for s in doc["suites"]}
    assert "canonical_algebra" in suite_names
    assert "immersion_invariants" not in suite_names


def test_verify_totally_geodesic(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "totally-geodesic", "--samples", "100")
    assert code == 0
    assert json.loads(out)["summary"]["passed"] is True


@pytest.mark.parametrize("model, checks", [("dvv", 34), ("totally-geodesic", 25)])
def test_verify_with_fewer_samples_than_the_model_suites_read(capsys, model, checks):
    # the model suites read the first 50 sample points and nabla h the first
    # 24; with 3 samples every check runs on those 3
    code, out, _ = run_cli(capsys, "verify", "--model", model, "--samples", "3")
    assert code == 0
    assert json.loads(out)["summary"] == {"checks": checks, "failures": 0, "passed": True}


def test_verify_rejects_invalid_table(capsys, tmp_path):
    bad = tmp_path / "bad.table"
    bad.write_text("1 2 3 +1\n1 2 4 -1\n")
    code, _, err = run_cli(capsys, "verify", "--table", str(bad))
    assert code == 2
    assert "axiom" in err


def test_verify_tolerance_override_can_fail(capsys):
    # an absurdly tight tolerance flips the check to failed and the exit to 1
    code, out, _ = run_cli(
        capsys, "verify", "--model", "synthetic:a", "--tol", "closed_form_match=1e-30")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["passed"] is False


def test_unknown_tolerance_key_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--tol", "bogus=1")
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("argv", [
    ("integrate", "--rule", "8,8,8", "--tol", "volume=nan"),
    ("integrate", "--rule", "8,8,8", "--tol", "integral=NaN"),
    ("verify", "--model", "synthetic:a", "--tol", "closed_form_match=nan"),
    ("verify", "--model", "synthetic:a", "--tol", "closed_form_match=-1e-12"),
    ("integrate", "--rule", "8,8,8", "--tol", "volume=inf"),
    ("verify", "--model", "synthetic:a", "--tol", "closed_form_match=inf"),
])
def test_nan_or_negative_tolerance_is_config_error(capsys, argv):
    # a NaN tolerance compares false against every residual and an infinite
    # one passes every residual: refinement would never fail, and the report
    # would hold a NaN or an Infinity, neither of which is JSON
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert repr(argv[-1].partition("=")[0]) in err


def test_unknown_model_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--model", "klein-bottle")
    assert code == 2
    assert "klein-bottle" in err


def test_analyze_points_and_csv(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "analyze", "--model", "dvv",
        "--points", "0.6,1.0,2.0;0.9,0.3,4.0", "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert abs(row["hsq"] - 3.125) < 1e-8
        assert abs(row["theta"] - 1.1180339887498949) < 1e-6
        assert abs(row["ric_min"] - 0.125) < 1e-8
        assert row["flag_ric_ge_3_4"] is False  # not totally geodesic
        assert row["flag_hsq_lt_5_2"] is False
        assert row["error"] == ""
    csv_text = (out_dir / "analyze_points.csv").read_text().splitlines()
    assert csv_text[0].startswith("eta,xi1,xi2,hsq,theta")
    assert len(csv_text) == 3


def test_analyze_flags_degenerate_point(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--model", "dvv", "--points", "0.0,1.0,2.0")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["error"] != ""


def test_analyze_point_maximizes_theta_once(dvv, monkeypatch):
    calls = []
    inner = canonical.maximize_theta

    def counting(sff_like):
        calls.append(sff_like)
        return inner(sff_like)

    monkeypatch.setattr(canonical, "maximize_theta", counting)
    row = cli.analyze_point(dvv, np.array([0.7, 0.9, 1.7]))
    assert len(calls) == 1
    assert abs(row["theta"] - np.sqrt(5.0) / 2) < 1e-12


def test_pinching_flags_ignore_roundoff(dvv, geodesic):
    # DVV attains K = 1/16 and K = 21/16 exactly, so neither strict flag may
    # fire on last-bit noise; the great sphere has K = 1 and passes both
    for q in random_chart_points(dvv, 200, seed=9):
        row = cli.analyze_point(dvv, q)
        assert not row["flag_K_above_1_16"] and not row["flag_K_below_21_16"]
    for q in random_chart_points(geodesic, 5, seed=9):
        row = cli.analyze_point(geodesic, q)
        assert row["flag_K_above_1_16"] and row["flag_K_below_21_16"]


def test_verify_evaluates_each_node_set_once(counted_dvv, monkeypatch):
    seen = []
    counted = counted_dvv.jet

    def jet(q, order, check_domain=True):
        seen.append((order, np.array(q)))
        return counted(q, order, check_domain=check_domain)

    counted_dvv.jet = jet
    frames = []
    inner_frame = geometry.frame

    def frame(imm, q, validate=True):
        frames.append(len(q))
        return inner_frame(imm, q, validate=validate)

    monkeypatch.setattr(geometry, "frame", frame)
    suites = cli.cmd_verify(cli.RunConfig(command="verify"), counted_dvv.table, counted_dvv)
    assert [s["name"] for s in suites][-1] == "berger_sphere_reference"
    assert all(check["passed"] for s in suites for check in s["checks"])
    calls = counted_dvv.jet_calls
    # fd_jet stacks its 4 centres and their ten circles of 24 nodes each
    # into one value-only call
    assert [c for c in calls if c[0] == 0] == [(0, 4 * (1 + 10 * 24))]
    # the 200 points are framed once; nabla_h, the F/T checks and the Berger
    # suite read their frames, h and curvature from that one packet
    assert calls.count((2, 200)) == 1
    pts = next(q for order, q in seen if order == 2 and len(q) == 200)
    # order 3: the jet oracle on the first 4 points, nabla h on the first 24
    third = [q for order, q in seen if order == 3]
    assert len(third) == 2
    assert np.array_equal(third[0], pts[:4]) and np.array_equal(third[1], pts[:24])
    # the only other order-2 calls: the first 4 points shifted along each
    # chart axis (nabla_h_ambient), then |h|^2 on the Laplacian's three
    # complex circles of 16 nodes around the first point, whose metric terms
    # come from the frame packet
    shifted, circles = [q for order, q in seen if order == 2 and q is not pts]
    moved = shifted.reshape(4, 6, 3) != pts[:4, None, :]
    assert np.all(np.count_nonzero(moved, axis=-1) == 1)
    assert circles.shape == (3, 16, 3) and np.iscomplexobj(circles)
    assert np.allclose(np.mean(circles, axis=1), pts[0], rtol=0, atol=1e-12)
    assert len(calls) == 6
    assert frames == [200, 24]


def test_nabla_h_ambient_catches_a_wrong_christoffel_term(capsys, monkeypatch):
    # Christoffel symbols scaled by 1 + 1e-7 stay symmetric in (a, b), and so
    # does nabla h: codazzi cannot see the error, the ambient-field route can.
    inner = geometry._christoffel

    def wrong(jt):
        ginv, gamma = inner(jt)
        return ginv, (1.0 + 1e-7) * gamma

    monkeypatch.setattr(geometry, "_christoffel", wrong)
    code, out, _ = run_cli(capsys, "verify", "--model", "dvv")
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert code == 1
    assert not checks["nabla_h_ambient"]["passed"]
    assert checks["codazzi"]["passed"]


def test_verify_reports_a_large_nabla_h_error(capsys, monkeypatch):
    # at 1 + 1e-3 the nabla h identities are far off; the Laplacian identity
    # check must not stop verify, so the report names the failed checks
    inner = geometry._christoffel

    def wrong(jt):
        ginv, gamma = inner(jt)
        return ginv, (1.0 + 1e-3) * gamma

    monkeypatch.setattr(geometry, "_christoffel", wrong)
    code, out, _ = run_cli(capsys, "verify", "--model", "dvv")
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert code == 1
    assert not checks["nabla_h_ambient"]["passed"]


def test_verify_reports_inconsistent_nabla_h_as_failed_checks(capsys, monkeypatch):
    # a doubled nabla h breaks both norm identities of the T decomposition;
    # verify names them in its report instead of stopping
    inner = geometry.nabla_h
    monkeypatch.setattr(geometry, "nabla_h",
                        lambda *a, **k: geometry.NablaH(coeffs=2.0 * inner(*a, **k).coeffs))
    code, out, _ = run_cli(capsys, "verify", "--model", "dvv")
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert code == 1
    assert not checks["t_decomposition"]["passed"] and not checks["cross_term"]["passed"]


def test_non_lagrangian_poly_file_is_named(capsys, tmp_path):
    # the unit sphere of the coordinate 4-plane of components 1-4 lies on the
    # six-sphere but contains a quaternion line, so it is not Lagrangian
    path = tmp_path / "plane.txt"
    path.write_text("1 1 0 0 0 1.0\n2 0 1 0 0 1.0\n3 0 0 1 0 1.0\n4 0 0 0 1 1.0\n")
    source = models.default_table().source
    for args in (("integrate", "--rule", "8,8,8"), ("analyze", "--random", "2")):
        code, out, err = run_cli(capsys, *args, "--model", f"poly:{path}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: model plane is not Lagrangian for table {source} (residual ")
    code, out, _ = run_cli(capsys, "verify", "--model", f"poly:{path}")
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert code == 1 and not checks["lagrangian"]["passed"]


def test_analyze_rejects_synthetic(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "synthetic:b")
    assert code == 2
    assert "jets" in err


def test_integrate_report_and_files(capsys, tmp_path):
    out_dir = tmp_path / "quad"
    code, out, _ = run_cli(
        capsys, "integrate", "--model", "dvv", "--rule", "8,8,8",
        "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    ineq = doc["inequality"]
    assert abs(ineq["integral"]) < 1e-8
    assert ineq["classification"] == "DVV-type"
    assert (out_dir / "integrate_report.json").exists()
    samples = (out_dir / "integrand_samples.csv").read_text().splitlines()
    assert len(samples) == 8 * 8 * 8 + 1


def test_integrate_rule_convergence(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "8,8,8")
    vol_coarse = json.loads(out)["inequality"]["volume"]
    code, out, _ = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "32,32,32")
    vol_fine = json.loads(out)["inequality"]["volume"]
    assert code == 0
    assert abs(vol_coarse - vol_fine) / vol_fine < 1e-6


def test_integrate_refuses_a_rule_the_volume_check_cannot_coarsen(capsys):
    code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "2,32,32")
    assert code == 2 and out == ""
    assert "at least 3 nodes per axis" in err


def test_integrate_geodesic_classification(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--model", "totally-geodesic", "--rule", "8,8,8")
    assert code == 0
    assert json.loads(out)["inequality"]["classification"] == "geodesic"


def test_report_bundles_everything(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--model", "dvv", "--samples", "100",
        "--rule", "8,8,8", "--random", "3")
    assert code == 0
    doc = json.loads(out)
    assert "suites" in doc and "rows" in doc and "inequality" in doc


def test_deterministic_output(capsys):
    args = ("verify", "--model", "synthetic:c", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_csv_format_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--model", "dvv", "--points", "0.5,0.5,0.5",
        "--format", "csv")
    assert code == 0
    assert out.startswith("eta,xi1,xi2")


def test_integrate_csv_format_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--model", "dvv", "--rule", "8,8,8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eta,xi1,xi2,hsq,theta,integrand,sqrt_det_g"
    assert len(lines) == 8 * 8 * 8 + 1


def test_open_theta_enclosure_is_a_failure(capsys, monkeypatch):
    # Newton that stops short leaves no ball to close the enclosure with
    monkeypatch.setattr(canonical, "_MAX_NEWTON", 0)
    code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "8,8,8")
    assert code == 1
    assert out == ""
    assert err.startswith("failure: Theta enclosure did not close on 512 of 512 node")
