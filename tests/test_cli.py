"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

from nk6 import canonical, cayley, cli, geometry, models, simons
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


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--seed", "-1"), "--seed"),
    (("integrate", "--rule", "8,8,8", "--seed", "-1"), "--seed"),
    (("analyze", "--seed", "-2"), "--seed"),
    (("analyze", "--random", "0"), "--random"),
    (("analyze", "--random", "-1"), "--random"),
    (("report", "--random", "0"), "--random"),
    (("verify", "--samples", "0"), "--samples"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv, flag):
    # a negative seed reached numpy, a negative count numpy's shape check,
    # and --random 0 gave a report with no rows
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be ")


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


@pytest.mark.parametrize("model, checks", [("dvv", 33), ("totally-geodesic", 24)])
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
    ("verify", "--model", "synthetic:a", "--tol", "closed_form_match=abc"),
])
def test_nan_or_negative_tolerance_is_config_error(capsys, argv):
    # a NaN tolerance compares false against every residual and an infinite
    # one passes every residual: refinement would never fail, and the report
    # would hold a NaN or an Infinity, neither of which is JSON.  A value
    # that is no number is refused with its key named too
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    key, _, value = argv[-1].partition("=")
    assert err == f"error: tolerance {key!r} must be finite and nonnegative, got {value!r}\n"


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


def test_analyze_flags_degenerate_point(capsys, tmp_path):
    # the Hopf map S^3 -> S^2 lies on the six-sphere but is immersed nowhere
    path = tmp_path / "hopf.txt"
    path.write_text("1 2 0 0 0 1\n1 0 2 0 0 1\n1 0 0 2 0 -1\n1 0 0 0 2 -1\n"
                    "2 1 0 1 0 2\n2 0 1 0 1 2\n3 0 1 1 0 2\n3 1 0 0 1 -2\n")
    code, out, _ = run_cli(
        capsys, "analyze", "--model", f"poly:{path}", "--points", "0.6,1.0,2.0")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["error"].startswith("tangent frame is rank deficient")


def test_analyze_frames_the_chart_poles(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--model", "dvv", "--points", "0.0,1.0,2.0;1.5707963267948966,1,2")
    assert code == 0
    for row in json.loads(out)["rows"]:
        assert row["error"] == "" and abs(row["hsq"] - 25 / 8) < 1e-12


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

    def jet(q, order):
        seen.append((order, np.array(q)))
        return counted(q, order)

    counted_dvv.jet = jet
    frames = []
    inner_frame = geometry.frame

    def frame(imm, q, validate=True):
        frames.append(len(q))
        return inner_frame(imm, q, validate=validate)

    monkeypatch.setattr(geometry, "frame", frame)
    sffs = []
    inner_sff = geometry.second_fundamental_form

    def sff(imm, q, frame_packet=None):
        sffs.append(np.shape(q)[:-1])  # a traced run reads a call's batch from its points
        return inner_sff(imm, q, frame_packet=frame_packet)

    monkeypatch.setattr(geometry, "second_fundamental_form", sff)
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
    # the other order-2 calls are on complex points, in two calls: the
    # first 4 points moved by the imaginary step i s along the flow of each
    # frame field V_m = C_m.X (nabla_h_ambient), then |h|^2 on the
    # Laplacian's three circles of 16 nodes around the first point, whose
    # metric terms come from the frame packet
    real, moved, circles = [q for order, q in seen if order == 2]
    assert real is pts and np.iscomplexobj(moved) and np.iscomplexobj(circles)
    plain = models.dvv_immersion(counted_dvv.table)
    C = inner_frame(plain, plain.chart.from_y(pts[:4])).field_comps
    assert moved.shape == (3, 4, 4)
    assert np.array_equal(moved.real, np.broadcast_to(pts[:4], moved.shape))
    step = np.einsum("nmf,fab,nb->mna", C, models.FIELD_MATS, pts[:4])
    assert np.allclose(moved.imag / cayley.COMPLEX_STEP, step, rtol=0, atol=1e-12)
    assert circles.shape == (3, 16, 4)
    assert np.allclose(np.mean(circles, axis=1), pts[0], rtol=0, atol=1e-12)
    assert len(calls) == 6
    assert frames == [200]
    assert sffs == [(200,), (3, 4), (3, 16)]


def test_nabla_h_ambient_catches_a_wrong_christoffel_term(capsys, monkeypatch):
    # a 1e-7 error in the part of Gamma[p, i, j] symmetric in (i, j) leaves
    # the torsion Gamma[p, i, j] - Gamma[p, j, i] = <[V_j, V_i] Psi, e_p>, and
    # nabla h stays symmetric: codazzi cannot see the error, the
    # ambient-field route can.
    inner = geometry._connection

    def wrong(pk, d2):
        gamma, h = inner(pk, d2)
        return gamma + 0.5e-7 * (gamma + np.swapaxes(gamma, -1, -2)), h

    monkeypatch.setattr(geometry, "_connection", wrong)
    code, out, _ = run_cli(capsys, "verify", "--model", "dvv")
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert code == 1
    assert not checks["nabla_h_ambient"]["passed"]
    assert checks["codazzi"]["passed"]


def test_derivative_oracles_share_no_christoffel_symbol_with_nabla_h(dvv, monkeypatch):
    # with the connection of nabla_h doctored, the Laplacian's field values
    # and the frame and h that nabla_h_ambient differentiates at its complex
    # points stay bit for bit what they were
    def oracle_inputs(doctored):
        seen = []
        inner_lap, inner_core = geometry.laplace_beltrami, geometry._frame_at
        inner_sff, inner_connection = geometry.second_fundamental_form, geometry._connection

        def laplace_beltrami(imm, field, q, frame_packet=None):
            def logged(yy):
                seen.append(field(yy))
                return seen[-1]
            return inner_lap(imm, logged, q, frame_packet=frame_packet)

        def core(imm, y):
            pk = inner_core(imm, y)
            if np.iscomplexobj(y):
                seen.extend([pk.e, pk.estar])
            return pk

        def sff(imm, q, frame_packet=None):
            out = inner_sff(imm, q, frame_packet=frame_packet)
            if np.iscomplexobj(q):
                seen.append(out.h)
            return out

        def wrong(pk, d2):
            gamma, h = inner_connection(pk, d2)
            return (1.0 + 1e-3) * gamma, h

        with monkeypatch.context() as m:
            m.setattr(geometry, "laplace_beltrami", laplace_beltrami)
            m.setattr(geometry, "_frame_at", core)
            m.setattr(geometry, "second_fundamental_form", sff)
            if doctored:
                m.setattr(geometry, "_connection", wrong)
            suites = cli.cmd_verify(cli.RunConfig(command="verify"), dvv.table, dvv)
        checks = {c["name"]: c["passed"] for s in suites for c in s["checks"]}
        return seen, checks

    clean, clean_checks = oracle_inputs(False)
    doctored, doctored_checks = oracle_inputs(True)
    assert all(clean_checks.values())
    assert not doctored_checks["nabla_h_ambient"] and not doctored_checks["laplacian"]
    # e, J e and h at the 12 moved points, then e, J e, h and |h|^2 on the
    # Laplacian's circles
    assert [a.shape[:2] for a in clean] == [(3, 4)] * 3 + [(3, 16)] * 4
    assert all(np.array_equal(a, b) for a, b in zip(clean, doctored, strict=True))


def test_verify_reports_a_large_nabla_h_error(capsys, monkeypatch):
    # at 1 + 1e-3 the nabla h identities are far off; the Laplacian identity
    # check must not stop verify, so the report names the failed checks
    inner = geometry._connection

    def wrong(pk, d2):
        gamma, h = inner(pk, d2)
        return (1.0 + 1e-3) * gamma, h

    monkeypatch.setattr(geometry, "_connection", wrong)
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


def test_a_non_finite_coefficient_is_refused(capsys, tmp_path, geodesic):
    # a NaN compares false against every bound: loaded, the great sphere
    # with a NaN term would pass the unit-sphere and frame checks, and
    # integrate would classify its NaN integral as strict
    rows = [f"{c + 1} {' '.join(map(str, e))} {co!r}" for c, e, co in geodesic.terms]
    rows[-1] = rows[-1].rsplit(" ", 1)[0] + " nan"
    path = tmp_path / "nan.txt"
    path.write_text("\n".join(rows) + "\n")
    for args in (("verify",), ("analyze",), ("integrate", "--rule", "8,8,8")):
        code, out, err = run_cli(capsys, *args, "--model", f"poly:{path}")
        assert code == 2 and out == ""
        assert err == f"error: {path}:{len(rows)}: coefficient must be finite\n"


@pytest.mark.parametrize("field, entry", [(0, "x"), (3, "2.0"), (5, "1.5e")])
def test_a_non_numeric_poly_entry_is_named(capsys, tmp_path, geodesic, field, entry):
    # int() and float() named the bad literal, not the file and line it is on
    rows = [f"{c + 1} {' '.join(map(str, e))} {co!r}" for c, e, co in geodesic.terms]
    parts = rows[1].split()
    parts[field] = entry
    rows[1] = " ".join(parts)
    path = tmp_path / "typo.txt"
    path.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "analyze", "--model", f"poly:{path}")
    assert code == 2 and out == ""
    assert err == f"error: {path}:2: non-numeric entry\n"


@pytest.mark.parametrize("rule", ["8,8,x", "8,8", "8,8,8,8"])
def test_a_malformed_rule_names_its_form(capsys, rule):
    code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", rule)
    assert code == 2 and out == ""
    assert err == f"error: rule must be 'n_eta,n_xi1,n_xi2', got {rule!r}\n"


@pytest.mark.parametrize("points", ["1,2,x", "0.5,0.5", "0.5,0.5,0.5;1,2,x"])
def test_a_malformed_point_names_its_form(capsys, points):
    with pytest.raises(argparse.ArgumentTypeError, match="each point must be 'eta,xi1,xi2'"):
        cli._parse_points(points)
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--model", "dvv", "--points", points])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "each point must be 'eta,xi1,xi2'" in err
    assert repr(points.split(";")[-1]) in err


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


def test_a_rule_with_a_leading_minus_reaches_its_parser(capsys):
    # argparse would take "-1,8,8" for an option and print its own usage error
    code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "-1,8,8")
    assert code == 2 and out == ""
    assert err == "error: quadrature rule needs at least 2 nodes per axis\n"


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


def test_analyze_rejects_points_outside_the_chart(capsys):
    code, out, err = run_cli(capsys, "analyze", "--model", "dvv", "--points", "2.0,1.0,1.0")
    assert code == 2 and out == ""
    assert "outside domain" in err


def test_a_point_with_a_leading_minus_reaches_its_parser(capsys):
    code, out, err = run_cli(capsys, "analyze", "--model", "dvv", "--points", "-0.1,1,1")
    assert code == 2 and out == ""
    assert "outside domain" in err and "expected one argument" not in err


@pytest.mark.parametrize("point", ["nan,0.3,0.4", "0.5,inf,0.4"])
def test_analyze_rejects_non_finite_points(capsys, point):
    # NaN fails every comparison, so a test of the bounds alone lets it through
    code, out, err = run_cli(capsys, "analyze", "--model", "dvv", "--points", point)
    assert code == 2 and out == ""
    assert "outside domain" in err


@pytest.mark.parametrize("model, shift, failing", [
    ("dvv", 1e-6, {"normal_form"}),
    ("synthetic:b", 1e-6, {"normal_form"}),
    # 5e-8 is within normal_form's 1e-7, but on the zero form it breaks
    # |mu1| <= theta = 0 beyond the constraints' 1e-8
    ("synthetic:a", 5e-8, {"constraints"}),
])
def test_normal_form_checks_fail_on_a_shifted_mu1(capsys, monkeypatch, model, shift, failing):
    inner = canonical.canonical_basis

    def shifted(*args, **kwargs):
        cd = inner(*args, **kwargs)
        return replace(cd, mu1=cd.mu1 + shift)

    monkeypatch.setattr(canonical, "canonical_basis", shifted)
    code, out, _ = run_cli(capsys, "verify", "--model", model)
    checks = [c for s in json.loads(out)["suites"] for c in s["checks"]]
    assert code == 1
    assert {c["name"] for c in checks if not c["passed"]} == failing


def test_reports_name_their_table(capsys, tmp_path, monkeypatch):
    args = ("analyze", "--model", "dvv", "--points", "0.5,0.5,0.5")
    for table_args in ((), ("--table", "auto")):
        code, out, _ = run_cli(capsys, *args, *table_args)
        assert code == 0 and json.loads(out)["config"]["table"] == "cayley-dickson"
    path = tmp_path / "env.table"
    path.write_text("".join(f"{i} {j} {k} {s:+d}\n"
                            for (i, j, k), s in models.default_table().triples))
    monkeypatch.setenv("NK6_TABLE_PATH", str(path))
    models.default_table.cache_clear()
    try:
        for command in (args, ("integrate", "--model", "dvv", "--rule", "8,8,8")):
            code, out, _ = run_cli(capsys, *command)
            assert code == 0 and json.loads(out)["config"]["table"] == str(path)
    finally:
        models.default_table.cache_clear()


def test_csv_format_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--model", "dvv", "--points", "0.5,0.5,0.5",
        "--format", "csv")
    assert code == 0
    assert out.startswith("eta,xi1,xi2")


def test_report_csv_leads_with_the_verify_checks(capsys):
    # report --format csv prints the check rows, then the analyze and
    # integrate tables; on a synthetic model the checks alone, not JSON
    code, out, _ = run_cli(
        capsys, "report", "--model", "dvv", "--samples", "100", "--rule", "8,8,8",
        "--random", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,formula,max_residual,tolerance,passed"
    analyze = lines.index(",".join(cli.ANALYZE_COLUMNS))
    assert any(line.startswith("laplacian,") for line in lines[1:analyze])
    assert lines[analyze + 4] == "eta,xi1,xi2,hsq,theta,integrand,sqrt_det_g"
    code, out, _ = run_cli(capsys, "report", "--model", "synthetic:b", "--format", "csv")
    assert code == 0
    assert out.startswith("name,formula,max_residual,tolerance,passed\n")


def test_verify_out_writes_the_checks_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", "--model", "synthetic:a", "--out", str(tmp_path))
    assert code == 0
    checks = [c["name"] for s in json.loads(out)["suites"] for c in s["checks"]]
    rows = (tmp_path / "verify_checks.csv").read_text().splitlines()
    assert rows[0] == "name,formula,max_residual,tolerance,passed"
    assert [row.split(",")[0] for row in rows[1:]] == checks
    assert (tmp_path / "verify_report.json").read_text() == out


def test_integrate_csv_format_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", "--model", "dvv", "--rule", "8,8,8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eta,xi1,xi2,hsq,theta,integrand,sqrt_det_g"
    assert len(lines) == 8 * 8 * 8 + 1


def test_jet_fd_agreement_pins_the_index_order(capsys, monkeypatch):
    # a derivative table with its index order reversed has the right
    # symmetrized jets but breaks the field commutators
    inner = models._derivative_table

    def reversed_table(terms):
        expo, coef, rows = inner(terms)
        flipped = tuple(
            np.ascontiguousarray(np.moveaxis(c.reshape((len(c),) + (3,) * k + (7,)),
                                             range(1, k + 1), range(k, 0, -1)).reshape(c.shape))
            for k, c in enumerate(coef))
        return expo, flipped, rows

    monkeypatch.setattr(models, "_derivative_table", reversed_table)
    code, out, _ = run_cli(capsys, "verify", "--model", "dvv")
    checks = {c["name"]: c for s in json.loads(out)["suites"] for c in s["checks"]}
    assert code == 1
    assert not checks["jet_fd_agreement"]["passed"]


def test_open_theta_enclosure_is_a_failure(capsys, monkeypatch):
    # Newton that stops short leaves no ball to close the enclosure with
    monkeypatch.setattr(canonical, "_MAX_NEWTON", 0)
    code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "8,8,8")
    assert code == 1
    assert out == ""
    assert err.startswith("failure: Theta enclosure did not close on 512 of 512 node")


def test_a_nan_coarse_volume_is_a_failure(capsys, monkeypatch):
    # a NaN delta passes a `delta > tol` gate; the refinement check must fail
    monkeypatch.setattr(simons, "_volume", lambda imm, rule: float("nan"))
    code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "8,8,8")
    assert code == 1 and out == ""
    assert err.startswith("failure: volume changed by nan (relative) under refinement")


def test_failures_in_a_block_name_its_nodes(capsys, monkeypatch):
    # 4096 nodes in four blocks; rank-deficient frame rows at node 1500, in
    # the second one, stop its frame.  The rows are read at the points y of
    # S^3, so the doctoring finds the node by its point y
    monkeypatch.setattr(simons, "_NODE_BLOCK", canonical._CHUNK)
    bad = models.HopfChart().to_y(simons.QuadratureRule(16, 16, 16).nodes_weights()[0][1500])
    tangent_fields = models.PolynomialSphereImmersion.tangent_fields

    def degenerate_at_bad(self, y):
        rows = tangent_fields(self, y).copy()
        rows[np.all(y == bad, axis=-1), 2] = rows[np.all(y == bad, axis=-1), 1]
        return rows

    with monkeypatch.context() as m:
        m.setattr(models.PolynomialSphereImmersion, "tangent_fields", degenerate_at_bad)
        code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "16,16,16")
    assert code == 1 and out == ""
    assert err.startswith("failure: tangent frame is rank deficient")
    assert err.rstrip().endswith("[quadrature nodes 1024-2047 of 4096]")
    monkeypatch.setattr(canonical, "_MAX_NEWTON", 0)
    code, out, err = run_cli(capsys, "integrate", "--model", "dvv", "--rule", "16,16,16")
    assert code == 1 and out == ""
    assert err.startswith("failure: Theta enclosure did not close on 1024 of 1024 node")
    assert err.rstrip().endswith("[quadrature nodes 0-1023 of 4096]")


def _shifted_entry(index, delta):
    """Doctor an array by adding delta at index (trailing axes), every row."""
    def doctor(a):
        a = np.array(a)
        a[(Ellipsis,) + index] += delta
        return a
    return doctor


def _flip_e3_at_first_point(pk):
    # e3, J e3 and e3's X-basis row reversed at one point: a frame of the
    # other orientation there, still orthonormal and Lagrangian
    sign = np.ones(pk.e.shape[:-1])
    sign[(0,) * (sign.ndim - 1) + (2,)] = -1.0
    return replace(pk, e=pk.e * sign[..., None], estar=pk.estar * sign[..., None],
                   field_comps=pk.field_comps * sign[..., None])


# check name -> (model, module, function, doctoring of the function's result,
# every check that then fails).  h and nabla h vanish on the great sphere,
# so there a doctored frame or h reaches no check that multiplies by them.
DOCTORINGS = {
    # the structure suite holds each of its identities to `algebraic`
    "covariant_derivative": (
        "synthetic:a", cayley, "nabla_g_fd", lambda g: g * (1 + 1e-9), {"covariant_derivative"}),
    "lagrangian_frame_products": (
        "synthetic:a", cayley, "lagrangian_frame", lambda e: e * (1 + 1e-11),
        {"lagrangian_frame_products"}),
    "unit_image": (
        "dvv", models.PolynomialSphereImmersion, "jet",
        lambda jt: replace(jt, value=jt.value * (1 + 1e-11)), {"unit_image"}),
    "frame_orthonormal": (
        "totally-geodesic", geometry, "frame",
        lambda pk: replace(pk, e=pk.e * (1 + 2e-10)), {"frame_orthonormal"}),
    "volume_form": (
        "totally-geodesic", geometry, "frame", _flip_e3_at_first_point, {"volume_form"}),
    "metric_values": (
        "dvv", geometry, "frame",
        lambda pk: replace(pk, metric=pk.metric * (1 + 1e-9)), {"metric_values"}),
    "g_normality": (
        "totally-geodesic", cayley, "frame_products", lambda g: g + 2e-10, {"g_normality"}),
    "sff_full_symmetry": (
        "totally-geodesic", geometry, "second_fundamental_form",
        lambda sff: geometry.SFF(h=_shifted_entry((0, 1, 2), 3e-9)(sff.h)),
        {"sff_full_symmetry"}),
    "minimality": (
        "totally-geodesic", geometry, "second_fundamental_form",
        lambda sff: geometry.SFF(h=_shifted_entry((0, 0, 0), 3e-9)(sff.h)),
        {"minimality"}),
    "gauss_scalar": (
        "dvv", geometry, "curvature_from_sff",
        lambda cp: replace(cp, tau=cp.tau + 2e-8), {"gauss_scalar"}),
    "sectional_values": (
        "dvv", geometry, "curvature_from_sff",
        lambda cp: replace(cp, R=_shifted_entry((1, 2, 1, 2), 2e-8)(cp.R)),
        {"sectional_values"}),
    "theta_value": (
        "dvv", canonical, "maximize_theta",
        lambda ut: (ut[0], ut[1] + 2e-6), {"theta_value"}),
    # nabla h on the Berger sphere is F, whose fully symmetric part vanishes:
    # a term along e1^4 moves only what sees nabla h's values, and a term
    # symmetric in the derivative slots only what tests the other exchange
    "j_parallel": (
        "dvv", geometry, "nabla_h",
        lambda nh: geometry.NablaH(coeffs=_shifted_entry((0, 0, 0, 0), 2e-7)(nh.coeffs)),
        {"j_parallel", "nabla_h_ambient"}),
    "covariant_exchange": (
        "totally-geodesic", geometry, "nabla_h",
        lambda nh: geometry.NablaH(coeffs=_shifted_entry((0, 0, 1, 1), 2e-7)(nh.coeffs)),
        {"covariant_exchange", "nabla_h_ambient"}),
    "t_norm": (
        "dvv", geometry, "nabla_h",
        lambda nh: geometry.NablaH(coeffs=nh.coeffs * (1 + 1e-8)), {"t_norm"}),
    "gradient_bound": (
        "dvv", geometry, "nabla_h",
        lambda nh: geometry.NablaH(coeffs=nh.coeffs * (1 - 1e-8)),
        {"gradient_bound", "t_norm"}),
    "f_norm": (
        "dvv", simons, "f_tensor", lambda F: F * (1 + 1e-10), {"f_norm"}),
    # Q of synthetic:a's zero tuple is 0 under any relative error
    "closed_form_match_random": (
        "synthetic:a", canonical, "closed_forms",
        lambda cf: replace(cf, q_closed=cf.q_closed * (1 + 1e-11)),
        {"closed_form_match_random"}),
    # the shear term of the remainder with its sign reversed
    "remainder_sign": (
        "synthetic:a", canonical, "closed_forms",
        lambda cf: replace(cf, r_residual=cf.r_terms[0] - cf.r_terms[1] + cf.r_terms[2]),
        {"remainder_sign"}),
}


@pytest.mark.parametrize("check", DOCTORINGS)
def test_each_verify_check_fails_on_its_doctoring(capsys, monkeypatch, check):
    model, owner, name, doctor, failing = DOCTORINGS[check]
    inner = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: doctor(inner(*args, **kwargs)))
    code, out, _ = run_cli(capsys, "verify", "--model", model)
    checks = [c for s in json.loads(out)["suites"] for c in s["checks"]]
    assert code == 1
    assert {c["name"] for c in checks if not c["passed"]} == failing
