"""Decomposition tensors, the Laplacian identity and the certified integral."""

import tracemalloc

import numpy as np
import pytest

import nk6
from nk6 import canonical, cli, simons
from conftest import random_chart_points

S5 = np.sqrt(5.0)
HSQ = 25 / 8


@pytest.fixture(scope="module")
def dvv_point_data(dvv):
    q = np.array([0.62, 1.8, 0.9])
    pk = nk6.frame(dvv, q)
    sff = nk6.second_fundamental_form(dvv, q, frame_packet=pk)
    nh = nk6.nabla_h(dvv, q)
    return q, pk, sff, nh


def test_f_tensor_zero_for_zero_sff(geodesic):
    pts = random_chart_points(geodesic, 10, seed=31)
    pk = nk6.frame(geodesic, pts)
    sff = nk6.second_fundamental_form(geodesic, pts, frame_packet=pk)
    F = nk6.f_tensor(sff, pk)
    assert np.max(np.abs(F)) < 1e-10


def test_f_norm_identity(dvv_point_data):
    _, pk, sff, _ = dvv_point_data
    F = nk6.f_tensor(sff, pk)
    fsq = float(np.sum(F * F))
    assert abs(fsq - 0.75 * HSQ) < 1e-10
    assert abs(fsq - 75 / 32) < 1e-10


def test_f_norm_identity_for_arbitrary_coefficients(dvv, rng):
    # the identity needs only symmetry and trace-freeness of the coefficients
    # plus a frame tangent to a Lagrangian submanifold (where the structure
    # tensor is normal-valued); synthetic tensors in real frames must satisfy it
    pts = random_chart_points(dvv, 10, seed=35)
    pk = nk6.frame(dvv, pts)
    for _ in range(10):
        h = nk6.reconstruct_sff(tuple(rng.normal(size=4)))
        sff = nk6.SFF(h=np.broadcast_to(h, (10, 3, 3, 3)))
        F = nk6.f_tensor(sff, pk)
        fsq = np.sum(F * F, axis=(-4, -3, -2, -1))
        assert np.max(np.abs(fsq - 0.75 * sff.norm_sq())) < 1e-10 * max(
            1.0, float(np.max(sff.norm_sq())))


def test_t_tensor_packet_on_reference_model(dvv_point_data):
    _, pk, sff, nh = dvv_point_data
    packet = nk6.t_tensor(nh, nk6.f_tensor(sff, pk), sff)
    assert float(packet.t_sq) < 1e-8
    assert packet.decomposition_residual() < 1e-6
    assert packet.cross_term_residual() < 1e-6
    assert packet.f_norm_residual() < 1e-10
    assert abs(float(packet.nabla_h_sq) - 75 / 32) < 1e-6


def test_t_tensor_zero_on_totally_geodesic(geodesic):
    pts = random_chart_points(geodesic, 5, seed=32)
    pk = nk6.frame(geodesic, pts)
    sff = nk6.second_fundamental_form(geodesic, pts, frame_packet=pk)
    nh = nk6.nabla_h(geodesic, pts)
    packet = nk6.t_tensor(nh, nk6.f_tensor(sff, pk), sff)
    assert np.max(packet.nabla_h_sq) < 1e-10
    assert np.max(packet.t_sq) < 1e-10
    assert np.max(packet.f_sq) < 1e-10


def test_t_tensor_residuals_show_inconsistent_input(dvv_point_data):
    _, pk, sff, nh = dvv_point_data
    broken = nk6.NablaH(coeffs=2.0 * nh.coeffs)  # breaks <nabla h, F> = (3/4)|h|^2
    packet = nk6.t_tensor(broken, nk6.f_tensor(sff, pk), sff)
    assert packet.decomposition_residual() > cli.DEFAULT_TOLERANCES["t_decomposition"]
    assert packet.cross_term_residual() > cli.DEFAULT_TOLERANCES["cross_term"]


def test_gradient_inequality_nonviolation(dvv, geodesic):
    for imm in (dvv, geodesic):
        pts = random_chart_points(imm, 20, seed=33)
        nh = nk6.nabla_h(imm, pts)
        sff = nk6.second_fundamental_form(imm, pts)
        slack = nh.norm_sq() - 0.75 * sff.norm_sq()
        assert np.min(slack) >= -1e-8


def test_j_parallel_defect_values(dvv_point_data, geodesic):
    _, _, _, nh = dvv_point_data
    assert float(nk6.j_parallel_defect(nh)) < 1e-7
    pts = random_chart_points(geodesic, 5, seed=34)
    nh0 = nk6.nabla_h(geodesic, pts)
    assert np.max(nk6.j_parallel_defect(nh0)) < 1e-10


def test_j_parallel_defect_bounded_by_t_norm(dvv_point_data, rng):
    # <(nabla h)(v,v,v), Jv> equals the T-contraction, so defect <= |T|
    _, pk, sff, nh = dvv_point_data
    for scale in (1e-3, 1e-1, 1.0):
        noise = rng.normal(size=(3, 3, 3, 3)) * scale
        perturbed = nk6.NablaH(coeffs=nh.coeffs + noise)
        packet = nk6.t_tensor(perturbed, nk6.f_tensor(sff, pk), sff)
        defect = float(nk6.j_parallel_defect(perturbed))
        assert defect <= np.sqrt(float(packet.t_sq)) + 1e-10


def j_parallel_defect_einsum(coeffs):
    """The quartic contraction over the full 64 x 128 polar grid plus the
    axes, one einsum, as j_parallel_defect computed it before."""
    t = (np.arange(64) + 0.5) * np.pi / 64
    p = np.arange(128) * 2 * np.pi / 128
    T, P = np.meshgrid(t, p, indexing="ij")
    U = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], -1).reshape(-1, 3)
    U = np.concatenate([U, np.eye(3)])
    vals = np.einsum("...kijm,pk,pi,pj,pm->...p", coeffs, U, U, U, U)
    return np.max(np.abs(vals), axis=-1)


def test_j_parallel_defect_matches_full_grid_einsum(dvv, rng):
    pts = random_chart_points(dvv, 6, seed=36)
    coeffs = [nk6.nabla_h(dvv, pts).coeffs, rng.normal(size=(4, 3, 3, 3, 3)),
              10.0 * rng.normal(size=(3, 3, 3, 3))]
    for c in coeffs:
        ref = j_parallel_defect_einsum(c)
        got = nk6.j_parallel_defect(nk6.NablaH(coeffs=c))
        assert got.shape == ref.shape
        tol = 1e-13 * max(1.0, float(np.sqrt(np.max(np.sum(c**2, axis=(-4, -3, -2, -1))))))
        assert np.max(np.abs(got - ref)) <= tol


def test_laplacian_identity_on_reference_model(dvv):
    rep = nk6.laplacian_identity_check(dvv, np.array([0.8, 0.25, 2.2]))
    assert abs(rep.half_laplacian) < 1e-10          # constant field
    assert rep.residual_pipeline < 1e-10
    assert rep.residual_algebra < 1e-8
    assert abs(rep.nabla_h_sq - 75 / 32) < 1e-6
    assert abs(rep.q_direct - 750 / 64) < 1e-8
    assert abs(rep.hsq - HSQ) < 1e-10
    assert rep.t_sq < 1e-8


def test_hsq_field_is_holomorphic_on_the_laplacian_circles(dvv, monkeypatch):
    # the Laplacian's field is the sum of h^2 from the frame continued to its
    # complex circle points; holomorphic there, it averages over every circle
    # to |h|^2 at the centre, and its top Taylor terms stay under the gate.
    # The frame vectors themselves vary along the circles and average to
    # their values at the centre too.
    circles = []
    inner_lap, inner_core = nk6.geometry.laplace_beltrami, nk6.geometry._frame_at

    def laplace_beltrami(imm, field, q, frame_packet=None):
        def logged(yy):
            circles.append(field(yy))
            return circles[-1]
        return inner_lap(imm, logged, q, frame_packet=frame_packet)

    def core(imm, y):
        pk = inner_core(imm, y)
        circles.append(pk.e)
        return pk

    monkeypatch.setattr(nk6.geometry, "laplace_beltrami", laplace_beltrami)
    monkeypatch.setattr(nk6.geometry, "_frame_at", core)
    for q in random_chart_points(dvv, 8, seed=21):
        rep = simons.laplacian_identity_check(dvv, q)
        centre, e, hsq = circles[0], circles[1], circles[2]
        circles.clear()
        assert hsq.shape == (3, 16) and e.shape == (3, 16, 3, 7)
        assert np.max(np.abs(np.mean(hsq, axis=1) - rep.hsq)) < 1e-13
        assert np.max(np.abs(np.mean(e, axis=1) - centre)) < 1e-13
        assert np.max(np.abs(np.fft.fft(e, axis=1)[:, 1])) / 16 > 0.1
        for values, scale in ((hsq, max(1.0, rep.hsq)), (e, 1.0)):
            top = np.fft.fft(values, axis=1)[:, -2:] / 16
            assert np.max(np.abs(top)) / scale < nk6.geometry._LAPLACE_TAIL


def test_laplacian_identity_on_totally_geodesic(geodesic):
    rep = nk6.laplacian_identity_check(geodesic, np.array([0.7, 1.0, 1.0]))
    assert abs(rep.half_laplacian) < 1e-8
    assert rep.residual_pipeline < 1e-8
    assert rep.residual_algebra < 1e-12


def test_regrouped_identity_with_zero_t_on_random_tuples(rng):
    # polynomial restatement of the Laplacian right-hand side on normal forms
    tuples = rng.normal(size=(10000, 4))
    cf = nk6.closed_forms(tuples)
    lhs = 3.75 * cf.hsq - cf.q_closed
    theta_sq = (tuples[:, 0] + tuples[:, 1]) ** 2
    rhs = 3.75 * cf.hsq - 3 * cf.hsq**2 + 4.5 * theta_sq * cf.hsq + cf.r_residual
    denom = np.maximum(1.0, np.abs(lhs))
    assert np.max(np.abs(lhs - rhs) / denom) < 1e-10


def test_quadrature_rule_parsing_and_nodes():
    rule = nk6.QuadratureRule.parse("8,10,12")
    assert rule.counts() == (8, 10, 12)
    pts, w = rule.nodes_weights()
    assert pts.shape == (8 * 10 * 12, 3)
    assert np.all(w > 0)
    assert np.all(pts[:, 0] > 0) and np.all(pts[:, 0] < np.pi / 2)
    with pytest.raises(ValueError):
        nk6.QuadratureRule.parse("8,8")
    with pytest.raises(ValueError):
        nk6.QuadratureRule(1, 8, 8)


def test_coarser_rule_has_fewer_nodes_on_every_axis():
    # an axis the coarse rule cannot shrink would make the volume check vacuous
    for n in range(3, 65):
        fine = nk6.QuadratureRule(n, n + 1, 64)
        assert all(c < f for c, f in zip(fine.coarser().counts(), fine.counts()))
    nk6.QuadratureRule(32, 2, 2)  # still a valid rule for its nodes alone
    for counts in ((2, 32, 32), (32, 2, 32), (32, 32, 2)):
        with pytest.raises(ValueError, match="at least 3 nodes per axis"):
            nk6.QuadratureRule(*counts).coarser()


def test_quadrature_volume_exactness(dvv):
    # spectral rule: volume already converged at modest sizes
    coarse = simons._volume(dvv, nk6.QuadratureRule(24, 24, 24))
    fine = simons._volume(dvv, nk6.QuadratureRule(32, 32, 32))
    target = 32 * np.pi**2 / 9
    assert abs(fine - target) / target < 1e-12
    assert abs(fine - coarse) / target < 1e-8


def test_integrate_inequality_reference_model(dvv):
    report = nk6.integrate_inequality(dvv, nk6.QuadratureRule(16, 16, 16))
    assert abs(report.integral) < 1e-8
    assert report.integrand_sup < 1e-10
    assert report.classification == "DVV-type"
    assert abs(report.volume - 32 * np.pi**2 / 9) / report.volume < 1e-6
    assert abs(report.hsq_min - HSQ) < 1e-10 and abs(report.hsq_max - HSQ) < 1e-10
    assert abs(report.theta_min - S5 / 2) < 1e-9


def test_classify_reaches_every_branch():
    # (sup |h|^2, sup |integrand|) -> classification, at tol_equality 1e-8
    cases = {(1e-9, 1e-9): "geodesic", (3.125, 1e-9): "DVV-type",
             (3.125, 1e-6): "indeterminate", (5.625, 1e-2): "strict"}
    for (hsq_sup, integrand_sup), want in cases.items():
        assert simons._classify(hsq_sup, integrand_sup, 1e-8) == want
    assert simons._classify(3.125, simons.TOL_INDETERMINATE, 1e-8) == "strict"


def test_classify_refuses_non_finite_sups():
    # NaN compares false against every bound: unrefused, it would read "strict"
    for hsq_sup, integrand_sup in ((np.nan, np.nan), (5.625, np.nan), (np.nan, 1e-2),
                                   (np.inf, 1e-2)):
        with pytest.raises(simons.ResolutionError, match="non-finite"):
            simons._classify(hsq_sup, integrand_sup, 1e-8)


def test_integrate_inequality_evaluates_each_rule_once(counted_dvv):
    # fine nodes at order 2 for frame, density and h; coarse at order 1
    nk6.integrate_inequality(counted_dvv, nk6.QuadratureRule(8, 8, 8))
    assert counted_dvv.jet_calls == [(2, 8**3), (1, 6**3)]
    # past one block: one call per block of each rule, the last one partial
    counted_dvv.jet_calls.clear()
    nk6.integrate_inequality(counted_dvv, nk6.QuadratureRule(28, 28, 28))
    block = simons._NODE_BLOCK
    fine, coarse = 28**3, 21**3
    assert coarse > block
    assert counted_dvv.jet_calls == (
        [(2, min(block, fine - lo)) for lo in range(0, fine, block)]
        + [(1, min(block, coarse - lo)) for lo in range(0, coarse, block)])


def test_integrate_inequality_reports_do_not_depend_on_the_block(dvv, monkeypatch):
    # 13824 nodes: a partial last block for the default and for _CHUNK
    rule = nk6.QuadratureRule(24, 24, 24)
    ref = nk6.integrate_inequality(dvv, rule)
    for block in (canonical._CHUNK, 24**3):
        monkeypatch.setattr(simons, "_NODE_BLOCK", block)
        report = nk6.integrate_inequality(dvv, rule)
        assert report.to_dict() == ref.to_dict()
        assert np.array_equal(report.samples, ref.samples)


def test_integrate_inequality_memory_is_flat_in_the_rule(dvv):
    # only the report's columns grow with the rule; the layers see one block
    peaks = []
    for n in (24, 48):
        tracemalloc.start()
        try:
            nk6.integrate_inequality(dvv, nk6.QuadratureRule(n, n, n))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_integrate_inequality_totally_geodesic(geodesic):
    report = nk6.integrate_inequality(geodesic, nk6.QuadratureRule(12, 12, 12))
    assert report.integral == 0.0
    assert report.hsq_max < 1e-15
    assert report.classification == "geodesic"
    assert abs(report.volume - 2 * np.pi**2) / report.volume < 1e-12


def test_a_nan_term_stops_the_frame_and_the_certificate(geodesic):
    # every residual of a NaN frame is NaN, which no bound may pass
    c, e, _ = geodesic.terms[-1]
    imm = nk6.PolynomialSphereImmersion(
        "nan-term", geodesic.terms[:-1] + ((c, e, float("nan")),), geodesic.table)
    with pytest.raises(ValueError, match=r"not Lagrangian .* \(residual nan\)"):
        nk6.frame(imm, np.array([0.7, 0.9, 1.7]))
    with pytest.raises(ValueError, match=r"not Lagrangian .* \(residual nan\)"):
        nk6.integrate_inequality(imm, nk6.QuadratureRule(8, 8, 8))


def test_integrate_report_serialization(dvv):
    report = nk6.integrate_inequality(dvv, nk6.QuadratureRule(8, 8, 8))
    doc = report.to_dict()
    assert doc["schema_version"] == "1"
    assert doc["classification"] == "DVV-type"
    rows = cli._samples_csv(report).splitlines()
    assert rows[0] == ",".join(report.CSV_COLUMNS)
    assert len(rows) == 8 * 8 * 8 + 1


def test_jets_keep_their_accuracy_at_the_chart_poles(dvv):
    # 256 Gauss nodes put the outermost eta within 3.5e-5 of each pole, where
    # sin eta or cos eta is tiny: the integrand must stay at roundoff
    report = nk6.integrate_inequality(dvv, nk6.QuadratureRule(256, 4, 4))
    assert report.integrand_sup < 1e-10
    assert abs(report.hsq_min - HSQ) < 1e-10 and abs(report.hsq_max - HSQ) < 1e-10


def test_integrate_rejects_nonconvergent_rule(dvv):
    # a rule too coarse to pin the volume must fail loudly, not silently
    with pytest.raises(simons.ResolutionError):
        nk6.integrate_inequality(dvv, nk6.QuadratureRule(3, 4, 4))
