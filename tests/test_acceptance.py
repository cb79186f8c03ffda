"""Acceptance gate: the nine headline criteria at their contractual tolerances.

Each test prints one pass/fail line (run with `pytest -s` to see them all) and
asserts every bound; tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

import nk6
from nk6 import simons
from conftest import random_chart_points

S5 = np.sqrt(5.0)
S10 = np.sqrt(10.0)


def _line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_structure_identity_suite(table):
    residuals = nk6.verify_nk_identities(table, n_samples=1000, seed=101)
    algebraic = {
        k: residuals[k]
        for k in ("antisymmetry", "complex_anticommutation",
                  "skew_adjointness", "product_expansion")
    }
    step = residuals["covariant_derivative"]
    ok = max(algebraic.values()) < 1e-12 and step < 1e-12
    _line(1, ok,
          f"structure identities: algebraic max {max(algebraic.values()):.2e} "
          f"(< 1e-12), covariant derivative by complex step {step:.2e} (< 1e-12)")


def test_criterion_2_berger_embedding_structure(dvv, table):
    pts = random_chart_points(dvv, 50, seed=102)
    pk = nk6.frame(dvv, pts)
    lag = pk.lagrangian_residual()

    # X_f Psi from immersion values alone, by the Cauchy oracle
    push = nk6.fd_jet(dvv, dvv.chart.to_y(pts), 1).d1
    metric_dev = float(np.max(np.abs(
        np.einsum("...ic,...jc->...ij", push, push) - np.diag([4 / 9, 8 / 3, 8 / 3]))))

    sff = nk6.second_fundamental_form(dvv, pts, frame_packet=pk)
    h_dev = float(np.max(np.abs(
        sff.h - nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0)))))

    g23 = nk6.g_tensor(pk.jet.value, pk.e[..., 1, :], pk.e[..., 2, :], table, check=False)
    orient = float(np.max(np.abs(g23 - pk.estar[..., 0, :])))

    ok = lag < 1e-10 and metric_dev < 1e-10 and h_dev < 1e-8 and orient < 1e-8
    _line(2, ok,
          f"Berger embedding: Lagrangian {lag:.2e} (< 1e-10), metric {metric_dev:.2e} "
          f"(< 1e-10), h-table {h_dev:.2e} (< 1e-8), G(E2,E3)=JE1 {orient:.2e} (< 1e-8)")


def test_criterion_3_berger_invariants(dvv):
    pts = random_chart_points(dvv, 50, seed=103)
    sff = nk6.second_fundamental_form(dvv, pts)
    hsq_dev = float(np.max(np.abs(sff.norm_sq() - 25 / 8)))
    _, theta = nk6.maximize_theta(sff.h)
    theta_dev = float(np.max(np.abs(theta - S5 / 2)))
    cd = nk6.canonical_basis(sff.h[0])
    tuple_dev = float(np.max(np.abs(
        np.array(cd.tuple()) - np.array([S5 / 4, S5 / 4, 0.0, 0.0]))))
    ok = hsq_dev < 1e-8 and theta_dev < 1e-6 and tuple_dev < 1e-7
    _line(3, ok,
          f"invariants at 50 points: |h|^2 dev {hsq_dev:.2e} (< 1e-8), Theta dev "
          f"{theta_dev:.2e} (< 1e-6), normal form dev {tuple_dev:.2e} (< 1e-7)")


def test_criterion_4_curvature(dvv, geodesic):
    rng = np.random.default_rng(104)
    pts = random_chart_points(dvv, 100, seed=104)
    cp = nk6.curvature(dvv, pts)
    planes_per_point = 10
    worst_formula = 0.0
    worst_range = 0.0
    for _ in range(planes_per_point):
        u = rng.normal(size=(len(pts), 3))
        v = rng.normal(size=(len(pts), 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v -= np.sum(u * v, -1, keepdims=True) * u
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        K = nk6.sectional_curvature(cp, u, v)
        cos_sq = 1.0 - u[:, 0] ** 2 - v[:, 0] ** 2
        worst_formula = max(worst_formula, float(np.max(np.abs(
            K - (1 / 16 + 20 / 16 * cos_sq)))))
        worst_range = max(worst_range, float(np.max(
            np.maximum(1 / 16 - K, K - 21 / 16))))
    tau_dev = float(np.max(np.abs(cp.tau - 23 / 8)))
    tau_gauss = cp.gauss_scalar_residual()

    gpts = random_chart_points(geodesic, 50, seed=105)
    gsff = nk6.second_fundamental_form(geodesic, gpts)
    h_dev = float(np.max(np.abs(gsff.h)))
    gcp = nk6.curvature_from_sff(gsff)
    ug = rng.normal(size=(len(gpts), 3))
    vg = rng.normal(size=(len(gpts), 3))
    k_dev = float(np.max(np.abs(nk6.sectional_curvature(gcp, ug, vg) - 1.0)))

    ok = (worst_formula < 1e-8 and worst_range < 1e-8 and tau_dev < 1e-8
          and tau_gauss < 1e-8 and h_dev < 1e-8 and k_dev < 1e-8)
    _line(4, ok,
          f"curvature: 1000 planes formula dev {worst_formula:.2e}, range slack "
          f"{worst_range:.2e}, tau dev {tau_dev:.2e}, tau=6-|h|^2 {tau_gauss:.2e}, "
          f"geodesic h {h_dev:.2e}, K-1 {k_dev:.2e} (all < 1e-8)")


def test_criterion_5_decomposition_machinery(dvv, geodesic):
    worst_f = worst_split = worst_slack = 0.0
    for imm in (dvv, geodesic):
        pts = random_chart_points(imm, 16, seed=106)
        pk = nk6.frame(imm, pts)
        sff = nk6.second_fundamental_form(imm, pts, frame_packet=pk)
        nh = nk6.nabla_h(imm, pts)
        packet = nk6.t_tensor(nh, nk6.f_tensor(sff, pk), sff)
        worst_f = max(worst_f, packet.f_norm_residual())
        worst_split = max(worst_split, packet.decomposition_residual())
        worst_slack = max(worst_slack, float(np.max(
            0.75 * packet.hsq - packet.nabla_h_sq)))

    pts = random_chart_points(dvv, 16, seed=107)
    nh = nk6.nabla_h(dvv, pts)
    tsq = float(np.max(np.abs(
        nh.norm_sq() - 0.75 * nk6.second_fundamental_form(dvv, pts).norm_sq())))
    packet_tsq = float(np.max(nk6.t_tensor(
        nh, nk6.f_tensor(
            nk6.second_fundamental_form(dvv, pts, frame_packet=nk6.frame(dvv, pts)),
            nk6.frame(dvv, pts)),
        nk6.second_fundamental_form(dvv, pts)).t_sq))
    defect = float(np.max(nk6.j_parallel_defect(nh)))

    ok = (worst_f < 1e-10 and worst_split < 1e-6 and packet_tsq < 1e-8
          and defect < 1e-7 and worst_slack < 1e-8)
    _line(5, ok,
          f"decomposition: |F|^2 identity {worst_f:.2e} (< 1e-10), norm split "
          f"{worst_split:.2e} (< 1e-6), |T|^2 {packet_tsq:.2e} (< 1e-8), defect "
          f"{defect:.2e} (< 1e-7), bound slack {worst_slack:.2e} (< 1e-8)")


def test_criterion_6_laplacian_identity(dvv):
    rep = nk6.laplacian_identity_check(dvv, np.array([0.72, 2.4, 1.1]))
    nabla_dev = abs(rep.nabla_h_sq - 75 / 32)
    q_direct_dev = abs(rep.q_direct - 750 / 64)
    cd = nk6.canonical_basis(
        nk6.second_fundamental_form(dvv, np.array([0.72, 2.4, 1.1])).h)
    q_closed_dev = abs(float(nk6.closed_forms(cd).q_closed) - 750 / 64)
    ok = (abs(rep.half_laplacian) < 1e-10 and rep.residual_pipeline < 1e-10
          and nabla_dev < 1e-6 and q_direct_dev < 1e-8 and q_closed_dev < 1e-8)
    _line(6, ok,
          f"Laplacian identity: Lap|h|^2 {rep.half_laplacian:.2e} (~0, < 1e-10), "
          f"residual {rep.residual_pipeline:.2e} (< 1e-10), |nabla h|^2-75/32 "
          f"{nabla_dev:.2e}, Q via direct/closed/pipeline dev "
          f"{max(q_direct_dev, q_closed_dev):.2e}")


def test_criterion_7_closed_form_oracle_equivalence():
    rng = np.random.default_rng(107)
    tuples = rng.normal(size=(10000, 4)) * 2.0
    cf = nk6.closed_forms(tuples)
    q_direct = nk6.commutator_invariant_direct(nk6.reconstruct_sff(tuples))
    q_rel = float(np.max(np.abs(cf.q_closed - q_direct) / np.maximum(1.0, np.abs(q_direct))))
    h = nk6.reconstruct_sff(tuples)
    hsq_rel = float(np.max(
        np.abs(np.sum(h * h, axis=(-3, -2, -1)) - cf.hsq)
        / np.maximum(1.0, cf.hsq)))
    big = nk6.closed_forms(rng.normal(size=(1_000_000, 4)) * 3.0)
    r_min = float(np.min(big.r_residual))
    ok = q_rel < 1e-12 and hsq_rel < 1e-12 and r_min >= 0.0
    _line(7, ok,
          f"closed forms: Q rel dev {q_rel:.2e} (< 1e-12) and |h|^2 rel dev "
          f"{hsq_rel:.2e} on 1e4 tuples, remainder min {r_min:.2e} >= 0 on 1e6")


def test_criterion_8_integral_certification(dvv, geodesic):
    report = nk6.integrate_inequality(dvv, nk6.QuadratureRule(32, 32, 32))
    vol_target = 32 * np.pi**2 / 9
    vol_rel = abs(report.volume - vol_target) / vol_target
    coarse_vol = simons._volume(dvv, nk6.QuadratureRule(24, 24, 24))
    refine_rel = abs(report.volume - coarse_vol) / vol_target

    geo = nk6.integrate_inequality(geodesic, nk6.QuadratureRule(16, 16, 16))
    ok = (abs(report.integral) < 1e-8 and report.integrand_sup_norm < 1e-10
          and report.classification == "DVV-type"
          and abs(geo.integral) < 1e-8 and geo.hsq_range[1] < 1e-12
          and geo.classification == "geodesic"
          and vol_rel < 1e-6 and refine_rel < 1e-8)
    _line(8, ok,
          f"integral inequality: Berger integral {report.integral:.2e} (< 1e-8), "
          f"integrand sup {report.integrand_sup_norm:.2e} (< 1e-10), geodesic integral "
          f"{geo.integral:.2e} with |h|^2 sup {geo.hsq_range[1]:.2e}, volume rel dev "
          f"{vol_rel:.2e} (< 1e-6), 24->32 refinement {refine_rel:.2e} (< 1e-8)")


def test_criterion_9_synthetic_cases(dvv):
    b = nk6.synthetic_case("b")
    cf_b = nk6.closed_forms(b.tuple())
    q_b = float(nk6.commutator_invariant_direct(nk6.reconstruct_sff(b.tuple())))
    hsq_dev = abs(float(cf_b.hsq) - 45 / 8)
    q_dev = abs(q_b - 675 / 32)
    # stationary |h|^2 forces |nabla h|^2 = Q - 3|h|^2 = (3/4)|h|^2 in case (b)
    consistency = abs((q_b - 3 * float(cf_b.hsq)) - 0.75 * float(cf_b.hsq))

    c = nk6.synthetic_case("c")
    sff_dvv = nk6.second_fundamental_form(dvv, np.array([0.55, 3.0, 0.2]))
    cd = nk6.canonical_basis(sff_dvv.h)
    c_dev = float(np.max(np.abs(np.array(cd.tuple()) - np.array(c.tuple()))))
    theta_dev = abs(float(nk6.maximize_theta(c.sff().h)[1]) - S5 / 2)
    hsq_c_dev = abs(float(c.sff().norm_sq()) - float(sff_dvv.norm_sq()))

    ok = (hsq_dev < 1e-12 and q_dev < 1e-12 and consistency < 1e-12
          and c_dev < 1e-7 and theta_dev < 1e-10 and hsq_c_dev < 1e-8)
    _line(9, ok,
          f"synthetic cases: (b) |h|^2 dev {hsq_dev:.2e}, Q dev {q_dev:.2e}, "
          f"|nabla h|^2=(3/4)|h|^2 consistency {consistency:.2e}; (c) matches "
          f"pipeline within {max(c_dev, hsq_c_dev):.2e}")
