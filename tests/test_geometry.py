"""Jets, frames, second fundamental form, covariant derivative, curvature."""

import warnings

import numpy as np
import pytest

import nk6
from nk6 import canonical, cli, geometry, models, simons
from conftest import random_chart_points

S5 = np.sqrt(5.0)
HSQ_DVV = 25 / 8


def test_jet_image_is_unit(dvv):
    pts = random_chart_points(dvv, 200, seed=1)
    jt = nk6.jet(dvv, pts, 0)
    assert jt.unit_image_residual() < 1e-12


def test_jet_order_bounds(dvv):
    with pytest.raises(ValueError):
        nk6.jet(dvv, np.array([0.5, 0.0, 0.0]), 4)
    with pytest.raises(ValueError):
        dvv.jet(np.array([0.5, 0.0, 0.0]), 4)
    with pytest.raises(ValueError):
        nk6.jet(dvv, np.array([2.0, 0.0, 0.0]), 1)  # eta outside [0, pi/2]


def test_jet_degenerate_axis_at_pole(dvv):
    # at eta = 0 the xi2 angle is idle, so all xi2-partials vanish
    jt = nk6.jet(dvv, np.array([0.0, 0.7, 1.3]), 2)
    assert np.max(np.abs(jt.d1[2])) < 1e-14
    assert np.max(np.abs(jt.d2[2, 2])) < 1e-14


def test_analytic_jets_match_fd_oracle(dvv):
    pts = random_chart_points(dvv, 100, seed=2, margin=0.15)
    exact = nk6.jet(dvv, pts, 3)
    approx = nk6.fd_jet(dvv, pts, 3)
    assert np.max(np.abs(exact.value - approx.value)) == 0.0
    assert np.max(np.abs(exact.d1 - approx.d1)) < 1e-6
    assert np.max(np.abs(exact.d2 - approx.d2)) < 1e-6
    assert np.max(np.abs(exact.d3 - approx.d3)) < 1e-6


def random_polynomial(table, seed=6):
    """12 seeded terms of degree 3 to 6; not on the sphere, but its jets
    reach the D^3 P and mixed D^2 P terms that a quadratic model cannot."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(12):
        expo = np.bincount(rng.integers(0, 4, size=rng.integers(3, 7)), minlength=4)
        terms.append((rng.integers(0, 7), expo, rng.normal()))
    return nk6.PolynomialSphereImmersion("degree-6", terms, table)


def test_degree6_jets_match_fd_oracle(table):
    # the oracle has no truncation term, so verify's absolute tolerance holds
    # on a degree-6 map as it does on the quadratic DVV map
    poly = random_polynomial(table)
    pts = random_chart_points(poly, 50, seed=7, margin=0.15)
    exact = nk6.jet(poly, pts, 3)
    approx = nk6.fd_jet(poly, pts, 3)
    tol = cli.DEFAULT_TOLERANCES["jet_fd_agreement"]
    for name in ("value", "d1", "d2", "d3"):
        assert np.max(np.abs(getattr(exact, name) - getattr(approx, name))) < tol, name


def test_fd_jet_makes_one_value_only_call(counted_dvv):
    # the oracle reads only values: one order-0 call on the centres and
    # their ten circles of 24 nodes, never the derivative blocks
    pts = random_chart_points(counted_dvv, 3, seed=4)
    jt = nk6.fd_jet(counted_dvv, pts, 3)
    assert counted_dvv.jet_calls == [(0, 3 * (1 + 10 * 24))]
    assert jt.d3.shape == (3, 3, 3, 3, 7)


def test_complex_order0_jet_is_bitwise_real_at_real_points(dvv, table):
    for imm in (dvv, random_polynomial(table)):
        q = random_chart_points(imm, 64, seed=12)
        real, cplx = imm.jet(q, 0).value, imm.jet(q.astype(complex), 0).value
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.array_equal(cplx.real, real) and not np.any(cplx.imag)


def test_jet_node_blocks(table):
    poly = random_polynomial(table)
    pts = random_chart_points(poly, 4100, seed=8)
    whole, tail = poly.jet(pts, 3), poly.jet(pts[-4:], 3)
    shaped, flat = poly.jet(pts[:10].reshape(2, 5, 3), 3), poly.jet(pts[:10], 3)
    for name in ("value", "d1", "d2", "d3"):
        assert np.array_equal(getattr(whole, name)[-4:], getattr(tail, name))
        assert np.array_equal(getattr(shaped, name).reshape(getattr(flat, name).shape),
                              getattr(flat, name))


def test_jet_partial_accessor(dvv):
    q = np.array([0.4, 1.1, 0.3])
    jt = nk6.jet(dvv, q, 3)
    assert np.allclose(jt.partial((0, 0, 0)), jt.value)
    assert np.allclose(jt.partial((1, 1, 0)), jt.d2[0, 1])
    assert np.allclose(jt.partial((1, 1, 1)), jt.d3[0, 1, 2])
    with pytest.raises(ValueError):
        nk6.jet(dvv, q, 1).partial((1, 1, 0))


def test_frame_is_orthonormal_and_lagrangian(dvv):
    pts = random_chart_points(dvv, 100, seed=3)
    pk = nk6.frame(dvv, pts)
    assert pk.orthonormality_residual() < 1e-10
    assert pk.lagrangian_residual() < 1e-10


def _with_fields(imm, rows=None):
    """The polynomial of `imm` without field scales: its frame starts from
    the chart partials, or from the constant chart components `rows`."""
    out = nk6.PolynomialSphereImmersion(imm.name, imm.terms, imm.table)
    if rows is not None:
        out.tangent_fields = lambda q: np.broadcast_to(rows, np.shape(q)[:-1] + (3, 3))
    return out


def test_frame_from_chart_partials(geodesic):
    pts = random_chart_points(geodesic, 50, seed=4)
    pk = nk6.frame(_with_fields(geodesic), pts)
    assert pk.orthonormality_residual() < 1e-10
    assert pk.lagrangian_residual() < 1e-10


def test_frame_pole_degeneracy_error(geodesic):
    with pytest.raises(nk6.ChartDegeneracyError) as err:
        nk6.frame(_with_fields(geodesic), np.array([0.0, 0.3, 0.9]))
    assert err.value.distance is not None
    assert err.value.distance < 1e-12


def _frame_test_points(imm, seed):
    """Random chart points and the two Gauss nodes of a 32-point rule nearest
    the chart poles eta = 0 and pi/2."""
    eta = nk6.QuadratureRule(32, 2, 2).nodes_weights()[0][:, 0]
    poles = np.array([[eta.min(), 0.4, 2.2], [eta.max(), 5.1, 1.3]])
    return np.concatenate([random_chart_points(imm, 50, seed=seed), poles])


def _frame_cases(dvv, geodesic):
    R = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))[0]
    return [dvv, _with_fields(geodesic), _with_fields(dvv, R)]


def test_chart_comps_carry_the_frame_and_the_metric(dvv, geodesic):
    # model fields, chart partials and rotated partials share one path:
    # e = C @ d1 and C g C^T = I, near the poles too
    for imm in _frame_cases(dvv, geodesic):
        pk = nk6.frame(imm, _frame_test_points(imm, 42))
        C = pk.chart_comps
        assert np.max(np.abs(C @ pk.jet.d1 - pk.e)) < 1e-14
        assert np.max(np.abs(C @ pk.metric @ np.swapaxes(C, -1, -2) - np.eye(3))) < 1e-13


def test_tangent_fields_push_forward_to_the_model_fields(dvv):
    # oracle: the scaled fields X_f = s_f FIELD_MATS[f] y pushed forward by
    # the polynomial's y-Jacobian
    pts = _frame_test_points(dvv, 43)
    y = dvv.chart.to_y(pts)
    fields = np.einsum("fab,...b->...fa", models.FIELD_MATS, y) * np.array(dvv.field_scales)[:, None]
    push = np.einsum("...ca,...fa->...fc", dvv.jacobian_y(y), fields)
    B = dvv.tangent_fields(pts)
    assert np.max(np.abs(B @ nk6.jet(dvv, pts, 1).d1 - push)) < 1e-13


def test_model_field_frame_at_the_poles_raises_before_dividing(dvv):
    # the tangent fields' chart components divide by |d_a y|^2, which
    # vanishes at the poles; the metric check must stop the frame first
    for eta in (0.0, np.pi / 2):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(nk6.ChartDegeneracyError) as err:
                nk6.frame(dvv, np.array([eta, 0.3, 0.9]))
        assert err.value.distance is not None and err.value.distance < 1e-12


def test_frame_evaluates_the_polynomial_once_per_node_block(table, monkeypatch):
    # the tangent fields come from the chart alone, so the order-2 jet's
    # blocks are the only polynomial evaluations of a frame call
    monkeypatch.setattr(models, "_NODE_BLOCK", 8)
    imm = nk6.dvv_immersion(table)
    inner, calls = canonical._monomials, []

    def counting(x, exponents):
        calls.append(len(x))
        return inner(x, exponents)

    monkeypatch.setattr(canonical, "_monomials", counting)
    nk6.frame(imm, random_chart_points(imm, 20, seed=44))
    assert calls == [8, 8, 4]


def test_sff_vanishes_on_totally_geodesic(geodesic):
    pts = random_chart_points(geodesic, 100, seed=5)
    sff = nk6.second_fundamental_form(geodesic, pts)
    assert np.max(np.abs(sff.h)) < 1e-10


def test_sff_reproduces_reference_table(dvv):
    pts = random_chart_points(dvv, 50, seed=6)
    sff = nk6.second_fundamental_form(dvv, pts)
    expected = nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0))
    assert np.max(np.abs(sff.h - expected)) < 1e-8
    # named entries of the table
    assert np.allclose(sff.h[..., 0, 0, 0], S5 / 2, atol=1e-8)
    assert np.allclose(sff.h[..., 1, 0, 1], -S5 / 4, atol=1e-8)
    assert np.allclose(sff.h[..., 2, 0, 2], -S5 / 4, atol=1e-8)
    assert np.allclose(sff.h[..., 0, 1, 1], -S5 / 4, atol=1e-8)
    assert np.allclose(sff.h[..., 0, 2, 2], -S5 / 4, atol=1e-8)
    assert np.max(np.abs(sff.h[..., :, 1, 2])) < 1e-8


def test_sff_norm_and_invariants(dvv):
    pts = random_chart_points(dvv, 50, seed=7)
    sff = nk6.second_fundamental_form(dvv, pts)
    assert np.max(np.abs(sff.norm_sq() - HSQ_DVV)) < 1e-8
    assert sff.symmetry_residual() < 1e-9
    assert sff.trace_residual() < 1e-9
    sff.validate()


def test_shape_operator(dvv):
    q = np.array([0.8, 0.2, 5.0])
    sff = nk6.second_fundamental_form(dvv, q)
    H1 = nk6.shape_operator(sff, 0)
    assert np.allclose(H1, np.diag([S5 / 2, -S5 / 4, -S5 / 4]), atol=1e-9)
    for k in range(3):
        assert abs(np.trace(nk6.shape_operator(sff, k))) < 1e-9
    zero = geometry.SFF(h=np.zeros((3, 3, 3)))
    assert np.allclose(nk6.shape_operator(zero, 1), 0.0)


def test_nabla_h_codazzi_and_exchange(dvv, table):
    pts = random_chart_points(dvv, 20, seed=8)
    nh = nk6.nabla_h(dvv, pts)
    assert nh.codazzi_residual() < 1e-7
    nh.validate()
    # exchange identity relating the J-transposed derivative to h against G
    pk = nk6.frame(dvv, pts)
    sff = nk6.second_fundamental_form(dvv, pts, frame_packet=pk)
    gj = np.einsum("pqc,...ip,...jq,...lc->...ijl", table.f, pk.e, pk.e, pk.estar)
    rhs = np.einsum("...pmi,...kjp->...kijm", sff.h, gj)
    residual = nh.coeffs - np.swapaxes(nh.coeffs, -4, -2) - rhs
    assert np.max(np.abs(residual)) < 1e-7


def test_nabla_h_is_exact_to_roundoff(dvv):
    # one order-3 jet and the Christoffel symbols leave no truncation error:
    # Codazzi holds and |nabla h|^2 = (3/4)|h|^2 on DVV to roundoff
    pts = random_chart_points(dvv, 20, seed=8)
    nh = nk6.nabla_h(dvv, pts)
    hsq = nk6.second_fundamental_form(dvv, pts).norm_sq()
    assert nh.codazzi_residual() <= 1e-13
    assert np.max(np.abs(nh.norm_sq() - 0.75 * hsq)) <= 1e-12


def test_nabla_h_with_a_frame_reads_one_jet(counted_dvv):
    q = random_chart_points(counted_dvv, 6, seed=4)
    pk = nk6.frame(counted_dvv, q, validate=False)
    counted_dvv.jet_calls.clear()
    nh = nk6.nabla_h(counted_dvv, q, frame_packet=pk)
    assert counted_dvv.jet_calls == [(3, 6)]
    assert np.array_equal(nh.coeffs, nk6.nabla_h(counted_dvv, q).coeffs)


def test_nabla_h_norm_value(dvv):
    pts = random_chart_points(dvv, 20, seed=9)
    nh = nk6.nabla_h(dvv, pts)
    assert np.max(np.abs(nh.norm_sq() - 0.75 * HSQ_DVV)) < 1e-6


def test_nabla_h_matches_ambient_field_oracle(dvv):
    # independent route: differentiate the R^7-valued field h(e_i, e_j) =
    # sum_l h[l,i,j] Je_l directly, project onto the normal space, and remove
    # the tangential-connection terms; no normal-connection bookkeeping at all
    q = np.array([0.66, 2.1, 0.8])
    pk = nk6.frame(dvv, q)
    sff = nk6.second_fundamental_form(dvv, q, frame_packet=pk)
    nh = nk6.nabla_h(dvv, q)
    step = 3e-6 * np.asarray(dvv.chart.extents)

    def packet_at(qq):
        p = nk6.frame(dvv, qq, validate=False)
        return p, nk6.second_fundamental_form(dvv, qq, frame_packet=p)

    oracle = np.zeros((3, 3, 3, 3))
    for m in range(3):
        cm = pk.chart_comps[m]
        dH = np.zeros((3, 3, 7))
        de = np.zeros((3, 7))
        for a in range(3):
            qp, qm = q.copy(), q.copy()
            qp[a] += step[a]
            qm[a] -= step[a]
            pp, sp = packet_at(qp)
            pmk, sm = packet_at(qm)
            dH += cm[a] * (np.einsum("lij,lc->ijc", sp.h, pp.estar)
                           - np.einsum("lij,lc->ijc", sm.h, pmk.estar)) / (2 * step[a])
            de += cm[a] * (pp.e - pmk.e) / (2 * step[a])
        proj = np.einsum("ijc,kc->kij", dH, pk.estar)
        gamma = np.einsum("ic,jc->ij", de, pk.e)
        corr = (np.einsum("il,klj->kij", gamma, sff.h)
                + np.einsum("jl,kil->kij", gamma, sff.h))
        oracle[:, :, :, m] = proj - corr
    assert np.max(np.abs(oracle - nh.coeffs)) < 1e-7


def test_nabla_h_vanishes_on_totally_geodesic(geodesic):
    pts = random_chart_points(geodesic, 10, seed=10)
    nh = nk6.nabla_h(geodesic, pts)
    assert np.max(np.abs(nh.coeffs)) < 1e-10


def test_curvature_reference_values(dvv):
    pts = random_chart_points(dvv, 50, seed=11)
    cp = nk6.curvature(dvv, pts)
    assert np.max(np.abs(cp.R[..., 1, 2, 1, 2] - 21 / 16)) < 1e-8
    assert np.max(np.abs(cp.R[..., 0, 1, 0, 1] - 1 / 16)) < 1e-8
    assert np.max(np.abs(cp.R[..., 0, 2, 0, 2] - 1 / 16)) < 1e-8
    assert np.max(np.abs(cp.tau - 23 / 8)) < 1e-8
    assert np.max(np.abs(cp.sectional_sum - 23 / 16)) < 1e-8
    assert cp.gauss_scalar_residual() < 1e-8
    ric1 = cp.ricci[..., 0, 0]
    assert np.max(np.abs(ric1 - 1 / 8)) < 1e-8


def test_sectional_curvature_of_random_planes(dvv, rng):
    q = np.array([0.5, 2.2, 0.4])
    cp = nk6.curvature(dvv, q)
    u = rng.normal(size=(1000, 3))
    v = rng.normal(size=(1000, 3))
    K = nk6.sectional_curvature(cp, u, v)
    assert np.all(K > 1 / 16 - 1e-8)
    assert np.all(K < 21 / 16 + 1e-8)


def test_totally_geodesic_constant_curvature(geodesic):
    pts = random_chart_points(geodesic, 50, seed=12)
    cp = nk6.curvature(geodesic, pts)
    eye = np.eye(3)
    round_tensor = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    assert np.max(np.abs(cp.R - round_tensor)) < 1e-8
    assert np.max(np.abs(cp.tau - 6.0)) < 1e-8


def test_volume_form_and_normality(dvv, table):
    pts = random_chart_points(dvv, 50, seed=13)
    pk = nk6.frame(dvv, pts)
    g12 = nk6.g_tensor(pk.base, pk.e[..., 0, :], pk.e[..., 1, :], table, check=False)
    vol = np.einsum("...c,...c->...", g12, pk.estar[..., 2, :])
    assert np.max(np.abs(np.abs(vol) - 1.0)) < 1e-9
    assert np.ptp(np.sign(vol)) == 0.0  # constant sign per orientation
    ge = np.einsum("pqc,...ip,...jq,...kc->...ijk", table.f, pk.e, pk.e, pk.e)
    assert np.max(np.abs(ge)) < 1e-10


def test_gauge_invariance_under_frame_rotation(dvv, rng):
    q = np.array([0.7, 1.9, 3.1])
    theta_ref = float(nk6.maximize_theta(nk6.second_fundamental_form(dvv, q).h)[1])
    base = {
        "hsq": float(nk6.second_fundamental_form(dvv, q).norm_sq()),
        "tau": float(nk6.curvature(dvv, q).tau),
        "nhsq": float(nk6.nabla_h(dvv, q).norm_sq()),
    }
    A = rng.normal(size=(3, 3))
    R, _ = np.linalg.qr(A)
    rotated = _with_fields(dvv, R)
    sff = nk6.second_fundamental_form(rotated, q)
    assert abs(float(sff.norm_sq()) - base["hsq"]) < 1e-8
    assert abs(float(nk6.curvature(rotated, q).tau) - base["tau"]) < 1e-8
    assert abs(float(nk6.nabla_h(rotated, q).norm_sq()) - base["nhsq"]) < 1e-8
    assert abs(float(nk6.maximize_theta(sff.h)[1]) - theta_ref) < 1e-8


def test_laplace_beltrami_constant_field(dvv):
    q = np.array([0.6, 0.5, 1.0])
    val = nk6.laplace_beltrami(dvv, lambda qq: np.full(np.shape(qq)[:-1], 2.5), q)
    assert abs(val) < 1e-8


def test_laplace_beltrami_hsq_field(dvv):
    # the holomorphic |h|^2 is constant 25/8 on the Berger sphere
    q = np.array([0.75, 2.0, 0.9])
    field = lambda qq: simons._hsq(dvv, qq)  # noqa: E731
    assert abs(float(field(q)) - 25 / 8) < 1e-13
    assert abs(float(nk6.laplace_beltrami(dvv, field, q))) < 1e-10


def test_laplace_beltrami_round_sphere_eigenfunction(geodesic):
    # coordinate functions of the round three-sphere have eigenvalue -3
    pts = random_chart_points(geodesic, 10, seed=14, margin=0.2)
    for a in range(4):
        field = lambda qq: geodesic.chart.to_y(qq)[..., a]  # noqa: E731
        lap = nk6.laplace_beltrami(geodesic, field, pts)
        target = -3.0 * geodesic.chart.to_y(pts)[..., a]
        assert np.max(np.abs(lap - target)) < 1e-12


def test_sff_reuses_the_frame_jet(counted_dvv):
    q = random_chart_points(counted_dvv, 5, seed=3)
    pk = nk6.frame(counted_dvv, q)
    assert counted_dvv.jet_calls == [(2, 5)]
    sff = nk6.second_fundamental_form(counted_dvv, q, frame_packet=pk)
    assert counted_dvv.jet_calls == [(2, 5)]
    assert np.array_equal(sff.h, nk6.second_fundamental_form(counted_dvv, q).h)


def test_laplace_beltrami_evaluates_one_stacked_circle_call(counted_dvv):
    q = random_chart_points(counted_dvv, 4, seed=5, margin=0.2)
    shapes = []

    def field(qq):
        shapes.append(np.shape(qq))
        return np.sum(qq**2, axis=-1)

    lap = nk6.laplace_beltrami(counted_dvv, field, q)
    # three circles of 16 complex nodes around each point, in one call
    assert shapes == [(3, 16, 4, 3)]
    assert counted_dvv.jet_calls == [(2, 4)]
    pk = nk6.frame(counted_dvv, q, validate=False)
    counted_dvv.jet_calls.clear()
    assert np.array_equal(nk6.laplace_beltrami(counted_dvv, field, q, frame_packet=pk), lap)
    assert counted_dvv.jet_calls == []
    # Lap |q|^2 = 2 g^{aa} - 2 g^{ab} Gamma^c_ab q_c
    ginv, gamma = geometry._christoffel(pk.jet)
    want = 2 * np.einsum("...aa->...", ginv) - 2 * np.einsum("...ab,...abc,...c->...", ginv, gamma, q)
    assert np.max(np.abs(lap - want)) < 1e-11 * np.max(np.abs(want))


def test_closed_form_inverse_matches_numpy():
    # Gram matrices, as metrics are, and complex perturbations of them, as on
    # the Laplacian's complex circle points
    rng = np.random.default_rng(17)
    d1 = rng.normal(size=(64, 3, 7))
    real = d1 @ np.swapaxes(d1, -1, -2)
    complex_ = real + 0.3j * rng.normal(size=real.shape)
    for m in (real, complex_, real[0]):
        want = np.linalg.inv(m)
        got = geometry._inv3(m)
        assert got.dtype == want.dtype
        rel = np.max(np.abs(got - want), axis=(-2, -1)) / np.max(np.abs(want), axis=(-2, -1))
        assert np.max(rel) < 1e-13
    # one exactly singular matrix in the batch: row 2 is twice row 1
    singular = real.copy()
    singular[5] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]]
    with pytest.raises(np.linalg.LinAlgError):
        geometry._inv3(singular)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(singular)


def test_laplace_beltrami_near_pole_raises(geodesic):
    # the frame refuses the pole before any circle is sampled
    with pytest.raises(nk6.ChartDegeneracyError, match="rank deficient"):
        nk6.laplace_beltrami(
            geodesic, lambda qq: np.zeros(np.shape(qq)[:-1]), np.array([1e-9, 0.1, 0.1])
        )


@pytest.mark.parametrize("field", [
    lambda qq: np.real(qq[..., 0]) ** 2,     # drops the imaginary part
    lambda qq: 1.0 / (qq[..., 0] - 0.76),    # a pole inside the circles
], ids=["not-holomorphic", "pole"])
def test_laplace_beltrami_refuses_a_field_it_cannot_differentiate(dvv, field):
    with pytest.raises(nk6.ChartDegeneracyError, match="not holomorphic"):
        nk6.laplace_beltrami(dvv, field, np.array([0.75, 2.0, 0.9]))


def test_sff_matches_the_einsum_form(dvv):
    q = random_chart_points(dvv, 64, seed=11)
    pk = nk6.frame(dvv, q)
    proj = np.einsum("...abc,...kc->...abk", pk.jet.d2, pk.estar)
    want = np.einsum("...ia,...jb,...abk->...kij", pk.chart_comps, pk.chart_comps, proj)
    got = nk6.second_fundamental_form(dvv, q, frame_packet=pk).h
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
