"""Jets, frames, second fundamental form, covariant derivative, curvature."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import nk6
from nk6 import canonical, cli, geometry, models
from conftest import random_chart_points
from test_kernels import POLES, _models

S5 = np.sqrt(5.0)
HSQ_DVV = 25 / 8


def random_y(imm, n, seed=0, margin=0.05):
    return imm.chart.to_y(random_chart_points(imm, n, seed=seed, margin=margin))


def test_jet_image_is_unit(dvv):
    jt = dvv.jet(random_y(dvv, 200, seed=1), 0)
    assert jt.unit_image_residual() < 1e-12


def test_jet_order_bounds(dvv):
    with pytest.raises(ValueError):
        dvv.jet(np.array([1.0, 0.0, 0.0, 0.0]), 4)
    with pytest.raises(ValueError):
        nk6.fd_jet(dvv, np.array([1.0, 0.0, 0.0, 0.0]), 4)
    with pytest.raises(ValueError):
        nk6.frame(dvv, np.array([2.0, 0.0, 0.0]))  # eta outside [0, pi/2]


def test_analytic_jets_match_fd_oracle(dvv):
    # the oracle differentiates along the flows of the fields v.X, which
    # pins the ordered derivatives' means over index orders
    y = random_y(dvv, 100, seed=2, margin=0.15)
    exact = dvv.jet(y, 3)
    approx = nk6.fd_jet(dvv, y, 3)
    assert np.max(np.abs(exact.value - approx.value)) == 0.0
    assert np.max(np.abs(exact.d1 - approx.d1)) < 1e-6
    assert np.max(np.abs(geometry._symmetrized(exact.d2, 2) - approx.d2)) < 1e-6
    assert np.max(np.abs(geometry._symmetrized(exact.d3, 3) - approx.d3)) < 1e-6


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
    y = random_y(poly, 50, seed=7, margin=0.15)
    exact = poly.jet(y, 3)
    approx = nk6.fd_jet(poly, y, 3)
    tol = cli.DEFAULT_TOLERANCES["jet_fd_agreement"]
    for k, name in enumerate(("value", "d1", "d2", "d3")):
        block = getattr(exact, name)
        if k > 1:
            block = geometry._symmetrized(block, k)
        assert np.max(np.abs(block - getattr(approx, name))) < tol, name


def test_ordered_jets_satisfy_the_field_commutators(dvv, table):
    # [X_b, X_a] = 2 eps_bac X_c fixes every ordered entry from the
    # symmetrized ones; a jet with its index order reversed breaks it
    for imm in (dvv, random_polynomial(table)):
        y = np.concatenate([random_y(imm, 40, seed=9, margin=0.0),
                            imm.chart.to_y(np.array([[0.0, 0.7, 1.3], [np.pi / 2, 2.0, 0.4]]))])
        jt = imm.jet(y, 3)
        scale = max(1.0, float(np.max(np.abs(jt.d3))))
        assert jt.commutator_residual() < 1e-14 * scale
        assert imm.jet(y, 2).commutator_residual() < 1e-14 * scale
        reversed_ = geometry.ImmersionJet(3, jt.value, jt.d1, np.swapaxes(jt.d2, -2, -3),
                                          np.swapaxes(jt.d3, -2, -4))
        assert reversed_.commutator_residual() > 0.1


def test_fd_jet_makes_one_value_only_call(counted_dvv):
    # the oracle reads only values: one order-0 call on the centres and
    # their ten circles of 24 nodes, never the derivative blocks
    jt = nk6.fd_jet(counted_dvv, random_y(counted_dvv, 3, seed=4), 3)
    assert counted_dvv.jet_calls == [(0, 3 * (1 + 10 * 24))]
    assert jt.d3.shape == (3, 3, 3, 3, 7)


def test_complex_order0_jet_is_bitwise_real_at_real_points(dvv, table):
    for imm in (dvv, random_polynomial(table)):
        q = random_y(imm, 64, seed=12)
        real, cplx = imm.jet(q, 0).value, imm.jet(q.astype(complex), 0).value
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.array_equal(cplx.real, real) and not np.any(cplx.imag)


def test_jet_node_blocks(table):
    poly = random_polynomial(table)
    pts = random_y(poly, 4100, seed=8)
    whole, tail = poly.jet(pts, 3), poly.jet(pts[-4:], 3)
    shaped, flat = poly.jet(pts[:10].reshape(2, 5, 4), 3), poly.jet(pts[:10], 3)
    for name in ("value", "d1", "d2", "d3"):
        assert np.array_equal(getattr(whole, name)[-4:], getattr(tail, name))
        assert np.array_equal(getattr(shaped, name).reshape(getattr(flat, name).shape),
                              getattr(flat, name))


def test_frame_is_orthonormal_and_lagrangian(dvv):
    pts = random_chart_points(dvv, 100, seed=3)
    pk = nk6.frame(dvv, pts)
    assert pk.orthonormality_residual() < 1e-10
    assert pk.lagrangian_residual() < 1e-10


def _with_fields(imm, rows=None):
    """The polynomial of `imm` with the default field scales (1, 1, 1): its
    frame starts from the fields X_f, or from the constant X-basis
    components `rows`."""
    out = nk6.PolynomialSphereImmersion(imm.name, imm.terms, imm.table)
    if rows is not None:
        out.tangent_fields = lambda q: np.broadcast_to(rows, np.shape(q)[:-1] + (3, 3))
    return out


def test_frame_from_chart_partials(geodesic):
    pts = random_chart_points(geodesic, 50, seed=4)
    pk = nk6.frame(_with_fields(geodesic), pts)
    assert pk.orthonormality_residual() < 1e-10
    assert pk.lagrangian_residual() < 1e-10


# the Hopf map S^3 -> S^2 in the first three components: on the six-sphere,
# but of rank 2 everywhere, so not immersed
HOPF_MAP = ((0, (2, 0, 0, 0), 1.0), (0, (0, 2, 0, 0), 1.0), (0, (0, 0, 2, 0), -1.0),
            (0, (0, 0, 0, 2), -1.0), (1, (1, 0, 1, 0), 2.0), (1, (0, 1, 0, 1), 2.0),
            (2, (0, 1, 1, 0), 2.0), (2, (1, 0, 0, 1), -2.0))


def test_frame_rank_deficiency_error(table):
    hopf = nk6.PolynomialSphereImmersion("hopf", HOPF_MAP, table)
    with pytest.raises(nk6.ChartDegeneracyError, match="rank deficient"):
        nk6.frame(hopf, np.array([0.6, 0.3, 0.9]))


def _frame_test_points(imm, seed):
    """Random chart points, the two Gauss nodes of a 32-point rule nearest
    the chart poles eta = 0 and pi/2, and points on the poles."""
    eta = nk6.QuadratureRule(32, 2, 2).nodes_weights()[0][:, 0]
    poles = np.array([[eta.min(), 0.4, 2.2], [eta.max(), 5.1, 1.3],
                      [0.0, 0.4, 2.2], [np.pi / 2, 5.1, 1.3]])
    return np.concatenate([random_chart_points(imm, 50, seed=seed), poles])


def _frame_cases(dvv, geodesic):
    R = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))[0]
    return [dvv, _with_fields(geodesic), _with_fields(dvv, R)]


def test_field_comps_carry_the_frame_and_the_metric(dvv, geodesic):
    # model fields, the fields X_f and rotated fields share one path:
    # e = C @ d1 and C G C^T = I, on the poles too
    for imm in _frame_cases(dvv, geodesic):
        pk = nk6.frame(imm, _frame_test_points(imm, 42))
        C = pk.field_comps
        assert np.max(np.abs(C @ pk.jet.d1 - pk.e)) < 1e-14
        assert np.max(np.abs(C @ pk.metric @ np.swapaxes(C, -1, -2) - np.eye(3))) < 1e-13


def _jacobian_y(imm, y):
    """dPsi/dy (..., 7, 4), term by term."""
    jac = np.zeros(y.shape[:-1] + (7, 4))
    for c, e, w in imm.terms:
        for a in np.nonzero(e)[0]:
            lower = np.array(e) - np.eye(4, dtype=int)[a]
            jac[..., c, a] += w * e[a] * np.prod(y**lower, axis=-1)
    return jac


def test_tangent_fields_push_forward_to_the_model_fields(dvv):
    # oracle: the scaled fields X_f = s_f FIELD_MATS[f] y pushed forward by
    # the polynomial's y-Jacobian
    pts = _frame_test_points(dvv, 43)
    y = dvv.chart.to_y(pts)
    fields = np.einsum("fab,...b->...fa", models.FIELD_MATS, y) * np.array(dvv.field_scales)[:, None]
    push = np.einsum("...ca,...fa->...fc", _jacobian_y(dvv, y), fields)
    B = dvv.tangent_fields(pts)
    assert np.max(np.abs(B @ dvv.jet(y, 1).d1 - push)) < 1e-13


def test_model_field_frame_at_the_poles(dvv, geodesic):
    # the fields X_f vanish nowhere, so the chart's poles are ordinary
    # points: no division by zero, and the reference values hold
    tol = cli.DEFAULT_TOLERANCES
    expected = {dvv: nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0)), geodesic: 0.0}
    for imm, h in expected.items():
        for eta in (0.0, np.pi / 2):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                pk = nk6.frame(imm, np.array([eta, 0.3, 0.9]))
                sff = nk6.second_fundamental_form(imm, None, frame_packet=pk)
            assert np.max(np.abs(sff.h - h)) < tol["h_values"]
            assert abs(float(sff.norm_sq()) - np.sum(np.square(h))) < tol["hsq_value"]


def test_frame_evaluates_the_polynomial_once(table, monkeypatch):
    # the tangent fields come from the chart alone, so the order-2 jet is the
    # only polynomial evaluation of a frame call, on all its points at once
    imm = nk6.dvv_immersion(table)
    inner, calls = canonical._monomials, []

    def counting(x, exponents):
        calls.append(len(x))
        return inner(x, exponents)

    monkeypatch.setattr(canonical, "_monomials", counting)
    nk6.frame(imm, random_chart_points(imm, 20, seed=44))
    assert calls == [20]


def test_frame_core_at_real_points_is_the_frame(dvv, geodesic):
    # frame is the chart's domain check and to_y around the core on points
    # y, which at real y returns frame's packet bit for bit
    for imm in (dvv, geodesic, _with_fields(dvv)):
        q = random_chart_points(imm, 33, seed=4)
        want = nk6.frame(imm, q)
        got = geometry._frame_at(imm, imm.chart.to_y(q))
        for name in ("y", "e", "estar", "metric", "field_comps"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == float and np.array_equal(a, b)
        for name in ("value", "d1", "d2"):
            assert np.array_equal(getattr(got.jet, name), getattr(want.jet, name))
        assert got.table is want.table


def test_poly_model_frame_is_gram_schmidt_on_the_fields(dvv, tmp_path):
    # a poly: file gives no field scales; its rows diag(1, 1, 1) give the
    # frame that Gram-Schmidt on the fields X_f themselves gives, bit for bit
    path = tmp_path / "berger.txt"
    path.write_text("".join(f"{c + 1} {' '.join(map(str, e))} {w!r}\n" for c, e, w in dvv.terms))
    imm = models.resolve_model(f"poly:{path}", dvv.table)
    q = random_chart_points(imm, 33, seed=5)
    pk = nk6.frame(imm, q)
    jt = imm.jet(imm.chart.to_y(q), 2)
    d1, metric = geometry._metric(jt.d1)
    comps = geometry._gram_schmidt(np.broadcast_to(np.eye(3)[..., None], metric.shape), metric)
    e = geometry._node_first(np.einsum("ian,acn->icn", comps, d1), (33,))
    assert np.array_equal(pk.field_comps, geometry._node_first(comps, (33,)))
    assert np.array_equal(pk.e, e)
    assert np.array_equal(pk.estar, nk6.cross(jt.value[..., None, :], e, imm.table))


def test_only_nabla_h_reads_the_christoffel_symbols():
    # verify's derivative oracles, nabla_h_ambient and the Laplacian's |h|^2
    # field, must share no connection coefficient with the nabla_h they check
    class References(ast.NodeVisitor):
        def __init__(self, module):
            self.scope, self.found = [module], set()

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Name(self, node):
            if node.id == "_connection":
                self.found.add(".".join(self.scope))

        def visit_Attribute(self, node):
            if node.attr == "_connection":
                self.found.add(".".join(self.scope))
            self.generic_visit(node)

        def visit_Constant(self, node):
            if node.value == "_connection":
                self.found.add(".".join(self.scope))

    found = set()
    for path in sorted(Path(nk6.__file__).parent.glob("*.py")):
        refs = References(path.stem)
        refs.visit(ast.parse(path.read_text()))
        found |= refs.found
    assert found == {"geometry.nabla_h"}


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


def test_nabla_h_matches_ambient_field_oracle(dvv, geodesic):
    # independent route: differentiate the R^7-valued field h(e_i, e_j) =
    # sum_l h[l,i,j] Je_l directly, project onto the normal space, and remove
    # the tangential-connection terms; no normal-connection bookkeeping at all.
    # On the kernel tests' four frames, the rotated one's C not diagonal, at
    # a generic point and both chart poles; by central differences along the
    # flows of X_a, and by verify's complex step along V_m to roundoff.
    q = np.concatenate([[[0.66, 2.1, 0.8]], POLES])
    step = 2e-5
    for imm in _models(dvv, geodesic):
        pk = nk6.frame(imm, q)
        sff = nk6.second_fundamental_form(imm, q, frame_packet=pk)
        nh = nk6.nabla_h(imm, q)
        assert cli._nabla_h_ambient_residual(imm, pk, sff, nh) < 1e-13

        def packet_at(y):
            p = nk6.frame(imm, imm.chart.from_y(y), validate=False)
            return p, nk6.second_fundamental_form(imm, None, frame_packet=p)

        oracle = np.zeros(nh.coeffs.shape)
        for m in range(3):
            cm = pk.field_comps[:, m]
            dH = np.zeros((len(q), 3, 3, 7))
            de = np.zeros((len(q), 3, 7))
            for a in range(3):
                # the flow of X_a through y, at times +-step
                move = np.sin(step) * pk.y @ models.FIELD_MATS[a].T
                pp, sp = packet_at(np.cos(step) * pk.y + move)
                pmk, sm = packet_at(np.cos(step) * pk.y - move)
                dH += cm[:, a, None, None, None] * (
                    np.einsum("nlij,nlc->nijc", sp.h, pp.estar)
                    - np.einsum("nlij,nlc->nijc", sm.h, pmk.estar)) / (2 * step)
                de += cm[:, a, None, None] * (pp.e - pmk.e) / (2 * step)
            proj = np.einsum("nijc,nkc->nkij", dH, pk.estar)
            gamma = np.einsum("nic,njc->nij", de, pk.e)
            corr = (np.einsum("nil,nklj->nkij", gamma, sff.h)
                    + np.einsum("njl,nkil->nkij", gamma, sff.h))
            oracle[..., m] = proj - corr
        assert np.max(np.abs(oracle - nh.coeffs)) < 1e-7, imm.name


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
    g12 = nk6.g_tensor(pk.jet.value, pk.e[..., 0, :], pk.e[..., 1, :], table, check=False)
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


def _hsq_field(imm):
    """|h|^2 as a field of points y, real or complex: the sum of h^2 from
    the frame at y, as the Laplacian identity check builds it."""
    def field(yy):
        pk = geometry._frame_at(imm, yy)
        return nk6.second_fundamental_form(imm, yy, frame_packet=pk).norm_sq()
    return field


def test_laplace_beltrami_hsq_field(dvv):
    # the holomorphic |h|^2 is constant 25/8 on the Berger sphere
    q = np.array([0.75, 2.0, 0.9])
    field = _hsq_field(dvv)
    assert abs(float(field(dvv.chart.to_y(q))) - 25 / 8) < 1e-13
    assert abs(float(nk6.laplace_beltrami(dvv, field, q))) < 1e-10


def test_laplace_beltrami_round_sphere_eigenfunction(geodesic):
    # coordinate functions of the round three-sphere have eigenvalue -3
    pts = random_chart_points(geodesic, 10, seed=14, margin=0.2)
    for a in range(4):
        field = lambda yy: yy[..., a]  # noqa: E731
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

    def field(yy):
        shapes.append(np.shape(yy))
        return yy[..., 0]

    lap = nk6.laplace_beltrami(counted_dvv, field, q)
    # three circles of 16 complex nodes around each point, in one call
    assert shapes == [(3, 16, 4, 4)]
    assert counted_dvv.jet_calls == [(2, 4)]
    pk = nk6.frame(counted_dvv, q, validate=False)
    counted_dvv.jet_calls.clear()
    assert np.array_equal(nk6.laplace_beltrami(counted_dvv, field, q, frame_packet=pk), lap)
    assert counted_dvv.jet_calls == []
    # Lap y_0 = g^{ab} (X_b X_a - Gamma^d_ab X_d) y_0, with X_f y = M_f y
    ginv = np.linalg.inv(pk.metric)
    d1t = np.swapaxes(pk.jet.d1, -1, -2)
    # gamma[..., a, b, d] = Gamma^d_ab = g^{de} <X_b X_a Psi, X_e Psi>
    gamma = (pk.jet.d2 @ d1t[..., None, :, :]) @ ginv[..., None, :, :]
    xy = np.einsum("fab,...b->...fa", models.FIELD_MATS, pk.y)[..., 0]
    xxy = np.einsum("fab,gbc,...c->...gfa", models.FIELD_MATS, models.FIELD_MATS, pk.y)[..., 0]
    want = np.einsum("...ab,...ab->...", ginv, xxy - np.einsum("...abd,...d->...ab", gamma, xy))
    assert np.max(np.abs(lap - want)) < 1e-11 * np.max(np.abs(want))


def test_closed_form_determinant_matches_numpy():
    # Gram matrices, as metrics are, and complex perturbations of them, as on
    # the Laplacian's complex circle points, on the node-last layout (3, 3, ...)
    rng = np.random.default_rng(17)
    d1 = rng.normal(size=(64, 3, 7))
    real = d1 @ np.swapaxes(d1, -1, -2)
    complex_ = real + 0.3j * rng.normal(size=real.shape)
    for m in (real, complex_, real[0]):
        det = geometry._det3(np.moveaxis(m, (-2, -1), (0, 1)))
        assert det.shape == m.shape[:-2]
        assert np.max(np.abs(det / np.linalg.det(m) - 1.0)) < 1e-13


def test_laplacian_of_the_immersion_is_minus_three_times_it(dvv, geodesic):
    # Takahashi (J. Math. Soc. Japan 18, 1966): a minimal immersion into the
    # unit six-sphere has Lap Psi = -3 Psi, at the chart's poles too
    poles = np.array([[0.0, 0.7, 1.3], [np.pi / 2, 2.0, 0.4]])
    for imm in (dvv, geodesic):
        q = np.concatenate([random_chart_points(imm, 50, seed=15, margin=0.0), poles])
        pk = nk6.frame(imm, q)
        for a in range(7):
            lap = nk6.laplace_beltrami(imm, lambda yy: imm.jet(yy, 0).value[..., a], q,
                                       frame_packet=pk)
            assert np.max(np.abs(lap + 3 * pk.jet.value[..., a])) < 1e-12


@pytest.mark.parametrize("field", [
    lambda yy: np.real(yy[..., 0]) ** 2,     # drops the imaginary part
    # a pole inside the circles: y_0 = cos(0.75) cos(2.0) at the point
    lambda yy: 1.0 / (yy[..., 0] - np.cos(0.75) * np.cos(2.0) - 0.01),
], ids=["not-holomorphic", "pole"])
def test_laplace_beltrami_refuses_a_field_it_cannot_differentiate(dvv, field):
    with pytest.raises(nk6.ChartDegeneracyError, match="not holomorphic"):
        nk6.laplace_beltrami(dvv, field, np.array([0.75, 2.0, 0.9]))


def test_sff_matches_the_einsum_form(dvv):
    q = random_chart_points(dvv, 64, seed=11)
    pk = nk6.frame(dvv, q)
    proj = np.einsum("...abc,...kc->...abk", pk.jet.d2, pk.estar)
    want = np.einsum("...ia,...jb,...abk->...kij", pk.field_comps, pk.field_comps, proj)
    got = nk6.second_fundamental_form(dvv, q, frame_packet=pk).h
    assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))
