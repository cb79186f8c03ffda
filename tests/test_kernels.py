"""The node-last frame, h and volume-density kernels against the node-first
formulas they replaced: the einsum metric, np.linalg.det, the cross product
on the node-first frame and h_k = C proj_k C^T by stacked matmuls."""

from dataclasses import replace

import numpy as np
import pytest

import nk6
from nk6 import cayley, geometry, simons
from conftest import random_chart_points

SHAPES = [(), (1,), (5,), (2, 3)]
POLES = np.array([[0.0, 0.4, 2.2], [np.pi / 2, 5.1, 1.3]])


def reference_frame(imm, q):
    """(metric, field_comps, e, estar) at the chart points q, node-first."""
    y = imm.chart.to_y(np.asarray(q, dtype=float))
    jt = imm.jet(y, 2)
    metric = np.einsum("...ac,...bc->...ab", jt.d1, jt.d1)
    rows = imm.tangent_fields(y)
    out = []
    for i in range(3):
        v = rows[..., i, :]
        for t, gt in out:
            v = v - np.sum(v * gt, axis=-1, keepdims=True) * t
        gv = (metric @ v[..., None])[..., 0]
        n = np.sqrt(np.sum(v * gv, axis=-1, keepdims=True))
        out.append((v / n, gv / n))
    comps = np.stack([t for t, _ in out], axis=-2)
    e = comps @ jt.d1
    return metric, comps, e, cayley.cross(jt.value[..., None, :], e, imm.table)


def reference_h(comps, estar, d2):
    batch = d2.shape[:-3]
    proj = (estar @ np.swapaxes(d2.reshape(batch + (9, 7)), -1, -2)).reshape(batch + (3, 3, 3))
    C = comps[..., None, :, :]
    return C @ proj @ np.swapaxes(C, -1, -2)


def reference_density(q, metric):
    return np.sqrt(np.linalg.det(metric)) * np.sin(q[..., 0]) * np.cos(q[..., 0])


def _models(dvv, geodesic):
    """The model fields of both; the fields X_f of DVV without its scales;
    and rotated fields, whose components C are not diagonal, as those of
    the others are."""
    unscaled = nk6.PolynomialSphereImmersion("unscaled", dvv.terms, dvv.table)
    rotated = nk6.PolynomialSphereImmersion("rotated", dvv.terms, dvv.table)
    R = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))[0]
    rotated.tangent_fields = lambda q: np.broadcast_to(R, np.shape(q)[:-1] + (3, 3))
    return [dvv, geodesic, unscaled, rotated]


def _points(imm, shape, seed):
    """Random chart points of batch `shape`, with both poles in the batches
    that have room for them."""
    n = int(np.prod(shape))
    q = random_chart_points(imm, n, seed=seed)
    if n >= 5:
        q[-2:] = POLES
    return q.reshape(shape + (3,))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_frame_sff_and_density_match_the_node_first_formulas(dvv, geodesic, shape):
    for seed, imm in enumerate(_models(dvv, geodesic)):
        q = _points(imm, shape, seed)
        pk = nk6.frame(imm, q)
        sff = nk6.second_fundamental_form(imm, q, frame_packet=pk)
        dens = simons._density(q, geometry._node_last(pk.metric, 2))
        metric, comps, e, estar = reference_frame(imm, q)
        for name, got, want in (("metric", pk.metric, metric), ("field_comps", pk.field_comps, comps),
                                ("e", pk.e, e), ("estar", pk.estar, estar),
                                ("h", sff.h, reference_h(comps, estar, pk.jet.d2)),
                                ("density", dens, reference_density(q, metric))):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) < 1e-14, name
        assert pk.jet.value.shape == shape + (7,) and pk.y.shape == shape + (4,)
        assert pk.validate() < 1e-14


@pytest.mark.parametrize("eta", [0.0, np.pi / 2])
def test_kernels_at_a_single_pole_point(dvv, geodesic, eta):
    q = np.array([eta, 0.3, 0.9])
    for imm in _models(dvv, geodesic):
        pk = nk6.frame(imm, q)
        metric, comps, e, estar = reference_frame(imm, q)
        h = nk6.second_fundamental_form(imm, q, frame_packet=pk).h
        assert h.shape == (3, 3, 3)
        assert np.max(np.abs(h - reference_h(comps, estar, pk.jet.d2))) < 1e-14
        # sin(eta) cos(eta) is 0 at both poles, to roundoff at pi/2
        assert abs(simons._density(q, geometry._node_last(pk.metric, 2))
                   - reference_density(q, metric)) < 1e-16


def test_coarse_volume_matches_the_einsum_metric(dvv, geodesic):
    rule = nk6.QuadratureRule(8, 6, 6)
    points, weights = rule.nodes_weights()
    for imm in (dvv, geodesic):
        d1 = imm.jet(imm.chart.to_y(points), 1).d1
        want = float(np.sum(weights * reference_density(
            points, np.einsum("...ac,...bc->...ab", d1, d1))))
        assert abs(simons._volume(imm, rule) - want) < 1e-14 * want


@pytest.mark.parametrize("shape", [(), (2, 3)], ids=str)
def test_each_frame_residual_fails_on_a_doctored_packet(dvv, shape):
    pk = nk6.frame(dvv, _points(dvv, shape, 7))
    e, value = pk.e.copy(), pk.jet.value.copy()
    e[..., 0, :] *= 1 + 1e-8                      # e_0 no longer a unit vector
    value[..., :] += 1e-8 * pk.e[..., 1, :]       # the point leans on e_1
    for doctored, message in ((replace(pk, e=e), "adapted-frame invariants"),
                              (replace(pk, jet=replace(pk.jet, value=value)),
                               "adapted-frame invariants"),
                              (replace(pk, estar=pk.estar + 1e-8 * pk.e), "not Lagrangian")):
        with pytest.raises(ValueError, match=message):
            doctored.validate()
