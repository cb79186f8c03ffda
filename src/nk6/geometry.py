"""Immersion framework for Lagrangian three-manifolds in the six-sphere.

Everything here is pointwise and batched: chart points have shape (..., 3),
points of S^3 (..., 4), and every derived quantity carries the same leading
batch shape.  Immersion handles (see `models`) supply exact jets up to order
3 along the invariant fields X_f y = FIELD_MATS[f] y of S^3, which vanish
nowhere, so the geometry has no chart poles.  Covariant derivatives come
from one jet at the points themselves, along the fields V_i = C_i.X equal
to the frame vectors e_i there, so h, nabla h and the metric terms of the
Laplacian are exact to roundoff.  Values alone are differentiated by
Cauchy's integral formula on complex circles of the flows exp(z c.M) y: the
immersion's in `fd_jet`, an independent oracle, and the scalar field handed
to `laplace_beltrami`, which must therefore take complex points y.  The
frame, and the h built from it, are built on points y of S^3, real or
complex (`_frame_at`; `frame` maps chart points to y first): with no
conjugate anywhere they continue holomorphically, which gives the Laplacian
its field |h|^2 and `verify` a complex-step derivative of h and the frame,
neither through the connection that `nabla_h` uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import canonical
from .cayley import MulTable, cross

__all__ = [
    "ChartDegeneracyError",
    "ImmersionJet",
    "FramePacket",
    "SFF",
    "NablaH",
    "CurvaturePacket",
    "fd_jet",
    "frame",
    "second_fundamental_form",
    "shape_operator",
    "nabla_h",
    "curvature",
    "curvature_from_sff",
    "sectional_curvature",
    "laplace_beltrami",
]


class ChartDegeneracyError(RuntimeError):
    """A rank-deficient tangent frame, or a field that the Cauchy circles
    cannot differentiate."""


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

# The invariant fields X_f y = FIELD_MATS[f] y on S^3, orthonormal for the
# round metric, with [X_a, X_b] = 2 eps_abc X_c; each M_f squares to -I.
FIELD_MATS = np.array(
    [
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    ],
    dtype=float,
)

# the Levi-Civita symbol, EPS[0, 1, 2] = 1
EPS = np.zeros((3, 3, 3))
EPS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
EPS[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0


@dataclass(frozen=True)
class ImmersionJet:
    """Value and ordered derivatives of an immersion along the fields X_f:
    d1[a] = X_a Psi, d2[a, b] = X_b X_a Psi, d3[a, b, c] = X_c X_b X_a Psi.

    The fields do not commute, so neither do the indices:
    d2[a, b] - d2[b, a] = 2 eps_bac d1[c], and likewise one order up
    (`commutator_residual`)."""

    order: int
    value: np.ndarray                 # (..., 7)
    d1: np.ndarray | None = None      # (..., 3, 7)
    d2: np.ndarray | None = None      # (..., 3, 3, 7)
    d3: np.ndarray | None = None      # (..., 3, 3, 3, 7)

    def unit_image_residual(self):
        return float(np.max(np.abs(np.sum(self.value**2, axis=-1) - 1.0)))

    def commutator_residual(self):
        """Worst deviation of a jet of order >= 2 from [X_b, X_a] = 2 eps_bac X_c:
        d2[a, b] - d2[b, a] = 2 eps_bac d1[c], and at order 3
        d3[a, b, c] - d3[b, a, c] = 2 eps_bae d2[e, c] and
        d3[a, b, c] - d3[a, c, b] = 2 eps_cbe d2[a, e]."""
        d1, d2, d3 = self.d1, self.d2, self.d3
        res = [d2 - np.swapaxes(d2, -2, -3) - 2 * np.einsum("bac,...cx->...abx", EPS, d1)]
        if self.order == 3:
            res.append(d3 - np.swapaxes(d3, -3, -4)
                       - 2 * np.einsum("bae,...ecx->...abcx", EPS, d2))
            res.append(d3 - np.swapaxes(d3, -2, -3)
                       - 2 * np.einsum("cbe,...aex->...abcx", EPS, d2))
        return float(max(np.max(np.abs(r)) for r in res))


def _symmetrized(block, k):
    """The mean of an order-k derivative block (..., 3, ..., 3, 7) over the
    orders of its k indices."""
    lead = block.ndim - 1 - k
    perms = list(itertools.permutations(range(lead, lead + k)))
    return sum(np.transpose(block, (*range(lead), *p, lead + k)) for p in perms) / len(perms)


def _flow(y, c, z):
    """Points exp(z c.M) y = cos(z |c|) y + sin(z |c|) / |c| (c.M) y on the
    flows of the fields c.X = sum_f c_f X_f through the points y (..., 4),
    for nonzero coefficient rows c (m, ..., 3) and flow times z (nodes,),
    real or complex: shape (m, nodes) + y.shape."""
    norm = np.sqrt(np.sum(c * c, axis=-1))[..., None]
    move = np.einsum("...f,fab,...b->...a", c, FIELD_MATS, y) / norm
    zr = np.reshape(z, (1, -1) + (1,) * y.ndim) * norm[:, None]
    return np.cos(zr) * y + np.sin(zr) * move[:, None]


def _roots(nodes, radius):
    """`nodes` roots of unity times `radius`."""
    return radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)


# fd_jet samples circles of radius _CAUCHY_RADIUS at _CAUCHY_NODES roots of
# unity on the flows through each point of the fields v.X, for the unit
# directions v = e_i, e_i +- e_j (i < j) and e_1 + e_2 + e_3
_CAUCHY_NODES = 24
_CAUCHY_RADIUS = 0.5
_CAUCHY_DIRECTIONS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1],
     [0, 1, 1], [0, 1, -1], [1, 1, 1]], dtype=float)
_CAUCHY_DIRECTIONS /= np.linalg.norm(_CAUCHY_DIRECTIONS, axis=1, keepdims=True)


@lru_cache(maxsize=None)
def _cauchy_maps():
    """Per order k = 1..3, the fixed map (3**k, 10) from the circle
    coefficients (v.X)^k Psi / k! of the ten directions v to the flattened
    symmetrized derivatives of order k.

    Each direction gives one equation sum_{|alpha|=k} v^alpha/alpha!
    S^alpha = (v.X)^k Psi / k! in the symmetrized derivatives S, which the
    pseudo-inverse solves (condition numbers 1.2, 1.6 and 3.4) and
    canonical._fold fans out to every index order.
    """
    maps = []
    for k in (1, 2, 3):
        exps = np.array(canonical._exponents(k))
        factorials = np.prod([[math.factorial(e) for e in row] for row in exps], axis=-1)
        system = canonical._monomials(_CAUCHY_DIRECTIONS, exps) / factorials
        maps.append(canonical._fold(k) @ np.linalg.pinv(system))
    return maps


def fd_jet(imm, q, order: int) -> ImmersionJet:
    """Symmetrized jet from immersion *values* only, by Cauchy's integral
    formula, at the points q = y of S^3.

    Independent oracle for the analytic jets.  On each of ten fixed unit
    directions v, the flow of v.X is entire in its time z, and so is
    z -> Psi(exp(z v.M) y); it is sampled on a circle of roots of unity in
    the complex z-plane, and one FFT along the circle returns its Taylor
    coefficients (v.X)^k Psi / k! with no truncation term, only aliasing
    from orders >= _CAUCHY_NODES and roundoff of about eps max|Psi| k!/r^k
    times the condition number of _cauchy_maps (Lyness and Moler, SIAM J.
    Numer. Anal. 4, 1967).  These pin the ordered derivatives' means over
    index orders (`_symmetrized`).  The centres and every circle go through
    one order-0 jet call, so the oracle never reads the analytic derivative
    blocks.
    """
    if not 0 <= order <= 3:
        raise ValueError("jet order must be in 0..3")
    y = np.asarray(q, dtype=float)
    batch, flat = y.shape[:-1], y.reshape(-1, 4)
    circles = _flow(flat, _CAUCHY_DIRECTIONS[:, None, :],
                    _roots(_CAUCHY_NODES, _CAUCHY_RADIUS))
    vals = imm.jet(np.concatenate([flat, circles.reshape(-1, 4)]), 0).value
    # coef[v, k] / (N r^k) = (v.X)^k Psi / k! on the circle along direction v
    coef = np.fft.fft(vals[len(flat):].reshape(circles.shape[:-1] + (7,)), axis=1)
    blocks = []
    for k, mapping in zip(range(1, order + 1), _cauchy_maps()):
        taylor = coef[:, k].real / (_CAUCHY_NODES * _CAUCHY_RADIUS**k)
        block = np.tensordot(mapping, taylor, axes=(1, 0))  # (3**k, n, 7)
        blocks.append(np.moveaxis(block, 0, 1).reshape(batch + (3,) * k + (7,)))
    return ImmersionJet(order, vals[:len(flat)].real.reshape(batch + (7,)),
                        *blocks, *[None] * (3 - order))


# ---------------------------------------------------------------------------
# adapted frames
# ---------------------------------------------------------------------------

def _node_last(a, k):
    """The view (t_1, ..., t_k, n) of an array a (..., t_1, ..., t_k) with
    its batch flattened to the last axis n.  Packets built here hold views
    of node-last buffers, so this gives back the contiguous buffer."""
    a = np.asarray(a)
    return a.reshape((-1,) + a.shape[a.ndim - k:]).transpose((*range(1, k + 1), 0))


def _node_first(a, batch):
    """The view batch + (t_1, ..., t_k) of a node-last array (t_1, ..., t_k, n)."""
    return a.transpose((a.ndim - 1, *range(a.ndim - 1))).reshape(batch + a.shape[:-1])


def _pairings(a, b):
    """<a_i, b_j> (m, p, n) of node-last vector lists a (m, d, n) and
    b (p, d, n).  The node axis is innermost, so each product and sum runs
    over whole rows of nodes."""
    return np.einsum("icn,jcn->ijn", a, b)


def _det3(m):
    """Determinant of 3 x 3 matrices (3, 3, ...), real or complex: column 0
    against the cross product of columns 1 and 2, which is row 0 of the
    adjugate."""
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[2, 1] * m[1, 2])
            + m[1, 0] * (m[2, 1] * m[0, 2] - m[0, 1] * m[2, 2])
            + m[2, 0] * (m[0, 1] * m[1, 2] - m[1, 1] * m[0, 2]))


def _metric(d1):
    """The node-last copy (3, 7, n) of jet derivatives d1 (..., 3, 7) and
    the induced metric G_ab = <X_a Psi, X_b Psi> (3, 3, n) from it."""
    d1 = np.ascontiguousarray(_node_last(d1, 2))
    return d1, _pairings(d1, d1)


@dataclass(frozen=True)
class FramePacket:
    """Point, adapted orthonormal frames and induced metric data.

    e[..., i, :] spans the tangent space of the submanifold, estar_i = J e_i
    spans its normal space inside the sphere, and field_comps expresses each
    e_i in the invariant fields: e = field_comps @ jet.d1, and
    field_comps @ metric @ field_comps^T = I with metric the Gram matrix
    G_ab = <X_a Psi, X_b Psi>.  `jet` is the order-2 jet at y the frame was
    built from, so the second fundamental form reuses it, and its value is
    the point Psi(y) of the six-sphere.  `frame` stores e, estar, metric and
    field_comps as views of node-last buffers (`_node_last`).
    """

    y: np.ndarray                     # (..., 4) the point of S^3
    e: np.ndarray                     # (..., 3, 7)
    estar: np.ndarray                 # (..., 3, 7)
    metric: np.ndarray                # (..., 3, 3) induced metric in the X basis
    field_comps: np.ndarray           # (..., 3, 3) rows: e_i in the X basis
    jet: ImmersionJet = field(repr=False)
    table: MulTable = field(repr=False, default=None)

    def orthonormality_residual(self):
        e = _node_last(self.e, 2)
        return float(np.max(np.abs(_pairings(e, e) - np.eye(3)[..., None])))

    def lagrangian_residual(self):
        return float(np.max(np.abs(_pairings(_node_last(self.estar, 2), _node_last(self.e, 2)))))

    def validate(self, model="frame"):
        """Worst invariant residual; raises ValueError beyond 1e-10 or on a
        NaN, naming `model` and the table when the Lagrangian condition is
        what fails."""
        tol = 1e-10
        lagrangian = self.lagrangian_residual()
        if not lagrangian <= tol:
            raise ValueError(f"{model} is not Lagrangian for table {self.table.source} "
                             f"(residual {lagrangian:.3e})")
        base_tangency = float(np.max(np.abs(
            _pairings(_node_last(self.e, 2), _node_last(self.jet.value, 1)[None]))))
        # np.max, unlike max, returns a NaN wherever it stands
        worst = float(np.max([self.orthonormality_residual(), lagrangian, base_tangency]))
        if not worst <= tol:
            raise ValueError(
                f"frame violates adapted-frame invariants: residual {worst:.3e} > {tol:g}"
            )
        return worst


def _gram_schmidt(rows, metric):
    """T (3, 3, n) with T G T^T = I, node-last: modified Gram-Schmidt of
    the rows of `rows` (3, 3, n) in the inner product <u, v> = u G v^T of
    the induced metric G (3, 3, n), so the vectors T @ d1 are orthonormal in
    R^7 and span what rows @ d1 spans.  The products are bilinear, with no
    conjugate, so at complex points T is the holomorphic continuation."""
    out = []
    for i in range(3):
        v = rows[i]
        for t, gt in out:
            v = v - (v * gt).sum(axis=0) * t
        gv = np.einsum("abn,bn->an", metric, v)
        # |v @ d1|^2 in R^7; compared squared, so roundoff below 0 cannot
        # reach the square root.  At complex points its real part is
        # compared, and the principal root continues the real one.
        nsq = (v * gv).sum(axis=0)
        if np.any(nsq.real < 1e-16):
            raise ChartDegeneracyError(
                "tangent frame is rank deficient; cannot orthonormalize")
        n = np.sqrt(nsq)
        out.append((v / n, gv / n))
    return np.stack([t for t, _ in out])


def frame(imm, q, validate=True) -> FramePacket:
    """Adapted frame and induced metric at the chart points q, with the
    order-2 jet at y = to_y(q) they come from.

    The rows to orthonormalize are the model's frame in the X basis
    (`imm.tangent_fields`).  Gram-Schmidt on them in G = d1 d1^T gives the
    X-basis components T of the frame, and e = T @ d1.  Points outside the
    chart's domain raise ValueError; a map that is not immersed raises
    ChartDegeneracyError.
    """
    q = np.asarray(q, dtype=float)
    imm.chart.check_domain(q)
    packet = _frame_at(imm, imm.chart.to_y(q))
    if validate:
        packet.validate(model=f"model {imm.name}")
    return packet


def _frame_at(imm, y):
    """The frame packet of `frame` at points y of S^3, real or complex, from
    the model's tangent-field rows at y.

    Every step is a polynomial in the jet but for the square roots of
    `_gram_schmidt`, so at complex y the packet is the holomorphic
    continuation of the real frame, and so is the h that
    second_fundamental_form builds from it.  The work runs node-last: d1 is
    transposed once to (3, 7, n), and every 3 x 3 and 3 x 7 product is a
    sum of whole rows of nodes.
    """
    batch = y.shape[:-1]
    jt = imm.jet(y, 2)
    d1, metric = _metric(jt.d1)
    field_comps = _gram_schmidt(_node_last(imm.tangent_fields(y), 2), metric)
    e = _node_first(np.einsum("ian,acn->icn", field_comps, d1), batch)
    del d1  # the transposed copy goes before the cross product's temporaries
    estar = np.ascontiguousarray(_node_last(cross(jt.value[..., None, :], e, imm.table), 2))
    return FramePacket(
        y=y, e=e, estar=_node_first(estar, batch),
        metric=_node_first(metric, batch), field_comps=_node_first(field_comps, batch),
        jet=jt, table=imm.table,
    )


# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SFF:
    """Second-fundamental-form coefficients h[k, i, j] = <h(e_i, e_j), J e_k>."""

    h: np.ndarray  # (..., 3, 3, 3)

    def norm_sq(self):
        return np.sum(self.h**2, axis=(-3, -2, -1))

    def symmetry_residual(self):
        worst = 0.0
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            axes = tuple(range(self.h.ndim - 3)) + tuple(self.h.ndim - 3 + p for p in perm)
            worst = max(worst, float(np.max(np.abs(self.h - np.transpose(self.h, axes)))))
        return worst

    def trace_residual(self):
        return float(np.max(np.abs(np.einsum("...kii->...k", self.h))))


def second_fundamental_form(imm, q, frame_packet: FramePacket | None = None) -> SFF:
    """Normal-valued second fundamental form in the adapted frame.

    h(e_i, e_j) is the component of the ambient derivative of the immersion
    orthogonal to both the position vector and the tangent space: with
    d2[a, b] = X_b X_a Psi, <d2[a, b], J e_k> = <h(X_a, X_b), J e_k>, as the
    projection onto the J-frame drops the tangent part, the commutator
    [X_b, X_a] Psi included.  A packet from `_frame_at` at complex points
    gives the holomorphic continuation of h there.
    """
    pk = frame_packet if frame_packet is not None else frame(imm, q)
    batch = pk.jet.d2.shape[:-3]
    estar, C = _node_last(pk.estar, 2), _node_last(pk.field_comps, 2)
    # proj[a, k, b] = <d_a d_b Psi, J e_k>, node-last; d2 is transposed one
    # index a at a time, which keeps the copy to a third of the block's d2
    d2 = _node_last(pk.jet.d2, 3)
    proj = np.empty((3, 3, 3, estar.shape[-1]), dtype=estar.dtype)
    for a in range(3):
        proj[a] = _pairings(estar, np.ascontiguousarray(d2[a]))
    # h_k = C proj_k C^T, the second product into proj's buffer
    h = np.einsum("kibn,jbn->kijn", np.einsum("ian,akbn->kibn", C, proj), C, out=proj)
    return SFF(h=_node_first(h, batch))


def shape_operator(sff: SFF, k: int):
    """Matrix of the shape operator for the normal direction J e_k."""
    return sff.h[..., k, :, :]


# ---------------------------------------------------------------------------
# covariant derivative of h
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NablaH:
    """First covariant derivative coefficients nh[k, i, j, m] = h^{k*}_{ij,m}."""

    coeffs: np.ndarray  # (..., 3, 3, 3, 3)

    def norm_sq(self):
        return np.sum(self.coeffs**2, axis=(-4, -3, -2, -1))

    def codazzi_residual(self):
        swapped = np.swapaxes(self.coeffs, -1, -2)
        return float(np.max(np.abs(self.coeffs - swapped)))


def _connection(pk: FramePacket, d2):
    """Gamma[..., p, i, j] = <V_j V_i Psi, e_p> and h[..., k, i, j] =
    <V_j V_i Psi, J e_k> from the jet block d2[a, b] = X_b X_a Psi, along
    the fields V_i = C_i.X with C the packet's field_comps frozen at its
    points.  V_i Psi = e_i is orthonormal there, so Gamma[:, i, j] are the
    components of nabla_{V_j} V_i, the tangential part of V_j V_i Psi, and
    no metric is inverted.  The fields do not commute, so
    Gamma[p, i, j] - Gamma[p, j, i] = <[V_j, V_i] Psi, e_p>."""
    batch, C = d2.shape[:-3], pk.field_comps
    # <X_b X_a Psi, (e, J e)_s>, carried by C on b, then on a
    proj = np.concatenate([pk.e, pk.estar], axis=-2) @ np.swapaxes(
        d2.reshape(batch + (9, 7)), -1, -2)
    proj = (proj.reshape(batch + (18, 3)) @ np.swapaxes(C, -1, -2)).reshape(batch + (6, 3, 3))
    both = C[..., None, :, :] @ proj
    return both[..., :3, :, :], both[..., 3:, :, :]


def nabla_h(imm, q, frame_packet: FramePacket | None = None) -> NablaH:
    """Covariant derivative of h from one order-3 jet at the chart points q.

    Along the fields V_i = C_i.X, equal to e_i at q, with Gamma and h from
    `_connection` and sums over p,

        nh[k, i, j, m] = <V_m V_j V_i Psi, J e_k> - Gamma[p, i, j] h[k, p, m]
                         - Gamma[p, i, m] h[k, p, j] - Gamma[p, j, m] h[k, i, p].

    The first two terms are V_m of the R^7-valued field h(V_i, V_j) =
    V_j V_i Psi - Gamma[p, i, j] V_p Psi + <V_i Psi, V_j Psi> Psi paired
    with J e_k at q, so neither the frame's derivative nor the normal
    connection enters; the last two are h(nabla_{V_m} V_i, V_j) and
    h(V_i, nabla_{V_m} V_j), written out since Gamma is not symmetric.
    `frame_packet`, when given, is the frame at q, as for
    second_fundamental_form.
    """
    pk = frame_packet if frame_packet is not None else frame(imm, q, validate=False)
    jt = imm.jet(pk.y, 3)
    gamma, h = _connection(pk, jt.d2)
    batch, C = pk.y.shape[:-1], pk.field_comps
    # <X_c X_b X_a Psi, J e_k>, carried by C on c, then on b and a
    third = pk.estar @ np.swapaxes(jt.d3.reshape(batch + (27, 7)), -1, -2)
    third = (third.reshape(batch + (27, 3)) @ np.swapaxes(C, -1, -2)).reshape(batch + (3, 3, 3, 3))
    third = C[..., None, :, :] @ (C[..., None, None, :, :] @ third).reshape(batch + (3, 3, 9))
    # x[k, i, j, m] = Gamma[p, i, j] h[k, p, m]; the other two connection
    # terms are x[k, i, m, j] and x[k, j, m, i]
    x = (np.moveaxis(gamma, -3, -1).reshape(batch + (1, 9, 3)) @ h).reshape(batch + (3, 3, 3, 3))
    return NablaH(coeffs=third.reshape(x.shape) - x - np.einsum("...kimj->...kijm", x)
                  - np.einsum("...kjmi->...kijm", x))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvaturePacket:
    """Gauss-equation curvature data in the adapted frame.

    `ricci` contracts the Gauss equation directly (2 delta - sum H_p^2 for a
    minimal Lagrangian), consistent with tau = 6 - |h|^2.
    """

    R: np.ndarray                      # (..., 3, 3, 3, 3)
    ricci: np.ndarray                  # (..., 3, 3)
    tau: np.ndarray                    # (...,) scalar curvature (= 2 sum_{i<j} K_ij)
    tau_from_h: np.ndarray             # (...,) 6 - |h|^2
    hsq: np.ndarray

    def gauss_scalar_residual(self):
        return float(np.max(np.abs(self.tau - self.tau_from_h)))

    def ricci_eigenvalues(self):
        return np.linalg.eigvalsh(self.ricci)

    def sectional_range(self):
        """Exact pointwise sectional extremes: on a 3-manifold the curvature
        of the plane normal to n is tau/2 - Ric(n, n)."""
        eigs = self.ricci_eigenvalues()
        return self.tau / 2 - eigs[..., -1], self.tau / 2 - eigs[..., 0]


def curvature_from_sff(sff: SFF) -> CurvaturePacket:
    h = sff.h
    eye = np.eye(3)
    hh = np.einsum("...pik,...pjl->...ijkl", h, h)
    R = (
        np.einsum("ik,jl->ijkl", eye, eye)
        - np.einsum("il,jk->ijkl", eye, eye)
        + hh
        - np.swapaxes(hh, -1, -2)
    )
    square = np.einsum("...pik,...pkj->...ij", h, h)
    ricci = 2.0 * eye - square
    tau = np.einsum("...ii->...", ricci)
    hsq = sff.norm_sq()
    return CurvaturePacket(
        R=R,
        ricci=ricci,
        tau=tau,
        tau_from_h=6.0 - hsq,
        hsq=hsq,
    )


def curvature(imm, q) -> CurvaturePacket:
    return curvature_from_sff(second_fundamental_form(imm, q))


def sectional_curvature(packet: CurvaturePacket, u, v):
    """Sectional curvature of the plane spanned by frame-component vectors u, v."""
    num = np.einsum("...ijkl,...i,...j,...k,...l->...", packet.R, u, v, u, v)
    uu = np.sum(u * u, axis=-1)
    vv = np.sum(v * v, axis=-1)
    uv = np.sum(u * v, axis=-1)
    return num / (uu * vv - uv**2)


# ---------------------------------------------------------------------------
# Laplace-Beltrami operator on scalar fields of S^3
# ---------------------------------------------------------------------------

# Laplacian circles: nodes, radius in frame units, top Taylor term limit
_LAPLACE_NODES, _LAPLACE_RADIUS, _LAPLACE_TAIL = 16, 0.1875, 1e-11


def laplace_beltrami(imm, scalar_field, q, frame_packet: FramePacket | None = None):
    """Laplacian at the chart points q of a scalar field of y, by Cauchy's
    integral formula.

    The field, holomorphic near y, is called once, on circles of the flows
    z -> exp(z C_i.M) y of the fields V_i = C_i.X, which equal e_i at y; the
    FFT along circle i gives c1_i = V_i f and c2_i = V_i V_i f / 2.  As
    sum_i C_ia C_ib = g^{ab}, Lap f = sum_i 2 c2_i - (sum_i nabla_{V_i} V_i) f
    = sum_i 2 c2_i - <tau, e_i> c1_i with tau = sum_i V_i V_i Psi.  A field
    that is not holomorphic, or is singular inside a circle, makes the top
    coefficients, which bound the aliasing error, O(1):
    ChartDegeneracyError.  `frame_packet` is the frame at q, as for
    second_fundamental_form.
    """
    pk = frame_packet if frame_packet is not None else frame(imm, q, validate=False)
    C, n, r = pk.field_comps, _LAPLACE_NODES, _LAPLACE_RADIUS
    # coef[i, k] = c_k r^k on the circle along e_i, shape (3, n) + batch
    circles = _flow(pk.y, np.moveaxis(C, -2, 0), _roots(n, r))
    coef = np.fft.fft(scalar_field(circles), axis=1) / n
    tail = np.max(np.abs(coef[:, -2:]), axis=(0, 1)) / np.maximum(1.0, np.abs(coef[0, 0]))
    if not np.all(tail <= _LAPLACE_TAIL):
        raise ChartDegeneracyError(
            f"scalar field is not holomorphic on the Cauchy circles: top Taylor "
            f"term {np.max(tail):.3e} of max(1, |f|) > {_LAPLACE_TAIL:g}")
    drift = np.einsum("...ka,...kb,...abc,...ic->i...", C, C, pk.jet.d2, pk.e)  # <tau, e_i>
    return np.sum(2 * coef[:, 2] / r**2 - drift * coef[:, 1] / r, axis=0).real
