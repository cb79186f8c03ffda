"""Immersion framework for Lagrangian three-manifolds in the six-sphere.

Everything here is pointwise and batched: chart points have shape (..., 3)
and every derived quantity carries the same leading batch shape.  Immersion
handles (see `models`) supply exact chart jets up to order 3.  Covariant
derivatives come from one jet at the points themselves, through the
Christoffel symbols of the induced metric, so h, nabla h and the metric
terms of the Laplacian are exact to roundoff.  Values alone are
differentiated by Cauchy's integral formula on complex circles: the
immersion's in `fd_jet`, an independent oracle, and the scalar field handed
to `laplace_beltrami`, which must therefore take complex chart points.
"""

from __future__ import annotations

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
    "jet",
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
    """Chart-induced frame or Cauchy-circle failure; may carry the distance to the bad locus."""

    def __init__(self, message, distance=None):
        if distance is not None:
            message = f"{message} (distance to degeneracy locus: {distance:.3e})"
        super().__init__(message)
        self.distance = distance


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImmersionJet:
    """Value and symmetric mixed partials of an immersion chart at a point."""

    order: int
    value: np.ndarray                 # (..., 7)
    d1: np.ndarray | None = None      # (..., 3, 7)
    d2: np.ndarray | None = None      # (..., 3, 3, 7)
    d3: np.ndarray | None = None      # (..., 3, 3, 3, 7)

    def partial(self, alpha):
        """Mixed partial for a 3-tuple of exponents with |alpha| <= order."""
        total = sum(alpha)
        if total > self.order:
            raise ValueError(f"jet holds order {self.order}, requested {alpha}")
        if total == 0:
            return self.value
        axes = [a for a, m in enumerate(alpha) for _ in range(m)]
        block = (self.d1, self.d2, self.d3)[total - 1]
        for ax in axes:
            block = block[..., ax, :]
        return block

    def unit_image_residual(self):
        return float(np.max(np.abs(np.sum(self.value**2, axis=-1) - 1.0)))


def jet(imm, q, order: int) -> ImmersionJet:
    """Jet of the immersion at chart point(s) q, exact for built-in models."""
    if not 0 <= order <= 3:
        raise ValueError("jet order must be in 0..3")
    return imm.jet(q, order)


# fd_jet samples circles of radius _CAUCHY_RADIUS at _CAUCHY_NODES roots of
# unity around each point, along the unit directions e_i, e_i +- e_j (i < j)
# and e_1 + e_2 + e_3
_CAUCHY_NODES = 24
_CAUCHY_RADIUS = 0.5
_CAUCHY_DIRECTIONS = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1],
     [0, 1, 1], [0, 1, -1], [1, 1, 1]], dtype=float)
_CAUCHY_DIRECTIONS /= np.linalg.norm(_CAUCHY_DIRECTIONS, axis=1, keepdims=True)


def _circles(q, directions, nodes, radius):
    """Complex points q + z v, shape (m, nodes) + q.shape, for directions v
    (m, ...) and z the `nodes` roots of unity times `radius`."""
    z = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return q + directions[:, None] * z.reshape((nodes,) + (1,) * q.ndim)


@lru_cache(maxsize=None)
def _cauchy_maps():
    """Per order k = 1..3, the fixed map (3**k, 10) from the circle
    coefficients D^kP[v^k]/k! of the ten directions v to the flattened
    chart partials d_k.

    Each direction gives one equation sum_{|alpha|=k} v^alpha/alpha!
    d^alpha P = D^kP[v^k]/k! in the symmetric partials, which the
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
    """Jet from immersion *values* only, by Cauchy's integral formula.

    Independent oracle for the analytic jets.  The chart map is entire, so
    on each of ten fixed unit directions v, z -> P(q + z v) is sampled on a
    circle of roots of unity in the complex z-plane, and one FFT along the
    circle returns its Taylor coefficients D^kP[v^k]/k! with no truncation
    term, only aliasing from orders >= _CAUCHY_NODES and roundoff of about
    eps max|P| k!/r^k times the condition number of _cauchy_maps (Lyness and
    Moler, SIAM J. Numer. Anal. 4, 1967).  The centres and every circle go
    through one order-0 jet call, so the oracle never reads the analytic
    derivative blocks.
    """
    if not 0 <= order <= 3:
        raise ValueError("jet order must be in 0..3")
    q = np.asarray(q, dtype=float)
    batch, flat = q.shape[:-1], q.reshape(-1, 3)
    circles = _circles(flat, _CAUCHY_DIRECTIONS[:, None, :], _CAUCHY_NODES, _CAUCHY_RADIUS)
    vals = imm.jet(np.concatenate([flat, circles.reshape(-1, 3)]), 0).value
    # coef[v, k] / (N r^k) = D^kP[v^k]/k! on the circle along direction v
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

@dataclass(frozen=True)
class FramePacket:
    """Point, adapted orthonormal frames and induced metric data.

    e[..., i, :] spans the tangent space of the submanifold, estar_i = J e_i
    spans its normal space inside the sphere, and chart_comps expresses each
    e_i in the chart-partial basis: e = chart_comps @ jet.d1, and
    chart_comps @ metric @ chart_comps^T = I.  `jet` is the order-2 chart jet
    the frame was built from, so the second fundamental form reuses it.
    """

    base: np.ndarray                  # (..., 7)
    e: np.ndarray                     # (..., 3, 7)
    estar: np.ndarray                 # (..., 3, 7)
    metric: np.ndarray                # (..., 3, 3) chart-basis induced metric
    metric_det: np.ndarray            # (...,) det of the metric
    chart_comps: np.ndarray           # (..., 3, 3) rows: e_i in chart partials
    jet: ImmersionJet = field(repr=False)
    table: MulTable = field(repr=False, default=None)

    def orthonormality_residual(self):
        gram = self.e @ np.swapaxes(self.e, -1, -2)
        return float(np.max(np.abs(gram - np.eye(3))))

    def lagrangian_residual(self):
        return float(np.max(np.abs(self.estar @ np.swapaxes(self.e, -1, -2))))

    def validate(self, tol=1e-10, model="frame"):
        """Worst invariant residual; raises ValueError beyond tol, naming
        `model` and the table when the Lagrangian condition is what fails."""
        lagrangian = self.lagrangian_residual()
        if lagrangian > tol:
            raise ValueError(f"{model} is not Lagrangian for table {self.table.source} "
                             f"(residual {lagrangian:.3e})")
        base_tangency = float(np.max(np.abs(self.e @ self.base[..., None])))
        worst = max(self.orthonormality_residual(), lagrangian, base_tangency)
        if worst > tol:
            raise ValueError(
                f"frame violates adapted-frame invariants: residual {worst:.3e} > {tol:g}"
            )
        return worst


def _gram_schmidt(rows, metric, degeneracy_distance):
    """T (..., 3, 3) with T g T^T = I: modified Gram-Schmidt of the rows of
    `rows` in the inner product <u, v> = u g v^T of the induced metric g, so
    the vectors T @ d1 are orthonormal in R^7 and span what rows @ d1 spans."""
    out = []
    for i in range(3):
        v = rows[..., i, :]
        for t, gt in out:
            v = v - np.sum(v * gt, axis=-1, keepdims=True) * t
        gv = (metric @ v[..., None])[..., 0]
        # |v @ d1|^2 in R^7; compared squared, so roundoff below 0 cannot
        # reach the square root
        nsq = np.sum(v * gv, axis=-1, keepdims=True)
        if np.any(nsq < 1e-16):
            raise ChartDegeneracyError(
                "chart partials are rank deficient; cannot orthonormalize",
                float(np.min(degeneracy_distance)),
            )
        n = np.sqrt(nsq)
        out.append((v / n, gv / n))
    return np.stack([t for t, _ in out], axis=-2)


def frame(imm, q, validate=True) -> FramePacket:
    """Adapted frame and induced metric at q, with the order-2 jet they come from.

    B holds the components of the model's global tangent fields in the chart
    partials (`imm.tangent_fields`), or is the identity, the chart partials
    themselves, when the model has none.  Gram-Schmidt on the rows of B in
    the induced metric gives the chart components T of the frame, and
    e = T @ d1.  Points outside the chart's domain raise ValueError.
    """
    q = np.asarray(q, dtype=float)
    imm.chart.check_domain(q)
    jt = imm.jet(q, 2)
    x, d1 = jt.value, jt.d1
    metric = np.einsum("...ac,...bc->...ab", d1, d1)
    metric_det = np.linalg.det(metric)
    dist = imm.chart.degeneracy_distance(q)
    if np.any(np.abs(metric_det) < 1e-12):
        # the frame vectors may survive a chart pole but the chart components
        # do not; the tangent fields' components divide by zero there
        raise ChartDegeneracyError(
            "chart Jacobian is rank deficient at the requested point",
            float(np.min(dist)),
        )

    rows = imm.tangent_fields(q)
    if rows is None:
        rows = np.broadcast_to(np.eye(3), metric.shape)
    chart_comps = _gram_schmidt(rows, metric, dist)
    e = chart_comps @ d1
    estar = cross(x[..., None, :], e, imm.table)

    packet = FramePacket(
        base=x, e=e, estar=estar, metric=metric, metric_det=metric_det,
        chart_comps=chart_comps, jet=jt, table=imm.table,
    )
    if validate:
        packet.validate(model=f"model {imm.name}")
    return packet


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

    def validate(self, tol=1e-9):
        worst = max(self.symmetry_residual(), self.trace_residual())
        if worst > tol:
            raise ValueError(f"second fundamental form invariants violated: {worst:.3e}")
        return worst


def second_fundamental_form(imm, q, frame_packet: FramePacket | None = None) -> SFF:
    """Normal-valued second fundamental form in the adapted frame.

    h(e_i, e_j) is the component of the ambient derivative of the immersion
    orthogonal to both the position vector and the tangent space; only the
    chart second partials contribute after projecting onto the J-frame.
    """
    pk = frame_packet if frame_packet is not None else frame(imm, q)
    batch = pk.jet.d2.shape[:-3]
    # proj[..., k, a, b] = <d_a d_b Psi, J e_k>, then h_k = C proj_k C^T
    d2 = pk.jet.d2.reshape(batch + (9, 7))
    proj = (pk.estar @ np.swapaxes(d2, -1, -2)).reshape(batch + (3, 3, 3))
    C = pk.chart_comps[..., None, :, :]
    # a contiguous C^T keeps numpy's stacked matmul on its fast path, and h
    # takes proj's buffer: on 32^3 nodes each of these arrays is 7 MB
    CT = np.ascontiguousarray(np.swapaxes(C, -1, -2))
    return SFF(h=np.matmul(C @ proj, CT, out=proj))


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

    def validate(self, tol=1e-7):
        r = self.codazzi_residual()
        if r > tol:
            raise ValueError(f"Codazzi symmetry violated: residual {r:.3e}")
        return r


def _inv3(m):
    """Inverse of 3 x 3 matrices (..., 3, 3), real or complex: the adjugate,
    whose row i is the cross product of columns i + 1 and i + 2, over the
    determinant.  Raises LinAlgError where a determinant is exactly 0, as
    np.linalg.inv does."""
    nxt, far = [1, 2, 0], [2, 0, 1]
    c1, c2 = m[..., nxt], m[..., far]  # column i of c1 is column i + 1 of m
    cross = c1[..., nxt, :] * c2[..., far, :] - c1[..., far, :] * c2[..., nxt, :]
    adj = np.swapaxes(cross, -1, -2)
    det = (m[..., :, 0] * adj[..., 0, :]).sum(axis=-1)
    if (det == 0).any():
        raise np.linalg.LinAlgError("Singular matrix")
    return adj / det[..., None, None]


def _christoffel(jt: ImmersionJet):
    """Inverse induced metric g^{ab} and Christoffel symbols
    gamma[..., a, b, d] = Gamma^d_ab = g^{de} <d_a d_b Psi, d_e Psi>
    of a chart jet of order >= 2."""
    d1t = np.swapaxes(jt.d1, -1, -2)
    ginv = _inv3(jt.d1 @ d1t)
    gamma = (jt.d2 @ d1t[..., None, :, :]) @ ginv[..., None, :, :]
    return ginv, gamma


def nabla_h(imm, q, frame_packet: FramePacket | None = None) -> NablaH:
    """Covariant derivative of h from one order-3 jet at q.

    In chart indices, with sigma_ab,k = <d_a d_b Psi, J e_k>,

        (nabla sigma)_abc,k = <d_a d_b d_c Psi, J e_k> - Gamma^d_ab sigma_cd,k
                              - Gamma^d_bc sigma_ad,k - Gamma^d_ca sigma_bd,k,

    which the chart components C of the frame carry to
    nh[k, i, j, m] = C_ia C_jb C_mc (nabla sigma)_abc,k.  The pairing with
    J e_k is taken at q after differentiating the R^7-valued field
    h(d_a, d_b) = d_a d_b Psi - Gamma^d_ab d_d Psi + g_ab Psi, so neither the
    frame's derivative nor the normal connection enters.  `frame_packet`,
    when given, is the frame at q, as for second_fundamental_form.
    """
    q = np.asarray(q, dtype=float)
    pk = frame_packet if frame_packet is not None else frame(imm, q, validate=False)
    jt = imm.jet(q, 3)
    _, gamma = _christoffel(jt)
    batch = q.shape[:-1]
    # third[k, a, b, c] = <d_a d_b d_c Psi, J e_k>, sigma[k, c, d] likewise
    third = pk.estar @ np.swapaxes(jt.d3.reshape(batch + (27, 7)), -1, -2)
    sigma = pk.estar @ np.swapaxes(jt.d2.reshape(batch + (9, 7)), -1, -2)
    # x[k, a, b, c] = Gamma^d_ab sigma_cd,k; the other two connection terms
    # are its cyclic permutations in (a, b, c)
    x = (gamma.reshape(batch + (1, 9, 3))
         @ np.swapaxes(sigma.reshape(batch + (3, 3, 3)), -1, -2)).reshape(batch + (3, 3, 3, 3))
    nsigma = (third.reshape(batch + (3, 3, 3, 3)) - x
              - np.einsum("...kbca->...kabc", x) - np.einsum("...kcab->...kabc", x))
    # nh[k, i, j, m] = C_ia C_jb C_mc nsigma[k, a, b, c]
    C = pk.chart_comps
    inner = C[..., None, None, :, :] @ nsigma @ np.swapaxes(C, -1, -2)[..., None, None, :, :]
    outer = C[..., None, :, :] @ inner.reshape(batch + (3, 3, 9))
    return NablaH(coeffs=outer.reshape(batch + (3, 3, 3, 3)))


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
    sectional_sum: np.ndarray          # (...,) sum_{i<j} K_ij = tau / 2
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
        sectional_sum=tau / 2.0,
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
# Laplace-Beltrami operator on chart scalar fields
# ---------------------------------------------------------------------------

# Laplacian circles: nodes, radius in frame units, top Taylor term limit
_LAPLACE_NODES, _LAPLACE_RADIUS, _LAPLACE_TAIL = 16, 0.1875, 1e-11


def laplace_beltrami(imm, scalar_field, q, frame_packet: FramePacket | None = None):
    """Laplacian of a chart scalar field at q, by Cauchy's integral formula.

    The field, holomorphic near q, is called once, on circles z -> q + z C_i
    along the frame vectors e_i = C_i @ d1; the FFT along circle i gives
    c1_i = Df[C_i] and c2_i = D^2f[C_i, C_i] / 2.  As sum_i C_ia C_ib = g^{ab},
    Lap f = g^{ab} (d_a d_b f - Gamma^c_ab d_c f) = sum_i 2 c2_i - <tau, e_i> c1_i
    with tau = g^{ab} d_a d_b Psi.  A field that is not holomorphic, or is
    singular inside a circle, makes the top coefficients, which bound the
    aliasing error, O(1): ChartDegeneracyError.  `frame_packet` is the frame
    at q, as for second_fundamental_form.
    """
    q = np.asarray(q, dtype=float)
    pk = frame_packet if frame_packet is not None else frame(imm, q, validate=False)
    C, n, r = pk.chart_comps, _LAPLACE_NODES, _LAPLACE_RADIUS
    # coef[i, k] = c_k r^k on the circle along e_i, shape (3, n) + batch
    coef = np.fft.fft(scalar_field(_circles(q, np.moveaxis(C, -2, 0), n, r)), axis=1) / n
    tail = np.max(np.abs(coef[:, -2:]), axis=(0, 1)) / np.maximum(1.0, np.abs(coef[0, 0]))
    if not np.all(tail <= _LAPLACE_TAIL):
        raise ChartDegeneracyError(
            f"scalar field is not holomorphic on the Cauchy circles: top Taylor "
            f"term {np.max(tail):.3e} of max(1, |f|) > {_LAPLACE_TAIL:g}")
    drift = np.einsum("...ka,...kb,...abc,...ic->i...", C, C, pk.jet.d2, pk.e)  # <tau, e_i>
    return np.sum(2 * coef[:, 2] / r**2 - drift * coef[:, 1] / r, axis=0).real
