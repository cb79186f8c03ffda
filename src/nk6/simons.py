"""The integral-inequality machinery.

The covariant derivative of h splits as nabla h = T + F where F is built
pointwise from the structure tensor G and the shape operators.  Two exact
norm identities,

    |F|^2 = (3/4) |h|^2        and        <nabla h, F> = (3/4) |h|^2,

force |nabla h|^2 = |T|^2 + (3/4)|h|^2, which combined with the Laplacian
formula for |h|^2 and the normal-form invariants yields the pointwise bound
behind the integral inequality

    integral of |h|^2 (|h|^2 - 5/4 - (3/2) Theta^2)  >=  0

over a compact Lagrangian submanifold.  `integrate_inequality` certifies the
sign, the equality cases and the volume by spectral quadrature in the Hopf
chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import canonical, geometry
from .cayley import frame_products
from .geometry import FramePacket, NablaH, SFF

__all__ = [
    "TTensorPacket",
    "QuadratureRule",
    "InequalityReport",
    "ResolutionError",
    "f_tensor",
    "t_tensor",
    "j_parallel_defect",
    "laplacian_identity_check",
    "laplacian_identity",
    "LaplacianIdentityReport",
    "integrate_inequality",
]

SCHEMA_VERSION = "1"
TOL_INDETERMINATE = 1e-4  # integrand sups from tol_equality up to this are indeterminate


class ResolutionError(RuntimeError):
    """Quadrature refinement failed to converge, or a sampled sup is not finite."""


# ---------------------------------------------------------------------------
# F and T tensors
# ---------------------------------------------------------------------------

def f_tensor(sff: SFF, pk: FramePacket):
    """Components F[l,i,j,k] = <F(e_i,e_j,e_k), J e_l> of the cyclic G-h tensor.

    F(X,Y,Z) = (1/4)[G(X, A_{JZ} Y) + G(Y, A_{JX} Z) + G(Z, A_{JY} X)] with
    the shape operators expanded through A_{J e_p} e_q = sum_k h[k,p,q] e_k.
    """
    gj = frame_products(pk.table, pk.e, pk.e, pk.estar)  # <G(e_a, e_b), J e_l>
    h = sff.h
    F = (
        np.einsum("...pjk,...ipl->...lijk", h, gj)
        + np.einsum("...pik,...jpl->...lijk", h, gj)
        + np.einsum("...pij,...kpl->...lijk", h, gj)
    ) / 4.0
    return F


@dataclass(frozen=True)
class TTensorPacket:
    """Norms of the decomposition nabla h = T + F."""

    nabla_h_sq: np.ndarray
    f_sq: np.ndarray
    t_sq: np.ndarray
    cross_term: np.ndarray    # <nabla h, F>
    hsq: np.ndarray

    def decomposition_residual(self):
        """|nabla h|^2 - |T|^2 - (3/4)|h|^2, zero for exact data."""
        return float(np.max(np.abs(self.nabla_h_sq - self.t_sq - 0.75 * self.hsq)))

    def cross_term_residual(self):
        return float(np.max(np.abs(self.cross_term - 0.75 * self.hsq)))

    def f_norm_residual(self):
        return float(np.max(np.abs(self.f_sq - 0.75 * self.hsq)))


def t_tensor(nh: NablaH, f_comp, sff: SFF) -> TTensorPacket:
    """Split nabla h into its G-generated part F and the remainder T.

    The packet's residuals measure the two norm identities, which `verify`
    checks against its tolerances.
    """
    nh_c = nh.coeffs  # (..., k, i, j, m)
    # align F with the derivative slot of nabla h: F[l,m,i,j] -> [l,i,j,m]
    f_aligned = np.moveaxis(f_comp, -3, -1)
    t_comp = nh_c - f_aligned
    return TTensorPacket(
        nabla_h_sq=np.sum(nh_c**2, axis=(-4, -3, -2, -1)),
        f_sq=np.sum(f_comp**2, axis=(-4, -3, -2, -1)),
        t_sq=np.sum(t_comp**2, axis=(-4, -3, -2, -1)),
        cross_term=np.sum(nh_c * f_aligned, axis=(-4, -3, -2, -1)),
        hsq=sff.norm_sq(),
    )


@lru_cache(maxsize=None)
def _half_sphere_quartics():
    """The fold (81, 15) of the index orders k, i, j, m onto the quartic
    monomials, and those monomials (15, 4099) on the upper half of a 64 x 128
    polar grid plus the three coordinate axes.

    The full grid is symmetric under v -> -v and a quartic is even, so the
    half holds every value the full grid would.
    """
    theta = (np.arange(32) + 0.5) * np.pi / 64
    phi = np.arange(128) * 2 * np.pi / 128
    T, P = np.meshgrid(theta, phi, indexing="ij")
    grid = np.stack(
        [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
    ).reshape(-1, 3)
    U = np.concatenate([grid, np.eye(3)])
    return canonical._fold(4), canonical._monomials(U, canonical._exponents(4)).T


def j_parallel_defect(nh: NablaH):
    """max over unit directions v of |<(nabla h)(v,v,v), Jv>|.

    Zero exactly when T vanishes; bounded above by |T| for any data since the
    F-part of the quartic contraction cancels identically.  The maximum runs
    over a fixed grid of 4099 directions, one per antipodal pair.
    """
    fold, quartics = _half_sphere_quartics()
    coeffs = np.asarray(nh.coeffs)
    vals = (coeffs.reshape(coeffs.shape[:-4] + (81,)) @ fold) @ quartics
    # max |v| as the larger of max v and -min v, with no (n, 4099) copy;
    # abs only clears the sign of a zero
    return np.abs(np.maximum(vals.max(axis=-1), -vals.min(axis=-1)))


# ---------------------------------------------------------------------------
# Laplacian identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplacianIdentityReport:
    """Both routes to (1/2) Lap |h|^2 and their disagreement.

    residual_pipeline compares the Laplacian of the field |h|^2 with
    |nabla h|^2 + 3|h|^2 - Q computed from the same point's tensors;
    residual_algebra compares that expression with its normal-form regrouping
    evaluated on the extracted invariants plus |T|^2.
    """

    half_laplacian: float
    residual_pipeline: float
    residual_algebra: float
    nabla_h_sq: float
    hsq: float
    q_direct: float
    t_sq: float


def laplacian_identity_check(imm, q) -> LaplacianIdentityReport:
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("laplacian_identity_check expects a single chart point")
    pk = geometry.frame(imm, q)
    sff = geometry.second_fundamental_form(imm, q, frame_packet=pk)
    packet = t_tensor(geometry.nabla_h(imm, q, frame_packet=pk), f_tensor(sff, pk), sff)
    return laplacian_identity(imm, q, pk, sff, packet, canonical.canonical_basis(sff.h))


def laplacian_identity(imm, q, pk: FramePacket, sff: SFF, packet: TTensorPacket,
                       cd: canonical.CanonicalData) -> LaplacianIdentityReport:
    """Both routes of laplacian_identity_check at one chart point q, from
    the frame, h, T packet and normal form already evaluated there."""
    # |h|^2 as the sum of h^2 with no conjugate, from the frame continued to
    # the complex circle points: the holomorphic continuation of |h|^2
    def hsq(yy):
        return geometry.second_fundamental_form(
            imm, yy, frame_packet=geometry._frame_at(imm, yy)).norm_sq()

    half_lap = 0.5 * float(geometry.laplace_beltrami(imm, hsq, q, frame_packet=pk))

    hsq = float(sff.norm_sq())
    nhsq = float(packet.nabla_h_sq)
    q_direct = float(canonical.commutator_invariant_direct(canonical.reconstruct_sff(cd)))
    rhs_direct = nhsq + 3.0 * hsq - q_direct

    cf = canonical.closed_forms(cd)
    tsq = float(packet.t_sq)
    rhs_regrouped = (
        tsq
        + 3.75 * float(cf.hsq)
        - 3.0 * float(cf.hsq) ** 2
        + 4.5 * cd.theta**2 * float(cf.hsq)
        + float(cf.r_residual)
    )
    return LaplacianIdentityReport(
        half_laplacian=half_lap,
        residual_pipeline=abs(half_lap - rhs_direct),
        residual_algebra=abs(rhs_direct - rhs_regrouped),
        nabla_h_sq=nhsq,
        hsq=hsq,
        q_direct=q_direct,
        t_sq=tsq,
    )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product rule in the Hopf chart.

    Gauss-Legendre nodes on the polar interval and periodic trapezoid nodes
    on the two angles, which is spectrally accurate for smooth periodic
    integrands.  The chart's volume element sin(eta) cos(eta) vanishes at
    the poles; the geometry at the nodes does not depend on the chart.
    """

    n_eta: int = 32
    n_xi1: int = 32
    n_xi2: int = 32

    def __post_init__(self):
        if min(self.n_eta, self.n_xi1, self.n_xi2) < 2:
            raise ValueError("quadrature rule needs at least 2 nodes per axis")

    @classmethod
    def parse(cls, text: str) -> "QuadratureRule":
        try:
            parts = [int(p) for p in text.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3:
            raise ValueError(f"rule must be 'n_eta,n_xi1,n_xi2', got {text!r}")
        return cls(*parts)

    def counts(self):
        return (self.n_eta, self.n_xi1, self.n_xi2)

    def exactness_degree(self):
        """Per-axis exactness: polynomial degree 2n-1 for the Gauss axis,
        trigonometric degree n-1 for the periodic trapezoid axes."""
        return (2 * self.n_eta - 1, self.n_xi1 - 1, self.n_xi2 - 1)

    def nodes_weights(self):
        x, w = np.polynomial.legendre.leggauss(self.n_eta)
        eta = (x + 1.0) * (np.pi / 4.0)
        w_eta = w * (np.pi / 4.0)
        xi1 = np.arange(self.n_xi1) * 2 * np.pi / self.n_xi1
        xi2 = np.arange(self.n_xi2) * 2 * np.pi / self.n_xi2
        w1 = np.full(self.n_xi1, 2 * np.pi / self.n_xi1)
        w2 = np.full(self.n_xi2, 2 * np.pi / self.n_xi2)
        E, A, B = np.meshgrid(eta, xi1, xi2, indexing="ij")
        points = np.stack([E, A, B], axis=-1).reshape(-1, 3)
        weights = (
            w_eta[:, None, None] * w1[None, :, None] * w2[None, None, :]
        ).reshape(-1)
        return points, weights

    def coarser(self) -> "QuadratureRule":
        """The rule with (3 n) // 4 nodes per axis, strictly fewer on every
        axis, for the volume refinement check."""
        if min(self.counts()) < 3:
            raise ValueError(f"rule {','.join(map(str, self.counts()))}: the volume "
                             "refinement check needs at least 3 nodes per axis")
        return QuadratureRule(*((3 * n) // 4 for n in self.counts()))


@dataclass(frozen=True)
class InequalityReport:
    """Quadrature certificate for the integral inequality on one model."""

    model: str
    rule: tuple
    rule_exactness_degree: tuple
    integral: float
    volume: float
    integrand_min: float
    integrand_max: float
    integrand_sup_norm: float
    hsq_range: tuple          # (min, max)
    theta_range: tuple        # (min, max)
    classification: str
    volume_refinement_delta: float
    samples: np.ndarray = field(repr=False, default=None)  # columns per CSV_COLUMNS

    CSV_COLUMNS = ("eta", "xi1", "xi2", "hsq", "theta", "integrand", "sqrt_det_g")

    def to_dict(self):
        """The report's keys: its fields but the samples, and the schema."""
        return {"schema_version": SCHEMA_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}}


def _classify(hsq_sup, integrand_sup, tol_equality):
    if not (np.isfinite(hsq_sup) and np.isfinite(integrand_sup)):
        raise ResolutionError(f"cannot classify non-finite sups: |h|^2 {hsq_sup}, "
                              f"integrand {integrand_sup}")
    if hsq_sup < tol_equality:
        return "geodesic"
    if integrand_sup < tol_equality:
        return "DVV-type"
    if integrand_sup < TOL_INDETERMINATE:
        return "indeterminate"
    return "strict"


# quadrature nodes per block of `integrate_inequality`: each layer holds its
# arrays for one block, so memory does not grow with the rule.  A multiple
# of canonical._CHUNK, so that every node is certified in the same batch of
# maximize_theta whatever the block: Theta depends on its batch in the last
# bits.
_NODE_BLOCK = 8 * canonical._CHUNK


def _blocks(n):
    """(lo, hi) bounds of the node blocks of an n-node rule."""
    return ((lo, min(lo + _NODE_BLOCK, n)) for lo in range(0, n, _NODE_BLOCK))


def _density(q, metric):
    """Chart volume density sqrt(det g) at the chart points q: the induced
    volume sqrt(det G) in the round-orthonormal X basis, from the node-last
    metric G (3, 3, n) over the flattened batch of q, times the round
    sin(eta) cos(eta)."""
    det = geometry._det3(metric).reshape(np.shape(q)[:-1])
    return np.sqrt(det) * np.sin(q[..., 0]) * np.cos(q[..., 0])


def _volume(imm, rule: QuadratureRule):
    """Chart volume on `rule` from order-1 jets, one node block at a time."""
    points, weights = rule.nodes_weights()
    dens = np.empty(len(points))
    for lo, hi in _blocks(len(points)):
        _, metric = geometry._metric(imm.jet(imm.chart.to_y(points[lo:hi]), 1).d1)
        dens[lo:hi] = _density(points[lo:hi], metric)
    return float(np.sum(weights * dens))


def _density_and_sff(imm, q):
    """Volume density and h at the chart points q from one frame, which is
    freed before Theta is maximized."""
    pk = geometry.frame(imm, q)
    return (_density(q, geometry._node_last(pk.metric, 2)),
            geometry.second_fundamental_form(imm, q, frame_packet=pk))


def integrate_inequality(
    imm,
    rule: QuadratureRule = QuadratureRule(),
    tol_equality=1e-8,
    refine_tol=1e-6,
) -> InequalityReport:
    """Certify the integral inequality on a compact built-in model.

    The integrand |h|^2 (|h|^2 - 5/4 - (3/2) Theta^2) is evaluated at every
    node with Theta recomputed pointwise by the cubic-form maximizer, then
    summed against the chart volume density.  The nodes go through the
    frame, h and Theta in blocks of _NODE_BLOCK, and one frame per block
    gives the density and h; only the columns of the report (density,
    |h|^2, Theta) are kept for every node, and the sums run once over them.
    An EnclosureError or ChartDegeneracyError in a block names the block's
    nodes.  The volume is recomputed on a coarser rule; disagreement beyond
    `refine_tol` (relative) or a NaN volume raises ResolutionError, as does
    a non-finite sup of |h|^2 or of the integrand, and a rule with an axis
    too short to coarsen raises ValueError.
    """
    coarse = rule.coarser()
    points, weights = rule.nodes_weights()
    n = len(points)
    dens, hsq, theta = np.empty(n), np.empty(n), np.empty(n)
    for lo, hi in _blocks(n):
        try:
            dens[lo:hi], sff = _density_and_sff(imm, points[lo:hi])
            hsq[lo:hi] = sff.norm_sq()
            theta[lo:hi] = canonical.maximize_theta(sff.h)[1]
        except (canonical.EnclosureError, geometry.ChartDegeneracyError) as exc:
            exc.args = (f"{exc} [quadrature nodes {lo}-{hi - 1} of {n}]",)
            raise
    volume = float(np.sum(weights * dens))
    volume_coarse = _volume(imm, coarse)
    delta = abs(volume - volume_coarse) / max(abs(volume), 1e-300)
    if not delta <= refine_tol:  # a NaN delta fails too
        raise ResolutionError(
            f"volume changed by {delta:.3e} (relative) under refinement; "
            "increase the rule"
        )

    integrand = hsq * (hsq - 1.25 - 1.5 * theta**2)
    integral = float(np.sum(weights * dens * integrand))

    sup = float(np.max(np.abs(integrand)))
    samples = np.column_stack([points, hsq, theta, integrand, dens])
    return InequalityReport(
        model=imm.name,
        rule=rule.counts(),
        rule_exactness_degree=rule.exactness_degree(),
        integral=integral,
        volume=volume,
        integrand_min=float(np.min(integrand)),
        integrand_max=float(np.max(integrand)),
        integrand_sup_norm=sup,
        hsq_range=(float(np.min(hsq)), float(np.max(hsq))),
        theta_range=(float(np.min(theta)), float(np.max(theta))),
        classification=_classify(float(np.max(hsq)), sup, tol_equality),
        volume_refinement_delta=delta,
        samples=samples,
    )
