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

from dataclasses import dataclass, field
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
    """Quadrature refinement failed to converge."""


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
    """Norms and components of the decomposition nabla h = T + F."""

    f_comp: np.ndarray        # (..., 3, 3, 3, 3) F[l,i,j,k]
    t_comp: np.ndarray        # (..., 3, 3, 3, 3) T[l,i,j,m], m the derivative slot
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

    def pythagoras_residual(self):
        expect = self.nabla_h_sq + self.f_sq - 2.0 * self.cross_term
        return float(np.max(np.abs(self.t_sq - expect)))


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
        f_comp=f_comp,
        t_comp=t_comp,
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
    return np.max(np.abs(vals), axis=-1)


# ---------------------------------------------------------------------------
# Laplacian identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplacianIdentityReport:
    """Both routes to (1/2) Lap |h|^2 and their disagreement.

    residual_pipeline compares the chart Laplacian of the field |h|^2 with
    |nabla h|^2 + 3|h|^2 - Q computed from the same point's tensors;
    residual_algebra compares that expression with its normal-form regrouping
    evaluated on the extracted invariants plus |T|^2.
    """

    half_laplacian: float
    rhs_direct: float
    rhs_regrouped: float
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
    nh = geometry.nabla_h(imm, q, frame_packet=pk)
    return laplacian_identity(imm, q, pk, sff, nh, canonical.canonical_basis(sff.h))


def _hsq(imm, q):
    """|h|^2 = g^{ac} g^{bd} <sigma_ab, sigma_cd> at chart points q, real or
    complex, from one order-2 jet, with sigma_ab = h(d_a, d_b) = d_a d_b Psi
    + g_ab Psi - Gamma^e_ab d_e Psi.  Every product is bilinear, so this is
    the holomorphic extension of |h|^2."""
    jt = imm.jet(q, 2, check_domain=False)
    ginv, gamma = geometry._christoffel(jt)
    g = jt.d1 @ np.swapaxes(jt.d1, -1, -2)
    sigma = (jt.d2 + g[..., None] * jt.value[..., None, None, :]
             - np.einsum("...abe,...ek->...abk", gamma, jt.d1))
    # |h|^2 = sum_k tr(g^-1 sigma_k g^-1 sigma_k), by einsum: faster than complex matmul
    gs = np.einsum("...ac,...cbk->...abk", ginv, sigma)
    return np.sum(gs * np.swapaxes(gs, -2, -3), axis=(-3, -2, -1))


def laplacian_identity(imm, q, pk: FramePacket, sff: SFF, nh: NablaH,
                       cd: canonical.CanonicalData) -> LaplacianIdentityReport:
    """Both routes of laplacian_identity_check at one chart point q, from
    the frame, h, nabla h and normal form already evaluated there."""
    packet = t_tensor(nh, f_tensor(sff, pk), sff)

    half_lap = 0.5 * float(geometry.laplace_beltrami(
        imm, lambda qq: _hsq(imm, qq), q, frame_packet=pk))

    inv = canonical.commutator_invariant_direct(canonical.h_matrices(cd))
    hsq = float(sff.norm_sq())
    nhsq = float(packet.nabla_h_sq)
    q_direct = float(inv.Q)
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
        rhs_direct=rhs_direct,
        rhs_regrouped=rhs_regrouped,
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

    Gauss-Legendre nodes on the polar interval (interior, so the chart
    degeneracies are never sampled) and periodic trapezoid nodes on the two
    angles, which is spectrally accurate for smooth periodic integrands.
    """

    n_eta: int = 32
    n_xi1: int = 32
    n_xi2: int = 32

    def __post_init__(self):
        if min(self.n_eta, self.n_xi1, self.n_xi2) < 2:
            raise ValueError("quadrature rule needs at least 2 nodes per axis")

    @classmethod
    def parse(cls, text: str) -> "QuadratureRule":
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError("rule must be 'n_eta,n_xi1,n_xi2'")
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
    integral: float
    volume: float
    integrand_min: float
    integrand_max: float
    integrand_sup: float
    hsq_min: float
    hsq_max: float
    theta_min: float
    theta_max: float
    classification: str
    volume_refinement_delta: float
    samples: np.ndarray = field(repr=False, default=None)  # columns per CSV_COLUMNS

    CSV_COLUMNS = ("eta", "xi1", "xi2", "hsq", "theta", "integrand", "sqrt_det_g")

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model,
            "rule": list(self.rule),
            "rule_exactness_degree": list(QuadratureRule(*self.rule).exactness_degree()),
            "integral": self.integral,
            "volume": self.volume,
            "integrand_min": self.integrand_min,
            "integrand_max": self.integrand_max,
            "integrand_sup_norm": self.integrand_sup,
            "hsq_range": [self.hsq_min, self.hsq_max],
            "theta_range": [self.theta_min, self.theta_max],
            "classification": self.classification,
            "volume_refinement_delta": self.volume_refinement_delta,
        }


def _classify(hsq_sup, integrand_sup, tol_equality):
    if hsq_sup < tol_equality:
        return "geodesic"
    if integrand_sup < tol_equality:
        return "DVV-type"
    if integrand_sup < TOL_INDETERMINATE:
        return "indeterminate"
    return "strict"


def _volume(imm, rule: QuadratureRule):
    """Chart volume on `rule` from order-1 jets, and the density at its nodes."""
    points, weights = rule.nodes_weights()
    jt = imm.jet(points, 1)
    metric = np.einsum("...ac,...bc->...ab", jt.d1, jt.d1)
    dens = np.sqrt(np.linalg.det(metric))
    return float(np.sum(weights * dens)), dens


def integrate_inequality(
    imm,
    rule: QuadratureRule = QuadratureRule(),
    tol_equality=1e-8,
    refine_tol=1e-6,
) -> InequalityReport:
    """Certify the integral inequality on a compact built-in model.

    The integrand |h|^2 (|h|^2 - 5/4 - (3/2) Theta^2) is evaluated at every
    node with Theta recomputed pointwise by the cubic-form maximizer, then
    summed against the chart volume density.  One frame on the nodes gives
    the density and h.  The volume is recomputed on a coarser rule;
    disagreement beyond `refine_tol` (relative) raises ResolutionError, and
    a rule with an axis too short to coarsen raises ValueError.
    """
    coarse = rule.coarser()
    points, weights = rule.nodes_weights()
    pk = geometry.frame(imm, points)
    dens = np.sqrt(pk.metric_det)
    volume = float(np.sum(weights * dens))
    volume_coarse = _volume(imm, coarse)[0]
    delta = abs(volume - volume_coarse) / max(abs(volume), 1e-300)
    if delta > refine_tol:
        raise ResolutionError(
            f"volume changed by {delta:.3e} (relative) under refinement; "
            "increase the rule"
        )

    sff = geometry.second_fundamental_form(imm, points, frame_packet=pk)
    # the maximizer's arrays then reuse the frame's memory (40 MB on 32^3 nodes)
    del pk
    hsq = sff.norm_sq()
    _, theta = canonical.maximize_theta(sff.h)
    integrand = hsq * (hsq - 1.25 - 1.5 * theta**2)
    integral = float(np.sum(weights * dens * integrand))

    sup = float(np.max(np.abs(integrand)))
    samples = np.column_stack([points, hsq, theta, integrand, dens])
    return InequalityReport(
        model=imm.name,
        rule=rule.counts(),
        integral=integral,
        volume=volume,
        integrand_min=float(np.min(integrand)),
        integrand_max=float(np.max(integrand)),
        integrand_sup=sup,
        hsq_min=float(np.min(hsq)),
        hsq_max=float(np.max(hsq)),
        theta_min=float(np.min(theta)),
        theta_max=float(np.max(theta)),
        classification=_classify(float(np.max(hsq)), sup, tol_equality),
        volume_refinement_delta=delta,
        samples=samples,
    )
