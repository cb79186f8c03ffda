"""Built-in immersions and reference data.

The star model is the Berger three-sphere embedded in the six-sphere through
an explicit degree-two polynomial map.  Its image is Lagrangian for exactly
one orientation of one multiplication-table convention, which is how the
ambient table is selected at startup: `default_table()` scans the catalog for
the table that makes the embedding Lagrangian, aligns the structure tensor
with the frame (G(E2,E3) = J E1) and gives the cubic form a positive value on
E1.  A totally geodesic Lagrangian great sphere and pointwise synthetic
second-fundamental-form data complete the model zoo.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import geometry
from .cayley import MulTable, cayley_dickson_table, cross, load_table, table_catalog, tangent_project
from .geometry import ImmersionJet

__all__ = [
    "HopfChart",
    "PolynomialSphereImmersion",
    "ConstructionError",
    "BergerSpec",
    "SyntheticH",
    "dvv_immersion",
    "totally_geodesic_immersion",
    "synthetic_case",
    "berger_curvature",
    "default_table",
    "select_table",
    "load_polynomial_immersion",
    "resolve_model",
    "MODEL_NAMES",
]


class ConstructionError(RuntimeError):
    """A built-in model could not be realized against the ambient table."""


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfChart:
    """Hopf coordinates (eta, xi1, xi2) on the unit three-sphere.

    y = (cos eta cos xi1, cos eta sin xi1, sin eta cos xi2, sin eta sin xi2);
    the chart degenerates at eta in {0, pi/2} where one angle becomes idle.
    """

    extents: tuple = (np.pi / 2, 2 * np.pi, 2 * np.pi)

    def to_y(self, q):
        return self.y_derivs(q, 0)[0]

    def y_derivs(self, q, order):
        """[D^0 y, ..., D^order y], the k-th of shape (..., 3 k times, 4).

        Each y_a is f(eta) g(xi) with f, g in {cos, sin}, so a partial is a
        product of two entries of the cos/sin derivative cycle, or zero when
        it differentiates the idle angle.
        """
        q = np.asarray(q, dtype=complex if np.iscomplexobj(q) else float)
        c, s = np.cos(q), np.sin(q)
        cycle = (c, -s, -c, s)  # d^m cos = cycle[m % 4], d^m sin = cycle[(m - 1) % 4]
        # per y_a: (chart axis of its xi, f is sin, g is sin)
        factors = ((1, 0, 0), (1, 0, 1), (2, 1, 0), (2, 1, 1))
        out = []
        for k in range(order + 1):
            dk = np.zeros(q.shape[:-1] + (3,) * k + (4,), dtype=q.dtype)
            for axes in itertools.product(range(3), repeat=k):
                m = [axes.count(ax) for ax in range(3)]
                for a, (xi, sin_eta, sin_xi) in enumerate(factors):
                    if m[3 - xi] == 0:
                        dk[(...,) + axes + (a,)] = (cycle[(m[0] - sin_eta) % 4][..., 0]
                                                    * cycle[(m[xi] - sin_xi) % 4][..., xi])
            out.append(dk)
        return out

    def field_components(self, q):
        """Components (..., 3, 3) of the rotation fields FIELD_MATS[f] y in the
        chart partials, FIELD_MATS[f] y = sum_a B[f, a] d_a y.

        The partials of y are mutually orthogonal, with |d_a y| = 1, cos eta
        and sin eta, so B[f, a] = <FIELD_MATS[f] y, d_a y> / |d_a y|^2; with
        phi = xi1 + xi2 and t = tan eta this is
        B = [[0, -1, -1], [-cos phi, -t sin phi, sin phi / t],
        [-sin phi, t cos phi, -cos phi / t]], singular at the poles.
        """
        q = np.asarray(q, dtype=float)
        t, phi = np.tan(q[..., 0]), q[..., 1] + q[..., 2]
        c, s = np.cos(phi), np.sin(phi)
        zero, one = np.zeros_like(t), np.ones_like(t)
        return np.stack([zero, -one, -one,
                         -c, -t * s, s / t,
                         -s, t * c, -c / t], axis=-1).reshape(q.shape[:-1] + (3, 3))

    def degeneracy_distance(self, q):
        eta = np.asarray(q, dtype=float)[..., 0]
        return np.minimum(np.abs(eta), np.abs(np.pi / 2 - eta))

    def check_domain(self, q, slack=1e-12):
        eta = np.real(q)[..., 0]
        if np.any(eta < -slack) or np.any(eta > np.pi / 2 + slack):
            raise ValueError("chart point outside domain: eta must lie in [0, pi/2]")

    def random_points(self, n, rng, margin=0.05):
        lo, hi = margin, np.pi / 2 - margin
        eta = rng.uniform(lo, hi, size=n)
        xi = rng.uniform(0.0, 2 * np.pi, size=(2, n))
        return np.stack([eta, xi[0], xi[1]], axis=-1)


HOPF = HopfChart()


# ---------------------------------------------------------------------------
# polynomial immersions of S^3
# ---------------------------------------------------------------------------

# Right-invariant rotation fields on S^3 with [X1,X2] = 2X3 and cyclic.
FIELD_MATS = np.array(
    [
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    ],
    dtype=float,
)


# the chain rule runs on this many nodes at a time, to bound its temporaries
_NODE_BLOCK = 4096


@lru_cache(maxsize=None)
def _derivative_table(terms):
    """Exponents (M, 4) and, for k = 0..3, coefficients (M, 4^k * 7) with
    D^k P(y) = y^expo @ coef[k], flattened from (4, ..., 4, 7).  Cached on
    the terms tuple and read-only, so every immersion of one polynomial
    shares them."""
    rows, entries = {}, []
    for k in range(4):
        for flat, axes in enumerate(itertools.product(range(4), repeat=k)):
            for c, ex, co in terms:
                ex, w = list(ex), co
                for a in axes:
                    w *= ex[a]
                    ex[a] -= 1
                if w != 0.0:
                    entries.append((k, rows.setdefault(tuple(ex), len(rows)), 7 * flat + c, w))
    coef = [np.zeros((len(rows), 7 * 4**k)) for k in range(4)]
    for k, row, col, w in entries:
        coef[k][row, col] += w
    expo = np.array(list(rows), dtype=int).reshape(-1, 4)
    for a in (expo, *coef):
        a.flags.writeable = False
    return expo, tuple(coef)


def _chain_rule(ys, ps):
    """Chart partials of P(y(q)) up to order 3 (Faa di Bruno), from the
    D^k y (n, 3.., 4) and D^k P (n, 4.., 7) of one node block."""
    n, order = len(ys[0]), len(ys) - 1
    if order == 0:
        return []
    y1, p1 = ys[1], ps[1]
    out = [y1 @ p1]
    if order >= 2:
        y2 = ys[2].reshape(n, 9, 4)
        p2 = ps[2].reshape(n, 4, 28)
        y1p2 = (y1 @ p2).reshape(n, 3, 4, 7)
        out.append(y1[:, None] @ y1p2 + (y2 @ p1).reshape(n, 3, 3, 7))
    if order >= 3:
        y1y1p3 = y1[:, None] @ (y1 @ ps[3].reshape(n, 4, 112)).reshape(n, 3, 4, 28)
        pure = y1[:, None, None] @ y1y1p3.reshape(n, 3, 3, 4, 7)
        # mixed[i, j, k] = D^2y[i, j] Dy[k] D^2P, in its three index placements
        mixed = (y1[:, None] @ (y2 @ p2).reshape(n, 9, 4, 7)).reshape(n, 3, 3, 3, 7)
        out.append(pure + mixed + mixed.transpose(0, 1, 3, 2, 4) + mixed.transpose(0, 3, 1, 2, 4)
                   + (ys[3].reshape(n, 27, 4) @ p1).reshape(n, 3, 3, 3, 7))
    return out


class PolynomialSphereImmersion:
    """Polynomial map R^4 -> R^7 restricted to S^3, addressed in a Hopf chart.

    `terms` is a sequence of (component, exponents, coefficient) with
    component in 0..6 and exponents a 4-tuple over (y1..y4).  Jets are exact:
    the dense partials of the polynomial, read from a derivative table built
    once per polynomial, are composed with those of the chart by the chain rule.
    """

    def __init__(self, name, terms, table: MulTable, field_scales=None, chart=HOPF):
        self.name = name
        self.table = table
        self.chart = chart
        self.terms = tuple((int(c), tuple(int(e) for e in ex), float(co)) for c, ex, co in terms)
        self.field_scales = None if field_scales is None else tuple(field_scales)
        self._expo, self._coef = _derivative_table(self.terms)

    # -- pointwise evaluation in y ------------------------------------------------
    def _poly_derivs(self, y, order):
        """[D^0 P, ..., D^order P] at y (n, 4), the k-th of shape (n, 4 k times, 7)."""
        top = int(self._expo.max(initial=0))
        powers = np.ones(y.shape + (top + 1,), dtype=y.dtype)
        np.cumprod(np.broadcast_to(y[..., None], y.shape + (top,)), axis=-1, out=powers[..., 1:])
        mono = np.prod(powers[:, np.arange(4), self._expo], axis=-1)
        return [(mono @ self._coef[k]).reshape((len(y),) + (4,) * k + (7,)) for k in range(order + 1)]

    def embed(self, y):
        y = np.asarray(y, dtype=float)
        return self._poly_derivs(y.reshape(-1, 4), 0)[0].reshape(y.shape[:-1] + (7,))

    def jacobian_y(self, y):
        y = np.asarray(y, dtype=float)
        dp = self._poly_derivs(y.reshape(-1, 4), 1)[1]
        return np.swapaxes(dp, -1, -2).reshape(y.shape[:-1] + (7, 4))

    # -- chart jets ---------------------------------------------------------------
    def jet(self, q, order, check_domain=True):
        if not 0 <= order <= 3:
            raise ValueError("jet order must be in 0..3")
        q = np.asarray(q, dtype=complex if np.iscomplexobj(q) else float)
        if check_domain:
            self.chart.check_domain(q)
        flat = q.reshape(-1, 3)
        out = [np.empty((len(flat),) + (3,) * k + (7,), dtype=q.dtype) for k in range(order + 1)]
        for lo in range(0, len(flat), _NODE_BLOCK):
            ys = self.chart.y_derivs(flat[lo:lo + _NODE_BLOCK], order)
            ps = self._poly_derivs(ys[0], order)
            for dst, block in zip(out, ps[:1] + _chain_rule(ys, ps)):
                dst[lo:lo + _NODE_BLOCK] = block
        out = [d.reshape(q.shape[:-1] + d.shape[1:]) for d in out] + [None] * (3 - order)
        return ImmersionJet(order, *out)

    # -- global tangent fields ------------------------------------------------------
    def tangent_fields(self, q):
        """Components B (..., 3, 3) of the scaled fields X_f = s_f FIELD_MATS[f] y
        in the chart partials, X_f = sum_a B[f, a] d_a y, or None without
        field scales.

        B comes from the chart alone (HopfChart.field_components), so the
        pushforward of X_f is B[f] @ d1 and the polynomial is not evaluated.
        B is singular at the chart poles, where `frame` stops before calling
        this.
        """
        if self.field_scales is None:
            return None
        return np.asarray(self.field_scales)[:, None] * self.chart.field_components(q)

    def __repr__(self):
        return f"PolynomialSphereImmersion({self.name!r}, table={self.table.source!r})"


# ---------------------------------------------------------------------------
# the Berger-sphere embedding
# ---------------------------------------------------------------------------

_S5 = np.sqrt(5.0)
_S6 = np.sqrt(6.0)
_S30 = np.sqrt(30.0)

# the seven degree-two coordinate polynomials of the embedding
DVV_TERMS = (
    (0, (2, 0, 0, 0), 5 / 9), (0, (0, 2, 0, 0), 5 / 9),
    (0, (0, 0, 2, 0), -5 / 9), (0, (0, 0, 0, 2), -5 / 9),
    (0, (1, 0, 0, 0), 4 / 9),
    (1, (0, 1, 0, 0), -2 / 3),
    (2, (2, 0, 0, 0), 2 * _S5 / 9), (2, (0, 2, 0, 0), 2 * _S5 / 9),
    (2, (0, 0, 2, 0), -2 * _S5 / 9), (2, (0, 0, 0, 2), -2 * _S5 / 9),
    (2, (1, 0, 0, 0), -2 * _S5 / 9),
    (3, (1, 0, 1, 0), -10 * _S6 / 18), (3, (0, 0, 1, 0), -2 * _S6 / 18),
    (3, (0, 1, 0, 1), -10 * _S6 / 18),
    (4, (1, 0, 0, 1), 2 * _S30 / 18), (4, (0, 0, 0, 1), -2 * _S30 / 18),
    (4, (0, 1, 1, 0), -2 * _S30 / 18),
    (5, (1, 0, 1, 0), 2 * _S30 / 18), (5, (0, 0, 1, 0), -2 * _S30 / 18),
    (5, (0, 1, 0, 1), 2 * _S30 / 18),
    (6, (1, 0, 0, 1), 10 * _S6 / 18), (6, (0, 0, 0, 1), 2 * _S6 / 18),
    (6, (0, 1, 1, 0), -10 * _S6 / 18),
)

# E1 = (3/2) X1, E2 = sqrt(3/8) X2, E3 = -sqrt(3/8) X3: orthonormal for the
# Berger metric diag(4/9, 8/3, 8/3); the minus sign on E3 is load bearing for
# the orientation identity G(E2, E3) = J E1.
DVV_FIELD_SCALES = (1.5, np.sqrt(3.0 / 8.0), -np.sqrt(3.0 / 8.0))


def dvv_immersion(table: MulTable | None = None) -> PolynomialSphereImmersion:
    """The Berger-sphere Lagrangian embedding with exact polynomial jets."""
    if table is None:
        table = default_table()
    return PolynomialSphereImmersion("dvv", DVV_TERMS, table, DVV_FIELD_SCALES)


# ---------------------------------------------------------------------------
# table selection oracle
# ---------------------------------------------------------------------------

_ORACLE_POINTS = np.array([[0.7, 0.9, 1.7], [1.1, 4.0, 2.6]])


def _dvv_oracle(table: MulTable, tol=1e-8) -> bool:
    """True when the embedding is Lagrangian for `table`, the structure tensor
    satisfies G(E2,E3) = J E1, and the cubic form is positive on E1.

    The first two conditions cannot separate a table from its global sign
    flip (both G and J flip together), so the sign of <h(E1,E1), J E1> is
    used as the final arbiter; all conditions restate frame facts of the
    embedding.
    """
    imm = PolynomialSphereImmersion("dvv-candidate", DVV_TERMS, table, DVV_FIELD_SCALES)
    try:
        pk = geometry.frame(imm, _ORACLE_POINTS, validate=False)
    except geometry.ChartDegeneracyError:  # pragma: no cover
        return False
    if pk.lagrangian_residual() > tol:
        return False
    g23 = tangent_project(pk.base, cross(pk.e[..., 1, :], pk.e[..., 2, :], table))
    if np.max(np.abs(g23 - pk.estar[..., 0, :])) > tol:
        return False
    sff = geometry.second_fundamental_form(imm, _ORACLE_POINTS, frame_packet=pk)
    return bool(np.all(sff.h[..., 0, 0, 0] > 0))


def select_table(candidates=None) -> MulTable:
    """First multiplication table (deterministic order) passing the oracle."""
    if candidates is None:
        default = cayley_dickson_table()
        if _dvv_oracle(default):
            return default
        candidates = table_catalog()
    for table in candidates:
        if _dvv_oracle(table):
            return table
    raise ConstructionError(
        "no multiplication table makes the Berger-sphere embedding Lagrangian"
    )


@lru_cache(maxsize=1)
def default_table() -> MulTable:
    """Ambient table: NK6_TABLE_PATH if set, else the oracle-selected catalog entry."""
    path = os.environ.get("NK6_TABLE_PATH")
    if path:
        return load_table(path)
    return select_table()


# ---------------------------------------------------------------------------
# totally geodesic model
# ---------------------------------------------------------------------------

def totally_geodesic_immersion(table: MulTable | None = None) -> PolynomialSphereImmersion:
    """Unit sphere of a coordinate 4-plane W with W x W orthogonal to W.

    Such a W is the doubled half of a quaternion subalgebra, so its unit
    sphere is a totally geodesic Lagrangian great sphere.  The coordinate
    4-planes are searched in lexicographic order and the winner is validated
    by the Lagrangian check.
    """
    if table is None:
        table = default_table()
    for subset in itertools.combinations(range(7), 4):
        block = table.f[np.ix_(subset, subset, subset)]
        if np.any(block != 0.0):
            continue
        terms = [(subset[a], tuple(np.eye(4, dtype=int)[a]), 1.0) for a in range(4)]
        imm = PolynomialSphereImmersion(
            "totally-geodesic", terms, table, field_scales=(1.0, 1.0, 1.0)
        )
        pk = geometry.frame(imm, _ORACLE_POINTS, validate=False)
        if pk.lagrangian_residual() < 1e-10:
            return imm
    raise ConstructionError(
        "no coordinate 4-plane is Lagrangian for this table; "
        "searched all 35 candidates"
    )


# ---------------------------------------------------------------------------
# Berger metric curvature (intrinsic)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BergerSpec:
    """Berger metric weights <X1,X1> = w1, <X2,X2> = <X3,X3> = w23."""

    w1: float = 4 / 9
    w23: float = 8 / 3

    def __post_init__(self):
        if self.w1 <= 0 or self.w23 <= 0:
            raise ValueError("Berger weights must be positive")

    def frame_scales(self):
        return (1 / np.sqrt(self.w1), 1 / np.sqrt(self.w23), -1 / np.sqrt(self.w23))

    def curvature_coefficients(self):
        """(alpha, beta) with K(plane) = alpha + beta cos^2(angle to fiber).

        Computed from the Lie-bracket data of the orthonormal frame; for the
        default weights this gives (1/16, 20/16).
        """
        c1 = 2 * np.sqrt(self.w1) / self.w23
        c2 = 2 / np.sqrt(self.w1)
        c3 = c2
        s1 = 0.5 * (c2 + c3 - c1)
        s2 = 0.5 * (c1 + c3 - c2)
        s3 = 0.5 * (c1 + c2 - c3)
        k12 = c3 * s3 - s1 * s2
        k23 = c1 * s1 - s2 * s3
        return k12, k23 - k12

    def scalar_curvature(self):
        alpha, beta = self.curvature_coefficients()
        return 2 * (3 * alpha + beta)


def _berger_components(spec: BergerSpec, y, vectors):
    """Components of euclidean tangent 4-vectors in the orthonormal Berger frame."""
    y = np.asarray(y, dtype=float)
    fields = np.einsum("fab,...b->...fa", FIELD_MATS, y)
    raw = np.einsum("...fa,...a->...f", fields, np.asarray(vectors, dtype=float))
    weights = np.array([np.sqrt(spec.w1), np.sqrt(spec.w23), -np.sqrt(spec.w23)])
    return raw * weights


def berger_curvature(spec: BergerSpec, y, X, Y, Z, W):
    """Intrinsic curvature <R(X,Y)Z, W> of the Berger sphere at y, so the
    sectional curvature of span(X, Y) is berger_curvature(spec, y, X, Y, Y, X)
    normalized by the metric Gram determinant.

    Inputs are euclidean tangent 4-vectors at y; the tensor splits into a
    round part and a fiber-aligned part weighted by the metric coefficients.
    """
    comps = [_berger_components(spec, y, v) for v in (X, Y, Z, W)]
    cx, cy, cz, cw = comps
    alpha, beta = spec.curvature_coefficients()

    def pairing(u, v, skip_fiber):
        if skip_fiber:
            return np.sum(u[..., 1:] * v[..., 1:], axis=-1)
        return np.sum(u * v, axis=-1)

    full = pairing(cx, cw, False) * pairing(cy, cz, False) - pairing(cx, cz, False) * pairing(cy, cw, False)
    perp = pairing(cx, cw, True) * pairing(cy, cz, True) - pairing(cx, cz, True) * pairing(cy, cw, True)
    return alpha * full + beta * perp


# ---------------------------------------------------------------------------
# synthetic pointwise data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticH:
    """Pointwise second-fundamental-form data in an abstract adapted frame."""

    tag: str
    lam1: float
    lam2: float
    mu1: float
    mu2: float

    @property
    def name(self):
        return f"synthetic:{self.tag}"

    def tuple(self):
        return (self.lam1, self.lam2, self.mu1, self.mu2)

    def sff(self) -> geometry.SFF:
        from .canonical import reconstruct_sff

        return geometry.SFF(h=reconstruct_sff(self.tuple()))


_SYNTHETIC = {
    "a": (0.0, 0.0, 0.0, 0.0),
    "b": (_S5 / 4, _S5 / 4, np.sqrt(10.0) / 4, 0.0),
    "c": (_S5 / 4, _S5 / 4, 0.0, 0.0),
}


def synthetic_case(tag: str) -> SyntheticH:
    """Pointwise data for the three rigidity cases: totally geodesic (a),
    the constant-curvature 1/16 sphere (b), the Berger sphere (c)."""
    if tag not in _SYNTHETIC:
        raise ValueError(f"unknown synthetic case {tag!r}; expected one of a, b, c")
    return SyntheticH(tag, *_SYNTHETIC[tag])


# ---------------------------------------------------------------------------
# user-supplied polynomial immersions
# ---------------------------------------------------------------------------

def load_polynomial_immersion(path, table: MulTable | None = None) -> PolynomialSphereImmersion:
    """Load a polynomial immersion from a plain-text coefficient file.

    Lines read "component e1 e2 e3 e4 coefficient" with component in 1..7 and
    integer exponents of (y1..y4); '#' starts a comment.  The image is
    validated to lie on the unit sphere.
    """
    if table is None:
        table = default_table()
    terms = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 'component e1 e2 e3 e4 coeff'")
        comp = int(parts[0])
        expo = tuple(int(p) for p in parts[1:5])
        coeff = float(parts[5])
        if not 1 <= comp <= 7:
            raise ValueError(f"{path}:{lineno}: component must be in 1..7")
        if any(e < 0 for e in expo):
            raise ValueError(f"{path}:{lineno}: exponents must be nonnegative")
        terms.append((comp - 1, expo, coeff))
    if not terms:
        raise ValueError(f"{path}: no coefficient rows found")
    imm = PolynomialSphereImmersion(Path(path).stem, terms, table)
    rng = np.random.default_rng(0)
    y = rng.normal(size=(64, 4))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    residual = np.max(np.abs(np.sum(imm.embed(y) ** 2, axis=-1) - 1.0))
    if residual > 1e-8:
        raise ValueError(
            f"{path}: image does not lie on the unit six-sphere (residual {residual:.3e})"
        )
    return imm


MODEL_NAMES = ("dvv", "totally-geodesic", "synthetic:a", "synthetic:b", "synthetic:c")


def resolve_model(name: str, table: MulTable | None = None):
    """Model registry: built-in names, synthetic tags, or poly:<path> files."""
    if name == "dvv":
        return dvv_immersion(table)
    if name == "totally-geodesic":
        return totally_geodesic_immersion(table)
    if name.startswith("synthetic:"):
        return synthetic_case(name.split(":", 1)[1])
    if name.startswith("poly:"):
        return load_polynomial_immersion(name.split(":", 1)[1], table)
    raise ValueError(
        f"unknown model {name!r}; expected one of {MODEL_NAMES} or poly:<path>"
    )
