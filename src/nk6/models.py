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
from ._series import Jet3, multi_indices, trig_jets
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
        q = np.asarray(q, dtype=float)
        eta, xi1, xi2 = q[..., 0], q[..., 1], q[..., 2]
        return np.stack(
            [
                np.cos(eta) * np.cos(xi1),
                np.cos(eta) * np.sin(xi1),
                np.sin(eta) * np.cos(xi2),
                np.sin(eta) * np.sin(xi2),
            ],
            axis=-1,
        )

    def y_jets(self, q, order):
        q = np.asarray(q, dtype=float)
        ce, se = trig_jets(q[..., 0], 0, order)
        c1, s1 = trig_jets(q[..., 1], 1, order)
        c2, s2 = trig_jets(q[..., 2], 2, order)
        return (ce * c1, ce * s1, se * c2, se * s2)

    def degeneracy_distance(self, q):
        eta = np.asarray(q, dtype=float)[..., 0]
        return np.minimum(np.abs(eta), np.abs(np.pi / 2 - eta))

    def check_domain(self, q, slack=1e-12):
        eta = np.asarray(q, dtype=float)[..., 0]
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


def _monomial(expo, y, cache):
    """Jet of prod_a y_a^expo_a, built on the lower powers memoized in `cache`.

    A module-level function rather than a closure: a recursive closure is a
    reference cycle, and it would keep every cached jet (a few MB per
    monomial on a large batch) alive until the cyclic garbage collector ran.
    """
    if expo not in cache:
        a = next(a for a in range(4) if expo[a] > 0)
        prev = list(expo)
        prev[a] -= 1
        cache[expo] = _monomial(tuple(prev), y, cache) * y[a]
    return cache[expo]


class PolynomialSphereImmersion:
    """Polynomial map R^4 -> R^7 restricted to S^3, addressed in a Hopf chart.

    `terms` is a sequence of (component, exponents, coefficient) with
    component in 0..6 and exponents a 4-tuple over (y1..y4).  Jets are exact:
    the chart trigonometric expansions are composed with the polynomial in
    truncated Taylor arithmetic.
    """

    def __init__(self, name, terms, table: MulTable, field_scales=None, chart=HOPF):
        self.name = name
        self.table = table
        self.chart = chart
        self.terms = tuple((int(c), tuple(int(e) for e in ex), float(co)) for c, ex, co in terms)
        self.field_scales = None if field_scales is None else tuple(field_scales)
        self._comp = np.array([t[0] for t in self.terms])
        self._expo = np.array([t[1] for t in self.terms])
        self._coef = np.array([t[2] for t in self.terms])

    # -- pointwise evaluation in y ------------------------------------------------
    def embed(self, y):
        y = np.asarray(y, dtype=float)
        mono = np.prod(y[..., None, :] ** self._expo, axis=-1)
        out = np.zeros(y.shape[:-1] + (7,))
        for j in range(7):
            mask = self._comp == j
            if np.any(mask):
                out[..., j] = mono[..., mask] @ self._coef[mask]
        return out

    def jacobian_y(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape[:-1] + (7, 4))
        for a in range(4):
            active = self._expo[:, a] > 0
            if not np.any(active):
                continue
            expo = self._expo[active].copy()
            coef = self._coef[active] * expo[:, a]
            expo[:, a] -= 1
            mono = np.prod(y[..., None, :] ** expo, axis=-1)
            comp = self._comp[active]
            for j in range(7):
                mask = comp == j
                if np.any(mask):
                    out[..., j, a] = mono[..., mask] @ coef[mask]
        return out

    # -- chart jets ---------------------------------------------------------------
    def jet(self, q, order, check_domain=True):
        q = np.asarray(q, dtype=float)
        if check_domain:
            self.chart.check_domain(q)
        y = self.chart.y_jets(q, order)
        one = Jet3.constant(np.ones(q.shape[:-1]), order)
        cache = {(0, 0, 0, 0): one}

        comps = []
        for j in range(7):
            total = Jet3.constant(np.zeros(q.shape[:-1]), order)
            for c, ex, co in self.terms:
                if c == j:
                    total = total + _monomial(ex, y, cache) * co
            comps.append(total)

        batch = q.shape[:-1]
        value = np.stack([c.partial((0, 0, 0), batch) for c in comps], axis=-1)
        d1 = d2 = d3 = None
        if order >= 1:
            d1 = np.empty(batch + (3, 7))
        if order >= 2:
            d2 = np.empty(batch + (3, 3, 7))
        if order >= 3:
            d3 = np.empty(batch + (3, 3, 3, 7))
        for alpha in multi_indices(order):
            tot = sum(alpha)
            if tot == 0:
                continue
            block = np.stack([c.partial(alpha, batch) for c in comps], axis=-1)
            axes = [a for a, m in enumerate(alpha) for _ in range(m)]
            for perm in set(itertools.permutations(axes)):
                if tot == 1:
                    d1[..., perm[0], :] = block
                elif tot == 2:
                    d2[..., perm[0], perm[1], :] = block
                else:
                    d3[..., perm[0], perm[1], perm[2], :] = block
        return ImmersionJet(order=order, value=value, d1=d1, d2=d2, d3=d3)

    # -- global tangent fields ------------------------------------------------------
    def tangent_fields(self, q):
        if self.field_scales is None:
            return None
        y = self.chart.to_y(np.asarray(q, dtype=float))
        jac = self.jacobian_y(y)
        fields = np.einsum("fab,...b->...fa", FIELD_MATS, y)
        scales = np.asarray(self.field_scales)
        fields = fields * scales[:, None]
        return np.einsum("...ca,...fa->...fc", jac, fields)

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
