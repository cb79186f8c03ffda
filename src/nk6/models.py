"""Built-in immersions and reference data.

The star model is the Berger three-sphere embedded in the six-sphere through
an explicit degree-two polynomial map (Dillen, Verstraelen and Vrancken,
J. Math. Soc. Japan 42, 1990), written in the Cayley-Dickson convention of
the octonions, which `default_table()` returns unless NK6_TABLE_PATH names
another table file.  A table that does not fit the embedding is caught by
`verify`, not at start-up: its global sign flip, for one, keeps the image
Lagrangian and G(E2,E3) = J E1 but negates the cubic form, so `h_values`
fails.  A totally geodesic Lagrangian great sphere and pointwise synthetic
second-fundamental-form data complete the model zoo.

Polynomial immersions have exact jets from one derivative table per
polynomial, taken along the invariant fields X_f y = FIELD_MATS[f] y of S^3:
each X_f sends a monomial in y to monomials of the same degree, so the
ordered derivatives of order k are those monomials times one coefficient
matrix.  The Hopf chart only addresses points.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import canonical, geometry
from .cayley import MulTable, cayley_dickson_table, load_table
from .geometry import FIELD_MATS, ImmersionJet

__all__ = [
    "HopfChart",
    "PolynomialSphereImmersion",
    "BergerSpec",
    "SyntheticH",
    "dvv_immersion",
    "totally_geodesic_immersion",
    "synthetic_case",
    "berger_curvature",
    "default_table",
    "load_polynomial_immersion",
    "resolve_model",
    "MODEL_NAMES",
]


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

class HopfChart:
    """Hopf coordinates (eta, xi1, xi2) on the unit three-sphere,

    y = (cos eta cos xi1, cos eta sin xi1, sin eta cos xi2, sin eta sin xi2),

    with eta in [0, pi/2].  They address quadrature nodes and user points
    only: jets are taken in y, so the chart's poles eta in {0, pi/2}, where
    one angle becomes idle, are ordinary points of the geometry.
    """

    def to_y(self, q):
        q = np.asarray(q, dtype=float)
        c, s = np.cos(q), np.sin(q)
        y = np.empty(q.shape[:-1] + (4,))
        np.multiply(c[..., 0], c[..., 1], out=y[..., 0])
        np.multiply(c[..., 0], s[..., 1], out=y[..., 1])
        np.multiply(s[..., 0], c[..., 2], out=y[..., 2])
        np.multiply(s[..., 0], s[..., 2], out=y[..., 3])
        return y

    def from_y(self, y):
        """Chart points of unit y, the inverse of to_y (xi in [0, 2 pi))."""
        y = np.asarray(y, dtype=float)
        eta = np.arctan2(np.hypot(y[..., 2], y[..., 3]), np.hypot(y[..., 0], y[..., 1]))
        xi = np.arctan2(y[..., [1, 3]], y[..., [0, 2]]) % (2 * np.pi)
        return np.concatenate([eta[..., None], xi], axis=-1)

    def check_domain(self, q):
        """Refuse chart points with a non-finite coordinate or with eta
        outside [0, pi/2] by more than 1e-12."""
        eta = q[..., 0]
        if not (np.isfinite(q).all() and ((eta >= -1e-12) & (eta <= np.pi / 2 + 1e-12)).all()):
            raise ValueError("chart point outside domain: coordinates must be finite "
                             "and eta must lie in [0, pi/2]")

    def random_points(self, n, rng, margin=0.05):
        lo, hi = margin, np.pi / 2 - margin
        eta = rng.uniform(lo, hi, size=n)
        xi = rng.uniform(0.0, 2 * np.pi, size=(2, n))
        return np.stack([eta, xi[0], xi[1]], axis=-1)


# ---------------------------------------------------------------------------
# polynomial immersions of S^3
# ---------------------------------------------------------------------------

# the nonzero entries (a, b, M_f[a, b]) of each M_f = FIELD_MATS[f]
_FIELD_ENTRIES = tuple(tuple((int(a), int(b), float(m[a, b])) for a, b in zip(*np.nonzero(m)))
                       for m in FIELD_MATS)


def _x_partial(e, f):
    """X_f y^e = sum_ab e_a M_f[a, b] y^(e - 1_a + 1_b) as (exponents, factor)
    pairs."""
    out = []
    for a, b, m in _FIELD_ENTRIES[f]:
        if e[a]:
            de = list(e)
            de[a] -= 1
            de[b] += 1
            out.append((tuple(de), e[a] * m))
    return out


@lru_cache(maxsize=None)
def _derivative_table(terms):
    """Exponents (M, 4), coefficients and row counts of the ordered
    derivatives of the polynomial along the fields X_f up to order 3,
    X_fk ... X_f1 P(y) = y^expo[:rows[k]] @ coef[k] with coef[k] of shape
    (rows[k], 3^k * 7), flattened from (3, ..., 3, 7) with the last index
    outermost: the column of (f1, ..., fk) holds X_fk ... X_f1 P.

    Each X_f keeps the degree of a monomial, so a homogeneous polynomial has
    the same rows at every order.  Rows come in the order of the first k
    that reads them, so an order-k jet reads the prefix rows[k].  Cached on
    the terms and read-only, so every immersion of one polynomial shares it.
    """
    # column 7 flat + c: component c differentiated along the flat-th index
    # tuple of its order, as {exponents: weight}
    cols = [{} for _ in range(7)]
    for c, e, w in terms:
        cols[c][e] = cols[c].get(e, 0.0) + w
    index, coef, rows = {}, [], []
    for k in range(4):
        if k:
            # tuple 3 prev + f is tuple prev (of order k - 1) followed by f
            cols = [_derive(cols[7 * (j // 21) + j % 7], j // 7 % 3) for j in range(7 * 3**k)]
        entries = [(index.setdefault(e, len(index)), j, w)
                   for j, col in enumerate(cols) for e, w in col.items() if w != 0.0]
        rows.append(len(index))
        coef.append(np.zeros((len(index), len(cols))))
        for row, j, w in entries:
            coef[k][row, j] = w
    expo = np.array(list(index), dtype=int).reshape(-1, 4)
    for a in (expo, *coef):
        a.flags.writeable = False
    return expo, tuple(coef), tuple(rows)


def _derive(col, f):
    """One column {exponents: weight} differentiated along X_f."""
    out = {}
    for e, w in col.items():
        for de, factor in _x_partial(e, f):
            out[de] = out.get(de, 0.0) + factor * w
    return out


class PolynomialSphereImmersion:
    """Polynomial map R^4 -> R^7 restricted to S^3.

    `terms` is a sequence of (component, exponents, coefficient) with
    component in 0..6 and exponents a 4-tuple over (y1..y4).  Jets are exact
    and taken along the invariant fields X_f y = FIELD_MATS[f] y, which
    vanish nowhere: each X_f sends a monomial in y to monomials of the same
    degree, so one derivative table over those monomials, built once per
    polynomial, gives each order's ordered derivatives as the monomials times
    one coefficient matrix.  The chart only addresses points.  The model's
    frame is the scaled fields s_f X_f, `field_scales` (1, 1, 1) unless
    given.
    """

    chart = HopfChart()

    def __init__(self, name, terms, table: MulTable, field_scales=(1.0, 1.0, 1.0)):
        self.name = name
        self.table = table
        self.terms = tuple((int(c), tuple(int(e) for e in ex), float(co)) for c, ex, co in terms)
        self.field_scales = tuple(field_scales)
        self._table = _derivative_table(self.terms)

    def embed(self, y):
        return self.jet(y, 0).value

    def jet(self, q, order):
        """Value and ordered derivatives d1[a] = X_a P, d2[a, b] = X_b X_a P
        and d3[a, b, c] = X_c X_b X_a P at the points q = y of S^3, shape
        (..., 4), real or complex."""
        if not 0 <= order <= 3:
            raise ValueError("jet order must be in 0..3")
        y = np.asarray(q, dtype=complex if np.iscomplexobj(q) else float)
        expo, coef, rows = self._table
        flat = y.reshape(-1, 4)
        # the outputs are allocated before the monomials: with the products
        # allocated after them, integrate --rule 32,32,32 ran about 4% slower
        # in the benchmark (heap layout; no in-process A/B saw the difference)
        out = [np.empty((len(flat), 7 * 3**k), dtype=y.dtype) for k in range(order + 1)]
        mono = canonical._monomials(flat, expo[:rows[order]])
        for k, dst in enumerate(out):
            np.matmul(mono[:, :rows[k]], coef[k], out=dst)
        out = [d.reshape(y.shape[:-1] + (3,) * k + (7,)) for k, d in enumerate(out)]
        return ImmersionJet(order, *out, *[None] * (3 - order))

    def tangent_fields(self, q):
        """Rows (..., 3, 3) of the model's frame in the X basis, the scaled
        fields s_f X_f, over the batch of the points q = y of S^3, real or
        complex."""
        return np.broadcast_to(np.diag(self.field_scales), np.shape(q)[:-1] + (3, 3))

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


@lru_cache(maxsize=1)
def default_table() -> MulTable:
    """Ambient table: the file NK6_TABLE_PATH names if set, else Cayley-Dickson."""
    path = os.environ.get("NK6_TABLE_PATH")
    return load_table(path) if path else cayley_dickson_table()


# ---------------------------------------------------------------------------
# totally geodesic model
# ---------------------------------------------------------------------------

def totally_geodesic_immersion(table: MulTable | None = None) -> PolynomialSphereImmersion:
    """Unit sphere of the first coordinate 4-plane W, in lexicographic order,
    with W cross W orthogonal to W (a zero block f[W, W, W]).

    Such a W is the doubled half of a quaternion subalgebra.  At a unit x in
    W the tangent space T is W less the line of x, and J T = x cross T lies
    in the orthogonal complement of W, which is the normal space: the unit
    sphere of W is a totally geodesic Lagrangian great sphere.

    Every valid table has such a W: it is a signed relabeling of
    Cayley-Dickson, whose triples form the seven lines of a Fano plane, and
    the complement of any line contains no line, since two lines always meet.
    """
    if table is None:
        table = default_table()
    W = next(w for w in itertools.combinations(range(7), 4)
             if not np.any(table.f[np.ix_(w, w, w)]))
    terms = [(W[a], tuple(np.eye(4, dtype=int)[a]), 1.0) for a in range(4)]
    return PolynomialSphereImmersion("totally-geodesic", terms, table)


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
        return geometry.SFF(h=canonical.reconstruct_sff(self.tuple()))


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
        if not np.isfinite(coeff):
            raise ValueError(f"{path}:{lineno}: coefficient must be finite")
        terms.append((comp - 1, expo, coeff))
    if not terms:
        raise ValueError(f"{path}: no coefficient rows found")
    imm = PolynomialSphereImmersion(Path(path).stem, terms, table)
    rng = np.random.default_rng(0)
    y = rng.normal(size=(64, 4))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    residual = np.max(np.abs(np.sum(imm.embed(y) ** 2, axis=-1) - 1.0))
    if not residual <= 1e-8:
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
