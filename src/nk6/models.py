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

Polynomial immersions have exact chart jets from one derivative table per
polynomial: in the Hopf chart a monomial in y is a monomial in the cosines
and sines of the three angles, and so is each of its chart partials, so the
partials of order k are those monomials times one coefficient matrix.
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
from .geometry import ImmersionJet

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

@dataclass(frozen=True)
class HopfChart:
    """Hopf coordinates (eta, xi1, xi2) on the unit three-sphere.

    y = (cos eta cos xi1, cos eta sin xi1, sin eta cos xi2, sin eta sin xi2);
    the chart degenerates at eta in {0, pi/2} where one angle becomes idle.
    """

    extents: tuple = (np.pi / 2, 2 * np.pi, 2 * np.pi)

    def trig(self, q):
        """x = (cos eta, sin eta, cos xi1, sin xi1, cos xi2, sin xi2) at the
        chart points q (..., 3), real or complex: (..., 6).  Every y_a, and so
        every monomial in y, is a monomial in x."""
        q = np.asarray(q, dtype=complex if np.iscomplexobj(q) else float)
        return np.stack([np.cos(q), np.sin(q)], axis=-1).reshape(q.shape[:-1] + (6,))

    def to_y(self, q):
        x = self.trig(q)
        return x[..., [0, 0, 1, 1]] * x[..., 2:]

    def x_exponents(self, e):
        """Exponents over x of the monomial y^e, as y = (c0 c1, c0 s1, s0 c2, s0 s2)."""
        return (e[0] + e[1], e[2] + e[3], *e)

    def partial(self, e, axis):
        """d/dq_axis of x^e as (exponents, factor) pairs.  The angle q_axis
        enters only its own pair (c, s) = (x[2 axis], x[2 axis + 1]), and
        d(c^p s^r) = -p c^(p-1) s^(r+1) + r c^(p+1) s^(r-1)."""
        i = 2 * axis
        p, r = e[i:i + 2]
        out = []
        if p:
            out.append((e[:i] + (p - 1, r + 1) + e[i + 2:], -p))
        if r:
            out.append((e[:i] + (p + 1, r - 1) + e[i + 2:], r))
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


# jets evaluate the monomials and their matmuls on this many nodes at a time:
# a block's monomial array has a column per row of the chart table, 32 for
# the quadratic DVV map and far more for a degree-6 poly: model
_NODE_BLOCK = 4096


def _y_partial(e, a):
    """d/dy_a of y^e as (exponents, factor) pairs."""
    return [(e[:a] + (e[a] - 1,) + e[a + 1:], e[a])] if e[a] else []


@lru_cache(maxsize=None)
def _derivative_table(terms, chart=None):
    """Exponents (M, d), coefficients and row counts of the partials of the
    polynomial up to order K, D^k P(x) = x^expo[:rows[k]] @ coef[k] with
    coef[k] of shape (rows[k], n^k * 7), flattened from (n, ..., n, 7).

    Without a chart, x = y, the partials are d/dy_a (n = 4) and K = 1: the
    table of `embed` and `jacobian_y`.  With one, x = chart.trig(q), the
    partials are chart.partial's (n = 3) and K = 3: the table of `jet`.
    Rows come in the order of the first k that reads them, so an order-k jet
    reads the prefix rows[k].  Cached on (terms, chart) and read-only, so
    every immersion of one polynomial shares them.
    """
    n, top, start, partial = (4, 1, tuple, _y_partial) if chart is None else \
        (3, 3, chart.x_exponents, chart.partial)
    # column 7 flat + c: component c differentiated along the flat-th index
    # tuple of its order, as {exponents: weight}
    cols = [{} for _ in range(7)]
    for c, e, w in terms:
        cols[c][start(e)] = cols[c].get(start(e), 0.0) + w
    index, coef, rows = {}, [], []
    for k in range(top + 1):
        if k:
            # tuple n prev + a is tuple prev (of order k - 1) followed by a
            cols = [_derive(cols[7 * (j // (7 * n)) + j % 7], partial, j // 7 % n)
                    for j in range(7 * n**k)]
        entries = [(index.setdefault(e, len(index)), j, w)
                   for j, col in enumerate(cols) for e, w in col.items() if w != 0.0]
        rows.append(len(index))
        coef.append(np.zeros((len(index), len(cols))))
        for row, j, w in entries:
            coef[k][row, j] = w
    expo = np.array(list(index), dtype=int).reshape(-1, len(start((0,) * 4)))
    for a in (expo, *coef):
        a.flags.writeable = False
    return expo, tuple(coef), tuple(rows)


def _derive(col, partial, axis):
    """One column {exponents: weight} differentiated along `axis`."""
    out = {}
    for e, w in col.items():
        for de, factor in partial(e, axis):
            out[de] = out.get(de, 0.0) + factor * w
    return out


class PolynomialSphereImmersion:
    """Polynomial map R^4 -> R^7 restricted to S^3, addressed in a Hopf chart.

    `terms` is a sequence of (component, exponents, coefficient) with
    component in 0..6 and exponents a 4-tuple over (y1..y4).  Jets are exact:
    every monomial in y is a monomial in the chart's cosines and sines, and
    so is each of its chart partials, so a derivative table over those six
    variables, built once per polynomial, gives each order's partials as the
    monomials times one coefficient matrix.
    """

    def __init__(self, name, terms, table: MulTable, field_scales=None, chart=HOPF):
        self.name = name
        self.table = table
        self.chart = chart
        self.terms = tuple((int(c), tuple(int(e) for e in ex), float(co)) for c, ex, co in terms)
        self.field_scales = None if field_scales is None else tuple(field_scales)
        self._y_table = _derivative_table(self.terms)
        self._chart_table = _derivative_table(self.terms, chart)

    # -- pointwise evaluation in y ------------------------------------------------
    def embed(self, y):
        y = np.asarray(y, dtype=float)
        expo, coef, rows = self._y_table
        return (canonical._monomials(y.reshape(-1, 4), expo[:rows[0]]) @ coef[0]
                ).reshape(y.shape[:-1] + (7,))

    def jacobian_y(self, y):
        y = np.asarray(y, dtype=float)
        expo, coef, _ = self._y_table
        dp = (canonical._monomials(y.reshape(-1, 4), expo) @ coef[1]).reshape(-1, 4, 7)
        return np.swapaxes(dp, -1, -2).reshape(y.shape[:-1] + (7, 4))

    # -- chart jets ---------------------------------------------------------------
    def jet(self, q, order):
        if not 0 <= order <= 3:
            raise ValueError("jet order must be in 0..3")
        q = np.asarray(q, dtype=complex if np.iscomplexobj(q) else float)
        expo, coef, rows = self._chart_table
        flat = q.reshape(-1, 3)
        out = [np.empty((len(flat), 7 * 3**k), dtype=q.dtype) for k in range(order + 1)]
        for lo in range(0, len(flat), _NODE_BLOCK):
            hi = lo + _NODE_BLOCK
            mono = canonical._monomials(self.chart.trig(flat[lo:hi]), expo[:rows[order]])
            for k, dst in enumerate(out):
                np.matmul(mono[:, :rows[k]], coef[k], out=dst[lo:hi])
        out = [d.reshape(q.shape[:-1] + (3,) * k + (7,)) for k, d in enumerate(out)]
        return ImmersionJet(order, *out, *[None] * (3 - order))

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
    return PolynomialSphereImmersion(
        "totally-geodesic", terms, table, field_scales=(1.0, 1.0, 1.0))


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
