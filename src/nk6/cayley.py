"""Octonionic kernel: the seven-dimensional cross product and the induced
almost complex structure on the unit six-sphere.

The cross product is defined by totally antisymmetric structure constants
f[i,j,k] in {-1,0,+1} ("multiplication table").  The paper's convention is
the Cayley-Dickson doubling of the quaternions, `cayley_dickson_table()`;
`load_table` reads any other valid table from a file.  On the sphere the
product induces

    J_x U   = x cross U                 (almost complex structure)
    G(X, Y) = tangential part of X cross Y at x

and `verify_nk_identities` measures the residuals of the identities that
make (g, J, G) a strict nearly Kahler structure for any validated table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "MulTable",
    "TableError",
    "cayley_dickson_table",
    "load_table",
    "cross",
    "frame_products",
    "almost_complex",
    "g_tensor",
    "tangent_project",
    "check_sphere_point",
    "check_tangent",
    "random_tangent",
    "lagrangian_frame",
    "geodesic",
    "parallel_transport",
    "g_tensor_fd",
    "nabla_g_fd",
    "verify_nk_identities",
]

TOL_UNIT = 1e-12
# imaginary time of the complex-step derivatives along unit geodesics
COMPLEX_STEP = 1e-20

# One oriented Fano line per row; the sign fixes e_i x e_j = +-e_k.
# This is the Cayley-Dickson doubling of the quaternions: units 1..3 are
# the imaginary quaternions, units 4..7 the doubled half.
CAYLEY_DICKSON_TRIPLES = (
    ((1, 2, 3), 1),
    ((1, 4, 5), 1),
    ((1, 6, 7), -1),
    ((2, 4, 6), 1),
    ((2, 5, 7), 1),
    ((3, 4, 7), 1),
    ((3, 5, 6), -1),
)


class TableError(ValueError):
    """Raised when structure constants fail the cross-product axioms."""


def _dense_from_triples(triples):
    f = np.zeros((7, 7, 7))
    for (i, j, k), s in triples:
        even = ((i, j, k), (j, k, i), (k, i, j))
        odd = ((j, i, k), (i, k, j), (k, j, i))
        for a, b, c in even:
            f[a - 1, b - 1, c - 1] = s
        for a, b, c in odd:
            f[a - 1, b - 1, c - 1] = -s
    return f


def _canonical_triples(triples):
    out = []
    for (i, j, k), s in triples:
        arr = [i, j, k]
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if arr[a] > arr[b]:
                    arr[a], arr[b] = arr[b], arr[a]
                    sign = -sign
        out.append(((arr[0], arr[1], arr[2]), s * sign))
    return tuple(sorted(out))


@dataclass(frozen=True)
class MulTable:
    """Validated, immutable structure constants of the R^7 cross product."""

    f: np.ndarray = field(repr=False)
    triples: tuple = ()
    source: str = "builtin"

    @classmethod
    def from_triples(cls, triples, source="builtin") -> "MulTable":
        triples = _canonical_triples(triples)
        table = cls(f=_dense_from_triples(triples), triples=triples, source=source)
        table.validate()
        table.f.setflags(write=False)
        return table

    def validate(self) -> None:
        """Total antisymmetry plus the cross-product axiom, checked exactly.

        |u x v|^2 = |u|^2 |v|^2 - <u,v>^2 is biquadratic in (u, v), so
        verifying it on every basis vector and every two-element sum of
        basis vectors decides the identity.
        """
        f = self.f
        if f.shape != (7, 7, 7):
            raise TableError("structure constants must be a 7x7x7 array")
        if not np.all(np.isin(f, (-1.0, 0.0, 1.0))):
            raise TableError("structure constants must lie in {-1, 0, +1}")
        for perm, sign in ((
            (0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
        ):
            if not np.array_equal(np.transpose(f, perm), sign * f):
                raise TableError("structure constants are not totally antisymmetric")
        eye = np.eye(7)
        test = np.concatenate(
            [eye, [eye[i] + eye[j] for i in range(7) for j in range(i + 1, 7)]]
        )
        w = np.einsum("ijk,ui,vj->uvk", f, test, test)
        lhs = np.sum(w * w, axis=-1)
        gram = test @ test.T
        norms = np.diag(gram)
        rhs = np.outer(norms, norms) - gram**2
        if np.max(np.abs(lhs - rhs)) > 1e-9:
            raise TableError(
                "cross-product axiom violated: |u x v|^2 != |u|^2|v|^2 - <u,v>^2"
            )

    def describe(self) -> str:
        rows = ", ".join(
            f"e{i}xe{j}={'-' if s < 0 else ''}e{k}" for (i, j, k), s in self.triples
        )
        return f"MulTable[{self.source}: {rows}]"


@lru_cache(maxsize=1)
def cayley_dickson_table() -> MulTable:
    return MulTable.from_triples(CAYLEY_DICKSON_TRIPLES, source="cayley-dickson")


def load_table(path) -> MulTable:
    """Load structure constants from a plain-text file.

    Each non-comment line reads "i j k s" with 1-based indices and
    s in {+1, -1}, listing f_ijk = s once per line with i < j; every
    unlisted triple is zero.
    """
    triples = []
    seen = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise TableError(f"{path}:{lineno}: expected 'i j k s'")
        try:
            i, j, k = (int(p) for p in parts[:3])
            s = int(float(parts[3]))
        except ValueError as exc:
            raise TableError(f"{path}:{lineno}: non-numeric entry") from exc
        if len({i, j, k}) != 3 or not all(1 <= t <= 7 for t in (i, j, k)):
            raise TableError(f"{path}:{lineno}: indices must be distinct, in 1..7")
        if s not in (1, -1):
            raise TableError(f"{path}:{lineno}: sign must be +1 or -1")
        key = tuple(sorted((i, j, k)))
        canon = _canonical_triples([((i, j, k), s)])[0]
        if key in seen and seen[key] != canon[1]:
            raise TableError(f"{path}:{lineno}: conflicting sign for triple {key}")
        seen[key] = canon[1]
        triples.append(((i, j, k), s))
    if not triples:
        raise TableError(f"{path}: no triples found")
    return MulTable.from_triples(triples, source=str(path))


# ---------------------------------------------------------------------------
# products and the nearly Kahler tensors
# ---------------------------------------------------------------------------

def cross(u, v, table: MulTable):
    """Cross product of batched 7-vectors, u x v, real or complex.

    u x . is built as a 7 x 7 matrix per row of u (one matmul of u against
    the table flattened to 7 x 49), and v is applied to it by a second
    matmul; both broadcast over the leading axes.  This is BLAS work in
    place of a dense 343-term einsum per row, and no (..., 49) outer product
    of u and v is formed.
    """
    u, v = np.asarray(u), np.asarray(v)
    L = (u @ table.f.reshape(7, 49)).reshape(u.shape[:-1] + (7, 7))
    return (v[..., None, :] @ L)[..., 0, :]


def frame_products(table: MulTable, a, b, c):
    """<a_i x b_j, c_k> for frames a, b, c of shape (..., n, 7); (..., i, j, k).

    One `cross` on every pair (a_i, b_j), then a matmul with the transpose
    of c.  On a Lagrangian frame e, frame_products(table, e, e, J e) is
    <G(e_i, e_j), J e_k>, since G is the tangential part of the product.
    """
    c = np.asarray(c, dtype=float)
    pairs = cross(np.asarray(a)[..., :, None, :], np.asarray(b)[..., None, :, :], table)
    return pairs @ np.swapaxes(c, -1, -2)[..., None, :, :]


def tangent_project(x, v):
    """Project v onto the tangent space of the sphere at x."""
    return v - np.sum(v * x, axis=-1, keepdims=True) * x


def check_sphere_point(x, tol=TOL_UNIT):
    x = np.asarray(x, dtype=float)
    err = np.max(np.abs(np.sum(x * x, axis=-1) - 1.0))
    if err > tol:
        raise ValueError(f"point not on the unit sphere: |x|^2 - 1 = {err:.3e}")
    return x


def check_tangent(x, u, tol=1e-10):
    u = np.asarray(u, dtype=float)
    err = np.max(np.abs(np.sum(x * u, axis=-1)))
    if err > tol:
        raise ValueError(f"vector not tangent at base point: <x,u> = {err:.3e}")
    return u


def almost_complex(x, u, table: MulTable, check=True):
    """J_x u = x cross u for u tangent at x."""
    if check:
        x = check_sphere_point(x)
        u = check_tangent(x, u)
    return cross(x, u, table)


def g_tensor(x, X, Y, table: MulTable, check=True):
    """G(X, Y) at x: the tangential part of X cross Y.

    Closed form for the covariant derivative of J applied to Y; the
    complex-step oracle `g_tensor_fd` guards this formula.  With check=False
    it has no conjugate, so it takes complex points and vectors too.
    """
    if check:
        x = check_sphere_point(x)
        X = check_tangent(x, X)
        Y = check_tangent(x, Y)
    return tangent_project(x, cross(X, Y, table))


# ---------------------------------------------------------------------------
# sphere transport and complex-step oracles
# ---------------------------------------------------------------------------

def geodesic(x, X, t):
    """Unit-speed great circle through x with initial unit velocity X, at
    real or complex times t."""
    t = np.asarray(t)[..., None]
    return np.cos(t) * x + np.sin(t) * X


def parallel_transport(x, X, t, v):
    """Parallel transport of tangent v along the geodesic (x, X) to time t.

    X must be a unit tangent; the component of v along X rotates with the
    velocity while the orthogonal part stays fixed.
    """
    t = np.asarray(t)[..., None]
    a = np.sum(v * X, axis=-1, keepdims=True)
    v_perp = v - a * X
    velocity = -np.sin(t) * x + np.cos(t) * X
    return v_perp + a * velocity


def _transported_derivative(f, x, X, *vectors):
    """d/dt at t = 0 of f(x(t), v(t), ...) along the geodesic x(t) with
    initial velocity X, every v parallel-transported, projected to the
    tangent space at x.

    f must continue holomorphically in t, as every product here does: one
    evaluation at the imaginary time i COMPLEX_STEP along the unit geodesic
    gives the derivative as Im(.) / COMPLEX_STEP to O(COMPLEX_STEP^2), with
    no difference to cancel (Squire and Trapp, SIAM Rev. 40, 1998).
    """
    speed = np.linalg.norm(X, axis=-1, keepdims=True)
    Xu, t = X / speed, 1j * COMPLEX_STEP
    moved = f(geodesic(x, Xu, t), *(parallel_transport(x, Xu, t, v) for v in vectors))
    return tangent_project(x, moved.imag / COMPLEX_STEP) * speed


def g_tensor_fd(x, X, Y, table: MulTable):
    """Complex-step evaluation of (covariant derivative of J)(Y) along X.

    Y is parallel-transported along the geodesic with velocity X, so the
    J-correction term vanishes and the derivative of J(Y) projected back to
    the tangent space at x is G(X, Y).
    """
    return _transported_derivative(lambda xt, Yt: cross(xt, Yt, table), x, X, Y)


def nabla_g_fd(x, X, Y, Z, table: MulTable):
    """Complex-step evaluation of the covariant derivative of G along X.

    Transports Y and Z in parallel, differentiates t -> G(Y(t), Z(t)) along
    the geodesic, and projects to the tangent space at x.
    """
    return _transported_derivative(
        lambda xt, Yt, Zt: g_tensor(xt, Yt, Zt, table, check=False), x, X, Y, Z)


def random_tangent(x, rng):
    return tangent_project(x, rng.normal(size=x.shape))


def lagrangian_frame(x, table: MulTable, rng):
    """Orthonormal tangent triples (..., 3, 7) at points x (..., 7) with
    J e_i orthogonal to every e_j.  Such a frame spans a Lagrangian subspace
    of the tangent space and exists at every point: each e_i is a random
    vector with x and the earlier e_j, J e_j projected out, and since J is an
    isometry on the tangent space those five vectors are orthonormal."""
    x = check_sphere_point(x)
    frame, span = [], [x]
    for _ in range(3):
        v = rng.normal(size=x.shape)
        for w in span:
            v = v - np.sum(v * w, axis=-1, keepdims=True) * w
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        frame.append(v)
        span += [v, cross(x, v, table)]
    return np.stack(frame, axis=-2)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

IDENTITY_FORMULAS = {
    "antisymmetry": "G(X,Y) + G(Y,X) = 0",
    "complex_anticommutation": "G(X,JY) + J G(X,Y) = 0",
    "skew_adjointness": "g(G(X,Y),Z) + g(G(X,Z),Y) = 0",
    "product_expansion": (
        "g(G(X,Y),G(Z,W)) = g(X,Z)g(Y,W) - g(X,W)g(Z,Y)"
        " + g(JX,Z)g(Y,JW) - g(JX,W)g(Y,JZ)"
    ),
    "covariant_derivative": "(nabla_X G)(Y,Z) = g(Y,JZ)X + g(X,Z)JY - g(X,Y)JZ",
    "lagrangian_frame_products": "g(G(e_i,e_j),G(e_k,e_l)) = d_ik d_jl - d_il d_jk",
}


def verify_nk_identities(table: MulTable, n_samples: int = 1000, seed: int = 0) -> dict:
    """Worst residual of each identity in IDENTITY_FORMULAS, in its order,
    at n_samples random points and tangent vectors X, Y, Z, W.

    The covariant-derivative identity uses the parallel-transport complex
    step `nabla_g_fd`; the frame identity runs on Lagrangian frames at the
    first 8 points.  Residuals are reported, never raised.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_samples, 7))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    X, Y, Z, W = (random_tangent(x, rng) for _ in range(4))

    g = lambda a, b: np.sum(a * b, axis=-1)  # noqa: E731
    G = lambda a, b: g_tensor(x, a, b, table, check=False)  # noqa: E731
    worst = lambda r: float(np.max(np.abs(r)))  # noqa: E731
    JX, JY, JZ, JW = (cross(x, v, table) for v in (X, Y, Z, W))
    Gxy = G(X, Y)

    e = lagrangian_frame(x[:8], table, rng)
    Ge = g_tensor(x[:8, None, None, :], e[:, :, None, :], e[:, None, :, :], table, check=False)
    eye = np.eye(3)
    delta = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    return {
        "antisymmetry": worst(Gxy + G(Y, X)),
        "complex_anticommutation": worst(G(X, JY) + cross(x, Gxy, table)),
        "skew_adjointness": worst(g(Gxy, Z) + g(G(X, Z), Y)),
        "product_expansion": worst(g(Gxy, G(Z, W)) - (
            g(X, Z) * g(Y, W) - g(X, W) * g(Z, Y) + g(JX, Z) * g(Y, JW) - g(JX, W) * g(Y, JZ))),
        "covariant_derivative": worst(nabla_g_fd(x, X, Y, Z, table) - (
            g(Y, JZ)[..., None] * X + g(X, Z)[..., None] * JY - g(X, Y)[..., None] * JZ)),
        "lagrangian_frame_products": worst(np.einsum("nijc,nklc->nijkl", Ge, Ge) - delta),
    }
