"""Canonical adapted basis of a Lagrangian second fundamental form.

At a point, the cubic form f(u) = <h(u,u), Ju> attains a maximum Theta on the
unit tangent sphere; the maximizer e1, together with the eigenvectors of the
associated shape operator on its orthogonal complement, normalizes h to a
four-parameter form (lambda1, lambda2, mu1, mu2).  This module extracts that
normal form deterministically and provides both the direct matrix invariant
Q (commutators, mutual traces) and its closed polynomial form, each checked
against the other in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CanonicalData",
    "ClosedForms",
    "ReconstructionError",
    "EnclosureError",
    "cubic_form",
    "maximize_theta",
    "canonical_basis",
    "reconstruct_sff",
    "commutator_invariant_direct",
    "closed_forms",
]


class ReconstructionError(RuntimeError):
    """The extracted normal form does not reproduce the input tensor."""


def _h_array(sff_like):
    h = sff_like.h if hasattr(sff_like, "h") else np.asarray(sff_like, dtype=float)
    if h.shape[-3:] != (3, 3, 3):
        raise ValueError("second-fundamental-form coefficients must end in (3,3,3)")
    return h


def cubic_form(h, u):
    """f(u) = sum_{kij} h[k,i,j] u_k u_i u_j, the value <h(u,u), Ju>."""
    return np.einsum("...kij,...k,...i,...j->...", h, u, u, u)


def _dot(a, b):
    """sum_i a[i] b[i] over a leading axis of length 3, as separate products
    and sums in index order: einsum may fuse them, and whether it does
    depends on the batch's shape, so a column's value would depend on the
    columns beside it."""
    p = a * b
    return p[0] + p[1] + p[2]


_NXT, _FAR = np.array([1, 2, 0]), np.array([2, 0, 1])  # numpy converts a list per use


def _cross(a, b):
    """a x b over a leading axis of length 3, column by column as in _dot:
    (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1}."""
    return a[_NXT] * b[_FAR] - a[_FAR] * b[_NXT]


def _tangent_basis(u):
    """Orthonormal t1, t2 with (u, t1, t2) positively oriented, for unit u
    with its components on the leading axis, (3,) or (3, n), returned as
    T (2, 3, ...) with T[0] = t1 and T[1] = t2: t1 is the coordinate axis
    e_m along which |u| is smallest (the first on ties), made orthogonal to
    u, and t2 = u x t1."""
    a = np.abs(u)
    first = (a[0] <= a[1]) & (a[0] <= a[2])
    second = (a[1] <= a[2]) & ~first
    T = np.empty((2,) + u.shape)
    t1, t2 = T
    t1[...] = -np.where(first, u[0], np.where(second, u[1], u[2])) * u  # -u_m u
    t1[0] += first
    t1[1] += second
    t1[2] += ~(first | second)
    t1 /= np.sqrt(_dot(t1, t1))
    t2[...] = _cross(u, t1)
    return T


# ---------------------------------------------------------------------------
# Theta: seed on grid vertices, Newton polish, branch-and-bound enclosure
# ---------------------------------------------------------------------------

_SPLIT = 10            # level-0 cells per edge of each cube face
_MAX_DEPTH = 12        # quadtree depth at which an open enclosure fails
_MAX_OPEN = 512        # open cells per node at which an enclosure fails
_MAX_NEWTON = 60
# rows per seed matmul and per enclosure; slices beat whole blocks on one
# BLAS thread: seeding a DVV 8192-row block with one matmul took 12.8 against
# 10.6 ms (medians of 8 alternating runs, slower in all 8), and one enclosure
# of 8192 rotated xyz-orbit forms took 871 against 678 ms and peaked at 344
# against 46 MB (tracemalloc)
_CHUNK = 1024


class EnclosureError(RuntimeError):
    """The branch-and-bound enclosure of Theta did not close, so the polished
    maximum is not certified."""


@lru_cache(maxsize=None)
def _exponents(degree):
    """Exponent triples of the monomials of one degree in three variables."""
    return tuple(sorted({tuple(int(x) for x in np.bincount(t, minlength=3))
                         for t in np.ndindex(*(3,) * degree)}, reverse=True))


@lru_cache(maxsize=None)
def _fold(degree):
    """0/1 map (3**degree, n) from the flattened index orders of a degree-d
    coefficient tensor onto the monomials _exponents(degree); h.reshape(27)
    @ _fold(3) holds the coefficients of the cubic form f."""
    exps = _exponents(degree)
    F = np.zeros((3**degree, len(exps)))
    for flat, t in enumerate(np.ndindex(*(3,) * degree)):
        F[flat, exps.index(tuple(int(x) for x in np.bincount(t, minlength=3)))] = 1.0
    return F


@lru_cache(maxsize=None)
def _symmetrizer():
    """(27, 27) map h.reshape(27) -> its symmetrization, the mean over the six
    index orders: _fold(3) diag(1/multiplicity) _fold(3)^T, entries 1, 1/3
    and 1/6."""
    F = _fold(3)
    return (F / F.sum(axis=0)) @ F.T


def _unit(v):
    return v / np.sqrt(np.einsum("na,na->n", v, v))[:, None]


def _monomials(x, exponents):
    """The monomials x^e for the rows e of `exponents` (n, d) at the rows of
    x (m, d), real or complex: (m, n).  The powers of every variable come by
    repeated multiplication, then one gather of a variable's powers and one
    product per variable (no (m, n, d) temporary)."""
    exponents, xt = np.asarray(exponents), x.T
    powers = np.empty((int(exponents.max(initial=0)) + 1,) + xt.shape, dtype=x.dtype)
    powers[0] = 1.0
    for p in range(1, len(powers)):
        np.multiply(powers[p - 1], xt, out=powers[p])
    out = powers[exponents[:, 0], 0]
    for v in range(1, len(xt)):
        out *= powers[exponents[:, v], v]
    return np.ascontiguousarray(out.T)


# the cube's face normals: three orthogonal integer vectors, normalized,
# which turn the cube off the coordinate axes; see _coarse_cells
_AXES = np.array([[-3.0, 2.0, -1.0], [-23.0, -50.0, -31.0], [-8.0, -5.0, 14.0]])
_AXES /= np.linalg.norm(_AXES, axis=-1, keepdims=True)


def _face_offsets(pairs):
    """Per face k, the offsets s _AXES[k+1] + t _AXES[k+2] of the (s, t) pairs."""
    return np.array([[s * _AXES[(k + 1) % 3] + t * _AXES[(k + 2) % 3] for s, t in pairs]
                     for k in range(3)])


# offsets from a cell's gnomonic centre, per face, in units of the cell's
# planar half-side: its four corners, which are also the centres of its four
# quadrants in units of theirs, and the five points a split adds (its edge
# midpoints and its centre) with their places in the cell's 3 x 3 grid
_CORNERS = _face_offsets([(s, t) for s in (-1, 1) for t in (-1, 1)])
_NEW = np.array([(-1, 0), (0, -1), (0, 1), (1, 0), (0, 0)])
_NEW_OFFSETS = _face_offsets(_NEW)


@lru_cache(maxsize=None)
def _coarse_cells():
    """Level-0 grid: three faces of a cube, each split _SPLIT x _SPLIT.

    Together they cover the sphere modulo u -> -u.  Returns the vertices,
    3 (_SPLIT + 1)^2 unit vectors, with their cubic monomials and the
    indices of the (up to four, padded by repeats) cells they bound; and per
    cell its face, its centre as a gnomonic point (coefficient 1 on
    _AXES[face]) and the indices of its four vertices in _CORNERS order.
    The cube is turned off the coordinate axes, where the adapted frames of
    the reference models put the maximum: no grid point down to _MAX_DEPTH
    lies on an axis, so the maximizer is always Newton's, and a Newton that
    stalls cannot hide behind a sample that happens to hit the maximum.
    """
    n = _SPLIT + 1
    tick = -1.0 + 2.0 * np.arange(n) / _SPLIT
    face, a, b = (x.ravel() for x in np.meshgrid(np.arange(3), tick, tick, indexing="ij"))
    vertex = _unit(_AXES[face] + a[:, None] * _AXES[(face + 1) % 3]
                   + b[:, None] * _AXES[(face + 2) % 3])
    i, j = np.divmod(np.arange(len(face)) % (n * n), n)
    i = np.clip(i[:, None] + [-1, -1, 0, 0], 0, _SPLIT - 1)
    j = np.clip(j[:, None] + [-1, 0, -1, 0], 0, _SPLIT - 1)
    cells = (face[:, None] * _SPLIT + i) * _SPLIT + j
    k, i, j = np.meshgrid(np.arange(3), np.arange(_SPLIT), np.arange(_SPLIT), indexing="ij")
    first = ((k * n + i) * n + j).ravel()
    corner = first[:, None] + np.array([0, 1, n, n + 1])
    mid = -1.0 + (2 * np.arange(_SPLIT) + 1) / _SPLIT
    face, a, b = (x.ravel() for x in np.meshgrid(np.arange(3), mid, mid, indexing="ij"))
    point = _AXES[face] + a[:, None] * _AXES[(face + 1) % 3] + b[:, None] * _AXES[(face + 2) % 3]
    return vertex, _monomials(vertex, _exponents(3)), cells, face, point, corner


def _level0(hs):
    """Cubic coefficients c of each row, f at every level-0 vertex, |f| there
    and its largest value: two matmuls for the whole batch and one |f|
    pass, which the spectral bound and the open-vertex test of _enclose
    share."""
    coef = hs.reshape(-1, 27) @ _fold(3)
    F = coef @ _coarse_cells()[1].T
    absF = np.abs(F)
    return coef, F, absF, absF.max(axis=-1)


@lru_cache(maxsize=None)
def _seed_grid():
    """The seed vertices of maximize_theta: the level-0 vertices on every
    second grid line of each face, 3 x 6 x 6 of the 363 and still off the
    axes, with their cubic monomials transposed (10, 108)."""
    vertex, mono = _coarse_cells()[:2]
    n = _SPLIT + 1
    i, j = np.divmod(np.arange(len(vertex)) % (n * n), n)
    even = (i % 2 == 0) & (j % 2 == 0)
    return vertex[even], np.ascontiguousarray(mono[even].T)


def _forms(H, x):
    """For points x (3, n) and h as H (3, 9, n), H[c, 3b + a] = h[a, b, c]:
    A with A[b, a] = h(e_a, e_b, x), h(., x, x) and f(x)."""
    A = _dot(H, x[:, None]).reshape(3, 3, -1)
    v2 = _dot(A, x[:, None])
    return A, v2, _dot(v2, x)


def _plane_radius(H, T):
    """rho >= max |f(w)| over unit w in the plane of t1 = T[:, 0] and
    t2 = T[:, 1], for h as in _forms.  On w = cos(p) t1 + sin(p) t2,
    f = a cos^3 + 3b cos^2 sin + 3c cos sin^2 + d sin^3 with a = f(t1),
    b = h(t1,t1,t2), c = h(t1,t2,t2) and d = f(t2), which is the sum of the
    harmonics 3/4 ((a + c) cos p + (b + d) sin p) and
    1/4 ((a - 3c) cos 3p + (3b - d) sin 3p); rho adds their amplitudes."""
    # P[i, a] = h(e_a, t_i, t_i), then M[i, j] = h(t_j, t_i, t_i)
    G = _dot(H[:, None], T[:, :, None]).reshape(2, 3, 3, -1)
    P = _dot(G.transpose(1, 0, 2, 3), T[:, :, None])
    (a, b), (c, d) = _dot(P.transpose(1, 0, 2)[:, :, None], T[:, None])
    return (np.hypot(0.75 * (a + c), 0.75 * (b + d))
            + np.hypot(0.25 * (a - 3.0 * c), 0.25 * (3.0 * b - d)))


def _newton_step(A, f, x, grad, big):
    """Newton's step on the sphere at x (3, n), from A and f of _forms and the
    gradient, of which g = (x x grad) x x keeps the part tangent to x.  With
    w = x x g, |w| = |g|, and M = 6A - 3f I it is -|g|^2 (W g - B w) / (G W - B^2),
    G = g.Mg, B = w.Mg, W = w.Mw; unsafe where |GW - B^2| <= 1e-14 big^2 |g|^4."""
    w = _cross(x, grad)
    g = _cross(w, x)  # a roundoff along x would enter |g|^2 squared
    Mg, Mw = (6.0 * _dot(A, v[:, None]) - 3.0 * f * v for v in (g, w))
    G, B, W, gg = _dot(g, Mg), _dot(w, Mg), _dot(w, Mw), _dot(w, w)
    det = G * W - B * B
    safe = np.abs(det) > 1e-14 * big**2 * gg**2
    return -gg / np.where(safe, det, 1.0) * (W * g - B * w), safe


def _polish(hs, u, scale):
    """Safeguarded Newton ascent on the sphere from each row of u.

    A row stops once every component of its tangential gradient is at most
    1e-13 max(1, |h|); only the rows still moving are iterated, and each
    keeps h(u,.,.) from the step that moved it.  Returns the polished points,
    f there, the tangential gradient norm g, mu, minus the largest
    eigenvalue of the tangent Hessian (positive at a strict maximum), lmin,
    the least h(u,w,w) over unit tangent w, and _plane_radius in the tangent
    plane, each read where the row stopped, the only pass that builds a
    tangent basis.  Rows still moving after _MAX_NEWTON steps are returned
    as they are; neither certificate then accepts them.

    The rows are held as columns: h as one contiguous (3, 9, n) array and
    the points as (3, n), so that every quantity of a pass, from h(u,.,.)
    to the _newton_step, is a few products and sums of whole length-n rows,
    and no row's value depends on the others.
    """
    n = len(u)
    H = np.ascontiguousarray(hs.transpose(3, 2, 1, 0)).reshape(3, 9, n)
    out = u.T.copy()
    A, v2, f = _forms(H, out)
    f_out = f.copy()
    g_out, mu_out, lmin_out, rho_out = (np.empty_like(f) for _ in range(4))
    active, x, sc, big = np.arange(n), out, scale, np.maximum(scale, 1.0)
    for it in range(_MAX_NEWTON + 1):
        grad = 3.0 * (v2 - f * x)
        moving = np.abs(grad).max(axis=0) > 1e-13 * big
        moving &= it < _MAX_NEWTON  # the pass after the last step only reads g and mu
        if not moving.all():
            # the last pass reads every row still active without copying it
            done = ~moving if moving.any() else slice(None)
            stop, fd, gd = active[done], f[done], grad[:, done]
            Tc = _tangent_basis(x[:, done]).transpose(1, 0, 2)
            # Hessian 6 h(t_i, t_j, x) - 3 f delta_ij, Tc[a, i] = (t_i)_a, AT[j, a] = h(e_a, t_j, x)
            AT = _dot(A[:, None, :, done], Tc[:, :, None])
            hess = _dot(Tc[:, :, None], AT.transpose(1, 0, 2)[:, None])
            h11, h22 = 6.0 * hess[0, 0] - 3.0 * fd, 6.0 * hess[1, 1] - 3.0 * fd
            mean, radius = 0.5 * (h11 + h22), np.hypot(0.5 * (h11 - h22), 6.0 * hess[0, 1])
            g_out[stop], mu_out[stop] = np.sqrt(_dot(gd, gd)), -(mean + radius)
            # h(u,w,w) = (w.Hw + 3f)/6 on unit tangent w
            lmin_out[stop] = (mean - radius + 3.0 * fd) / 6.0
            rho_out[stop] = _plane_radius(H[:, :, done], Tc)
            if not moving.any():
                break
            keep = np.flatnonzero(moving)
            active, H, x, sc, big, A, v2, f, grad = (
                np.take(y, keep, axis=-1) for y in (active, H, x, sc, big, A, v2, f, grad))
        s, safe = _newton_step(A, f, x, grad, big)
        # fall back to a short ascent step where the tangent Hessian degenerates
        step = np.where(safe, s, grad / np.maximum(sc, 1e-30) * 0.05)
        norm = np.sqrt(_dot(step, step))
        step = np.where(norm > 0.2, step * (0.2 / np.maximum(norm, 1e-30)), step)
        unew = x + step
        unew /= np.sqrt(_dot(unew, unew))
        A_new, v2_new, f_new = _forms(H, unew)
        up = f_new >= f - 1e-14 * big
        x, A, v2, f = (np.where(up, new, old)
                       for new, old in ((unew, x), (A_new, A), (v2_new, v2), (f_new, f)))
        out[:, active], f_out[active] = x, f
    return out.T, f_out, g_out, mu_out, lmin_out, rho_out


# the constants of _dominant: max (1 - c)^(1/2) (1 + c)^(3/2) over [-1, 1],
# at c = 1/2, and max 3d(1 - d^2) over [0, 1], at d = 1/sqrt(3)
_CUBIC_PEAK = 3.0 * np.sqrt(3.0) / 4.0
_SADDLE_PEAK = 2.0 / np.sqrt(3.0)


def _dominant(scale, theta, g, mu, lmin, rho):
    """Rows whose polished point u (_polish's outputs) carries the maximum of
    f within tol = 1e-12 max(1, |h|): the closed-form certificate.

    Write a unit vector v = c u + s w, w a unit vector orthogonal to u and
    s = sqrt(1 - c^2) >= 0.  Then
    f(v) = theta c^3 + c^2 s grad.w + 3 c s^2 h(u,w,w) + s^3 f(w), with
    |grad.w| <= g, lmin <= h(u,w,w) <= lmax = (3 theta - mu)/6 and
    |f(w)| <= rho.  For c >= 0, theta - f(v) + g is at least
    (1 - c) (theta (1 - k) + mu k) - rho s^3, k = c (1 + c)/2 in [0, 1],
    so at least (1 - c) (min(theta, mu) - _CUBIC_PEAK rho).  For c = -d < 0
    it is at least theta - _SADDLE_PEAK max(-lmin, 0) - rho.  Both margins
    at least tol and g <= tol give sup |f| = sup f <= theta + tol.
    """
    tol = 1e-12 * np.maximum(scale, 1.0)
    return ((g <= tol)
            & (np.minimum(theta, mu) - _CUBIC_PEAK * rho >= tol)
            & (theta - _SADDLE_PEAK * np.maximum(-lmin, 0.0) - rho >= tol))


def _ball_radius(f, g, mu, sigma, theta, tol):
    """Radius of the ball around +-u, a Newton point with value f, gradient
    norm g and curvature mu, on which |f| <= theta + tol; -1 where none.

    sigma bounds the spectral norm max |h(a,b,c)| over unit a, b, c (see
    _enclose).  Along a unit-speed great circle y from u,
    f'' = 6h(y,y',y') - 3f starts at most -mu and
    |f'''| = |6h(y',y',y') - 21h(y,y,y')| <= 27 sigma, so
    f <= f(u) + g t - (mu/2 - (9/2) sigma t) t^2 <= f(u) + g r for
    t <= r = mu/(9 sigma).  As |f'| <= 3 sigma, f >= -f(u) for
    t <= 2f(u)/(3 sigma), which covers -u by oddness.
    """
    r = np.minimum(mu, 6.0 * f) / (9.0 * np.maximum(sigma, 1e-300))
    return np.where((mu > 0) & (f > 0) & (f + g * r <= theta + tol), r, -1.0)


def _best_per_node(node, value):
    """Per node present, its row with the largest value (the last on ties)."""
    order = np.lexsort((value, node))
    return order[np.diff(node[order], append=-1) != 0]


def _covered(c, node, ball_u, ball_r, delta, slots):
    """Rows whose cell (centre c, angular radius delta) lies inside a ball of
    its node: radius ball_r[node, s] around +-ball_u[node, s] for s in slots."""
    r = ball_r[node[:, None], slots]
    dots = np.abs(np.einsum("na,nsa->ns", c, ball_u[node[:, None], slots]))
    return (dots >= np.where(r > delta, np.cos(r - delta), 2.0)).any(axis=-1)


def _curvature_term(sigma, half):
    """How far |f| can rise above its largest corner value on a cell of
    planar half-side `half`, for a form of spectral norm sigma; see _enclose."""
    return 9.0 * sigma * half**2


def _spectral_bound(scale, top):
    """The spectral-norm bound min(|h|, max_vertices |f| / (1 - 9 half0^2)),
    half0 = 1/_SPLIT, of each row from top = max_vertices |f| on the
    level-0 vertices; see _enclose."""
    return np.minimum(scale, top / (1.0 - _curvature_term(1.0, 1.0 / _SPLIT)))


# a fixed generic direction that picks one maximizer among tied maxima
_TIE_BREAK = np.array([5.0, -7.0, 11.0]) / np.sqrt(195.0)


def _tie_break(theta, tol, found):
    """Per node, among the polished points (node, u, f) of `found` with f
    within tol of its theta, the u with the largest <u, _TIE_BREAK>: the
    coordinates of tied maxima tie on symmetric forms, their projections on
    a generic direction do not."""
    node, u, f = (np.concatenate(x) for x in zip(*found))
    key = np.where(f >= theta[node] - tol[node], u @ _TIE_BREAK, -np.inf)
    return u[_best_per_node(node, key)]


def _enclose(hs, scale, seed):
    """Certify that theta is the maximum of f within 1e-12 max(1, |h|) per row.

    `seed` is _polish's output at one start per row, of which (u, f, g, mu)
    are read.  Let sigma = max |h(a,b,c)| over unit vectors a, b, c, the
    spectral norm of h; for a symmetric form it equals max |f| (S. Banach,
    Studia Math. 7, 1938).  Along unit-speed
    great circles |f''| = |6h(y,y',y') - 3f| <= 9 sigma, so on an arc of
    length L f lies within (9/8) sigma L^2 of the chord between its end
    values.  The
    gnomonic map sends lines to great circles and shrinks lengths, so the
    edges of a cell of planar half-side `half`, and the lines through it
    parallel to them, are arcs of length at most 2 half.  Interpolating
    along one edge pair and then across gives, on the whole cell,
    |f| <= max_corners |f| + 9 sigma half^2.
    On the level-0 cells (half0 = 1/_SPLIT) this reads
    sigma = max |f| <= max_vertices |f| + 9 sigma half0^2, so sigma is at
    most sigma^ = min(|h|, max_vertices |f| / (1 - 9 half0^2))
    (_spectral_bound), and sigma^ stands in for sigma in every cell bound
    and in _ball_radius.

    Branch and bound over the coarse cells: cells whose bound is within
    tolerance of theta are dropped, as are cells inside a ball of
    _ball_radius around a point polished for their node.  A node keeps one
    ball per depth: the seed's in slot 0, the largest from depth d in slot
    d + 1 (radius -1: none).  A ball stays valid as theta rises, as on it
    f <= f(u) + g r <= theta_then + tol <= theta_now + tol.  At level 0 both
    tests run on the vertices first: a cell stays open only at a vertex
    above theta + tol - 9 sigma^ half0^2 outside the seed's ball by more
    than a cell diameter.  At each depth a node polishes its open cell with
    the largest |corner|, and every cell whose best corner beats theta,
    which raises theta; then the open cells are split in four, which
    evaluates f at the four edge midpoints and the centre of each.  Returns
    theta, the largest polished value, and u, the polished point chosen by
    _tie_break among those within tolerance of theta, so that tied maxima
    give the same u whatever order they were polished in.  Raises
    EnclosureError when cells stay open at _MAX_DEPTH or more than
    _MAX_OPEN stay open on one row; its `rows` are the failing rows of hs.
    """
    u, theta, g, mu = seed[:4]
    theta = theta.copy()
    tol = 1e-12 * np.maximum(scale, 1.0)
    coef, F, absF, fmax = _level0(hs)
    sigma = _spectral_bound(scale, fmax)
    seed_r = _ball_radius(theta, g, mu, sigma, theta, tol)

    vertex, _, cells, face0, point0, corner0 = _coarse_cells()
    half = 1.0 / _SPLIT  # planar half-side of the cells at the current depth
    # a cell is open when one of its corners is; flat indices and np.take
    # gather those several times faster than 2-D np.nonzero and fancy indexing
    flat = np.flatnonzero(absF > (theta + tol - _curvature_term(sigma, half))[:, None])
    node, vert = np.divmod(flat, F.shape[1])
    # the cells at a corner within r - 2 delta0 of +-u lie in the ball of
    # radius r: delta0 = sqrt(2) half0 bounds their angular radius
    reach = seed_r - 2.0 * np.sqrt(2.0) * half
    near = np.abs(np.einsum("na,na->n", np.take(vertex, vert, axis=0), u[node]))
    far = near < np.where(reach > 0, np.cos(reach), 2.0)[node]
    if not far.any():
        return u, theta
    pair = np.unique(node[far, None] * len(face0) + np.take(cells, vert[far], axis=0))
    node, cell = np.divmod(pair, len(face0))
    face, point = np.take(face0, cell), np.take(point0, cell, axis=0)
    corner = np.take(F, node[:, None] * F.shape[1] + np.take(corner0, cell, axis=0))
    ball_u = np.repeat(u[:, None], _MAX_DEPTH + 2, axis=1)
    ball_r = np.where(np.arange(_MAX_DEPTH + 2) == 0, seed_r[:, None], -1.0)
    found = [(np.arange(len(u)), u, theta.copy())]  # every polished (node, u, f)

    for depth in range(_MAX_DEPTH + 1):
        delta = np.sqrt(2.0) * half  # the gnomonic map shrinks distances
        c = _unit(point)
        best = np.argmax(np.abs(corner), axis=-1)
        fbest = np.take_along_axis(corner, best[:, None], axis=-1)[:, 0]
        bound = np.abs(fbest) + _curvature_term(sigma[node], half)
        keep = bound - theta[node] > tol[node]
        keep[keep] = ~_covered(c[keep], node[keep], ball_u, ball_r, delta, np.arange(depth + 1))
        pick = _best_per_node(node, np.where(keep, np.abs(fbest), -1.0))
        idx = np.union1d(pick[keep[pick]], np.flatnonzero(np.abs(fbest) > theta[node]))
        if idx.size:
            start = _unit(point[idx] + half * _CORNERS[face[idx], best[idx]])
            start *= np.where(fbest[idx] < 0, -1.0, 1.0)[:, None]
            pnode = node[idx]
            pu, pf, pg, pmu = _polish(hs[pnode], start, scale[pnode])[:4]
            np.maximum.at(theta, pnode, pf)
            found.append((pnode, pu, pf))
            pr = _ball_radius(pf, pg, pmu, sigma[pnode], theta[pnode], tol[pnode])
            top = _best_per_node(pnode, pr)
            ball_u[pnode[top], depth + 1], ball_r[pnode[top], depth + 1] = pu[top], pr[top]
        excess = bound - theta[node]
        keep &= excess > tol[node]
        keep[keep] = ~_covered(c[keep], node[keep], ball_u, ball_r, delta, [depth + 1])
        if not keep.any():
            return _tie_break(theta, tol, found), theta
        node, face, point, corner, excess = (x[keep] for x in (node, face, point, corner, excess))
        if depth == _MAX_DEPTH or np.bincount(node).max() > _MAX_OPEN:
            err = EnclosureError(
                f"Theta enclosure did not close on {np.unique(node).size} of "
                f"{len(hs)} node(s) that the closed form left open, by depth {depth} "
                f"({len(node)} open cells): the worst open bound exceeds the polished "
                f"maximum by {excess.max():.3e}"
            )
            err.rows = np.unique(node)
            raise err
        # split every open cell into its four quadrants: f at the five new
        # points fills the 3 x 3 grid whose 2 x 2 windows are their corners
        new = _unit((point[:, None, :] + half * _NEW_OFFSETS[face]).reshape(-1, 3))
        fnew = np.einsum("nj,npj->np", coef[node],
                         _monomials(new, _exponents(3)).reshape(len(node), len(_NEW), -1))
        grid = np.empty((len(node), 3, 3))
        grid[:, ::2, ::2] = corner.reshape(-1, 2, 2)
        grid[:, _NEW[:, 0] + 1, _NEW[:, 1] + 1] = fnew
        corner = np.lib.stride_tricks.sliding_window_view(grid, (2, 2), axis=(1, 2)).reshape(-1, 4)
        half /= 2.0
        point = (point[:, None, :] + half * _CORNERS[face]).reshape(-1, 3)
        node, face = np.repeat(node, 4), np.repeat(face, 4)


def _row_ranges(rows):
    """Sorted row indices as runs, '3, 7-9, 12', with ', ...' after eight."""
    runs = [f"{r[0]}" if len(r) == 1 else f"{r[0]}-{r[-1]}"
            for r in np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1)]
    return ", ".join(runs[:8]) + (", ..." if len(runs) > 8 else "")


def maximize_theta(sff_like):
    """Certified global maximum of the cubic form over the unit tangent sphere.

    Deterministic, in four steps on one fixed grid (three faces of a cube
    turned off the coordinate axes, split 10 x 10 and projected to the
    sphere, which they cover modulo u -> -u; the form is odd, so that half
    suffices):

    1. Seed: per _CHUNK rows, one matmul against the cubic monomials gives f
       at the grid vertices on every second grid line (108 of the 363), and
       the best vertex of each node is kept.
    2. Polish: one _polish of all the rows drives each tangential gradient
       below 1e-13 max(1, |h|); its arrays grow with the rows of the call,
       which integrate caps at simons._NODE_BLOCK.
    3. Closed form: a row whose polished maximum dominates, by margins read
       off its gradient, its tangent Hessian and the form on its tangent
       plane, is certified without the grid (_dominant).  Every DVV node
       is; tied or nearly tied maxima and a stalled Newton are not.
    4. Enclose the other rows, _CHUNK slice by slice: branch and bound over
       the cells proves that no point beats the polished value by more than
       1e-12 max(1, |h|); a cell whose best corner does beat it is polished
       in turn and raises it.  A cell is bounded by its largest corner value
       plus a curvature term, or by a ball around a polished point, valid
       however theta rises later: one per node and depth, so tied maxima
       close with one polish each, and the maximizer among them is chosen
       by a fixed direction.  Both use a bound on the spectral norm
       max |h(a,b,c)| read off the vertices, which by Banach's theorem
       (Studia Math. 7, 1938) is max |f|; see _enclose.

    Returns (maximizer, theta) with f(maximizer) = theta, or within 1e-12
    max(1, |h|) of it where maxima tie; a vanishing form yields (e1, 0).
    Raises ValueError, naming the first row, on a form with a non-finite
    entry.  Raises EnclosureError when the enclosure does not close within
    its depth and cell caps, so no uncertified theta is returned; its
    message ends with the failing rows within the batch.
    """
    h = _h_array(sff_like)
    batch = h.shape[:-3]
    # min and max need no temporary the size of h; a NaN anywhere makes them NaN
    if not (np.isfinite(h.min(initial=0.0)) and np.isfinite(h.max(initial=0.0))):
        bad = np.flatnonzero(~np.isfinite(h.reshape(-1, 27)).all(axis=-1))
        raise ValueError(f"second fundamental form row {bad[0]} of {h.size // 27} "
                         "has a non-finite entry")
    hs = (h.reshape(-1, 27) @ _symmetrizer()).reshape(-1, 3, 3, 3)
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    u, theta = np.eye(1, 3).repeat(len(hs), axis=0), np.zeros(len(hs))
    rows = np.flatnonzero(scale >= 1e-15)
    if not rows.size:
        return u.reshape(batch + (3,)), theta.reshape(batch)
    hs, sc = hs[rows], scale[rows]
    # the positions in `rows` of each _CHUNK slice of the input
    parts = np.split(np.arange(len(rows)), np.searchsorted(rows, range(_CHUNK, len(u), _CHUNK)))
    vertex, mono = _seed_grid()
    start = np.empty((len(rows), 3))
    for part in parts:
        F = hs[part].reshape(-1, 27) @ _fold(3) @ mono
        best = np.argmax(np.abs(F), axis=-1)
        start[part] = vertex[best] * np.where(F[np.arange(len(part)), best] < 0, -1.0, 1.0)[:, None]
    seed = _polish(hs, start, sc)
    u[rows], theta[rows] = seed[:2]
    refused = ~_dominant(sc, *seed[1:])
    for grid in (part[refused[part]] for part in parts if refused[part].any()):
        try:
            u[rows[grid]], theta[rows[grid]] = _enclose(hs[grid], sc[grid], [x[grid] for x in seed])
        except EnclosureError as exc:
            failing = rows[grid[exc.rows]]
            exc.args = (f"{exc} [row{'s' if len(failing) > 1 else ''} "
                        f"{_row_ranges(failing)} of {len(u)}]",)
            raise
    return u.reshape(batch + (3,)), theta.reshape(batch)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalData:
    """Normal-form invariants and the bases realizing them (rows e1, e2, e3)
    with the batch shape of `canonical_basis`'s input: floats for one tensor."""

    basis: np.ndarray
    lambda1: float
    lambda2: float
    mu1: float
    mu2: float
    reconstruction_residual: float = 0.0

    @property
    def theta(self):
        return self.lambda1 + self.lambda2

    def tuple(self):
        return (self.lambda1, self.lambda2, self.mu1, self.mu2)

    def constraint_slack(self):
        """Worst violation of the normal-form inequality constraints.

        theta >= 0, 3*lambda1 + lambda2 >= 0, 3*lambda2 + lambda1 >= 0 and
        |mu_i| <= theta; nonpositive slack means all constraints hold.
        """
        l1, l2, m1, m2 = self.tuple()
        return np.max([-(l1 + l2), -(3 * l1 + l2), -(3 * l2 + l1), np.abs(m1) - (l1 + l2),
                       np.abs(m2) - (l1 + l2)], axis=0)


def _as_tuple4(source):
    if isinstance(source, CanonicalData):
        return source.tuple()
    if isinstance(source, (tuple, list)) and len(source) == 4:
        return tuple(np.asarray(v, dtype=float) for v in source)
    arr = np.asarray(source, dtype=float)
    if arr.shape[-1] == 4:
        return tuple(arr[..., i] for i in range(4))
    raise ValueError("expected CanonicalData or a (lambda1, lambda2, mu1, mu2) tuple")


@lru_cache(maxsize=None)
def _normal_form_map():
    """(4, 27) map of a tuple (lambda1, lambda2, mu1, mu2) onto the
    flattened h[k, i, j] of its normal form, fully symmetric with entries
    0 and +-1: h_111 = lambda1 + lambda2, h_122 = -lambda1,
    h_133 = -lambda2, h_222 = mu1, h_223 = mu2, h_233 = -mu1 and
    h_333 = -mu2.  Each entry of h sums at most two tuple entries, so the
    product is exact."""
    C = np.zeros((4, 3, 3, 3))
    for slot, sign, index in ((0, 1, (0, 0, 0)), (1, 1, (0, 0, 0)), (0, -1, (0, 1, 1)),
                              (1, -1, (0, 2, 2)), (2, 1, (1, 1, 1)), (3, 1, (1, 1, 2)),
                              (2, -1, (1, 2, 2)), (3, -1, (2, 2, 2))):
        for p in itertools.permutations(index):
            C[(slot,) + p] = sign
    return C.reshape(4, 27)


def reconstruct_sff(source, basis=None):
    """Second-fundamental-form coefficients h[k, i, j] generated by a
    normal-form tuple: the shape-operator matrices H[k] = (h^{k*}_{ij}) of the
    normal form, traceless by construction.

    With `basis` (rows e1, e2, e3 in some ambient frame) the tensor is
    expressed back in that ambient frame.
    """
    t = (source if isinstance(source, np.ndarray) and source.shape[-1:] == (4,)
         else np.stack(np.broadcast_arrays(*_as_tuple4(source)), axis=-1))
    h = (t @ _normal_form_map()).reshape(t.shape[:-1] + (3, 3, 3))
    if basis is None:
        return h
    R = np.asarray(basis, dtype=float)
    return np.einsum("...KIJ,...Ka,...Ib,...Jc->...abc", h, R, R, R)


def canonical_basis(sff_like) -> CanonicalData:
    """Extract the normal form of second fundamental forms h (..., 3, 3, 3).

    e1 maximizes the cubic form; e2, e3 diagonalize the shape operator of
    J e1 restricted to the orthogonal complement (eigenvalues -lambda1 and
    -lambda2 with lambda1 >= lambda2).  When that restriction is umbilic the
    pair is rotated so that mu2 = 0 and mu1 >= 0; remaining sign freedom is
    fixed by making mu1 and mu2 nonnegative.  A form with |h| < 1e-14 gives
    the zero tuple in the identity basis.  Every step runs on the whole
    batch: e1 comes from one maximize_theta call, and each row's values are
    its own, equal to roundoff to those of the row alone (numpy rounds
    products over a batch and over one row differently).  Raises
    ReconstructionError, naming the failing rows, when the reassembled
    tensor misses the input by more than 1e-8 max(1, |h|).
    """
    h = _h_array(sff_like)
    batch, hs = h.shape[:-3], h.reshape(-1, 3, 3, 3)
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    big = np.maximum(scale, 1.0)[:, None]
    e1, _ = maximize_theta(hs)
    # T[n] = (t1, t2), contiguous so that each 2 x 3 product is one matmul
    T = np.ascontiguousarray(_tangent_basis(e1.T).transpose(2, 0, 1))
    w, vecs = np.linalg.eigh(T @ np.einsum("nkij,nk->nij", hs, e1) @ T.transpose(0, 2, 1))
    # E[n, c] = vecs[n, 0, c] t1 + vecs[n, 1, c] t2: e2 for c = 0, e3 for c = 1
    E = vecs[:, 0, :, None] * T[:, :1] + vecs[:, 1, :, None] * T[:, 1:]
    rows = E.reshape(-1, 3)  # deterministic eigenvector sign
    lead = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=-1)]
    np.negative(E, out=E, where=lead.reshape(-1, 2, 1) < 0)

    def mu(E):  # h(e2, e2, e2) and h(e3, e2, e2), each as cubic_form sums it
        return np.einsum("nkij,nck,ni,nj->nc", hs, E, E[:, 0], E[:, 0])

    umbilic = np.abs(w[:, :1] - w[:, 1:]) < 1e-8 * big
    if umbilic.any():
        m = mu(E)
        ang = (np.arctan2(m[:, 1], m[:, 0]) / 3.0)[:, None, None]
        # (e2, e3) -> (cos e2 + sin e3, -sin e2 + cos e3)
        turned = np.cos(ang) * E + np.sin(ang) * E[:, ::-1] * [[1.0], [-1.0]]
        E = turned if umbilic.all() else np.where(umbilic[..., None], turned, E)
    # mu1 is odd in e2 and even in e3, mu2 the reverse, so a flip negates
    # one of them exactly
    m = mu(E)
    flip = m < -1e-12 * big
    if flip.any():
        np.negative(E, out=E, where=flip[..., None])
        np.negative(m, out=m, where=flip)

    basis, tup = np.concatenate([e1[:, None], E], axis=1), np.concatenate([-w, m], axis=-1)
    zero = scale < 1e-14
    if zero.any():
        basis[zero], tup[zero] = np.eye(3), 0.0
    residual = np.sqrt(np.sum((hs - reconstruct_sff(tup, basis)) ** 2, axis=(-3, -2, -1)))
    bad = np.flatnonzero(residual > 1e-8 * big[:, 0])
    if bad.size:
        raise ReconstructionError(
            f"normal form misses the input tensor by more than 1e-8 max(1, |h|), "
            f"by up to {residual[bad].max():.3e} "
            f"[row{'s' if bad.size > 1 else ''} {_row_ranges(bad)} of {len(hs)}]")
    if not batch:
        return CanonicalData(basis[0], *tup[0].tolist(), float(residual[0]))
    return CanonicalData(basis.reshape(batch + (3, 3)), *(v.reshape(batch) for v in tup.T),
                         residual.reshape(batch))


# ---------------------------------------------------------------------------
# matrix invariants: direct and closed forms
# ---------------------------------------------------------------------------

def commutator_invariant_direct(H):
    """Q = sum_{ij} N([H_i,H_j]) + sum_{ij} trace(H_i H_j)^2 of the
    shape-operator matrices H (..., 3, 3, 3), such as `reconstruct_sff` of a
    normal form, by direct matrix work."""
    H = np.asarray(H, dtype=float)
    HH = np.einsum("...iab,...jbc->...ijac", H, H)
    comm = HH - np.swapaxes(HH, -4, -3)
    N = np.sum(comm**2, axis=(-2, -1))
    S = np.einsum("...ijaa->...ij", HH)
    return np.sum(N, axis=(-2, -1)) + np.sum(S**2, axis=(-2, -1))


@dataclass(frozen=True)
class ClosedForms:
    """Polynomial values of the invariants in the normal-form parameters."""

    hsq: np.ndarray
    q_closed: np.ndarray
    r_residual: np.ndarray
    r_terms: tuple          # the three nonnegative remainder terms
    q_from_regrouping: np.ndarray

    def regrouping_residual(self):
        denom = np.maximum(np.abs(self.q_closed), 1.0)
        return float(np.max(np.abs(self.q_closed - self.q_from_regrouping) / denom))


def closed_forms(source) -> ClosedForms:
    """Closed forms of |h|^2 and Q, plus the nonnegative remainder of the
    Laplacian regrouping.

    The quartic mu-coupling coefficient is 18(lambda1^2 + lambda2^2); the
    direct matrix computation arbitrates this normalization (the regrouping
    identity below fails for any other reading).  The remainder satisfies

        q_closed = 3 hsq^2 - (9/2) theta^2 hsq - r_residual

    identically, and each remainder term is a nonnegative polynomial.
    """
    l1, l2, m1, m2 = _as_tuple4(source)
    m = m1 * m1 + m2 * m2
    hsq = 4 * l1 * l1 + 4 * l2 * l2 + 2 * l1 * l2 + 4 * m
    quartic = l1**4 + l1**3 * l2 + l1**2 * l2**2 + l1 * l2**3 + l2**4
    q_closed = 24 * quartic + 18 * (l1 * l1 + l2 * l2) * m - 36 * l1 * l2 * m + 24 * m * m
    term_mu4 = 24 * m * m
    term_shear = 3 * (l1 - l2) ** 2 * (2 * l1 * l1 + 2 * l2 * l2 - 3 * l1 * l2)
    term_mix = 12 * (5 * l1 * l1 + 5 * l2 * l2 + 4 * l1 * l2) * m
    r_residual = term_mu4 + term_shear + term_mix
    theta_sq = (l1 + l2) ** 2
    q_regrouped = 3 * hsq * hsq - 4.5 * theta_sq * hsq - r_residual
    return ClosedForms(
        hsq=hsq,
        q_closed=q_closed,
        r_residual=r_residual,
        r_terms=(term_mu4, term_shear, term_mix),
        q_from_regrouping=q_regrouped,
    )
