"""Canonical adapted basis of a Lagrangian second fundamental form.

At a point, the cubic form f(u) = <h(u,u), Ju> attains a maximum Theta on the
unit tangent sphere; the maximizer e1, together with the eigenvectors of the
associated shape operator on its orthogonal complement, normalizes h to a
four-parameter form (lambda1, lambda2, mu1, mu2).  This module extracts that
normal form deterministically and provides both the direct matrix invariants
(commutators, mutual traces) and their closed polynomial forms, each checked
against the other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CanonicalData",
    "HMatrices",
    "CommutatorInvariants",
    "ClosedForms",
    "ReconstructionError",
    "EnclosureError",
    "cubic_form",
    "maximize_theta",
    "canonical_basis",
    "h_matrices",
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
    nxt, far = [1, 2, 0], [2, 0, 1]  # (u x t1)_i = u_{i+1} t1_{i+2} - u_{i+2} t1_{i+1}
    t2[...] = u[nxt] * t1[far] - u[far] * t1[nxt]
    return T


# ---------------------------------------------------------------------------
# Theta: seed on grid vertices, Newton polish, branch-and-bound enclosure
# ---------------------------------------------------------------------------

_SPLIT = 10            # level-0 cells per edge of each cube face
_MAX_DEPTH = 12        # quadtree depth at which an open enclosure fails
_MAX_OPEN = 512        # open cells per node at which an enclosure fails
_POLISH_DEPTH = 3      # open cells this deep get a Newton polish of their own
_MAX_NEWTON = 60
_CHUNK = 1024          # nodes per pass: bounds the level-0 and open-cell arrays


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
    and the vertex where |f| is largest: two matmuls for the whole batch and
    one |f| pass, which the seed, the spectral bound and the open-vertex
    test of _enclose share."""
    coef = hs.reshape(-1, 27) @ _fold(3)
    F = coef @ _coarse_cells()[1].T
    absF = np.abs(F)
    return coef, F, absF, np.argmax(absF, axis=-1)


def _forms(H, x):
    """For points x (3, n) and h as H (3, 9, n), H[c, 3b + a] = h[a, b, c]:
    A with A[b, a] = h(e_a, e_b, x), h(., x, x) and f(x)."""
    A = _dot(H, x[:, None]).reshape(3, 3, -1)
    v2 = _dot(A, x[:, None])
    return A, v2, _dot(v2, x)


def _polish(hs, u, scale):
    """Safeguarded Newton ascent on the sphere from each row of u.

    A row stops once every component of its tangential gradient is at most
    1e-13 max(1, |h|); only the rows still moving are iterated, and each
    keeps h(u,.,.) from the step that moved it.  Returns the polished points,
    f there, the tangential gradient norm g and mu, minus the largest
    eigenvalue of the tangent Hessian (positive at a strict maximum), each
    read where the row stopped.  Rows still moving after _MAX_NEWTON steps
    are returned as they are; the enclosure then refuses to certify them.

    The rows are held as columns: h as one contiguous (3, 9, n) array and
    the points as (3, n), so that every quantity of a pass, from h(u,.,.)
    to the 2 x 2 tangent Hessian and the step, is a few products and sums
    of whole length-n rows, and no row's value depends on the others.
    """
    n = len(u)
    H = np.ascontiguousarray(hs.transpose(3, 2, 1, 0)).reshape(3, 9, n)
    out = u.T.copy()
    A, v2, f = _forms(H, out)
    f_out, g_out, mu_out = f.copy(), np.empty_like(f), np.empty_like(f)
    active, x, sc, big = np.arange(n), out, scale, np.maximum(scale, 1.0)
    for it in range(_MAX_NEWTON + 1):
        grad = 3.0 * (v2 - f * x)
        Tc = _tangent_basis(x).transpose(1, 0, 2)  # Tc[a, i] = (t_i)_a
        # tangent Hessian H_ij = 6 h(t_i, t_j, x) - 3 f delta_ij, from
        # AT[j, a] = h(e_a, t_j, x)
        AT = _dot(A[:, None], Tc[:, :, None])
        hess = _dot(Tc[:, :, None], AT.transpose(1, 0, 2)[:, None])
        h11 = 6.0 * hess[0, 0] - 3.0 * f
        h12 = 6.0 * hess[0, 1]
        h22 = 6.0 * hess[1, 1] - 3.0 * f
        moving = np.abs(grad).max(axis=0) > 1e-13 * big
        moving &= it < _MAX_NEWTON  # the pass after the last step only reads g and mu
        if not moving.all():
            done = ~moving
            gd = grad[:, done]
            g_out[active[done]] = np.sqrt(_dot(gd, gd))
            mu_out[active[done]] = -(0.5 * (h11[done] + h22[done])
                                     + np.hypot(0.5 * (h11[done] - h22[done]), h12[done]))
            if not moving.any():
                break
            keep = np.flatnonzero(moving)
            active, H, x, sc, big, A, v2, f, grad, Tc, h11, h12, h22 = (
                np.take(y, keep, axis=-1)
                for y in (active, H, x, sc, big, A, v2, f, grad, Tc, h11, h12, h22))
        g1, g2 = _dot(Tc, grad[:, None])
        det = h11 * h22 - h12 * h12
        safe = np.abs(det) > 1e-14 * big**2
        det = np.where(safe, det, 1.0)
        s1 = (h12 * g2 - h22 * g1) / det
        s2 = (h12 * g1 - h11 * g2) / det
        # fall back to a short ascent step where the tangent Hessian degenerates
        step = np.where(safe, s1 * Tc[:, 0] + s2 * Tc[:, 1], grad / np.maximum(sc, 1e-30) * 0.05)
        norm = np.sqrt(_dot(step, step))
        step = np.where(norm > 0.2, step * (0.2 / np.maximum(norm, 1e-30)), step)
        unew = x + step
        unew /= np.sqrt(_dot(unew, unew))
        A_new, v2_new, f_new = _forms(H, unew)
        up = f_new >= f - 1e-14 * big
        x, A, v2, f = (np.where(up, new, old)
                       for new, old in ((unew, x), (A_new, A), (v2_new, v2), (f_new, f)))
        out[:, active], f_out[active] = x, f
    return out.T, f_out, g_out, mu_out


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


def _covered(c, node, u, r, own_u, own_r, delta):
    """Rows whose cell (centre c, angular radius delta) lies inside the ball
    of radius r[node] around +-u[node] or of radius own_r around +-own_u."""
    limit = np.where(r > delta, np.cos(r - delta), 2.0)
    out = np.abs(np.einsum("na,na->n", c, u[node])) >= limit[node]
    rows = np.nonzero(own_r > delta)[0]
    dots = np.abs(np.einsum("na,na->n", c[rows], own_u[rows]))
    out[rows] |= dots >= np.cos(own_r[rows] - delta)
    return out


def _curvature_term(sigma, half):
    """How far |f| can rise above its largest corner value on a cell of
    planar half-side `half`, for a form of spectral norm sigma; see _enclose."""
    return 9.0 * sigma * half**2


def _spectral_bound(scale, top):
    """The spectral-norm bound min(|h|, max_vertices |f| / (1 - 9 half0^2)),
    half0 = 1/_SPLIT, of each row from top = max_vertices |f| on the
    level-0 vertices; see _enclose."""
    return np.minimum(scale, top / (1.0 - _curvature_term(1.0, 1.0 / _SPLIT)))


def _enclose(hs, scale, seed, level0):
    """Certify that theta is the maximum of f within 1e-12 max(1, |h|) per row.

    `seed` is _polish's (u, f, g, mu) at one start per row and `level0` is
    _level0(hs).  Let sigma = max |h(a,b,c)| over unit vectors
    a, b, c, the spectral norm of h; for a symmetric form it equals max |f|
    (S. Banach, Studia Math. 7, 1938).  Along unit-speed great circles
    |f''| = |6h(y,y',y') - 3f| <= 9 sigma, so on an arc of length L
    f lies within (9/8) sigma L^2 of the chord between its end values.  The
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
    _ball_radius around a polished maximum.  At level 0 both tests run on
    the vertices first: a cell stays open only at a vertex above
    theta + tol - 9 sigma^ half0^2 that lies outside the seed's ball by
    more than a cell diameter.  The open cells are split in four,
    which evaluates f at the four edge midpoints and the centre of each.  A
    cell whose best corner beats theta is polished from that corner and
    raises theta.  Open cells from _POLISH_DEPTH on are polished too, and
    their polished points give balls of their own: maxima tied with theta
    can only be closed that way.  Returns the certified (u, theta); raises
    EnclosureError when cells stay open at _MAX_DEPTH or more than
    _MAX_OPEN stay open on one row.
    """
    u, theta, g, mu = seed
    u, theta = u.copy(), theta.copy()
    tol = 1e-12 * np.maximum(scale, 1.0)
    coef, F, absF, best = level0
    sigma = _spectral_bound(scale, absF[np.arange(len(best)), best])
    main_r = _ball_radius(theta, g, mu, sigma, theta, tol)

    vertex, _, cells, face0, point0, corner0 = _coarse_cells()
    half = 1.0 / _SPLIT  # planar half-side of the cells at the current depth
    # a cell is open when one of its corners is; flat indices and np.take
    # gather those several times faster than 2-D np.nonzero and fancy indexing
    flat = np.flatnonzero(absF > (theta + tol - _curvature_term(sigma, half))[:, None])
    node, vert = np.divmod(flat, F.shape[1])
    # the cells at a corner within r - 2 delta0 of +-u lie in the ball of
    # radius r: delta0 = sqrt(2) half0 bounds their angular radius
    reach = main_r - 2.0 * np.sqrt(2.0) * half
    near = np.abs(np.einsum("na,na->n", np.take(vertex, vert, axis=0), u[node]))
    far = near < np.where(reach > 0, np.cos(reach), 2.0)[node]
    if not far.any():
        return u, theta
    pair = np.unique(node[far, None] * len(face0) + np.take(cells, vert[far], axis=0))
    node, cell = np.divmod(pair, len(face0))
    face, point = np.take(face0, cell), np.take(point0, cell, axis=0)
    corner = np.take(F, node[:, None] * F.shape[1] + np.take(corner0, cell, axis=0))
    own_u, own_r = np.zeros((len(node), 3)), np.full(len(node), -1.0)

    for depth in range(_MAX_DEPTH + 1):
        delta = np.sqrt(2.0) * half  # the gnomonic map shrinks distances
        c = _unit(point)
        best = np.argmax(np.abs(corner), axis=-1)
        fbest = np.take_along_axis(corner, best[:, None], axis=-1)[:, 0]
        polish = np.abs(fbest) > theta[node]
        if depth >= _POLISH_DEPTH:
            polish |= ~_covered(c, node, u, main_r, own_u, own_r, delta)
        if polish.any():
            idx = np.nonzero(polish)[0]
            start = _unit(point[idx] + half * _CORNERS[face[idx], best[idx]])
            start *= np.where(fbest[idx] < 0, -1.0, 1.0)[:, None]
            hp = hs[node[idx]]
            pu, pf, pg, pmu = _polish(hp, start, scale[node[idx]])
            # the best polished point of each row that beats its theta wins
            order = np.lexsort((pf, node[idx]))
            last = np.r_[node[idx][order][1:] != node[idx][order][:-1], True]
            win = order[last]
            win = win[pf[win] > theta[node[idx[win]]]]
            rows = node[idx[win]]
            u[rows], theta[rows] = pu[win], pf[win]
            main_r[rows] = _ball_radius(pf[win], pg[win], pmu[win], sigma[rows],
                                        theta[rows], tol[rows])
            own_u[idx] = pu
            own_r[idx] = _ball_radius(pf, pg, pmu, sigma[node[idx]],
                                      theta[node[idx]], tol[node[idx]])
        excess = np.abs(fbest) + _curvature_term(sigma[node], half) - theta[node]
        keep = excess > tol[node]
        keep[keep] = ~_covered(c[keep], node[keep], u, main_r, own_u[keep], own_r[keep], delta)
        if not keep.any():
            return u, theta
        node, face, point, corner, own_u, own_r, excess = (
            x[keep] for x in (node, face, point, corner, own_u, own_r, excess))
        if depth == _MAX_DEPTH or np.bincount(node).max() > _MAX_OPEN:
            raise EnclosureError(
                f"Theta enclosure did not close on {np.unique(node).size} of "
                f"{len(hs)} node(s) by depth {depth} ({len(node)} open cells): the "
                f"worst open bound exceeds the polished maximum by {excess.max():.3e}"
            )
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
        node, face, own_r = (np.repeat(x, 4) for x in (node, face, own_r))
        own_u = np.repeat(own_u, 4, axis=0)


def maximize_theta(sff_like):
    """Certified global maximum of the cubic form over the unit tangent sphere.

    Deterministic, in three steps on one fixed grid (three faces of a cube
    turned off the coordinate axes, split 10 x 10 and projected to the
    sphere, which they cover modulo u -> -u; the form is odd, so that half
    suffices):

    1. Seed: f is evaluated at every grid vertex by one matmul against the
       cubic monomials, and the best vertex of each node is kept.
    2. Polish: safeguarded Newton iterations on the sphere drive the
       tangential gradient below 1e-13 max(1, |h|).
    3. Enclose: branch and bound over the cells proves that no point beats
       the polished value by more than 1e-12 max(1, |h|); a cell whose best
       corner does beat it is polished in turn and raises it.  A cell is
       bounded by its largest corner value plus a curvature term, and the
       balls around polished maxima use a bound on the spectral norm
       max |h(a,b,c)| read off the vertices, which by Banach's theorem
       (Studia Math. 7, 1938) is max |f| itself; see _enclose.

    Returns (maximizer, theta) with f(maximizer) = theta; a vanishing form
    yields (e1, 0).  Raises EnclosureError when the enclosure does not close
    within its depth and cell caps, so no uncertified theta is returned.
    """
    h = _h_array(sff_like)
    batch = h.shape[:-3]
    hs = (h.reshape(-1, 27) @ _symmetrizer()).reshape(-1, 3, 3, 3)
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    u = np.zeros((len(hs), 3))
    u[:, 0] = 1.0
    theta = np.zeros(len(hs))
    for lo in range(0, len(hs), _CHUNK):
        rows = np.arange(lo, min(lo + _CHUNK, len(hs)))
        rows = rows[scale[rows] >= 1e-15]
        if not rows.size:
            continue
        part, sc = hs[rows], scale[rows]
        level0 = _level0(part)
        F, best = level0[1], level0[3]
        sign = np.where(F[np.arange(len(rows)), best] < 0, -1.0, 1.0)
        seed = _polish(part, _coarse_cells()[0][best] * sign[:, None], sc)
        u[rows], theta[rows] = _enclose(part, sc, seed, level0)
    return u.reshape(batch + (3,)), theta.reshape(batch)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalData:
    """Normal-form invariants and the basis realizing them (rows e1, e2, e3)."""

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
        violations = [
            -(l1 + l2),
            -(3 * l1 + l2),
            -(3 * l2 + l1),
            abs(m1) - (l1 + l2),
            abs(m2) - (l1 + l2),
        ]
        return max(violations)

    def validate(self, tol=1e-8):
        slack = self.constraint_slack()
        if slack > tol:
            raise ValueError(f"normal-form constraints violated by {slack:.3e}")
        if self.reconstruction_residual > tol:
            raise ReconstructionError(
                f"normal form does not reproduce input: residual "
                f"{self.reconstruction_residual:.3e}"
            )
        return slack


@dataclass(frozen=True)
class HMatrices:
    """Shape-operator matrices H[k] = (h^{k*}_{ij}) in the canonical basis."""

    H: np.ndarray  # (..., 3, 3, 3)

    @property
    def H1(self):
        return self.H[..., 0, :, :]

    @property
    def H2(self):
        return self.H[..., 1, :, :]


def _as_tuple4(source):
    if isinstance(source, CanonicalData):
        return source.tuple()
    if isinstance(source, (tuple, list)) and len(source) == 4:
        return tuple(np.asarray(v, dtype=float) for v in source)
    arr = np.asarray(source, dtype=float)
    if arr.shape[-1] == 4:
        return tuple(arr[..., i] for i in range(4))
    raise ValueError("expected CanonicalData or a (lambda1, lambda2, mu1, mu2) tuple")


def h_matrices(source) -> HMatrices:
    """Explicit matrices of the normal form; traces vanish by construction."""
    l1, l2, m1, m2 = _as_tuple4(source)
    batch = np.broadcast(l1, l2, m1, m2).shape
    z = np.zeros(batch)
    l1, l2, m1, m2 = (np.broadcast_to(v, batch) for v in (l1, l2, m1, m2))
    H = np.stack(
        [
            np.stack([np.stack([l1 + l2, z, z], -1),
                      np.stack([z, -l1, z], -1),
                      np.stack([z, z, -l2], -1)], -2),
            np.stack([np.stack([z, -l1, z], -1),
                      np.stack([-l1, m1, m2], -1),
                      np.stack([z, m2, -m1], -1)], -2),
            np.stack([np.stack([z, z, -l2], -1),
                      np.stack([z, m2, -m1], -1),
                      np.stack([-l2, -m1, -m2], -1)], -2),
        ],
        axis=-3,
    )
    return HMatrices(H=H)


def reconstruct_sff(source, basis=None):
    """Second-fundamental-form coefficients generated by a normal-form tuple.

    With `basis` (rows e1, e2, e3 in some ambient frame) the tensor is
    expressed back in that ambient frame.
    """
    h = h_matrices(source).H
    if basis is None:
        return h
    R = np.asarray(basis, dtype=float)
    return np.einsum("...KIJ,...Ka,...Ib,...Jc->...abc", h, R, R, R)


def canonical_basis(sff_like, tol=1e-8) -> CanonicalData:
    """Extract the normal form of a single second fundamental form.

    e1 maximizes the cubic form; e2, e3 diagonalize the shape operator of
    J e1 restricted to the orthogonal complement (eigenvalues -lambda1 and
    -lambda2 with lambda1 >= lambda2).  When that restriction is umbilic the
    pair is rotated so that mu2 = 0 and mu1 >= 0; remaining sign freedom is
    fixed by making mu1 and mu2 nonnegative.  Raises ReconstructionError when
    the reassembled tensor misses the input beyond `tol`.
    """
    h = _h_array(sff_like)
    if h.ndim != 3:
        raise ValueError("canonical_basis expects a single (3,3,3) tensor")
    scale = float(np.sqrt(np.sum(h**2)))
    if scale < 1e-14:
        return CanonicalData(basis=np.eye(3), lambda1=0.0, lambda2=0.0, mu1=0.0, mu2=0.0)

    e1, theta = maximize_theta(h)
    B = np.einsum("kij,k->ij", h, e1)
    T = _tangent_basis(e1)
    t1, t2 = T
    B2 = T @ B @ T.T
    w, vecs = np.linalg.eigh(B2)
    e2 = vecs[0, 0] * t1 + vecs[1, 0] * t2
    e3 = vecs[0, 1] * t1 + vecs[1, 1] * t2
    lambda1, lambda2 = -w[0], -w[1]

    def mu(e2v, e3v):
        m1 = cubic_form(h, e2v)
        m2 = float(np.einsum("kij,k,i,j->", h, e3v, e2v, e2v))
        return float(m1), m2

    for ev in (e2, e3):  # deterministic eigenvector sign
        lead = np.argmax(np.abs(ev))
        if ev[lead] < 0:
            ev *= -1.0

    if abs(w[0] - w[1]) < 1e-8 * max(1.0, scale):
        m1, m2 = mu(e2, e3)
        ang = np.arctan2(m2, m1) / 3.0
        e2, e3 = (
            np.cos(ang) * e2 + np.sin(ang) * e3,
            -np.sin(ang) * e2 + np.cos(ang) * e3,
        )
    m1, m2 = mu(e2, e3)
    if m1 < -1e-12 * max(1.0, scale):
        e2 = -e2
        m1, m2 = mu(e2, e3)
    if m2 < -1e-12 * max(1.0, scale):
        e3 = -e3
        m1, m2 = mu(e2, e3)

    basis = np.stack([e1, e2, e3])
    data = CanonicalData(
        basis=basis,
        lambda1=float(lambda1),
        lambda2=float(lambda2),
        mu1=m1,
        mu2=m2,
    )
    residual = float(
        np.sqrt(np.sum((h - reconstruct_sff(data.tuple(), basis)) ** 2))
    )
    data = CanonicalData(
        basis=basis,
        lambda1=float(lambda1),
        lambda2=float(lambda2),
        mu1=m1,
        mu2=m2,
        reconstruction_residual=residual,
    )
    if residual > tol * max(1.0, scale):
        raise ReconstructionError(
            f"normal form failed to reproduce the input tensor "
            f"(residual {residual:.3e}, scale {scale:.3e})"
        )
    return data


# ---------------------------------------------------------------------------
# matrix invariants: direct and closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorInvariants:
    """Q = sum_{ij} N([H_i,H_j]) + sum_{ij} trace(H_i H_j)^2 by direct matrix work."""

    Q: np.ndarray
    S: np.ndarray          # (..., 3, 3) mutual traces
    N_terms: np.ndarray    # (..., 3) squared norms of the three commutators


def commutator_invariant_direct(hm) -> CommutatorInvariants:
    H = hm.H if isinstance(hm, HMatrices) else np.asarray(hm, dtype=float)
    HH = np.einsum("...iab,...jbc->...ijac", H, H)
    comm = HH - np.swapaxes(HH, -4, -3)
    N = np.sum(comm**2, axis=(-2, -1))
    S = np.einsum("...ijaa->...ij", HH)
    Q = np.sum(N, axis=(-2, -1)) + np.sum(S**2, axis=(-2, -1))
    N_terms = np.stack([N[..., 0, 1], N[..., 0, 2], N[..., 1, 2]], axis=-1)
    return CommutatorInvariants(Q=Q, S=S, N_terms=N_terms)


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
