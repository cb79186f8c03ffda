"""Normal-form extraction and the matrix-invariant closed forms."""

import itertools

import numpy as np
import pytest

import nk6
from nk6 import canonical, cli, simons

S5 = np.sqrt(5.0)
S10 = np.sqrt(10.0)


def brute_force_theta(h, n=1_000_000, seed=99):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    vals = np.einsum("kij,pk,pi,pj->p", h, u, u, u)
    idx = np.argmax(np.abs(vals))
    return abs(vals[idx]), u[idx] * np.sign(vals[idx])


def grid_newton_theta(h):
    """The earlier maximizer, kept as an oracle: the top |f| directions of a
    fixed polar grid, each polished by safeguarded Newton steps on the
    sphere, and the best polished value wins."""
    t = (np.arange(64) + 0.5) * np.pi / 64
    p = np.arange(128) * 2 * np.pi / 128
    T, P = np.meshgrid(t, p, indexing="ij")
    U = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], -1).reshape(-1, 3)
    U = np.concatenate([U, np.eye(3)])
    fvals = np.einsum("...kij,pk,pi,pj->...p", h, U, U, U, optimize=True)
    idx = np.sort(np.argpartition(-np.abs(fvals), 7, axis=-1)[..., :8])
    sign = np.sign(np.take_along_axis(fvals, idx, axis=-1))
    u = U[idx] * np.where(sign == 0, 1.0, sign)[..., None]
    h = np.broadcast_to(h[..., None, :, :, :], u.shape[:-1] + (3, 3, 3))
    scale = np.sqrt(np.sum(h**2, axis=(-3, -2, -1)))
    for _ in range(60):
        v2 = np.einsum("...kij,...i,...j->...k", h, u, u)
        f = np.sum(v2 * u, axis=-1)
        grad = 3.0 * (v2 - f[..., None] * u)
        if np.max(np.abs(grad)) <= 1e-13:
            break
        W = 6.0 * np.einsum("...kij,...j->...ki", h, u) - 3.0 * f[..., None, None] * np.eye(3)
        helper = np.eye(3)[np.argmin(np.abs(u), axis=-1)]
        t1 = helper - np.sum(helper * u, axis=-1, keepdims=True) * u
        t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
        t2 = np.cross(u, t1)
        Tb = np.stack([t1, t2], axis=-2)
        H2 = np.einsum("...ac,...cd,...bd->...ab", Tb, W, Tb)
        g2 = np.einsum("...ac,...c->...a", Tb, grad)
        det = H2[..., 0, 0] * H2[..., 1, 1] - H2[..., 0, 1] * H2[..., 1, 0]
        safe = np.abs(det) > 1e-14 * np.maximum(scale, 1.0) ** 2
        det = np.where(safe, det, 1.0)
        s0 = (-g2[..., 0] * H2[..., 1, 1] + g2[..., 1] * H2[..., 0, 1]) / det
        s1 = (-g2[..., 1] * H2[..., 0, 0] + g2[..., 0] * H2[..., 1, 0]) / det
        step = s0[..., None] * t1 + s1[..., None] * t2
        ascent = grad / np.maximum(scale, 1e-30)[..., None] * 0.05
        step = np.where(safe[..., None], step, ascent)
        norm = np.linalg.norm(step, axis=-1, keepdims=True)
        step = np.where(norm > 0.2, step * (0.2 / np.maximum(norm, 1e-30)), step)
        unew = u + step
        unew /= np.linalg.norm(unew, axis=-1, keepdims=True)
        fnew = nk6.cubic_form(h, unew)
        u = np.where((fnew >= f - 1e-14 * np.maximum(scale, 1.0))[..., None], unew, u)
    return np.max(nk6.cubic_form(h, u), axis=-1)


def rotations(n, seed=11):
    R = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, 3, 3)))[0]
    return R * np.sign(np.linalg.det(R))[:, None, None]


def random_symmetric_forms(rng, n):
    """n symmetric forms, each the mean over the index orders of a normal
    (3, 3, 3) sample."""
    g = rng.normal(size=(n, 3, 3, 3))
    return sum(np.transpose(g, (0, *(1 + p for p in perm)))
               for perm in itertools.permutations(range(3))) / 6.0


def xyz_form():
    """u1 u2 u3, the form of the xyz orbit up to scale: four tied maxima
    (s1, s2, s3)/sqrt(3) with s1 s2 s3 = 1."""
    h = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        h[i, j, k] = 1.0 / 6.0
    return h


def test_zero_form():
    u, theta = nk6.maximize_theta(np.zeros((3, 3, 3)))
    assert theta == 0.0
    assert np.allclose(u, [1.0, 0.0, 0.0])
    cd = nk6.canonical_basis(np.zeros((3, 3, 3)))
    assert cd.tuple() == (0.0, 0.0, 0.0, 0.0)


def test_maximize_theta_refuses_non_finite_forms():
    # unrefused, a NaN row would be skipped as a vanishing form and read (e1, 0)
    with pytest.raises(ValueError, match=r"row 0 of 2 has a non-finite entry"):
        nk6.maximize_theta(np.full((2, 3, 3, 3), np.nan))
    h = np.zeros((2, 4, 3, 3, 3))
    h[1, 2, 0, 1, 2] = np.nan
    with pytest.raises(ValueError, match=r"row 6 of 8 has a non-finite entry"):
        nk6.maximize_theta(h)
    h[1, 2, 0, 1, 2] = np.inf
    with pytest.raises(ValueError, match=r"row 6 of 8"):
        nk6.maximize_theta(h)
    u, theta = nk6.maximize_theta(np.zeros((2, 3, 3, 3)))
    assert np.array_equal(u, [[1.0, 0.0, 0.0]] * 2) and np.array_equal(theta, [0.0, 0.0])


@pytest.mark.parametrize("call", [nk6.maximize_theta, nk6.canonical_basis])
def test_a_tensor_not_ending_in_3_3_3_is_refused(call):
    with pytest.raises(ValueError, match=r"must end in \(3,3,3\)"):
        call(np.zeros((4, 3, 3)))


@pytest.mark.parametrize("source", [(1.0, 2.0, 3.0), np.zeros((2, 5)), [1.0] * 6])
def test_a_normal_form_source_of_the_wrong_length_is_refused(source):
    with pytest.raises(ValueError, match=r"\(lambda1, lambda2, mu1, mu2\) tuple"):
        nk6.reconstruct_sff(source)
    with pytest.raises(ValueError, match=r"\(lambda1, lambda2, mu1, mu2\) tuple"):
        nk6.closed_forms(source)


def test_maximize_theta_on_reference_model(dvv):
    sff = nk6.second_fundamental_form(dvv, np.array([0.55, 1.4, 2.8]))
    u, theta = nk6.maximize_theta(sff.h)
    assert abs(float(theta) - S5 / 2) < 1e-10
    assert min(np.linalg.norm(u - [1, 0, 0]), np.linalg.norm(u + [1, 0, 0])) < 1e-7
    # stationarity: the residual gradient on the sphere is tiny
    v2 = np.einsum("kij,i,j->k", sff.h, u, u)
    grad = 3.0 * (v2 - float(theta) * u)
    assert np.linalg.norm(grad) < 1e-12


def test_maximize_theta_against_brute_force():
    h = nk6.reconstruct_sff((0.3, 0.2, 0.1, -0.1))
    u, theta = nk6.maximize_theta(h)
    assert abs(float(theta) - 0.5) < 1e-12
    assert min(np.linalg.norm(u - [1, 0, 0]), np.linalg.norm(u + [1, 0, 0])) < 1e-8
    brute, ubrute = brute_force_theta(h)
    assert theta >= brute - 1e-12
    assert theta - brute < 1e-4  # dense random scan approaches the optimum
    assert abs(abs(ubrute[0]) - 1.0) < 1e-2


def test_maximize_theta_scaling_property(rng):
    h = nk6.reconstruct_sff((0.4, 0.1, 0.15, 0.05))
    u0, t0 = nk6.maximize_theta(h)
    for c in (0.5, 3.0, 17.0):
        u, t = nk6.maximize_theta(c * h)
        assert abs(float(t) - c * float(t0)) < 1e-9 * max(1.0, c)
        assert min(np.linalg.norm(u - u0), np.linalg.norm(u + u0)) < 1e-9


def test_maximize_theta_batched_matches_single(rng):
    hs = np.stack([nk6.reconstruct_sff(tuple(t)) for t in rng.normal(size=(20, 4))])
    ub, tb = nk6.maximize_theta(hs)
    for i in range(len(hs)):
        ui, ti = nk6.maximize_theta(hs[i])
        assert abs(float(ti) - float(tb[i])) < 1e-10


def test_maximize_theta_matches_grid_newton_oracle():
    rng = np.random.default_rng(7)
    hs = []
    for t in rng.normal(size=(200, 4)):
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        hs.append(np.einsum("KIJ,Ka,Ib,Jc->abc", nk6.reconstruct_sff(tuple(t)), R, R, R))
    hs = np.stack(hs)
    _, theta = nk6.maximize_theta(hs)
    oracle = grid_newton_theta(hs)
    assert np.max(np.abs(theta - oracle)) < 1e-10
    assert np.min(theta - oracle) >= -1e-12


def test_spectral_bound_lies_between_theta_and_the_frobenius_norm():
    # 300 rotated normal forms and 100 generic symmetric forms
    rng = np.random.default_rng(11)
    R = np.linalg.qr(rng.normal(size=(300, 3, 3)))[0]
    normal = nk6.reconstruct_sff(rng.uniform(-1.0, 1.0, size=(300, 4)), R)
    generic = rng.normal(size=(100, 3, 3, 3))
    generic = sum(np.transpose(generic, (0, *(1 + p for p in perm)))
                  for perm in itertools.permutations(range(3))) / 6.0
    hs = np.concatenate([normal, generic])
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    sigma = canonical._spectral_bound(scale, canonical._level0(hs)[2].max(axis=-1))
    _, theta = nk6.maximize_theta(hs)
    assert np.all(sigma >= theta) and np.all(sigma <= scale)
    # sigma bounds the trilinear form itself, not just the cubic one
    abc = rng.normal(size=(3, len(hs), 500, 3))
    abc /= np.linalg.norm(abc, axis=-1, keepdims=True)
    values = np.einsum("nkij,npk,npi,npj->np", hs, *abc)
    assert np.all(np.max(np.abs(values), axis=-1) <= sigma)


def test_corner_bound_holds_on_random_sub_cells():
    # |f| <= max_corners |f| + 9 sigma^ half^2 on every cell, for cells of
    # depths 0-4 on all three faces, sampled on a 15 x 15 grid that includes
    # their edges; without the curvature term the bound fails
    rng = np.random.default_rng(23)
    R = np.linalg.qr(rng.normal(size=(40, 3, 3)))[0]
    normal = nk6.reconstruct_sff(rng.uniform(-1.0, 1.0, size=(40, 4)), R)
    generic = rng.normal(size=(40, 3, 3, 3))
    generic = sum(np.transpose(generic, (0, *(1 + p for p in perm)))
                  for perm in itertools.permutations(range(3))) / 6.0
    hs = np.concatenate([normal, generic])
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    coef, _, absF, _ = canonical._level0(hs)
    sigma = canonical._spectral_bound(scale, absF.max(axis=-1))
    _, theta = nk6.maximize_theta(hs)
    assert np.all(theta <= sigma) and np.all(sigma <= scale)

    n_cells, axes = 60, canonical._AXES
    depth = rng.integers(0, 5, size=n_cells)
    face = rng.integers(0, 3, size=n_cells)
    half = 1.0 / canonical._SPLIT / 2.0**depth
    a, b = (-1.0 + half * (2 * rng.integers(0, canonical._SPLIT * 2**depth) + 1)
            for _ in range(2))
    centre = axes[face] + a[:, None] * axes[(face + 1) % 3] + b[:, None] * axes[(face + 2) % 3]
    st = np.linspace(-1.0, 1.0, 15)
    s, t = (x.ravel() for x in np.meshgrid(st, st, indexing="ij"))
    dense = (centre[:, None, :] + half[:, None, None]
             * (s[:, None] * axes[(face + 1) % 3][:, None, :]
                + t[:, None] * axes[(face + 2) % 3][:, None, :]))
    corners = centre[:, None, :] + half[:, None, None] * canonical._CORNERS[face]

    def values(points):
        u = points.reshape(-1, 3) / np.linalg.norm(points.reshape(-1, 3), axis=-1)[:, None]
        return np.abs(coef @ canonical._monomials(u, canonical._exponents(3)).T).reshape(len(hs), *points.shape[:2])

    top = values(dense).max(axis=-1)
    corner_max = values(corners).max(axis=-1)
    bound = corner_max + canonical._curvature_term(sigma[:, None], half)
    assert np.all(top <= bound + 1e-14 * scale[:, None])
    assert np.any(top > corner_max + 1e-3 * scale[:, None])


def test_grid_points_avoid_the_coordinate_axes():
    # the adapted frames put maxima on the axes; no vertex, edge midpoint or
    # centre of a cell down to _MAX_DEPTH may sit on one
    lattice = 1.0 / canonical._SPLIT / 2.0**canonical._MAX_DEPTH
    nearest = np.inf
    for axis in np.eye(3):
        # the faces cover the sphere modulo u -> -u: take the face of +-axis
        comps = canonical._AXES @ axis
        face = int(np.argmax(np.abs(comps)))
        comps = comps * np.sign(comps[face])
        ab = np.array([comps[(face + 1) % 3], comps[(face + 2) % 3]]) / comps[face]
        assert np.all(np.abs(ab) <= 1.0)
        offset = (ab + 1.0) / lattice
        nearest = min(nearest, float(np.max(np.abs(offset - np.round(offset)))) * lattice)
    assert nearest > 1e-7


def test_dvv_enclosure_closes_on_the_coarse_cells(dvv, monkeypatch):
    pts = dvv.chart.random_points(64, np.random.default_rng(5))
    h = nk6.second_fundamental_form(dvv, pts).h
    monkeypatch.setattr(canonical, "_MAX_DEPTH", 0)
    u, theta = nk6.maximize_theta(h)
    assert np.max(np.abs(theta - S5 / 2)) < 1e-12
    # the closed form certifies these rows; the enclosure closes on them too
    hs, scale = h.reshape(-1, 3, 3, 3), np.sqrt(np.sum(h**2, axis=(-3, -2, -1)))
    seed = canonical._polish(hs, u, scale)
    _, theta = canonical._enclose(hs, scale, seed)
    assert np.max(np.abs(theta - S5 / 2)) < 1e-12


def test_enclosure_refuses_the_dvv_ring_point():
    # f = (5 t^3 - 3 t) sqrt(5)/4 in t = u_1 on the equality-case form: every
    # point of the circle t = -1/sqrt(5) is a critical point with f = 1/2,
    # and Newton started there stays there
    hs = nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0))[None]
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    ring = np.array([[-1.0, 2.0, 0.0]]) / S5
    seed = canonical._polish(hs, ring, scale)
    u, f = seed[:2]
    assert np.allclose(u, ring) and abs(float(f[0]) - 0.5) < 1e-15
    u, theta = canonical._enclose(hs, scale, seed)
    assert abs(float(theta[0]) - S5 / 2) < 1e-12
    assert abs(abs(float(u[0, 0])) - 1.0) < 1e-8


def close_maxima_form():
    """u1 u2 u3 has four equal maxima (+-1, +-1, +-1)/sqrt(3); a cubic bump
    at v lifts that one by about 1e-3, far below the level-0 sampling error,
    and the rotation puts one of the others closest to a grid vertex.
    Returns the form and v."""
    v = np.ones(3) / np.sqrt(3.0)
    h = xyz_form() + 1e-3 * np.einsum("k,i,j->kij", v, v, v)
    R, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))
    return np.einsum("KIJ,Ka,Ib,Jc->abc", h, R, R, R), R.T @ v


def test_larger_of_two_close_maxima_wins():
    h, v = close_maxima_form()
    hs, scale = h[None], np.sqrt(np.sum(h**2))[None]
    F = canonical._level0(hs)[1][0]
    best = np.argmax(np.abs(F))
    start = canonical._coarse_cells()[0][best] * np.sign(F[best])
    seed_u, seed_f = canonical._polish(hs, start[None], scale)[:2]
    assert abs(float(seed_u[0] @ v)) < 0.5  # the seed polishes to a smaller maximum

    u, theta = nk6.maximize_theta(h)
    brute, ubrute = brute_force_theta(h)
    assert brute > float(seed_f[0]) + 5e-4
    assert theta >= brute - 1e-12
    assert float(u @ ubrute) > 0.99 and float(u @ v) > 1 - 1e-12


@pytest.mark.parametrize("form, want", [
    ((S5 / 4, S5 / 4, S10 / 4, 0.0), S5 / 2),  # the xyz orbit's: 4 tied maxima
    ((np.sqrt(5.0 / 3.0), 0.0, 0.0, 0.0), np.sqrt(5.0 / 3.0)),  # x^3 - 3xy^2: 3
], ids=["xyz-orbit", "x3-3xy2-orbit"])
def test_tied_maxima_close_with_one_polish_per_maximum(form, want, monkeypatch):
    # a node polishes one open cell per depth besides those that beat theta,
    # and each polished maximum closes its cells with a ball of its own
    rows = []
    polish = canonical._polish

    def counted(hs, u, scale):
        rows.append(len(u))
        return polish(hs, u, scale)

    monkeypatch.setattr(canonical, "_polish", counted)
    R = np.linalg.qr(np.random.default_rng(11).normal(size=(512, 3, 3)))[0]
    R *= np.sign(np.linalg.det(R))[:, None, None]  # rotations
    h = nk6.reconstruct_sff(form, R)
    _, theta = nk6.maximize_theta(h)
    scale = np.sqrt(np.sum(h**2, axis=(-3, -2, -1)))
    assert np.all(np.abs(theta - want) <= 1e-12 * np.maximum(1.0, scale))
    assert sum(rows) <= 8 * len(h)


def test_enclosure_fails_loudly(monkeypatch):
    # u1 u2 u3 has four tied maxima; at depth 0 a node has the seed's ball
    # and one more, so the cells around the other two stay open
    tied = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        tied[i, j, k] = 1.0 / 6.0
    monkeypatch.setattr(canonical, "_MAX_DEPTH", 0)
    with pytest.raises(canonical.EnclosureError, match="did not close on 5 of 5 node"):
        nk6.maximize_theta(np.broadcast_to(tied, (5, 3, 3, 3)))
    # Newton that stops short leaves no ball to close the enclosure with
    monkeypatch.undo()
    monkeypatch.setattr(canonical, "_MAX_NEWTON", 0)
    with pytest.raises(canonical.EnclosureError, match=f"by depth {canonical._MAX_DEPTH}"):
        nk6.maximize_theta(nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0)))


def test_enclosure_error_names_its_rows_in_the_batch(monkeypatch):
    # zero forms fill the first chunk and are skipped; the second one fails
    monkeypatch.setattr(canonical, "_MAX_NEWTON", 0)
    h = np.zeros((2 * canonical._CHUNK, 3, 3, 3))
    h[canonical._CHUNK:] = nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0))
    with pytest.raises(canonical.EnclosureError) as err:
        nk6.maximize_theta(h)
    message = str(err.value)
    assert message.startswith("Theta enclosure did not close on 1024 of 1024 node")
    assert message.endswith(" [rows 1024-2047 of 2048]")
    # rotated DVV forms pass the closed form; the u1 u2 u3 rows among them
    # alone reach the enclosure, which at depth 0 fails on each of them
    monkeypatch.undo()
    monkeypatch.setattr(canonical, "_MAX_DEPTH", 0)
    h = nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0), rotations(12, seed=4))
    for rows, count, tail in (([5], "1 of 1", "[row 5 of 12]"),
                              ([2, 5, 6, 11], "4 of 4", "[rows 2, 5-6, 11 of 12]")):
        mixed = h.copy()
        mixed[rows] = xyz_form()
        with pytest.raises(canonical.EnclosureError) as err:
            nk6.maximize_theta(mixed)
        message = str(err.value)
        assert message.startswith(f"Theta enclosure did not close on {count} node(s) that "
                                  "the closed form left open, by depth 0")
        assert message.endswith(" " + tail)


def closed_form_rows(hs, monkeypatch):
    """maximize_theta's (u, theta) on hs, none of whose rows vanish, and the
    mask of the rows that its closed form certified."""
    masks, dominant = [], canonical._dominant

    def recorded(*args):
        masks.append(dominant(*args))
        return masks[-1]

    with monkeypatch.context() as m:
        m.setattr(canonical, "_dominant", recorded)
        u, theta = nk6.maximize_theta(hs)
    return u, theta, np.concatenate(masks)


def test_closed_form_is_sound_on_random_forms(monkeypatch):
    # every row that the closed form certifies agrees with the grid-Newton
    # oracle and with the grid enclosure seeded at its maximizer: random
    # symmetric and normal forms, rotations of both orbit forms (tied
    # maxima), and each orbit form plus eps times a random symmetric form
    rng = np.random.default_rng(41)
    generic = random_symmetric_forms(rng, 4096)
    normal = nk6.reconstruct_sff(rng.uniform(-1.0, 1.0, size=(4096, 4)), rotations(4096, 43))
    orbits = [nk6.reconstruct_sff(form, rotations(512, seed)) for form, seed in
              (((S5 / 4, S5 / 4, S10 / 4, 0.0), 5), ((np.sqrt(5.0 / 3.0), 0.0, 0.0, 0.0), 6))]
    hs = np.concatenate([generic, normal, *orbits]
                        + [h + eps * random_symmetric_forms(rng, len(h))
                           for h in orbits for eps in (1e-4, 1e-8)])
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    u, theta, ok = closed_form_rows(hs, monkeypatch)
    assert 0.1 < ok[:4096].mean() < 0.9 and 0.1 < ok[4096:8192].mean() < 0.9
    tol = 1e-12 * np.maximum(scale, 1.0)
    # nor does it accept a lower local maximum: polished from random starts,
    # hundreds of rows per start stop at one, and each is refused
    for start in rng.normal(size=(4, len(hs), 3)):
        seed = canonical._polish(hs, start / np.linalg.norm(start, axis=-1, keepdims=True), scale)
        low = seed[1] < theta - tol
        assert (low & (seed[3] > 0)).sum() > 500
        assert not (canonical._dominant(scale, *seed[1:]) & low).any()
    hs, scale, u, theta, tol = hs[ok], scale[ok], u[ok], theta[ok], tol[ok]
    oracle = np.concatenate([grid_newton_theta(hs[lo:lo + 512]) for lo in range(0, len(hs), 512)])
    assert np.all(np.abs(theta - oracle) <= tol)
    seed = canonical._polish(hs, u, scale)
    _, enclosed = canonical._enclose(hs, scale, seed)
    assert np.all(np.abs(theta - enclosed) <= tol)


def test_closed_form_refuses_ties_and_stalls(monkeypatch):
    # near-tied and tied maxima leave their rows to the grid enclosure,
    # which certifies them
    near, _ = close_maxima_form()
    R = rotations(64)
    for hs, want in ((near[None], grid_newton_theta(near[None])),
                     (nk6.reconstruct_sff((S5 / 4, S5 / 4, S10 / 4, 0.0), R), S5 / 2),
                     (nk6.reconstruct_sff((np.sqrt(5.0 / 3.0), 0.0, 0.0, 0.0), R),
                      np.sqrt(5.0 / 3.0))):
        _, theta, ok = closed_form_rows(hs, monkeypatch)
        scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
        assert not ok.any()
        assert np.all(np.abs(theta - want) <= 1e-12 * np.maximum(1.0, scale))
    # so does a Newton that never moves: its seed, left where the coarse
    # grid put it, is refused, and the enclosure polishes from there
    seeds, polish = [], canonical._polish

    def recorded(*args):
        seeds.append(polish(*args))
        return seeds[-1]

    hs = nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0), rotations(4))
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    with monkeypatch.context() as m:
        m.setattr(canonical, "_MAX_NEWTON", 0)
        m.setattr(canonical, "_polish", recorded)
        with pytest.raises(canonical.EnclosureError):
            nk6.maximize_theta(hs)
    assert not canonical._dominant(scale, *seeds[0][1:]).any()
    _, theta = canonical._enclose(hs, scale, seeds[0])
    assert np.all(np.abs(theta - S5 / 2) <= 1e-12 * np.maximum(1.0, scale))


def test_dvv_integrate_needs_no_grid(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the level-0 grid was used")

    monkeypatch.setattr(canonical, "_level0", refuse)
    monkeypatch.setattr(canonical, "_enclose", refuse)
    assert cli.main(["integrate", "--model", "dvv", "--rule", "8,8,8"]) == 0
    assert '"classification": "DVV-type"' in capsys.readouterr().out


def test_tied_maxima_give_one_maximizer():
    # seeded at any of the four maxima of the xyz orbit's form, the
    # enclosure returns the one with the largest <u, _TIE_BREAK>
    R = rotations(64)
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    maxima = np.einsum("nKa,sK->nsa", R, signs)  # f(R.) peaks at R^T s
    hs = np.repeat(np.einsum("KIJ,nKa,nIb,nJc->nabc", xyz_form(), R, R, R), 4, axis=0)
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    seed = canonical._polish(hs, maxima.reshape(-1, 3), scale)
    assert np.max(np.abs(seed[0] - maxima.reshape(-1, 3))) < 1e-12
    assert not canonical._dominant(scale, *seed[1:]).any()
    u, theta = canonical._enclose(hs, scale, seed)
    want = maxima[np.arange(64), np.argmax(maxima @ canonical._TIE_BREAK, axis=-1)]
    assert np.max(np.abs(u.reshape(64, 4, 3) - want[:, None])) < 1e-12
    assert np.all(np.abs(theta - 1.0 / np.sqrt(27.0)) <= 1e-15)


def test_canonical_basis_reference_tuples(dvv):
    sff = nk6.second_fundamental_form(dvv, np.array([0.65, 0.4, 5.1]))
    cd = nk6.canonical_basis(sff.h)
    assert np.allclose(cd.tuple(), (S5 / 4, S5 / 4, 0.0, 0.0), atol=1e-7)
    assert cd.reconstruction_residual < 1e-8
    assert cd.constraint_slack() <= 1e-8


def test_canonical_basis_case_b_tuple():
    h = nk6.synthetic_case("b").sff().h
    cd = nk6.canonical_basis(h)
    assert np.allclose(cd.tuple(), (S5 / 4, S5 / 4, S10 / 4, 0.0), atol=1e-10)


def test_canonical_basis_recovers_rotated_forms(rng):
    # gauge invariance: random frame rotations leave the invariant combinations
    target = (0.45, 0.15, 0.2, 0.1)
    h0 = nk6.reconstruct_sff(target)
    cf0 = nk6.closed_forms(target)
    for _ in range(20):
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        h = np.einsum("KIJ,Ka,Ib,Jc->abc", h0, R, R, R)
        cd = nk6.canonical_basis(h)
        assert abs(cd.theta - 0.6) < 1e-8
        assert abs(cd.lambda1 * cd.lambda2 - 0.45 * 0.15) < 1e-8
        assert abs((cd.mu1**2 + cd.mu2**2) - (0.2**2 + 0.1**2)) < 1e-8
        cf = nk6.closed_forms(cd)
        assert abs(float(cf.hsq) - float(cf0.hsq)) < 1e-8
        assert abs(float(cf.q_closed) - float(cf0.q_closed)) < 1e-8
        assert cd.reconstruction_residual < 1e-8


def test_h_matrices_patterns():
    H = nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0))
    assert np.allclose(H[..., 0, :, :], np.diag([S5 / 2, -S5 / 4, -S5 / 4]))
    expected_h2 = np.zeros((3, 3))
    expected_h2[0, 1] = expected_h2[1, 0] = -S5 / 4
    assert np.allclose(H[..., 1, :, :], expected_h2)
    assert np.allclose(nk6.reconstruct_sff((0, 0, 0, 0)), 0.0)
    rng = np.random.default_rng(0)
    for t in rng.normal(size=(50, 4)):
        H = nk6.reconstruct_sff(tuple(t))
        assert np.max(np.abs(np.trace(H, axis1=-2, axis2=-1))) < 1e-14


def stacked_reconstruct_sff(source, basis=None):
    """The earlier nested-stack normal form, kept as an oracle."""
    l1, l2, m1, m2 = canonical._as_tuple4(source)
    batch = np.broadcast(l1, l2, m1, m2).shape
    z = np.zeros(batch)
    l1, l2, m1, m2 = (np.broadcast_to(v, batch) for v in (l1, l2, m1, m2))
    h = np.stack([
        np.stack([np.stack([l1 + l2, z, z], -1), np.stack([z, -l1, z], -1),
                  np.stack([z, z, -l2], -1)], -2),
        np.stack([np.stack([z, -l1, z], -1), np.stack([-l1, m1, m2], -1),
                  np.stack([z, m2, -m1], -1)], -2),
        np.stack([np.stack([z, z, -l2], -1), np.stack([z, m2, -m1], -1),
                  np.stack([-l2, -m1, -m2], -1)], -2),
    ], axis=-3)
    if basis is None:
        return h
    R = np.asarray(basis, dtype=float)
    return np.einsum("...KIJ,...Ka,...Ib,...Jc->...abc", h, R, R, R)


def test_reconstruct_sff_equals_the_stacked_oracle(rng):
    # each entry of h sums at most two tuple entries, so the linear map is
    # exact: equal values (zeros may differ in sign, which array_equal allows)
    grid = np.array(list(itertools.product(range(-2, 3), repeat=4)), dtype=float)
    cases = [(grid, None), (tuple(grid.T), None), ((0.3, -0.2, 0.1, -0.1), None)]
    for shape in [(), (7,), (3, 5)]:
        t = rng.uniform(-1.0, 1.0, size=shape + (4,))
        R, _ = np.linalg.qr(rng.normal(size=shape + (3, 3)))
        cases += [(t, None), (tuple(np.moveaxis(t, -1, 0)), None), (t, R)]
    for t in grid[::50]:
        cases.append((tuple(t), np.linalg.qr(rng.normal(size=(3, 3)))[0]))
    for source, basis in cases:
        got, want = nk6.reconstruct_sff(source, basis), stacked_reconstruct_sff(source, basis)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # a CanonicalData reconstructs its own tuple
    cd = nk6.canonical_basis(nk6.reconstruct_sff((0.4, 0.1, 0.15, 0.05)))
    assert np.array_equal(nk6.reconstruct_sff(cd), stacked_reconstruct_sff(cd.tuple()))


def test_canonical_basis_signs_are_the_recomputed_mu(rng):
    # a flip of e2 or e3 negates mu1 or mu2 instead of evaluating them again;
    # the negation is exact, so the returned mu equal a fresh evaluation at
    # the returned basis, bit for bit
    flips = 0
    for t in rng.uniform(-1.0, 1.0, size=(200, 4)):
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        h = nk6.reconstruct_sff(tuple(t), R)
        cd = nk6.canonical_basis(h)
        _, e2, e3 = cd.basis
        assert cd.mu1 == float(canonical.cubic_form(h, e2)) and cd.mu1 >= -1e-12
        assert cd.mu2 == float(np.einsum("kij,k,i,j->", h, e3, e2, e2)) and cd.mu2 >= -1e-12
        lead = [np.argmax(np.abs(v)) for v in (e2, e3)]
        flips += (e2[lead[0]] < 0) + (e3[lead[1]] < 0)
    assert flips > 0  # the sign fix-up ran


def test_commutator_invariant_reference_values():
    q = nk6.commutator_invariant_direct(nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0)))
    assert abs(float(q) - 750 / 64) < 1e-12
    q_b = nk6.commutator_invariant_direct(
        nk6.reconstruct_sff((S5 / 4, S5 / 4, S10 / 4, 0.0)))
    assert abs(float(q_b) - 675 / 32) < 1e-12
    assert np.allclose(
        nk6.commutator_invariant_direct(nk6.reconstruct_sff((0, 0, 0, 0))), 0.0)


def test_commutator_invariant_against_loop_oracle(rng):
    # independent reimplementation with explicit loops
    t = rng.normal(size=4)
    H = nk6.reconstruct_sff(tuple(t))
    q = 0.0
    for i in range(3):
        for j in range(3):
            C = H[i] @ H[j] - H[j] @ H[i]
            q += np.sum(C * C) + np.trace(H[i] @ H[j]) ** 2
    assert abs(float(nk6.commutator_invariant_direct(H)) - q) < 1e-12 * max(1.0, abs(q))


def test_closed_forms_reference_values():
    cf = nk6.closed_forms((S5 / 4, S5 / 4, 0.0, 0.0))
    assert abs(float(cf.hsq) - 25 / 8) < 1e-14
    assert abs(float(cf.q_closed) - 750 / 64) < 1e-12
    cf_b = nk6.closed_forms((S5 / 4, S5 / 4, S10 / 4, 0.0))
    assert abs(float(cf_b.hsq) - 45 / 8) < 1e-14
    assert abs(float(cf_b.q_closed) - 675 / 32) < 1e-12


def test_closed_forms_match_direct_on_random_tuples(rng):
    tuples = rng.normal(size=(10000, 4)) * 2.0
    cf = nk6.closed_forms(tuples)
    q_direct = nk6.commutator_invariant_direct(nk6.reconstruct_sff(tuples))
    rel = np.abs(cf.q_closed - q_direct) / np.maximum(1.0, np.abs(q_direct))
    assert np.max(rel) < 1e-12
    # hsq closed form against the tensor norm
    h = nk6.reconstruct_sff(tuples)
    assert np.max(np.abs(np.sum(h * h, axis=(-3, -2, -1)) - cf.hsq)) < 1e-10 * np.max(cf.hsq)


def test_regrouping_identity_and_remainder_sign(rng):
    tuples = rng.normal(size=(1_000_000, 4)) * 3.0
    cf = nk6.closed_forms(tuples)
    assert cf.regrouping_residual() < 1e-12
    assert np.min(cf.r_residual) >= 0.0
    for term in cf.r_terms:
        assert np.min(term) >= 0.0


def test_closed_forms_are_exact_on_the_integer_grid():
    # Q, its regrouping and |h|^2 are polynomials of degree at most 4 in each
    # of (lambda1, lambda2, mu1, mu2), so two of them that agree on the 5^4
    # tensor grid {-2..2}^4 are equal; there every value is an integer of
    # size at most 4224, so float64 evaluates them exactly and the check is
    # a proof, not a sample
    tuples = np.array(list(itertools.product(range(-2, 3), repeat=4)), dtype=float)
    cf = nk6.closed_forms(tuples)
    H = nk6.reconstruct_sff(tuples)
    q_direct = nk6.commutator_invariant_direct(H)
    assert np.max(np.abs(q_direct)) <= 4224
    assert np.max(np.abs(cf.q_closed - q_direct)) == 0.0
    assert np.max(np.abs(cf.q_from_regrouping - cf.q_closed)) == 0.0
    assert np.max(np.abs(cf.hsq - np.sum(H**2, axis=(-3, -2, -1)))) == 0.0
    # the grid separates: a degree-(1,1,1,1) term breaks the first equality
    l1, l2, m1, m2 = tuples.T
    assert np.max(np.abs(cf.q_closed + l1 * l2 * m1 * m2 - q_direct)) > 0.0


def test_reconstruction_error_on_asymmetric_input():
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # not a symmetric cubic tensor
    with pytest.raises(canonical.ReconstructionError):
        nk6.canonical_basis(bad)


def mixed_normal_form_batch(dvv, rng):
    """Rotated random normal forms, DVV forms at random points, rotated
    umbilic forms (lambda1 = lambda2, mu2 = 0), zero rows and rows below
    |h| = 1e-14, interleaved."""
    R = np.linalg.qr(rng.normal(size=(90, 3, 3)))[0]
    generic = nk6.reconstruct_sff(rng.uniform(-1.0, 1.0, size=(30, 4)), R[:30])
    lam, m1 = rng.uniform(-1.0, 1.0, size=(2, 30))
    umbilic = nk6.reconstruct_sff(np.stack([lam, lam, m1, 0 * m1], axis=-1), R[30:60])
    berger = nk6.second_fundamental_form(dvv, dvv.chart.random_points(30, rng)).h
    tiny = np.concatenate([np.zeros((3, 3, 3, 3)), 1e-16 * generic[:3]])
    forms = np.concatenate([generic, umbilic, berger, tiny])
    return forms[rng.permutation(len(forms))]


def test_canonical_basis_one_row_batch_is_the_tensor_bitwise(dvv, rng):
    for h in mixed_normal_form_batch(dvv, rng)[:40]:
        one, row = nk6.canonical_basis(h), nk6.canonical_basis(h[None])
        assert all(isinstance(v, float) for v in one.tuple()) and one.basis.shape == (3, 3)
        assert np.array_equal(np.array(one.tuple()), np.stack(row.tuple(), axis=-1)[0])
        assert np.array_equal(one.basis, row.basis[0])


def test_canonical_basis_batch_rows_match_each_tensor(dvv, rng):
    forms = mixed_normal_form_batch(dvv, rng).reshape(8, 12, 3, 3, 3)
    cd = nk6.canonical_basis(forms)
    assert cd.basis.shape == (8, 12, 3, 3) and cd.lambda1.shape == (8, 12)
    big = np.maximum(1.0, np.sqrt(np.sum(forms**2, axis=(-3, -2, -1))))
    alone = np.array([nk6.canonical_basis(h).tuple() for h in forms.reshape(-1, 3, 3, 3)])
    dev = np.abs(np.stack(cd.tuple(), axis=-1) - alone.reshape(8, 12, 4)).max(axis=-1)
    assert np.all(dev <= 1e-12 * big)
    # where maxima or eigenvalues tie, the basis need not be the lone row's,
    # but it reproduces the row
    rebuilt = nk6.reconstruct_sff(cd.tuple(), cd.basis)
    assert np.all(np.sqrt(np.sum((rebuilt - forms) ** 2, axis=(-3, -2, -1))) <= 1e-8 * big)
    assert np.all(cd.reconstruction_residual <= 1e-8 * big)
    assert np.all(cd.constraint_slack() <= 1e-8 * big)
    # rows below |h| = 1e-14 read the zero tuple in the identity basis
    zero = np.sqrt(np.sum(forms**2, axis=(-3, -2, -1))) < 1e-14
    assert zero.sum() == 6 and np.array_equal(cd.basis[zero], np.broadcast_to(np.eye(3), (6, 3, 3)))
    assert not np.any(np.stack(cd.tuple(), axis=-1)[zero])


def test_reconstruction_error_names_the_failing_row(dvv, rng):
    forms = mixed_normal_form_batch(dvv, rng)[:7]
    forms[4, 0, 1, 2] += 1.0  # not a symmetric cubic tensor
    with pytest.raises(canonical.ReconstructionError, match=r"\[row 4 of 7\]$"):
        nk6.canonical_basis(forms)


def test_canonical_basis_theta_is_the_certified_theta_bitwise(dvv, monkeypatch):
    # the normal form keeps the Theta of the maximize_theta call that gives
    # e1, for a batch and for one tensor: DVV nodes, rotated normal forms,
    # rotated orbit forms (tied maxima, which take the enclosure) and zero rows
    rng = np.random.default_rng(53)
    forms = np.concatenate([
        nk6.second_fundamental_form(dvv, dvv.chart.random_points(16, rng)).h,
        nk6.reconstruct_sff(rng.uniform(-1.0, 1.0, size=(16, 4)), rotations(16, 7)),
        nk6.reconstruct_sff((S5 / 4, S5 / 4, S10 / 4, 0.0), rotations(16, 5)),
        nk6.reconstruct_sff((np.sqrt(5.0 / 3.0), 0.0, 0.0, 0.0), rotations(16, 6)),
        np.zeros((4, 3, 3, 3))])
    enclosed = []
    enclose = canonical._enclose
    monkeypatch.setattr(canonical, "_enclose",
                        lambda hs, *a: enclosed.append(len(hs)) or enclose(hs, *a))

    def enclosed_rows(h):  # and canonical_basis's Theta is maximize_theta's
        enclosed.clear()
        theta = nk6.canonical_basis(h).theta
        assert np.asarray(theta).tobytes() == nk6.maximize_theta(h)[1].tobytes()
        return enclosed[0] if enclosed else 0

    assert enclosed_rows(forms.reshape(4, 17, 3, 3, 3)) >= 32
    assert [enclosed_rows(h) for h in forms[32:64]] == [1] * 32
    for h in np.concatenate([forms[:32], forms[64:]]):
        enclosed_rows(h)


def random_symmetric_trace_free(rng):
    h = rng.normal(size=(3, 3, 3))
    h = sum(np.transpose(h, p) for p in
            ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6
    tr = np.einsum("kii->k", h) / 5.0
    eye = np.eye(3)
    return h - (np.einsum("ij,k->kij", eye, tr) + np.einsum("ki,j->kij", eye, tr)
                + np.einsum("kj,i->kij", eye, tr))


def test_canonical_basis_on_arbitrary_trace_free_tensors(rng):
    # the normal form is pointwise linear algebra: dimension count
    # 4 parameters + 3 rotations = 7 = dim of symmetric trace-free tensors,
    # so extraction must succeed on every such tensor, not just model data
    scan = rng.normal(size=(200000, 3))
    scan /= np.linalg.norm(scan, axis=1, keepdims=True)
    # cubes[p, k*9 + i*3 + j] = scan[p, k] scan[p, i] scan[p, j], built once
    cubes = np.einsum("pk,pi,pj->pkij", scan, scan, scan).reshape(len(scan), 27)
    for _ in range(100):
        h = random_symmetric_trace_free(rng)
        cd = nk6.canonical_basis(h)
        assert cd.reconstruction_residual < 1e-10
        assert cd.constraint_slack() <= 1e-10
        brute = np.abs(cubes @ h.reshape(27)).max()
        assert brute <= cd.theta + 1e-10  # dense scan never beats the optimum


def test_symmetrizer_is_the_mean_over_index_orders():
    h = np.random.default_rng(29).normal(size=(50, 3, 3, 3))
    mean = sum(np.transpose(h, (0, *(1 + p for p in perm)))
               for perm in itertools.permutations(range(3))) / 6.0
    S = canonical._symmetrizer()
    assert set(np.unique(S)) == {0.0, 1.0, 1 / 3, 1 / 6}
    assert np.max(np.abs((h.reshape(-1, 27) @ S).reshape(h.shape) - mean)) < 1e-15


def test_polish_batch_matches_rows_polished_alone(monkeypatch):
    # the column layout keeps each row's arithmetic to itself: a batch whose
    # rows stop at different passes, never move, fall back to an ascent step
    # or run out of steps returns bitwise what each row returns alone
    rng = np.random.default_rng(31)
    R = np.linalg.qr(rng.normal(size=(8, 3, 3)))[0]
    forms = nk6.reconstruct_sff(rng.uniform(-1.0, 1.0, size=(8, 4)), R)
    top, _ = nk6.maximize_theta(forms)
    kick = rng.normal(size=(8, 3)) * np.logspace(-9, -0.5, 8)[:, None]
    starts = (top + kick) / np.linalg.norm(top + kick, axis=-1, keepdims=True)
    # f = u1^3 has a singular tangent Hessian at (sqrt(2), 0, 1)/sqrt(3)
    cube = np.zeros((3, 3, 3))
    cube[0, 0, 0] = 1.0
    degenerate = np.array([np.sqrt(2.0 / 3.0), 0.0, np.sqrt(1.0 / 3.0)])
    ring = nk6.reconstruct_sff((S5 / 4, S5 / 4, 0.0, 0.0))
    hs = np.concatenate([forms, [cube, ring, 1e-9 * forms[0]]])
    u0 = np.concatenate([starts, [degenerate, np.array([-1.0, 2.0, 0.0]) / S5, starts[0]]])
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))

    T = canonical._tangent_basis(degenerate)
    hessian = (6.0 * np.einsum("kij,k,ai,bj->ab", cube, degenerate, T, T)
               - 3.0 * degenerate[0] ** 3 * np.eye(2))
    assert np.linalg.det(hessian) == 0.0

    passes, forms_at = [], canonical._forms

    def counted(H, x):  # one call to start, then one per Newton step
        passes.append(x.shape[-1])
        return forms_at(H, x)

    monkeypatch.setattr(canonical, "_forms", counted)
    batch = canonical._polish(hs, u0, scale)
    alone, steps = [], []
    for i in range(len(hs)):
        passes.clear()
        alone.append(canonical._polish(hs[i:i + 1], u0[i:i + 1], scale[i:i + 1]))
        steps.append(len(passes) - 1)
    assert len(batch) == 6  # u, f, g, mu, lmin, rho
    for k in range(6):
        assert np.array_equal(batch[k], np.concatenate([a[k] for a in alone]))
    assert len(set(steps)) >= 4 and max(steps) == canonical._MAX_NEWTON
    u, f = batch[0], batch[1]
    assert steps[-2] == 0 and np.array_equal(u[-2], u0[-2])  # the ring point never moves
    assert np.allclose(u[-3], [1.0, 0.0, 0.0], atol=1e-12) and abs(f[-3] - 1.0) < 1e-15


def tangent_newton_oracle(x, A, f, grad):
    """Newton's step on the sphere at the unit rows x (n, 3), given A[b, a] =
    h(e_a, e_b, x), f and the gradient (3, n), by the 2 x 2 solve in an
    orthonormal tangent basis: t1 the coordinate axis farthest from x made
    orthogonal to it, t2 = x x t1.  Returns the steps (n, 3) and cond(K)."""
    axis = np.eye(3)[np.argmin(np.abs(x), axis=-1)]
    t1 = axis - np.einsum("na,na->n", axis, x)[:, None] * x
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    T = np.stack([t1, np.cross(x, t1)], axis=1)
    K = T @ (6.0 * A.transpose(2, 0, 1) - 3.0 * f[:, None, None] * np.eye(3)) @ T.transpose(0, 2, 1)
    s = np.linalg.solve(K, -np.einsum("nia,an->ni", T, grad)[..., None])[..., 0]
    return np.einsum("ni,nia->na", s, T), np.linalg.cond(K)


def test_newton_step_in_closed_form_matches_the_tangent_solve():
    # the step in the basis (g, x x g) is the tangent-basis 2 x 2 solve, at
    # random points and near the maximum, where |g| is about 1e-9
    rng = np.random.default_rng(53)
    hs = random_symmetric_forms(rng, 2048)
    big = np.maximum(np.sqrt(np.sum(hs**2, axis=(-3, -2, -1))), 1.0)
    top, _ = nk6.maximize_theta(hs)
    for x, (glo, ghi) in ((rng.normal(size=(2048, 3)), (1e-2, 1e2)),
                          (top + 1e-9 * rng.normal(size=(2048, 3)), (1e-11, 1e-7))):
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        A = np.einsum("nabc,nc->ban", hs, x)
        v2 = np.einsum("ban,nb->an", A, x)
        f = np.einsum("an,na->n", v2, x)
        grad = 3.0 * (v2 - f * x.T)
        assert glo < np.linalg.norm(grad, axis=0).min() <= np.linalg.norm(grad, axis=0).max() < ghi
        step, safe = canonical._newton_step(A, f, np.ascontiguousarray(x.T), grad, big)
        want, cond = tangent_newton_oracle(x, A, f, grad)
        assert safe.all() and cond.max() > 10.0
        rel = np.linalg.norm(step.T - want, axis=-1) / np.linalg.norm(want, axis=-1)
        assert rel.max() <= 1e-12


def test_dvv_block_takes_one_polish_of_three_newton_steps(dvv, monkeypatch):
    # integrate's 8192-node block: one _polish for every row, all of them
    # at their maxima after three Newton steps, one _forms call each after
    # the start's
    q = simons.QuadratureRule(32, 32, 32).nodes_weights()[0][:simons._NODE_BLOCK]
    h = nk6.second_fundamental_form(dvv, q).h
    calls = []
    for name in ("_polish", "_forms"):
        def counted(*args, _inner=getattr(canonical, name), _name=name):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(canonical, name, counted)
    _, theta = nk6.maximize_theta(h)
    assert calls == ["_polish"] + ["_forms"] * 4
    assert np.max(np.abs(theta - S5 / 2)) < 1e-13


def test_maximize_theta_over_chunks_matches_rows_alone():
    rng = np.random.default_rng(8)
    n = canonical._CHUNK + 100
    R = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    hs = nk6.reconstruct_sff(rng.uniform(-1.0, 1.0, size=(n, 4)), R)
    u, theta = nk6.maximize_theta(hs)
    rows = [nk6.maximize_theta(h) for h in hs]
    scale = np.sqrt(np.sum(hs**2, axis=(-3, -2, -1)))
    # a batch and a single row go through the symmetrizer and level-0
    # matmuls in different BLAS kernels, which may round the last bits apart
    assert np.all(np.abs(theta - [t for _, t in rows]) <= 1e-14 * np.maximum(scale, 1.0))
    assert np.max(np.abs(u - [v for v, _ in rows])) < 1e-10
