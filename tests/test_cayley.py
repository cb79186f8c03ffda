"""Cross-product table machinery and the structure-identity suite."""

import numpy as np
import pytest

from nk6 import cayley
from conftest import relabeled_table


def unit(i):
    e = np.zeros(7)
    e[i] = 1.0
    return e


def test_default_table_rows():
    table = cayley.cayley_dickson_table()
    # antisymmetry on repeated arguments
    assert np.allclose(cayley.cross(unit(0), unit(0), table), 0.0)
    # e1 x e2 = e3 in the doubling convention, read back from the table
    assert np.allclose(cayley.cross(unit(0), unit(1), table), unit(2))
    assert np.allclose(cayley.cross(unit(1), unit(0), table), -unit(2))


def test_cross_product_axiom_random(rng):
    table = cayley.cayley_dickson_table()
    u = rng.normal(size=(1000, 7))
    v = rng.normal(size=(1000, 7))
    w = cayley.cross(u, v, table)
    lhs = np.sum(w * w, axis=-1)
    rhs = np.sum(u * u, -1) * np.sum(v * v, -1) - np.sum(u * v, -1) ** 2
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))
    assert np.max(np.abs(np.sum(w * u, -1))) < 1e-12 * np.max(np.abs(lhs))


def test_table_file_roundtrip(tmp_path):
    path = tmp_path / "cd.table"
    lines = [
        f"{i} {j} {k} {'+1' if s > 0 else '-1'}"
        for (i, j, k), s in cayley.CAYLEY_DICKSON_TRIPLES
    ]
    path.write_text("# doubling convention\n" + "\n".join(lines) + "\n")
    table = cayley.load_table(path)
    assert np.array_equal(table.f, cayley.cayley_dickson_table().f)


def test_table_file_rejects_axiom_violation(tmp_path):
    path = tmp_path / "bad.table"
    path.write_text("1 2 3 +1\n1 2 4 -1\n")
    with pytest.raises(cayley.TableError):
        cayley.load_table(path)


def test_table_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.table"
    path.write_text("1 2 +1\n")
    with pytest.raises(cayley.TableError):
        cayley.load_table(path)


def test_almost_complex_squares_to_minus_identity(rng):
    table = cayley.cayley_dickson_table()
    x = rng.normal(size=(200, 7))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    u = cayley.random_tangent(x, rng)
    ju = cayley.almost_complex(x, u, table)
    jju = cayley.almost_complex(x, ju, table)
    assert np.max(np.abs(jju + u)) < 1e-13 * max(1.0, np.max(np.abs(u)))
    # isometric and compatible with the metric
    assert np.max(np.abs(np.sum(ju * ju, -1) - np.sum(u * u, -1))) < 1e-12
    assert np.max(np.abs(np.sum(ju * u, -1))) < 1e-13


def test_almost_complex_at_pole_matches_table_row():
    table = cayley.cayley_dickson_table()
    x, u = unit(0), unit(1)
    assert np.allclose(cayley.almost_complex(x, u, table), unit(2))


def test_almost_complex_rejects_base_point_mismatch():
    table = cayley.cayley_dickson_table()
    with pytest.raises(ValueError):
        cayley.almost_complex(unit(0) * 2.0, unit(1), table)
    with pytest.raises(ValueError):
        cayley.almost_complex(unit(0), unit(0) + unit(1), table)


def test_g_tensor_alternating_and_tangent(rng):
    table = cayley.cayley_dickson_table()
    x = rng.normal(size=(500, 7))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    X = cayley.random_tangent(x, rng)
    Y = cayley.random_tangent(x, rng)
    gxx = cayley.g_tensor(x, X, X, table)
    assert np.max(np.abs(gxx)) < 1e-14 * np.max(np.sum(X * X, -1))
    g = cayley.g_tensor(x, X, Y, table)
    assert np.max(np.abs(np.sum(g * x, -1))) < 1e-12
    assert np.max(np.abs(np.sum(g * X, -1))) < 1e-11
    assert np.max(np.abs(np.sum(g * Y, -1))) < 1e-11


def test_g_tensor_matches_difference_quotient(rng):
    table = cayley.cayley_dickson_table()
    x = rng.normal(size=(100, 7))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    X = cayley.random_tangent(x, rng)
    Y = cayley.random_tangent(x, rng)
    closed = cayley.g_tensor(x, X, Y, table)
    fd = cayley.g_tensor_fd(x, X, Y, table)
    assert np.max(np.abs(closed - fd)) < 1e-13


def test_identity_suite_residuals(table):
    residuals = cayley.verify_nk_identities(table, n_samples=1000, seed=3)
    assert list(residuals) == list(cayley.IDENTITY_FORMULAS)
    for name in ("antisymmetry", "complex_anticommutation",
                 "skew_adjointness", "product_expansion",
                 "lagrangian_frame_products"):
        assert residuals[name] < 1e-12
    assert residuals["covariant_derivative"] < 1e-12


def test_identity_suite_rejects_empty():
    with pytest.raises(ValueError):
        cayley.verify_nk_identities(cayley.cayley_dickson_table(), n_samples=0)


def test_lagrangian_frame_properties(rng):
    table = cayley.cayley_dickson_table()
    x = rng.normal(size=(5, 7))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    e = cayley.lagrangian_frame(x, table, rng)
    assert e.shape == (5, 3, 7)
    assert np.max(np.abs(e @ np.swapaxes(e, -1, -2) - np.eye(3))) < 1e-12
    je = cayley.cross(x[:, None, :], e, table)
    assert np.max(np.abs(je @ np.swapaxes(e, -1, -2))) < 1e-12
    assert np.max(np.abs(e @ x[..., None])) < 1e-12
    # one point (7,) gives one frame (3, 7)
    assert cayley.lagrangian_frame(x[0], table, rng).shape == (3, 7)


# The dense einsums that `cross` and `frame_products` replace, kept as oracles.
def einsum_cross(u, v, table):
    return np.einsum("ijk,...i,...j->...k", table.f, u, v)


def einsum_frame_products(table, a, b, c):
    return np.einsum("pqc,...ip,...jq,...kc->...ijk", table.f, a, b, c)


@pytest.mark.parametrize("seed", [0, 1, 97, 240, 479])
def test_cross_matches_the_einsum_oracle(seed, rng):
    table = relabeled_table(seed)
    u, v = rng.normal(size=(2, 50, 3, 7))
    x = rng.normal(size=(50, 7))
    cases = [
        (u, v),                         # batch against batch
        (x[:, None, :], v),             # x broadcast over a frame
        (u[:1, 0], v[:1, 0]),           # a batch of one
        (u[0, 0], v[0, 0]),             # plain (7,) vectors
        (u[0, 0], v),                   # one vector against a batch
    ]
    for a, b in cases:
        got = cayley.cross(a, b, table)
        want = einsum_cross(a, b, table)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("seed", [0, 5, 333, 479])
def test_frame_products_match_the_einsum_oracle(seed, rng):
    table = relabeled_table(seed)
    a, b, c = rng.normal(size=(3, 40, 3, 7))
    for args in ((a, b, c), (a[:1], b[:1], c[:1]), (a[0], b[0], c[0]), (a, a, c[0])):
        got = cayley.frame_products(table, *args)
        want = einsum_frame_products(table, *args)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))
