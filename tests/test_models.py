"""Built-in models: embedding data, the default table, Berger curvature."""

import gc
import itertools
import json

import numpy as np
import pytest

import nk6
from nk6 import cli, models
from conftest import random_chart_points, relabeled_table

S5 = np.sqrt(5.0)


def flow(i, t, y):
    A = models.FIELD_MATS[i]
    return (np.cos(t) * np.eye(4) + np.sin(t) * A) @ y


def test_embedding_pole_value(dvv):
    x = dvv.embed(np.array([1.0, 0.0, 0.0, 0.0]))
    expected = np.zeros(7)
    expected[0] = 1.0  # (5 + 4) / 9
    assert np.allclose(x, expected, atol=1e-15)


def test_hopf_chart_round_trip(rng):
    # to_y is the Hopf parametrization, entry for entry, on any batch shape,
    # and from_y inverts it
    chart = models.HopfChart()
    for shape in [(), (7,), (2, 5)]:
        q = np.stack([rng.uniform(0.05, 1.5, size=shape),
                      *rng.uniform(0.0, 2 * np.pi, size=(2,) + shape)], axis=-1)
        c, s = np.cos(q), np.sin(q)
        y = chart.to_y(q)
        assert y.shape == shape + (4,)
        assert np.array_equal(y, np.stack([c[..., 0] * c[..., 1], c[..., 0] * s[..., 1],
                                           s[..., 0] * c[..., 2], s[..., 0] * s[..., 2]], -1))
        assert np.allclose(chart.from_y(y), q, atol=1e-12)


def test_embedding_image_on_sphere(dvv, rng):
    y = rng.normal(size=(1000, 4))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    x = dvv.embed(y)
    assert np.max(np.abs(np.sum(x * x, -1) - 1.0)) < 1e-12


def test_frame_field_brackets_by_flow_composition(rng):
    # [X_i, X_j] = 2 X_k cyclically, recovered from the group commutator of flows
    t = 1e-4
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        y = rng.normal(size=4)
        y /= np.linalg.norm(y)
        z = flow(j, -t, flow(i, -t, flow(j, t, flow(i, t, y))))
        bracket_fd = (z - y) / t**2
        bracket = 2.0 * models.FIELD_MATS[k] @ y
        assert np.max(np.abs(bracket_fd - bracket)) < 1e-3


def test_pullback_metric_is_berger(dvv, rng):
    y = rng.normal(size=(200, 4))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    push = dvv.jet(y, 1).d1  # X_f Psi
    gram = np.einsum("...ic,...jc->...ij", push, push)
    assert np.max(np.abs(gram - np.diag([4 / 9, 8 / 3, 8 / 3]))) < 1e-10


def test_structure_alignment(dvv, table):
    pts = random_chart_points(dvv, 25, seed=21)
    pk = nk6.frame(dvv, pts)
    g23 = nk6.g_tensor(pk.jet.value, pk.e[..., 1, :], pk.e[..., 2, :], table, check=False)
    assert np.max(np.abs(g23 - pk.estar[..., 0, :])) < 1e-8


def test_table_selection_is_deterministic(monkeypatch):
    # with NK6_TABLE_PATH unset the default table is the Cayley-Dickson constant itself
    monkeypatch.delenv("NK6_TABLE_PATH", raising=False)
    nk6.default_table.cache_clear()
    try:
        assert nk6.default_table() is nk6.cayley_dickson_table()
    finally:
        nk6.default_table.cache_clear()


def test_verify_rejects_flipped_orientation(table, tmp_path, capsys):
    # the global sign flip keeps the image Lagrangian and G(E2,E3) = J E1 but
    # reverses the cubic form, so verify fails h_values and nothing else
    flipped = nk6.MulTable.from_triples(
        tuple(((i, j, k), -s) for (i, j, k), s in table.triples), source="flipped"
    )
    imm = nk6.dvv_immersion(flipped)
    pk = nk6.frame(imm, np.array([0.8, 0.4, 1.2]), validate=False)
    assert pk.lagrangian_residual() < 1e-10  # still Lagrangian
    sff = nk6.second_fundamental_form(imm, np.array([0.8, 0.4, 1.2]), frame_packet=pk)
    assert sff.h[0, 0, 0] < 0  # but the cubic form is negated
    path = tmp_path / "flipped.table"
    path.write_text("".join(f"{i} {j} {k} {s:+d}\n" for (i, j, k), s in flipped.triples))
    code = cli.main(["verify", "--model", "dvv", "--table", str(path)])
    doc = json.loads(capsys.readouterr().out)
    failed = [c["name"] for s in doc["suites"] for c in s["checks"] if not c["passed"]]
    assert code == 1 and failed == ["h_values"]
    assert doc["summary"] == {"checks": 33, "failures": 1, "passed": False}


def test_env_table_override(tmp_path, monkeypatch, table):
    path = tmp_path / "env.table"
    lines = [
        f"{i} {j} {k} {'+1' if s > 0 else '-1'}" for (i, j, k), s in table.triples
    ]
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("NK6_TABLE_PATH", str(path))
    nk6.default_table.cache_clear()
    try:
        loaded = nk6.default_table()
        assert np.array_equal(loaded.f, table.f)
    finally:
        nk6.default_table.cache_clear()


def test_totally_geodesic_properties(geodesic, rng):
    pts = random_chart_points(geodesic, 100, seed=22)
    sff = nk6.second_fundamental_form(geodesic, pts)
    assert np.max(np.abs(sff.h)) < 1e-10
    pk = nk6.frame(geodesic, pts)
    assert pk.lagrangian_residual() < 1e-10
    cp = nk6.curvature_from_sff(sff)
    u = rng.normal(size=(len(pts), 3))
    v = rng.normal(size=(len(pts), 3))
    assert np.max(np.abs(nk6.sectional_curvature(cp, u, v) - 1.0)) < 1e-8


def test_totally_geodesic_uses_doubled_half(geodesic, table):
    # products of two doubled-half units land in the quaternion half: the
    # subspace block of the table vanishes and its complement is a full line
    comps = sorted({c for c, _, _ in geodesic.terms})
    assert len(comps) == 4
    block = table.f[np.ix_(comps, comps, comps)]
    assert np.all(block == 0.0)
    line = [i for i in range(7) if i not in comps]
    assert abs(table.f[line[0], line[1], line[2]]) == 1.0


@pytest.mark.parametrize("seed", [1, 97, 240, 479])
def test_totally_geodesic_plane_exists_for_relabeled_tables(seed):
    # every valid table is a signed relabeling of Cayley-Dickson, so the
    # search for W with a zero block f[W, W, W] always succeeds
    table = relabeled_table(seed)
    geodesic = nk6.totally_geodesic_immersion(table)
    comps = sorted({c for c, _, _ in geodesic.terms})
    assert len(comps) == 4 and not np.any(table.f[np.ix_(comps, comps, comps)])
    pts = random_chart_points(geodesic, 20, seed=seed)
    assert nk6.frame(geodesic, pts).lagrangian_residual() < 1e-12


def test_berger_curvature_reference_planes(rng):
    spec = nk6.BergerSpec()
    alpha, beta = spec.curvature_coefficients()
    assert abs(alpha - 1 / 16) < 1e-14
    assert abs(beta - 20 / 16) < 1e-14
    assert abs(spec.scalar_curvature() - 23 / 8) < 1e-14
    y = rng.normal(size=4)
    y /= np.linalg.norm(y)
    E = [s * (models.FIELD_MATS[i] @ y) for i, s in
         zip(range(3), (1.5, np.sqrt(3 / 8), -np.sqrt(3 / 8)))]
    k12 = nk6.berger_curvature(spec, y, E[0], E[1], E[1], E[0])
    k23 = nk6.berger_curvature(spec, y, E[1], E[2], E[2], E[1])
    assert abs(k12 - 1 / 16) < 1e-12
    assert abs(k23 - 21 / 16) < 1e-12


def test_berger_curvature_angle_formula(rng):
    spec = nk6.BergerSpec()
    y = rng.normal(size=4)
    y /= np.linalg.norm(y)
    E = [s * (models.FIELD_MATS[i] @ y) for i, s in
         zip(range(3), (1.5, np.sqrt(3 / 8), -np.sqrt(3 / 8)))]
    for _ in range(100):
        theta, phi = rng.uniform(0, 2 * np.pi, size=2)
        X = np.cos(theta) * E[1] + np.sin(theta) * E[2]
        Y = (np.sin(phi) * E[0]
             - np.cos(phi) * np.sin(theta) * E[1]
             + np.cos(phi) * np.cos(theta) * E[2])
        K = nk6.berger_curvature(spec, y, X, Y, Y, X)
        assert abs(K - (1 / 16 + 20 / 16 * np.cos(phi) ** 2)) < 1e-12


def test_berger_matches_gauss_equation(dvv, rng):
    # intrinsic Berger curvature equals the extrinsic Gauss-equation curvature
    spec = nk6.BergerSpec()
    pts = random_chart_points(dvv, 10, seed=23)
    cp = nk6.curvature(dvv, pts)
    y = dvv.chart.to_y(pts)
    for row in range(len(pts)):
        u4 = models.FIELD_MATS[0] @ y[row] + 0.3 * models.FIELD_MATS[1] @ y[row]
        v4 = models.FIELD_MATS[2] @ y[row] - 0.7 * models.FIELD_MATS[1] @ y[row]
        intrinsic = nk6.berger_curvature(spec, y[row], u4, v4, v4, u4)
        u = models._berger_components(spec, y[row], u4)
        v = models._berger_components(spec, y[row], v4)
        num = np.einsum("ijkl,i,j,k,l->", cp.R[row], u, v, u, v)
        assert abs(intrinsic - num) < 1e-8


def test_synthetic_cases():
    a = nk6.synthetic_case("a")
    assert a.tuple() == (0.0, 0.0, 0.0, 0.0)
    assert float(a.sff().norm_sq()) == 0.0
    b = nk6.synthetic_case("b")
    assert np.allclose(b.tuple(), (S5 / 4, S5 / 4, np.sqrt(10) / 4, 0.0))
    assert abs(float(b.sff().norm_sq()) - 45 / 8) < 1e-12
    c = nk6.synthetic_case("c")
    assert abs(float(c.sff().norm_sq()) - 25 / 8) < 1e-12
    _, theta = nk6.maximize_theta(c.sff().h)
    assert abs(float(theta) - S5 / 2) < 1e-10
    with pytest.raises(ValueError):
        nk6.synthetic_case("d")


def test_embedding_separates_points(dvv, rng):
    y1 = rng.normal(size=(10000, 4))
    y1 /= np.linalg.norm(y1, axis=-1, keepdims=True)
    y2 = rng.normal(size=(10000, 4))
    y2 /= np.linalg.norm(y2, axis=-1, keepdims=True)
    din = np.linalg.norm(y1 - y2, axis=-1)
    mask = din > 1e-3
    dout = np.linalg.norm(dvv.embed(y1) - dvv.embed(y2), axis=-1)
    assert np.all(dout[mask] > 0.5 * din[mask])


def test_polynomial_immersion_file_roundtrip(tmp_path, dvv, table):
    path = tmp_path / "berger.poly"
    rows = [
        f"{c + 1} {e[0]} {e[1]} {e[2]} {e[3]} {co:.17g}" for c, e, co in dvv.terms
    ]
    path.write_text("# embedding coefficients\n" + "\n".join(rows) + "\n")
    imm = nk6.load_polynomial_immersion(path, table)
    pts = random_chart_points(imm, 10, seed=24)
    y = imm.chart.to_y(pts)
    assert np.max(np.abs(imm.jet(y, 2).value - dvv.jet(y, 2).value)) < 1e-15
    # no frame fields in the file: Gram-Schmidt frame, gauge-invariant norms agree
    sff = nk6.second_fundamental_form(imm, pts)
    assert np.max(np.abs(sff.norm_sq() - 25 / 8)) < 1e-8


def test_polynomial_immersion_rejects_off_sphere(tmp_path, table):
    path = tmp_path / "bad.poly"
    path.write_text("1 1 0 0 0 0.5\n")
    with pytest.raises(ValueError):
        nk6.load_polynomial_immersion(path, table)


@pytest.mark.parametrize("text, message", [
    ("1 1 0 0 0\n", "expected 'component e1 e2 e3 e4 coeff'"),
    ("0 1 0 0 0 1.0\n", "component must be in 1..7"),
    ("8 1 0 0 0 1.0\n", "component must be in 1..7"),
    ("1 1 -1 0 0 1.0\n", "exponents must be nonnegative"),
])
def test_polynomial_file_names_the_line_of_a_bad_row(tmp_path, table, text, message):
    path = tmp_path / "bad.poly"
    path.write_text("# one row\n" + text)
    with pytest.raises(ValueError) as exc:
        nk6.load_polynomial_immersion(path, table)
    assert str(exc.value) == f"{path}:2: {message}"


def test_polynomial_file_with_no_rows_is_refused(tmp_path, table):
    path = tmp_path / "empty.poly"
    path.write_text("# comments only\n")
    with pytest.raises(ValueError) as exc:
        nk6.load_polynomial_immersion(path, table)
    assert str(exc.value) == f"{path}: no coefficient rows found"


@pytest.mark.parametrize("weights", [{"w1": 0.0}, {"w23": -1.0}])
def test_berger_weights_must_be_positive(weights):
    with pytest.raises(ValueError, match="Berger weights must be positive"):
        nk6.BergerSpec(**weights)


def test_resolve_model_names(table):
    assert nk6.resolve_model("dvv", table).name == "dvv"
    assert nk6.resolve_model("totally-geodesic", table).name == "totally-geodesic"
    assert nk6.resolve_model("synthetic:b", table).tag == "b"
    with pytest.raises(ValueError):
        nk6.resolve_model("nope", table)


def test_jet_leaves_no_reference_cycles(dvv):
    # a cycle would keep every intermediate monomial jet of the batch alive
    # until the cyclic collector ran, raising peak memory on large batches
    q = dvv.chart.to_y(random_chart_points(dvv, 50, seed=4))
    gc.collect()
    gc.disable()
    try:
        dvv.jet(q, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dvv_immersions_share_a_read_only_derivative_table(table):
    # the table is built once per polynomial; each immersion stays a fresh
    # object, since tests patch methods such as `jet` on the instance
    a, b = nk6.dvv_immersion(table), nk6.dvv_immersion(table)
    assert a is not b
    (ea, ca, ra), (eb, cb, rb) = a._table, b._table
    assert ea is eb and not ea.flags.writeable and ra == rb == (12, 14, 14, 14)
    for x, y in zip(ca, cb):
        assert x is y and not x.flags.writeable


def test_homogeneous_tables_have_equal_rows_at_every_order(geodesic):
    # each X_f keeps the degree of a monomial, so a homogeneous map that holds
    # every monomial of its degree needs no new rows at higher orders
    assert geodesic._table[2] == (4, 4, 4, 4)
    cubics = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]
    terms = tuple((c, e, 1.0 + c + i) for i, e in enumerate(cubics) for c in (0, 5))
    assert models._derivative_table(terms)[2] == (20, 20, 20, 20)
