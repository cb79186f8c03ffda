"""Command-line front end: verification suites, per-point analysis and
quadrature certification, with deterministic JSON/CSV reports.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 usage or
configuration error.  Every reported check carries the formula of the
identity it exercises and the worst residual observed, so a failure is
traceable to a specific equation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field as dc_field, fields as dc_fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, canonical, cayley, geometry, models, simons
from .simons import SCHEMA_VERSION

DEFAULT_TOLERANCES = {
    "algebraic": 1e-12,
    "unit_image": 1e-12,
    "jet_fd_agreement": 1e-6,
    "orthonormal": 1e-10,
    "lagrangian": 1e-10,
    "metric_values": 1e-10,
    "sff_symmetry": 1e-9,
    "minimality": 1e-9,
    "volume_form": 1e-9,
    "g_normality": 1e-10,
    "h_values": 1e-8,
    "g_orientation": 1e-8,
    "hsq_value": 1e-8,
    "theta_value": 1e-6,
    "normal_form": 1e-7,
    "codazzi": 1e-7,
    "nabla_h_ambient": 1e-7,
    "covariant_exchange": 1e-7,
    "gauss_scalar": 1e-8,
    "sectional_values": 1e-8,
    "f_norm": 1e-10,
    "t_decomposition": 1e-6,
    "cross_term": 1e-6,
    "t_norm": 1e-8,
    "j_parallel": 1e-7,
    "gradient_bound": 1e-8,
    "laplacian": 1e-4,
    "closed_form_match": 1e-12,
    "constraints": 1e-8,
    "remainder_sign": 0.0,
    "integral": 1e-8,
    "volume": 1e-6,
}


@dataclass
class RunConfig:
    """Echoed into every report, `table` as the source of the table in use;
    a fixed config fixes the output.  Its defaults are the command line's."""

    command: str
    model: str = "dvv"
    table: str = "auto"
    seed: int = 0
    samples: int = 1000
    rule: simons.QuadratureRule = dc_field(default_factory=simons.QuadratureRule)
    tolerances: dict = dc_field(default_factory=dict)
    out: Path | None = None
    fmt: str = "json"
    points: list | None = None
    random_points: int = 10

    def tol(self, key):
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def to_dict(self):
        return {
            "command": self.command,
            "model": self.model,
            "table": self.table,
            "seed": self.seed,
            "samples": self.samples,
            "rule": list(self.rule.counts()),
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "format": self.fmt,
            "points": self.points,
            "random_points": self.random_points,
        }


def _check(name, formula, residual, tolerance, **extra):
    row = {
        "name": name,
        "formula": formula,
        "max_residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }
    row.update(extra)
    return row


def _suite(name, checks):
    return {"name": name, "checks": checks}


def _resolve_table(cfg: RunConfig):
    if cfg.table == "auto":
        return models.default_table()
    return cayley.load_table(cfg.table)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _structure_suite(table, cfg):
    residuals = cayley.verify_nk_identities(table, cfg.samples, cfg.seed)
    return _suite("structure_identities", [
        _check(name, cayley.IDENTITY_FORMULAS[name], residual, cfg.tol("algebraic"))
        for name, residual in residuals.items()])


def _rows(packet, index):
    """An array, a frame, jet, SFF, curvature or nabla h packet, or a tuple
    of these, at the points `index` selects: a slice, or an int for one."""
    if isinstance(packet, np.ndarray):
        return packet[index]
    if isinstance(packet, tuple):
        return tuple(_rows(v, index) for v in packet)
    rows = {}
    for f in dc_fields(packet):
        v = getattr(packet, f.name)
        if isinstance(v, (np.ndarray, geometry.ImmersionJet)):
            rows[f.name] = _rows(v, index)
    return replace(packet, **rows)


def _nabla_h_ambient_residual(imm, pk, sff, nh):
    """Worst deviation of nabla h from a route that shares no connection
    coefficient with geometry.nabla_h, at the first n <= 4 points.

    The R^7-valued field H_ij = sum_l h[l,i,j] J e_l and the frame e are
    differentiated along the fields V_m = C_m.X, which equal e_m at each
    point, by the complex step (Squire and Trapp, SIAM Rev. 40, 1998):
    d/dt f(exp(t C_m.M) y) at t = 0 is Im f(exp(i s C_m.M) y) / s to
    O(s^2), with no difference to cancel.  The frame and h continued to
    those 3n complex points come from one geometry._frame_at call; paired
    with the real J e_k and e_l at the point, they give
    (nabla h)[k,i,j,m] = <V_m H_ij, J e_k> - Gamma_mil h[k,l,j]
    - Gamma_mjl h[k,i,l] with Gamma_mil = <V_m e_i, e_l>.  `pk`, `sff` and
    `nh` hold the frame, h and nabla h with those points first.
    """
    n, s = min(4, len(pk.y)), cayley.COMPLEX_STEP
    C, h, estar, e = pk.field_comps[:n], sff.h[:n], pk.estar[:n], pk.e[:n]
    moved = geometry._flow(pk.y[:n], np.moveaxis(C, -2, 0), np.array([1j * s]))[:, 0]
    pk_c = geometry._frame_at(imm, moved)
    h_c = geometry.second_fundamental_form(imm, moved, frame_packet=pk_c).h
    field = np.einsum("mnlij,mnlc->mnijc", h_c, pk_c.estar)
    proj = np.einsum("mnijc,nkc->nkijm", field, estar).imag / s
    gamma = np.einsum("mnic,nlc->nmil", pk_c.e, e).imag / s
    oracle = (proj - np.einsum("nmil,nklj->nkijm", gamma, h)
              - np.einsum("nmjl,nkil->nkijm", gamma, h))
    return float(np.max(np.abs(oracle - nh.coeffs[:n])))


def _immersion_suite(imm, cfg):
    """The suite, and its samples: points, frame, h, curvature, nabla h of the first 24."""
    checks = []
    pts = imm.chart.random_points(min(cfg.samples, 200), np.random.default_rng(cfg.seed))
    pk = geometry.frame(imm, pts, validate=False)
    checks.append(_check(
        "unit_image", "|Psi(q)| = 1", pk.jet.unit_image_residual(), cfg.tol("unit_image")))

    # the oracle pins each jet's mean over index orders; the commutators of
    # the fields X_f pin the rest of its ordered entries
    exact = imm.jet(pk.y[:4], 3)
    approx = geometry.fd_jet(imm, pk.y[:4], 3)
    dev = max(
        float(np.max(np.abs(exact.d1 - approx.d1))),
        float(np.max(np.abs(geometry._symmetrized(exact.d2, 2) - approx.d2))),
        float(np.max(np.abs(geometry._symmetrized(exact.d3, 3) - approx.d3))),
        exact.commutator_residual(),
    )
    checks.append(_check(
        "jet_fd_agreement", "analytic jets match value-only Cauchy-integral jets",
        dev, cfg.tol("jet_fd_agreement")))

    checks.append(_check(
        "frame_orthonormal", "<e_i, e_j> = delta_ij",
        pk.orthonormality_residual(), cfg.tol("orthonormal")))
    checks.append(_check(
        "lagrangian", "<J e_i, e_j> = 0",
        pk.lagrangian_residual(), cfg.tol("lagrangian")))

    sff = geometry.second_fundamental_form(imm, pts, frame_packet=pk)
    checks.append(_check(
        "sff_full_symmetry", "h^{k*}_{ij} is symmetric in (i, j, k)",
        sff.symmetry_residual(), cfg.tol("sff_symmetry")))
    checks.append(_check(
        "minimality", "sum_i h(e_i, e_i) = 0",
        sff.trace_residual(), cfg.tol("minimality")))

    g12 = cayley.g_tensor(pk.jet.value, pk.e[..., 0, :], pk.e[..., 1, :], imm.table, check=False)
    vol = np.einsum("...c,...c->...", g12, pk.estar[..., 2, :])
    checks.append(_check(
        "volume_form", "g(G(e1,e2), J e3) = +-1 with constant sign",
        float(np.max(np.abs(np.abs(vol) - 1.0)) + (np.ptp(np.sign(vol)) > 0)),
        cfg.tol("volume_form")))
    ge = cayley.frame_products(imm.table, pk.e, pk.e, pk.e)
    checks.append(_check(
        "g_normality", "g(G(e_i, e_j), e_k) = 0",
        float(np.max(np.abs(ge))), cfg.tol("g_normality")))

    cp = geometry.curvature_from_sff(sff)
    checks.append(_check(
        "gauss_scalar", "tau = 6 - |h|^2",
        cp.gauss_scalar_residual(), cfg.tol("gauss_scalar")))

    n_few = min(24, len(pts))
    pk_few, sff_few = _rows(pk, slice(n_few)), _rows(sff, slice(n_few))
    nh = geometry.nabla_h(imm, pts[:n_few], frame_packet=pk_few)
    checks.append(_check(
        "codazzi", "h^{k*}_{ij,l} = h^{k*}_{il,j}",
        nh.codazzi_residual(), cfg.tol("codazzi")))
    checks.append(_check(
        "nabla_h_ambient",
        "nabla h = complex step of sum_l h_lij J e_l along V_m = C_m.X,"
        " less the tangential connection",
        _nabla_h_ambient_residual(imm, pk, sff, nh), cfg.tol("nabla_h_ambient")))

    gj = cayley.frame_products(imm.table, pk_few.e, pk_few.e, pk_few.estar)
    # residual of g((nabla h)(W,X,Z),JY) - g((nabla h)(W,X,Y),JZ) = g(h(W,X),G(Y,Z))
    rhs = np.einsum("...pmi,...kjp->...kijm", sff_few.h, gj)
    exchange = nh.coeffs - np.swapaxes(nh.coeffs, -4, -2) - rhs
    checks.append(_check(
        "covariant_exchange",
        "g((nabla h)(W,X,Z),JY) - g((nabla h)(W,X,Y),JZ) = g(h(W,X),G(Y,Z))",
        float(np.max(np.abs(exchange))), cfg.tol("covariant_exchange")))

    F = simons.f_tensor(sff_few, pk_few)
    packet = simons.t_tensor(nh, F, sff_few)
    checks.append(_check(
        "f_norm", "|F|^2 = (3/4) |h|^2",
        packet.f_norm_residual(), cfg.tol("f_norm")))
    checks.append(_check(
        "t_decomposition", "|nabla h|^2 = |T|^2 + (3/4) |h|^2",
        packet.decomposition_residual(), cfg.tol("t_decomposition")))
    checks.append(_check(
        "cross_term", "<nabla h, F> = (3/4) |h|^2",
        packet.cross_term_residual(), cfg.tol("cross_term")))
    slack = float(np.min(packet.nabla_h_sq - 0.75 * packet.hsq))
    checks.append(_check(
        "gradient_bound", "|nabla h|^2 >= (3/4) |h|^2",
        max(0.0, -slack), cfg.tol("gradient_bound")))
    return _suite("immersion_invariants", checks), (pts, pk, sff, cp, nh)


def _dvv_suite(imm, cfg, samples):
    """Berger-sphere values on the first 50 samples; the Laplacian at the first."""
    checks = []
    _, pk, sff, cp, nh = _rows(samples, slice(50))
    target = np.diag([4 / 9, 8 / 3, 8 / 3])
    checks.append(_check(
        "metric_values", "pullback metric is diag(4/9, 8/3, 8/3) in the X-frame",
        float(np.max(np.abs(pk.metric - target))), cfg.tol("metric_values")))

    s5 = np.sqrt(5.0)
    expected = canonical.reconstruct_sff((s5 / 4, s5 / 4, 0.0, 0.0))
    checks.append(_check(
        "h_values", "second fundamental form matches the Berger-sphere table",
        float(np.max(np.abs(sff.h - expected))), cfg.tol("h_values")))

    g23 = cayley.g_tensor(pk.jet.value, pk.e[..., 1, :], pk.e[..., 2, :], imm.table, check=False)
    checks.append(_check(
        "g_orientation", "G(E2, E3) = J E1",
        float(np.max(np.abs(g23 - pk.estar[..., 0, :]))), cfg.tol("g_orientation")))

    hsq = sff.norm_sq()
    checks.append(_check(
        "hsq_value", "|h|^2 = 25/8",
        float(np.max(np.abs(hsq - 25 / 8))), cfg.tol("hsq_value")))
    _, theta = canonical.maximize_theta(sff.h)
    checks.append(_check(
        "theta_value", "Theta = sqrt(5)/2",
        float(np.max(np.abs(theta - s5 / 2))), cfg.tol("theta_value")))

    cd = canonical.canonical_basis(sff.h[0])
    dev = np.max(np.abs(np.array(cd.tuple()) - np.array([s5 / 4, s5 / 4, 0.0, 0.0])))
    checks.append(_check(
        "normal_form", "normal form is (sqrt(5)/4, sqrt(5)/4, 0, 0)",
        float(dev), cfg.tol("normal_form")))

    k23 = cp.R[..., 1, 2, 1, 2]
    k12 = cp.R[..., 0, 1, 0, 1]
    dev = max(float(np.max(np.abs(k23 - 21 / 16))), float(np.max(np.abs(k12 - 1 / 16))))
    checks.append(_check(
        "sectional_values", "K(E2,E3) = 21/16 and K(E1,.) = 1/16",
        dev, cfg.tol("sectional_values")))
    checks.append(_check(
        "gauss_scalar", "tau = 23/8 = 6 - |h|^2",
        float(np.max(np.abs(cp.tau - 23 / 8))), cfg.tol("gauss_scalar")))

    q0, pk0, sff0, _, nh0 = _rows(samples, 0)
    lap = simons.laplacian_identity(imm, q0, pk0, sff0, nh0, cd)
    checks.append(_check(
        "laplacian", "(1/2) Lap |h|^2 = |nabla h|^2 + 3 |h|^2 - Q",
        lap.residual_pipeline, cfg.tol("laplacian")))

    nh = _rows(nh, slice(16))
    checks.append(_check(
        "t_norm", "|T|^2 = 0 on the Berger sphere",
        float(np.max(np.abs(
            nh.norm_sq() - 0.75 * hsq[:16]))), cfg.tol("t_norm")))
    defect = simons.j_parallel_defect(nh)
    checks.append(_check(
        "j_parallel", "g((nabla h)(v,v,v), Jv) = 0",
        float(np.max(defect)), cfg.tol("j_parallel")))
    return _suite("berger_sphere_reference", checks)


def _geodesic_suite(cfg, samples):
    """Great-sphere values on the first 50 samples."""
    checks = []
    _, _, sff, cp, _ = _rows(samples, slice(50))
    checks.append(_check(
        "h_values", "h = 0 on a totally geodesic model",
        float(np.max(np.abs(sff.h))), cfg.tol("h_values")))
    eye = np.eye(3)
    target = np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)
    checks.append(_check(
        "sectional_values", "K = 1 on a totally geodesic model",
        float(np.max(np.abs(cp.R - target))), cfg.tol("sectional_values")))
    return _suite("totally_geodesic_reference", checks)


def _synthetic_suite(model, cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    sff = model.sff()
    cf = canonical.closed_forms(model.tuple())
    q_direct = canonical.commutator_invariant_direct(sff.h)
    checks.append(_check(
        "closed_form_match", "closed-form Q equals the direct matrix invariant",
        float(np.abs(cf.q_closed - q_direct) / max(1.0, abs(float(q_direct)))),
        cfg.tol("closed_form_match")))
    cd = canonical.canonical_basis(sff.h)
    dev = np.max(np.abs(np.array(cd.tuple()) - np.array(model.tuple())))
    checks.append(_check(
        "normal_form", "normal-form extraction returns the case tuple",
        float(dev), cfg.tol("normal_form")))
    checks.append(_check(
        "constraints", "normal-form constraints hold",
        max(0.0, cd.constraint_slack()), cfg.tol("constraints")))
    tuples = rng.normal(size=(min(cfg.samples, 10000), 4))
    rand = canonical.closed_forms(tuples)
    rand_q = canonical.commutator_invariant_direct(canonical.reconstruct_sff(tuples))
    rel = np.max(np.abs(rand.q_closed - rand_q) / np.maximum(1.0, np.abs(rand_q)))
    checks.append(_check(
        "closed_form_match_random", "closed-form Q matches direct matrices on random tuples",
        float(rel), cfg.tol("closed_form_match")))
    checks.append(_check(
        "remainder_sign", "regrouping remainder is nonnegative",
        max(0.0, -float(np.min(rand.r_residual))), cfg.tol("remainder_sign")))
    return _suite("canonical_algebra", checks)


def cmd_verify(cfg: RunConfig, table, model):
    suites = [_structure_suite(table, cfg)]
    if isinstance(model, models.SyntheticH):
        suites.append(_synthetic_suite(model, cfg))
    else:
        suite, samples = _immersion_suite(model, cfg)
        suites.append(suite)
        if cfg.model == "dvv":
            suites.append(_dvv_suite(model, cfg, samples))
        elif cfg.model == "totally-geodesic":
            suites.append(_geodesic_suite(cfg, samples))
    return suites


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

ANALYZE_COLUMNS = (
    "eta", "xi1", "xi2", "hsq", "theta", "lambda1", "lambda2", "mu1", "mu2",
    "K_min", "K_max", "ric_min", "ric_max", "tau", "nabla_h_sq", "t_sq",
    "j_parallel_defect",
    "flag_K_above_1_16", "flag_K_below_21_16", "flag_ric_ge_3_4", "flag_hsq_lt_5_2",
    "error",
)


def analyze_point(imm, q):
    """One analysis row; pinching-threshold flags are annotations only."""
    q = np.asarray(q, dtype=float)
    pk = geometry.frame(imm, q)
    sff = geometry.second_fundamental_form(imm, q, frame_packet=pk)
    hsq = float(sff.norm_sq())
    cd = canonical.canonical_basis(sff.h)
    cp = geometry.curvature_from_sff(sff)
    ric_eigs = cp.ricci_eigenvalues()
    tau = float(cp.tau)
    k_min, k_max = (float(v) for v in cp.sectional_range())
    k_tol = DEFAULT_TOLERANCES["sectional_values"]
    nh = geometry.nabla_h(imm, q)
    packet = simons.t_tensor(nh, simons.f_tensor(sff, pk), sff)
    return {
        "eta": float(q[0]), "xi1": float(q[1]), "xi2": float(q[2]),
        "hsq": hsq, "theta": float(cd.theta),
        "lambda1": cd.lambda1, "lambda2": cd.lambda2, "mu1": cd.mu1, "mu2": cd.mu2,
        "K_min": k_min, "K_max": k_max,
        "ric_min": float(ric_eigs[0]), "ric_max": float(ric_eigs[-1]),
        "tau": tau,
        "nabla_h_sq": float(packet.nabla_h_sq), "t_sq": float(packet.t_sq),
        "j_parallel_defect": float(simons.j_parallel_defect(nh)),
        "flag_K_above_1_16": bool(k_min > 1 / 16 + k_tol),
        "flag_K_below_21_16": bool(k_max < 21 / 16 - k_tol),
        "flag_ric_ge_3_4": bool(ric_eigs[0] >= 3 / 4),
        "flag_hsq_lt_5_2": bool(hsq < 5 / 2),
        "error": "",
    }


def cmd_analyze(cfg: RunConfig, model):
    if isinstance(model, models.SyntheticH):
        raise ConfigError("analyze needs a model with chart jets; synthetic data has none")
    if cfg.points:
        pts = [np.asarray(p, dtype=float) for p in cfg.points]
    else:
        rng = np.random.default_rng(cfg.seed)
        pts = list(model.chart.random_points(cfg.random_points, rng))
    rows = []
    for q in pts:
        try:
            rows.append(analyze_point(model, q))
        except geometry.ChartDegeneracyError as exc:
            row = {k: float("nan") for k in ANALYZE_COLUMNS if not k.startswith("flag")}
            row.update({
                "eta": float(q[0]), "xi1": float(q[1]), "xi2": float(q[2]),
                "flag_K_above_1_16": False, "flag_K_below_21_16": False,
                "flag_ric_ge_3_4": False, "flag_hsq_lt_5_2": False,
                "error": str(exc),
            })
            rows.append(row)
    return rows


def _rows_to_csv(rows, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        out = []
        for col in columns:
            v = row[col]
            if isinstance(v, float):
                out.append(f"{v:.17g}")
            elif isinstance(v, bool):
                out.append(str(int(v)))
            else:
                out.append(str(v))
        writer.writerow(out)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# integrate / report
# ---------------------------------------------------------------------------

def cmd_integrate(cfg: RunConfig, model):
    if isinstance(model, models.SyntheticH):
        raise ConfigError("integrate needs a compact immersed model")
    return simons.integrate_inequality(
        model, cfg.rule,
        tol_equality=cfg.tol("integral"),
        refine_tol=cfg.tol("volume"),
    )


class ConfigError(ValueError):
    pass


def _summary(suites):
    checks = [c for s in suites for c in s["checks"]]
    failures = [c for c in checks if not c["passed"]]
    return {"checks": len(checks), "failures": len(failures), "passed": not failures}


def _provenance():
    return {
        "package": f"nk6 {__version__}",
        "numpy": np.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _emit(cfg: RunConfig, document, csv_blobs):
    """Print the document, or its CSV blobs with --format csv, and write both
    under --out.  `csv_blobs` maps file names to functions that build the
    CSV text; they run only when the text is printed or written."""
    text = json.dumps(document, indent=2, sort_keys=True)
    if cfg.fmt == "csv" or cfg.out is not None:
        csv_blobs = {name: build() for name, build in csv_blobs.items()}
    if cfg.fmt == "json" or not csv_blobs:
        print(text)
    else:
        for blob in csv_blobs.values():
            print(blob, end="")
    if cfg.out is not None:
        cfg.out.mkdir(parents=True, exist_ok=True)
        (cfg.out / f"{cfg.command}_report.json").write_text(text + "\n")
        for name, blob in csv_blobs.items():
            (cfg.out / name).write_text(blob)


def _samples_csv(report):
    return _rows_to_csv(
        [dict(zip(report.CSV_COLUMNS, row)) for row in report.samples.tolist()],
        report.CSV_COLUMNS,
    )


def run(cfg: RunConfig) -> int:
    """Run one command and emit its document; `report` is verify, then
    analyze and integrate on models with chart jets."""
    if cfg.command not in ("verify", "analyze", "integrate", "report"):
        raise ConfigError(f"unknown command {cfg.command!r}")
    table = _resolve_table(cfg)
    cfg = replace(cfg, table=table.source)
    model = models.resolve_model(cfg.model, table)
    full_report = cfg.command == "report" and not isinstance(model, models.SyntheticH)
    document = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "provenance": _provenance(),
    }
    csv_blobs = {}
    if cfg.command in ("verify", "report"):
        suites = cmd_verify(cfg, table, model)
        document.update(suites=suites, summary=_summary(suites))
        csv_blobs["verify_checks.csv"] = lambda: _rows_to_csv(
            [c for s in suites for c in s["checks"]],
            ("name", "formula", "max_residual", "tolerance", "passed"),
        )
    if cfg.command == "analyze" or full_report:
        rows = cmd_analyze(cfg, model)
        document["rows"] = rows
        csv_blobs["analyze_points.csv"] = lambda: _rows_to_csv(rows, ANALYZE_COLUMNS)
    if cfg.command == "integrate" or full_report:
        inequality = cmd_integrate(cfg, model)
        document["inequality"] = inequality.to_dict()
        csv_blobs["integrand_samples.csv"] = lambda: _samples_csv(inequality)
    _emit(cfg, document, csv_blobs)
    return 1 if "summary" in document and not document["summary"]["passed"] else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_points(text):
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vals = [float(v) for v in chunk.split(",")]
        except ValueError:
            vals = []
        if len(vals) != 3:
            raise argparse.ArgumentTypeError(
                f"each point must be 'eta,xi1,xi2' of three numbers, got {chunk!r}")
        pts.append(vals)
    if not pts:
        raise argparse.ArgumentTypeError("no points given")
    return pts


def _parse_tol(pairs):
    tols = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--tol expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(
                f"unknown tolerance key {key!r}; known: {', '.join(sorted(DEFAULT_TOLERANCES))}")
        try:
            tols[key] = float(value)
        except ValueError:
            tols[key] = np.nan  # not a number: refused below, by its key
        # a NaN passes any check, infinity switches one off; neither is JSON
        if not 0 <= tols[key] < np.inf:
            raise ConfigError(f"tolerance {key!r} must be finite and nonnegative, got {value!r}")
    return tols


@lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once: parsing leaves it unchanged.

    An option left out is left out of the parsed namespace, so every
    default is RunConfig's (the rule's, QuadratureRule's)."""
    parser = argparse.ArgumentParser(
        prog="nk6",
        description="Invariants and inequality certification for Lagrangian "
        "submanifolds of the nearly Kahler six-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, with_rule=False, with_points=False):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--model", help="dvv | totally-geodesic | synthetic:a|b|c | poly:<path>")
        p.add_argument("--table",
                       help="multiplication-table file, or 'auto' (default): the "
                       "file NK6_TABLE_PATH names, else the Cayley-Dickson table")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--tol", action="append", metavar="KEY=VAL",
                       help="override a named tolerance (repeatable)")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        if with_rule:
            p.add_argument("--rule", help="quadrature nodes 'n_eta,n_xi1,n_xi2'")
        if with_points:
            p.add_argument("--points", type=_parse_points,
                           help="semicolon-separated chart points 'eta,xi1,xi2;...'")
            p.add_argument("--random", dest="random_points", type=int,
                           help="number of random chart points when --points is absent")

    command("verify", "run the identity and invariant suites")
    command("analyze", "per-point invariant table", with_points=True)
    command("integrate", "certify the integral inequality", with_rule=True)
    command("report", "verify + analyze + integrate in one document",
            with_rule=True, with_points=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in reversed(range(len(argv) - 1)):  # so that "-1,8,8" is not read as an option
        if argv[i] in ("--rule", "--points"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = vars(build_parser().parse_args(argv))
    try:
        if "rule" in args:
            args["rule"] = simons.QuadratureRule.parse(args["rule"])
        args["tolerances"] = _parse_tol(args.pop("tol", None))
        cfg = RunConfig(**args)
        for flag, value, least in (("--samples", cfg.samples, 1), ("--seed", cfg.seed, 0),
                                   ("--random", cfg.random_points, 1)):
            if value < least:
                raise ConfigError(f"{flag} must be at least {least}")
        return run(cfg)
    except (ConfigError, cayley.TableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (simons.ResolutionError, canonical.EnclosureError,
            geometry.ChartDegeneracyError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
