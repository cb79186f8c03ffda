"""Output checks for the benchmark's ops.

Each check returns a list of reasons the op failed; an empty list means the
op passed.  Tolerances come from `nk6.cli.DEFAULT_TOLERANCES` unchanged, so
the benchmark accepts exactly what the CLI's own checks accept.
"""

from __future__ import annotations

import json
import math

from nk6.cli import DEFAULT_TOLERANCES as TOL

HSQ = 25 / 8                     # |h|^2 on the Berger sphere
THETA = math.sqrt(5.0) / 2       # Theta on the Berger sphere
VOLUME = 32 * math.pi**2 / 9     # volume of the Berger sphere


def _near(value, target, tol):
    return isinstance(value, (int, float)) and abs(value - target) <= tol


def check_certify(rc, text):
    """`integrate --model dvv`: DVV-type, zero integral, Berger volume and
    the constant |h|^2 and Theta at every node."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        ineq = json.loads(text)["inequality"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    bad = []
    if ineq.get("classification") != "DVV-type":
        bad.append(f"classification {ineq.get('classification')!r} != 'DVV-type'")
    integral = ineq.get("integral")
    if not (isinstance(integral, (int, float)) and abs(integral) < TOL["integral"]):
        bad.append(f"|integral| = {integral!r} not < {TOL['integral']:g}")
    if not _near(ineq.get("volume"), VOLUME, TOL["volume"] * VOLUME):
        bad.append(f"volume {ineq.get('volume')!r} not within {TOL['volume']:g} rel of 32 pi^2/9")
    for key, target, tol in (("hsq_range", HSQ, TOL["hsq_value"]),
                             ("theta_range", THETA, TOL["theta_value"])):
        span = ineq.get(key)
        if not (isinstance(span, list) and len(span) == 2
                and all(_near(v, target, tol) for v in span)):
            bad.append(f"{key} {span!r} not within {tol:g} of {target!r}")
    return bad


def check_analyze_row(row):
    """One `analyze_point` row: no error, Berger |h|^2 and Theta."""
    bad = []
    if row.get("error", "") != "":
        bad.append(f"error {row['error']!r}")
    if not _near(row.get("hsq"), HSQ, TOL["hsq_value"]):
        bad.append(f"hsq {row.get('hsq')!r} not within {TOL['hsq_value']:g} of 25/8")
    if not _near(row.get("theta"), THETA, TOL["theta_value"]):
        bad.append(f"theta {row.get('theta')!r} not within {TOL['theta_value']:g} of sqrt(5)/2")
    return bad


def check_verify(rc, text):
    """`verify --model dvv`: exit code 0 and every suite check passed."""
    bad = [] if rc == 0 else [f"exit code {rc}"]
    try:
        summary = json.loads(text)["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return bad + [f"unreadable report: {exc!r}"]
    if summary.get("passed") is not True or summary.get("failures") != 0:
        bad.append(f"summary {summary!r}")
    return bad
