"""Truncation-level evidence for membership in the Laguerre class.

A series belongs to the class when all zeros are real and nonpositive
(canonical form C zeta^m e^(alpha zeta) prod (1 + gamma_j zeta)); the
class is closed under differentiation, so evidence is gathered per
derivative order: a fast log-concavity screen (necessary) plus actual
root localization on the truncation.  A truncation can never prove
membership of the entire function, so results are labelled evidence,
with a certified negative when stable off-axis roots appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .measures import RadialMeasure, laplace_transform
from .zeros import (
    DRIFT_TOL,
    NEGATIVE_REAL,
    OFF_AXIS,
    VIOLATED,
    _cluster,
    classify_lee_yang,
    find_roots,
    newton_check,
    stabilize_series,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ClassEvidence:
    """Per-derivative-order check results for one series."""

    subject: str
    checks: tuple  # (name, PASS | FAIL | INCONCLUSIVE)
    derivative_depth: int

    @property
    def overall(self):
        if any(status == FAIL for _, status in self.checks):
            return FAIL
        if all(status == PASS for _, status in self.checks):
            return PASS
        return INCONCLUSIVE


def _differentiate(coeffs, order):
    c = list(coeffs)
    for _ in range(order):
        c = [c[n] * n for n in range(1, len(c))]
    return c


def _trusted_roots(coeffs, window, drift_tol=1e-6):
    """Roots of the truncation that evidence may legitimately judge.

    A complete polynomial (trailing zeros within the window) contributes
    every root, clustered so float splitting of multiple roots does not
    masquerade as off-axis pairs.  A genuine truncation is solved at two
    nearby windows and only the roots that agree ("trusted") are judged:
    the top roots of any truncation say nothing about the entire function.
    """
    nz = [n for n, c in enumerate(coeffs) if c != 0]
    if not nz or nz[-1] == 0:
        return [], True
    d_eff = nz[-1]
    w = min(window, len(coeffs) - 1)
    if w >= d_eff:
        rs = find_roots(coeffs, d_eff)
        clusters = _cluster(rs)
        return [(z, conv) for z, _mult, conv in clusters], True
    rs_hi = find_roots(coeffs, w)
    rs_lo = find_roots(coeffs, max(w - 4, 1))
    hi = _cluster(rs_hi)
    lo = _cluster(rs_lo)
    trusted = []
    used = set()
    for z, _mult, conv in hi:
        for idx, (pz, _pm, _pc) in enumerate(lo):
            if idx in used:
                continue
            if abs(z - pz) <= drift_tol * (1.0 + abs(z)):
                used.add(idx)
                trusted.append((z, conv))
                break
    return trusted, False


def laguerre_evidence(coefficients, window, depth=0, tol=1e-6, subject="series") -> ClassEvidence:
    """Check the truncation and its first ``depth`` derivatives.

    Per order: the log-concavity screen on the first ``window``
    coefficients, then root classification of the trusted part of the
    degree-``window`` truncation.  Real-rootedness survives
    differentiation, so a fail at a deeper order is evidence against
    membership at order zero as well.
    """
    coeffs = [float(c) for c in coefficients]
    if len(coeffs) < window + depth + 1:
        raise ValueError("series too short for requested window and depth")
    checks = []
    for order in range(depth + 1):
        d = _differentiate(coeffs, order)
        head = d[: window + 1]
        newton_ok = all(ok for _, ok in newton_check(head))
        checks.append((f"newton[{order}]", PASS if newton_ok else FAIL))
        trusted, complete = _trusted_roots(d, window)
        name = f"roots-negative-real[{order}]"
        if not trusted:
            checks.append((name, PASS if complete else INCONCLUSIVE))
            continue
        if not all(conv for _z, conv in trusted):
            checks.append((name, INCONCLUSIVE))
            continue
        report = classify_lee_yang([z for z, _c in trusted], tol=tol)
        if all(v == NEGATIVE_REAL for v in report.verdicts):
            checks.append((name, PASS))
        elif any(v == OFF_AXIS for v in report.verdicts):
            checks.append((name, FAIL))
        else:
            checks.append((name, INCONCLUSIVE))
    return ClassEvidence(subject, tuple(checks), depth)


def counterexample_measure(a) -> RadialMeasure:
    """The quartic-well density exp(-a s - s (s - 1)^2) in s = sigma^2.

    A valid strongly isotropic profile (cubic tail) whose D = 1 transform
    loses real-rootedness for part of the coupling range, exercising the
    Violated path end to end.
    """
    return RadialMeasure.density(
        [1.0], [0.0, 1.0 + a, -2.0, 1.0], label=f"quartic-well(a={a:g})"
    )


def counterexample_scan(
    a_values=None, D=1, ladder=(40, 60), tol=1e-6, drift_tol=DRIFT_TOL
):
    """Scan the well density over a; report where stable off-axis roots appear.

    Returns a list of dicts {a, overall, off_axis_roots}; the scan is the
    engine's demonstration that verdicts are not vacuously Verified.
    Coefficient n of a transform does not depend on the truncation degree,
    so each a computes its moments once, at the top rung, and every rung
    takes a prefix.
    """
    if a_values is None:
        a_values = [round(-5 + 0.25 * k, 2) for k in range(41)]
    results = []
    for a in a_values:
        top = laplace_transform(counterexample_measure(a), D, max(ladder))
        coeffs = top.float_coefficients()
        series = {M: coeffs[: M + 1] for M in ladder}
        report = stabilize_series(series, tol=tol, drift_tol=drift_tol)
        off = [
            [r.real, r.imag]
            for r, v, s in zip(report.roots, report.verdicts, report.stable)
            if s and v == OFF_AXIS
        ]
        results.append(
            {
                "a": float(a),
                "overall": report.overall,
                "off_axis_roots": off,
            }
        )
    return results


def violation_witnesses(scan_results):
    return [r for r in scan_results if r["overall"] == VIOLATED]
