"""Truncation-level evidence for membership in the Laguerre class.

A series belongs to the class when all zeros are real and nonpositive
(canonical form C zeta^m e^(alpha zeta) prod (1 + gamma_j zeta)); the
class is closed under differentiation, so evidence is gathered per
derivative order: a fast log-concavity screen (necessary) plus actual
root localization on the truncation.  A truncation can never prove
membership of the entire function, so results are labelled evidence,
with a certified negative when stable off-axis roots appear.

The D = 1 counterexample scan is a statement about chains: it runs the
verify ladder (``stabilize_chain`` on the ``solved_rungs``) at N = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .measures import RadialMeasure
from .zeros import (
    AXIS_TOL,
    DRIFT_TOL,
    OFF_AXIS,
    VERIFIED,
    VIOLATED,
    _cluster,
    classify_lee_yang,
    find_roots,
    newton_check,
    solved_rungs,
    stabilize_chain,
    stabilize_series,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# relative drift below which a root of the degree-window truncation counts
# as matched in the degree-(window - 4) one; at evidence windows the
# ladder's own DRIFT_TOL of 1e-8 turns some passes and fails inconclusive
TRUST_DRIFT = 1e-6


@dataclass(frozen=True)
class ClassEvidence:
    """Per-derivative-order check results for one series."""

    checks: tuple  # (name, PASS | FAIL | INCONCLUSIVE)

    @property
    def overall(self):
        if any(status == FAIL for _, status in self.checks):
            return FAIL
        if all(status == PASS for _, status in self.checks):
            return PASS
        return INCONCLUSIVE


def _roots_status(coeffs, window, tol):
    """Judge the zeros of the degree-``window`` truncation of ``coeffs``.

    A polynomial that ends inside the window is not a truncation, so every
    root cluster is judged.  A genuine truncation runs the verdict ladder on
    degrees window - 4 and window at drift ``TRUST_DRIFT``: only matched
    roots are judged, since the top roots of a truncation say nothing about
    the entire function.  Either way a judged root that missed its residual
    bar makes the order inconclusive.
    """
    if not any(coeffs[window + 1 :]):
        clusters = _cluster(find_roots(coeffs, window))
        if not clusters:
            return PASS
        if not all(conv for _z, _mult, conv in clusters):
            return INCONCLUSIVE
        overall = classify_lee_yang([z for z, _mult, _conv in clusters], tol=tol).overall
    else:
        low = max(window - 4, 1)
        report = stabilize_series(
            {low: coeffs[: low + 1], window: coeffs[: window + 1]}, tol=tol, drift_tol=TRUST_DRIFT
        )
        if any(d < TRUST_DRIFT and not s for d, s in zip(report.drift_per_root, report.stable)):
            return INCONCLUSIVE
        overall = report.overall
    return {VERIFIED: PASS, VIOLATED: FAIL}.get(overall, INCONCLUSIVE)


def laguerre_evidence(coefficients, window, depth=0, tol=AXIS_TOL) -> ClassEvidence:
    """Check the truncation and its first ``depth`` derivatives.

    Per order: the log-concavity screen on the first ``window``
    coefficients, then root classification of the degree-``window``
    truncation (``_roots_status``).  Real-rootedness survives
    differentiation, so a fail at a deeper order is evidence against
    membership at order zero as well.  The window must be at least 2, so
    a truncation has a lower rung to be matched against.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    coeffs = [float(c) for c in coefficients]
    if len(coeffs) < window + depth + 1:
        raise ValueError("series too short for requested window and depth")
    checks = []
    for order in range(depth + 1):
        if order:
            coeffs = [c * n for n, c in enumerate(coeffs)][1:]
        newton_ok = all(ok for _, ok in newton_check(coeffs[: window + 1]))
        checks.append((f"newton[{order}]", PASS if newton_ok else FAIL))
        checks.append((f"roots-negative-real[{order}]", _roots_status(coeffs, window, tol)))
    return ClassEvidence(tuple(checks))


def counterexample_measure(a) -> RadialMeasure:
    """The quartic-well density exp(-a s - s (s - 1)^2) in s = sigma^2.

    A valid strongly isotropic profile (cubic tail) whose D = 1 transform
    loses real-rootedness for part of the coupling range, exercising the
    Violated path end to end.
    """
    return RadialMeasure.density(
        [1.0], [0.0, 1.0 + a, -2.0, 1.0], label=f"quartic-well(a={a:g})"
    )


def counterexample_scan(a_values=None, ladder=(40, 60), tol=AXIS_TOL, drift_tol=DRIFT_TOL):
    """Scan the well density at D = 1 over a; report where stable off-axis roots appear.

    Returns a list of dicts {a, overall, off_axis_roots}; the scan is the
    engine's demonstration that verdicts are not vacuously Verified.  Each
    a runs the verify ladder on the one-spin chain (N = 1, J = 0).
    """
    if a_values is None:
        a_values = [round(-5 + 0.25 * k, 2) for k in range(41)]
    results = []
    for a in a_values:
        report = stabilize_chain(
            [1], 1, 0.0, counterexample_measure(a), solved_rungs(ladder), tol=tol, drift_tol=drift_tol
        )[1]
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
