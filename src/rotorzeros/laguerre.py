"""The D = 1 counterexample scan: a density whose transform leaves the axis.

The quartic well exp(-a s - s (s - 1)^2) is a valid strongly isotropic
profile outside the certified family.  Its D = 1 transform has stable
off-axis zero pairs for part of the range of a, so the scan shows the
verdicts are not vacuously Verified.  Each a runs the verify ladder
(``stabilize_chain`` on the ``solved_rungs``) on the one-spin chain,
N = 1 at J = 0.
"""

from __future__ import annotations

from .measures import RadialMeasure
from .zeros import (
    AXIS_TOL,
    DRIFT_TOL,
    OFF_AXIS,
    VIOLATED,
    solved_rungs,
    stabilize_chain,
    stabilize_series,  # noqa: F401 - unused here; bench/child.py captures the scan's reports through this name
)


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
