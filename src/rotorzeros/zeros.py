"""Root localization and Lee-Yang verdicts for truncated partition series.

The Lee-Yang property of a chain says every zero of Z_N, viewed through
zeta = z^2, sits on the negative real axis, so the series factors as
Z_N(0) * prod_j (1 + gamma_j * zeta) with gamma_j > 0.  This module finds
the zeros of degree-limited truncations (companion-matrix eigenvalues, each
flagged by a residual check), classifies them against an axis tolerance,
and runs the truncation ladder that separates genuine zeros from
truncation artifacts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .measures import LaplaceSeries, RadialMeasure
from .recursion import phi_chain

RESIDUAL_TOL = 1e-10
DRIFT_TOL = 1e-8
# a chain coefficient is stable when it moves less than this, relative,
# between the two solved rungs
COEFFICIENT_TOL = 1e-10
# A k-fold root of a float polynomial splits by ~eps^(1/k) * conditioning;
# measured splits for doubled kernels stay below ~1e-5 relative, well away
# from genuine root separations, so clusters are merged at 2e-5.
CLUSTER_TOL = 2e-5
AXIS_TOL = 1e-6

NEGATIVE_REAL = "negative-real"
OFF_AXIS = "off-axis"
UNSTABLE = "unstable"

VERIFIED = "LeeYangVerified"
VIOLATED = "LeeYangViolated"
INCONCLUSIVE = "Inconclusive"


def _residual_scale(coeffs, x):
    powers = np.ones_like(x, dtype=float)
    scale = np.full(x.shape, abs(coeffs[0]), dtype=float)
    ax = np.abs(x)
    for c in coeffs[1:]:
        powers = powers * ax
        np.maximum(scale, abs(c) * powers, out=scale)
    return scale


@dataclass(frozen=True)
class RootSet:
    """Roots of one truncation with per-root residual flags."""

    roots: tuple
    converged: tuple
    residuals: tuple


def find_roots(coefficients) -> RootSet:
    """All roots of a truncated series (ascending coefficients).

    The roots are the eigenvalues of the balanced companion matrix
    (``np.roots``), which are backward stable.  A root counts as converged
    when it is finite and |p(root)| <= 1e-10 * max_k |c_k root^k|; a root
    that misses that bar is flagged, not silently returned.  The bar is a
    backward-error test: an ill-conditioned root can pass it and still be
    inaccurate (roots moved 1e-4 off, relative, passed at |zeta| 450-1500 on
    a D = 2, M = 40 sphere truncation), so the ladder's drift check in
    ``stabilize_series`` is the forward screen.  A kept
    coefficient that is not finite, or that is subnormal after the
    power-of-two normalisation, raises ``RuntimeError`` naming its degree:
    the companion matrix of such a series is not finite.
    """
    coeffs = np.asarray(
        [complex(c) for c in coefficients], dtype=complex
    )
    bad = ~np.isfinite(coeffs)
    if bad.any():
        raise RuntimeError(f"series coefficient of degree {np.argmax(bad)} is not finite")
    nz = np.nonzero(np.abs(coeffs))[0]
    if nz.size == 0 or nz[-1] == 0:
        return RootSet((), (), ())
    coeffs = coeffs[: nz[-1] + 1]
    # zeros are scale-invariant; a power-of-two normalization is lossless,
    # so positive rescalings of the input cannot perturb well-conditioned roots
    coeffs = coeffs / 2.0 ** np.round(np.log2(np.max(np.abs(coeffs))))
    tiny = (coeffs != 0) & (np.abs(coeffs) < sys.float_info.min)
    if tiny.any():
        raise RuntimeError(f"series underflowed: coefficient of degree {np.argmax(tiny)} is subnormal")
    roots = np.roots(coeffs[::-1])
    with np.errstate(all="ignore"):
        pv = np.polyval(coeffs[::-1], roots)
        scale = _residual_scale(coeffs, roots)
        converged = (np.abs(pv) <= RESIDUAL_TOL * scale) & np.isfinite(roots)
        # an exact root (zeta = 0 of c_0 = 0, say) has pv = 0 and may have scale 0
        residuals = np.divide(np.abs(pv), scale, out=np.zeros(scale.shape), where=pv != 0)
    # canonical order: modulus, then real, then imaginary part (ties from
    # conjugate pairs would otherwise order unpredictably)
    order = np.lexsort((roots.imag, roots.real, np.abs(roots)))
    roots = roots[order]
    converged = converged[order]
    residuals = residuals[order]
    return RootSet(tuple(roots.tolist()), tuple(bool(b) for b in converged), tuple(residuals.tolist()))


def _cluster(rootset: RootSet, tol=CLUSTER_TOL):
    """Group nearly-coincident roots into (centroid, multiplicity) clusters.

    A double root of a float polynomial splits by ~sqrt(eps); the centroid
    is first-order accurate, so stability tracking uses clusters.
    """
    clusters = []
    for root, conv in zip(rootset.roots, rootset.converged):
        for c in clusters:
            if abs(root - c["sum"] / c["mult"]) <= tol * (1 + abs(root)):
                c["sum"] += root
                c["mult"] += 1
                c["converged"] &= conv
                break
        else:
            clusters.append({"sum": root, "mult": 1, "converged": conv})
    return [
        (c["sum"] / c["mult"], c["mult"], c["converged"])
        for c in clusters
    ]


def _classify_root(zeta, tol):
    scale = tol * (1.0 + abs(zeta))
    if abs(zeta.imag) <= scale and zeta.real < 0:
        return NEGATIVE_REAL
    if abs(zeta.imag) > 10 * scale or zeta.real >= 0:
        return OFF_AXIS
    return UNSTABLE


@dataclass(frozen=True)
class ZeroReport:
    """Located roots with Lee-Yang classification and ladder diagnostics."""

    roots: tuple
    multiplicities: tuple
    verdicts: tuple
    stable: tuple
    drift_per_root: tuple
    overall: str

    def stable_roots(self):
        return [r for r, s in zip(self.roots, self.stable) if s]

    def to_csv(self):
        lines = ["re_zeta,im_zeta,multiplicity,class,stable,gamma"]
        for r, mult, v, s in zip(self.roots, self.multiplicities, self.verdicts, self.stable):
            gamma = -1.0 / r.real if v == NEGATIVE_REAL and r.real < 0 else ""
            lines.append(f"{r.real!r},{r.imag!r},{mult},{v},{int(s)},{gamma}")
        return "\n".join(lines) + "\n"


def solved_rungs(ladder):
    """The rungs a verdict reads: the top one and the one below, if any."""
    return sorted(set(ladder))[-2:]


def stable_coefficient_count(lower: LaplaceSeries, upper: LaplaceSeries):
    """Highest index K with a_0..a_K agreeing between two truncation degrees.

    The ladder's coefficient-level convergence check: a coefficient is
    stable when its relative change between the two degrees is below
    ``COEFFICIENT_TOL``.
    """
    a = lower.float_coefficients()
    b = upper.float_coefficients()
    count = 0
    for n in range(min(len(a), len(b))):
        ref = max(abs(b[n]), 1e-300)
        if abs(a[n] - b[n]) / ref >= COEFFICIENT_TOL:
            break
        count = n + 1
    return count


def stabilize_series(lower, upper, tol=AXIS_TOL, drift_tol=DRIFT_TOL):
    """Ladder verdict from the two solved truncations (ascending coefficients).

    Clusters nearly-coincident roots of each truncation and marks a cluster
    of ``upper`` stable when a cluster of equal multiplicity of ``lower``
    sits within ``drift_tol`` relative distance and every root of the
    cluster passed its residual check.  Only the first min(M // 2, 30)
    clusters of the degree-M ``upper`` are reported: beyond that the roots
    of a truncation carry no information about the entire function.

    A root is negative-real only if |Im zeta| <= tol * (1 + |zeta|) and
    Re zeta < 0; off-axis requires leaving a 10x wider wedge (or a
    nonnegative real part).  Only stable roots enter the overall verdict:
    Violated if one is off-axis, Verified if all are negative-real, and
    Inconclusive otherwise, or when no root is stable.
    """
    prev, top = (_cluster(find_roots(c)) for c in (lower, upper))
    top = top[: min((len(upper) - 1) // 2, 30)]
    roots, mults, stable, drifts = [], [], [], []
    used = set()
    for zeta, mult, conv in top:
        best, best_drift = None, math.inf
        for idx, (pz, pm, pconv) in enumerate(prev):
            if idx in used or pm != mult:
                continue
            d = abs(zeta - pz) / (1.0 + abs(zeta))
            if d < best_drift:
                best, best_drift = idx, d
        ok = best is not None and best_drift < drift_tol and conv
        if best is not None and ok:
            used.add(best)
        roots.append(zeta)
        mults.append(mult)
        stable.append(bool(ok))
        drifts.append(best_drift if best is not None else math.inf)
    verdicts = [_classify_root(r, tol) for r in roots]
    stable_verdicts = {v for v, s in zip(verdicts, stable) if s}
    if OFF_AXIS in stable_verdicts:
        overall = VIOLATED
    elif stable_verdicts == {NEGATIVE_REAL}:
        overall = VERIFIED
    else:
        overall = INCONCLUSIVE
    return ZeroReport(tuple(roots), tuple(mults), tuple(verdicts), tuple(stable), tuple(drifts), overall)


def stabilize_chain(Ns, D, J, measure: RadialMeasure, degree_ladder, tol=AXIS_TOL, drift_tol=DRIFT_TOL, field="float64"):
    """Run phi_chain over the truncation ladder and report stabilized zeros.

    Returns {N: ZeroReport} for every chain length in Ns; all lengths share
    one recursion sweep per rung.  Every rung given is grown, so callers
    that need only the verdicts pass ``solved_rungs(ladder)``; the
    exact-chain benchmark passes its whole ladder and records each rung's
    coefficients.  N = 1 is the single-spin transform: no recursion step.
    The verdicts come from ``stabilize_rungs`` on the two solved rungs.
    """
    degrees = sorted(set(int(m) for m in degree_ladder))
    if len(degrees) < 2:
        raise ValueError("degree ladder needs at least two stages")
    solved = solved_rungs(degrees)
    coeffs = {}
    for M in degrees:
        chain = phi_chain(Ns, D, J, measure, M, field)
        if M in solved:
            coeffs[M] = {n: chain[n].float_coefficients() for n in Ns}
    return stabilize_rungs(coeffs, tol, drift_tol)


def stabilize_rungs(coeffs, tol=AXIS_TOL, drift_tol=DRIFT_TOL):
    """Ladder verdicts {N: ZeroReport} from the float coefficients of the two solved rungs.

    ``coeffs`` maps each of the two rungs M to {N: ascending coefficients}.
    A solved rung whose last nonzero coefficient is not above the lower
    rung's raises ``RuntimeError`` naming N and both rungs.
    """
    lower, top = sorted(coeffs)
    Ns = list(coeffs[top])
    reports = {n: stabilize_series(coeffs[lower][n], coeffs[top][n], tol, drift_tol) for n in Ns}
    # a measure's series has no zero coefficient: a rung no higher in degree than
    # the one below has underflowed, and its drift check compares a root with itself
    for n in Ns:
        d_lower, d_top = (max(np.flatnonzero(coeffs[M][n]), default=-1) for M in (lower, top))
        if d_top <= d_lower:
            raise RuntimeError(
                f"N={n}: series underflowed: rung {top} reaches degree {d_top}, "
                f"not above rung {lower}'s degree {d_lower}"
            )
    return reports
