"""The Lieb-Sokal nonvanishing domain in C^2 and the Gram maps.

L is the set of z = x + iy in C^2 admitting a real direction u with
(x.u)^2 + (y.u)^2 > y^2 u^2; it is exactly the preimage of the slit plane
C \\ (-inf, 0] under z -> z^2.  The constructive content used by the
transfer argument is that the pair Gram map (z1, z2) -> (z1^2, z2^2, z1.z2)
sends L x L onto (C \\ (-inf,0])^2 x C; ``preimage_pair`` realizes an
explicit right inverse.  For three 2-vectors the Gram image is cut out by
a cubic (rank of a 3x3 Gram matrix of 2-vectors is at most 2), checked by
``gram_image_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REAL_BRANCH_TOL = 1e-12


class GeometryDisagreement(RuntimeError):
    """The spectral and reduced membership tests disagreed beyond tolerance."""


@dataclass(frozen=True)
class ComplexVec2:
    """z = x + iy in C^2 with real 2-vectors x, y."""

    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", (float(self.x[0]), float(self.x[1])))
        object.__setattr__(self, "y", (float(self.y[0]), float(self.y[1])))

    @property
    def components(self):
        return (
            complex(self.x[0], self.y[0]),
            complex(self.x[1], self.y[1]),
        )

    def dot(self, other: "ComplexVec2") -> complex:
        a, b = self.components
        c, d = other.components
        return a * c + b * d  # bilinear, no conjugation

    def square(self) -> complex:
        return self.dot(self)


@dataclass(frozen=True)
class GramTriple:
    """(zeta1, zeta2, zeta12) = (z1^2, z2^2, z1 . z2)."""

    zeta1: complex
    zeta2: complex
    zeta12: complex


def gram_pair(z1: ComplexVec2, z2: ComplexVec2) -> GramTriple:
    return GramTriple(z1.square(), z2.square(), z1.dot(z2))


def _membership(x, y):
    """Both membership routes over rows of x and y, each of shape (n, 2).

    Returns (spectral, reduced, lam_max, y2, zeta): spectral is lam_max of
    x x^T + y y^T above y2 = y^2, and reduced is zeta = z^2 = (a - c) + 2ib
    off the closed negative real axis, with a = x^2, b = x.y and c = y^2.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    a = (x * x).sum(axis=1)
    b = (x * y).sum(axis=1)
    c = (y * y).sum(axis=1)
    A00 = x[:, 0] ** 2 + y[:, 0] ** 2
    A11 = x[:, 1] ** 2 + y[:, 1] ** 2
    A01 = x[:, 0] * x[:, 1] + y[:, 0] * y[:, 1]
    # half the eigenvalue gap as a hypot: trace^2/4 - det cancels when A is near c I
    lam_max = 0.5 * (A00 + A11) + np.hypot(0.5 * (A00 - A11), A01)
    zeta = (a - c) + 2j * b
    reduced = ~((zeta.imag == 0.0) & (zeta.real <= 0.0))
    return lam_max > c, reduced, lam_max, c, zeta


def in_L(z: ComplexVec2, tol: float = 1e-12) -> bool:
    """Membership in L via two cross-checked routes.

    (i) spectral: the largest eigenvalue of x x^T + y y^T exceeds y^2
    (existence of the witness direction u); (ii) reduced: z^2 lies off
    the closed negative real axis.  Both must agree; a disagreement
    beyond ``tol`` (relative to the matrix scale) raises.
    """
    spectral, reduced, lam_max, y2, zeta = (v[0] for v in _membership([z.x], [z.y]))
    if spectral != reduced:
        margin = abs(lam_max - y2)
        scale = 1.0 + abs(lam_max) + abs(y2)
        if margin > tol * scale:
            raise GeometryDisagreement(
                f"membership routes disagree: spectral={spectral} (margin {margin:.3e}), "
                f"reduced={reduced} at zeta={zeta}"
            )
        return bool(reduced)  # boundary rounding: the algebraic route decides
    return bool(spectral)


def in_L_many(x: np.ndarray, y: np.ndarray):
    """Vectorized membership for arrays of shape (n, 2).

    Returns (spectral, reduced) boolean arrays so callers can assert the
    two implementations agree in bulk.
    """
    return _membership(x, y)[:2]


def _square_pair_parameters(zeta2: complex):
    """x2^2 and the ratio a with y2 = a * x2 realizing z2^2 = zeta2.

    For xi < 0 the sum xi + sqrt(xi^2 + eta^2) cancels catastrophically;
    the rationalized forms eta^2 / (r - xi) and (r - xi) / eta are exact
    rearrangements that stay accurate arbitrarily close to the cut.
    """
    xi2, eta2 = zeta2.real, zeta2.imag
    radius = math.hypot(xi2, eta2)
    if xi2 >= 0.0:
        x2sq = 0.5 * (xi2 + radius)
        a = eta2 / (xi2 + radius) if radius > 0.0 else 0.0
    else:
        if eta2 == 0.0:
            raise ValueError(f"zeta2={zeta2} lies on the excluded half-line")
        x2sq = 0.5 * eta2 * eta2 / (radius - xi2)
        a = (radius - xi2) / eta2
    if x2sq <= 0.0:
        raise ValueError(f"zeta2={zeta2} lies on the excluded half-line")
    return x2sq, a


def _preimage_generic(zeta1: complex, zeta2: complex, zeta12: complex):
    """z2 = (1 + ia) x2 along e1, z1 solved; any admissible slot, real or not.

    With gamma = x1.x2 and delta = y1.x2 fixed by the cross equations,
    x1 = (gamma/|x2|, s) and y1 = (delta/|x2|, t) satisfy z1^2 = zeta1 iff

        s*t = eta1/2 - gamma*delta/x2^2,   s^2 - t^2 = xi1 - (gamma^2-delta^2)/x2^2,

    which always has the real solution used here.
    """
    x2sq, a = _square_pair_parameters(zeta2)
    x2len = math.sqrt(x2sq)
    xi12, eta12 = zeta12.real, zeta12.imag
    gamma = (xi12 + a * eta12) / (1.0 + a * a)
    delta = (eta12 - a * xi12) / (1.0 + a * a)
    P = 0.5 * zeta1.imag - gamma * delta / x2sq
    Q = zeta1.real - (gamma * gamma - delta * delta) / x2sq
    h = math.hypot(Q, 2.0 * P)
    if Q >= 0.0:
        s = math.sqrt(0.5 * (Q + h))
        t = P / s if s > 0.0 else 0.0
    else:
        t = math.sqrt(0.5 * (h - Q))
        s = P / t
    z1 = ComplexVec2((gamma / x2len, s), (delta / x2len, t))
    return z1, ComplexVec2((x2len, 0.0), (a * x2len, 0.0))


def preimage_pair(t: GramTriple):
    """A pair (z1, z2) in L x L with gram_pair(z1, z2) = t.

    Requires zeta1, zeta2 off the closed negative real axis: a slot within
    ``REAL_BRANCH_TOL`` (relative) of it raises ``ValueError``.  zeta12 is
    arbitrary.
    """
    for zeta, name in ((t.zeta1, "zeta1"), (t.zeta2, "zeta2")):
        if abs(zeta.imag) < REAL_BRANCH_TOL * (1.0 + abs(zeta)) and zeta.real <= 0.0:
            raise ValueError(f"{name}={zeta} lies on the excluded half-line")
    return _preimage_generic(t.zeta1, t.zeta2, t.zeta12)


def preimage_residual(t: GramTriple, z1: ComplexVec2, z2: ComplexVec2) -> float:
    image = gram_pair(z1, z2)
    return max(
        abs(image.zeta1 - t.zeta1),
        abs(image.zeta2 - t.zeta2),
        abs(image.zeta12 - t.zeta12),
    )


def _gram_monomials(z1: ComplexVec2, z2: ComplexVec2, z3: ComplexVec2):
    """The five monomials of the rank cubic on the Gram data of three 2-vectors."""
    g11, g22, g33 = z1.square(), z2.square(), z3.square()
    g12, g13, g23 = z1.dot(z2), z1.dot(z3), z2.dot(z3)
    return (g11 * g22 * g33, 2.0 * g12 * g23 * g13,
            g11 * g23 * g23, g22 * g13 * g13, g33 * g12 * g12)


def gram_image_residual(z1: ComplexVec2, z2: ComplexVec2, z3: ComplexVec2) -> complex:
    """The cubic constraint on Gram data of three 2-vectors.

    g11 g22 g33 + 2 g12 g23 g13 - g11 g23^2 - g22 g13^2 - g33 g12^2,
    identically zero (up to rounding) because rank <= 2.
    """
    m = _gram_monomials(z1, z2, z3)
    return m[0] + m[1] - m[2] - m[3] - m[4]


def gram_cubic_scale(z1: ComplexVec2, z2: ComplexVec2, z3: ComplexVec2) -> float:
    """Magnitude scale of the cubic's monomials, for relative residuals."""
    return max(*(abs(m) for m in _gram_monomials(z1, z2, z3)), 1e-30)


def sample_slit_plane(rng, size, box=3.0):
    """Random points of C \\ (-inf, 0] by rejection from a centered box."""
    out = np.empty(size, dtype=complex)
    filled = 0
    while filled < size:
        cand = box * (rng.random(2 * size) - 0.5) + 1j * box * (
            rng.random(2 * size) - 0.5
        )
        keep = ~((cand.imag == 0.0) & (cand.real <= 0.0))
        # stay clear of the branch cut so the constructions are well posed
        keep &= (np.abs(cand.imag) > 1e-9) | (cand.real > 1e-9)
        cand = cand[keep][: size - filled]
        out[filled : filled + cand.size] = cand
        filled += cand.size
    return out


def self_test(n_roundtrip=1000, n_membership=100_000, n_cubic=1000, seed=0):
    """Run the three geometry checks; returns a JSON-ready summary dict."""
    rng = np.random.default_rng(seed)
    z1s = sample_slit_plane(rng, n_roundtrip)
    z2s = sample_slit_plane(rng, n_roundtrip)
    z12s = 3.0 * (rng.random(n_roundtrip) - 0.5) + 3j * (rng.random(n_roundtrip) - 0.5)
    worst_rt = 0.0
    members = 0
    for zeta1, zeta2, zeta12 in zip(z1s, z2s, z12s):
        t = GramTriple(zeta1, zeta2, zeta12)
        z1, z2 = preimage_pair(t)
        worst_rt = max(worst_rt, preimage_residual(t, z1, z2))
        members += int(in_L(z1) and in_L(z2))
    x = rng.standard_normal((n_membership, 2))
    y = rng.standard_normal((n_membership, 2))
    spectral, reduced = in_L_many(x, y)
    agree = int(np.sum(spectral == reduced))
    worst_cubic = 0.0
    for _ in range(n_cubic):
        vs = [
            ComplexVec2(tuple(rng.standard_normal(2)), tuple(rng.standard_normal(2)))
            for _ in range(3)
        ]
        rel = abs(gram_image_residual(*vs)) / gram_cubic_scale(*vs)
        worst_cubic = max(worst_cubic, rel)
    return {
        "roundtrip": {
            "count": n_roundtrip,
            "worst_residual": worst_rt,
            "all_in_L": members == n_roundtrip,
            "pass": bool(worst_rt <= 1e-10 and members == n_roundtrip),
        },
        "membership": {
            "count": n_membership,
            "agreements": agree,
            "pass": bool(agree == n_membership),
        },
        "gram_cubic": {
            "count": n_cubic,
            "worst_relative_residual": worst_cubic,
            "pass": bool(worst_cubic <= 1e-10),
        },
    }
