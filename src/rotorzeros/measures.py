"""Strongly isotropic single-spin measures and their Laplace transforms.

A measure on R^D is described through its radial profile tau in the
variable s = sigma^2: a delta on a sphere, a smooth density
f(s) * exp(-g(s)), or a tabulated grid.  Its Laplace transform restricted
to the invariant zeta = z^2 expands as

    v(zeta, D) = pi^(D/2) * sum_n zeta^n * m_{D/2+n-1} / (4^n n! Gamma(D/2+n))

with m_k the k-th radial moment of tau.  The rational backend keeps the
power of pi symbolic (``pi_power``) so identity tests remain exact.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
import types
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .polys import FLOAT, RATIONAL, coerce_scalar

SPHERE = "sphere"
DENSITY = "density"
TABULATED = "tabulated"

# Relative tolerance for moment quadratures; the tail cutoff R is pushed out
# until the integrand is below TAIL_DROP of its peak.
QUAD_RTOL = 1e-12
TAIL_DROP = 1e-16
# Measures kept compiled and validated: a profile holds its moments (about
# 14 kB for a scan point at M = 60) and its quadrature-node values (about 36 kB
# there).  A run works through one measure at a time, so a few suffice; the
# scan over the quartic well's a never returns to an old point.
COMPILED_PROFILES = 8


def __getattr__(name):
    """Bind the quadratures as ``integrate`` on first use (PEP 562).

    The binding is a namespace whose ``quad`` calls QUADPACK's ``_qagse``
    straight from scipy's extension, without importing the ``scipy.integrate``
    package (about 0.4 s and 44 MB), and whose ``simpson`` imports that
    package on its first call (only tabulated profiles use it).  Where the
    extension cannot be loaded, or fails its probe, ``integrate`` is the
    ``scipy.integrate`` package itself.  Only density and tabulated moments
    (and ``oracles.laplace_direct``) integrate, so a sphere run loads no scipy.
    """
    global integrate
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qagse = _load_qagse()
    integrate = _scipy_integrate() if qagse is None else _quadpack_binding(qagse)
    return integrate


def _integrate():
    """The module global ``integrate``, read at each call.

    Whatever was assigned to ``measures.integrate`` (or patched onto it)
    is what the quadratures use.
    """
    return globals().get("integrate") or __getattr__("integrate")


def _scipy_integrate():
    from scipy import integrate

    return integrate


def _load_qagse():
    """scipy's ``_qagse``, loaded without importing ``scipy.integrate``; None if it cannot be.

    The extension is found in scipy's package directory and loaded under its
    own name, which its init symbol requires; a later ``scipy.integrate``
    import reuses the module.  A probe of the call signature guards against
    a scipy whose private entry point has changed.
    """
    name = "scipy.integrate._quadpack"
    try:
        module = sys.modules.get(name)
        if module is None:
            scipy_dirs = importlib.machinery.PathFinder.find_spec("scipy").submodule_search_locations
            found = importlib.machinery.PathFinder.find_spec(
                "_quadpack", [os.path.join(d, "integrate") for d in scipy_dirs]
            )
            spec = importlib.util.spec_from_file_location(name, found.origin)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        qagse = module._qagse
        result, _, ier = qagse(lambda x: x, 0.0, 1.0, (), 0, 0.0, 1e-12, 50)
    except (ImportError, AttributeError, TypeError, ValueError):  # not found, or changed
        return None
    return qagse if (result, ier) == (0.5, 0) else None


def _quadpack_binding(qagse):
    """``quad`` and ``simpson`` with scipy.integrate's results, for finite a < b in quad."""

    def quad(func, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
        if -math.inf < a < b < math.inf:
            result, abserr, ier = qagse(func, a, b, (), 0, epsabs, epsrel, limit)
            if ier == 0:
                return result, abserr
        # scipy.integrate.quad makes the same deterministic _qagse call, and
        # adds its IntegrationWarning or ValueError for ier != 0
        return _scipy_integrate().quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)

    def simpson(*args, **kwargs):
        return _scipy_integrate().simpson(*args, **kwargs)

    return types.SimpleNamespace(quad=quad, simpson=simpson)


class MeasureError(ValueError):
    """Raised for structurally invalid measures or failed quadratures."""


@dataclass(frozen=True)
class RadialMeasure:
    """A strongly isotropic measure given by its radial profile.

    kind = "sphere":    tau(s) = delta(s - radius); the spin length is
                        sqrt(radius) since s is the squared vector.
    kind = "density":   tau(s) = f(s) * exp(-g(s)) with polynomial f, g
                        (coefficient lists, ascending powers of s).
    kind = "tabulated": tau sampled on an increasing grid of s values;
                        integrated by composite Simpson, never extrapolated.
    """

    kind: str
    radius: object = None
    f_coeffs: tuple = ()
    g_coeffs: tuple = ()
    samples: tuple = ()
    label: str = ""

    @classmethod
    def sphere(cls, radius, label=None):
        return cls(SPHERE, radius=radius, label=label or f"sphere(r={radius})")

    @classmethod
    def density(cls, f_coeffs, g_coeffs, label=None):
        return cls(
            DENSITY,
            f_coeffs=tuple(f_coeffs),
            g_coeffs=tuple(g_coeffs),
            label=label or "density",
        )

    @classmethod
    def tabulated(cls, samples, label=None):
        samples = tuple((float(s), float(t)) for s, t in samples)
        return cls(TABULATED, samples=samples, label=label or "tabulated")

    def profile(self, s):
        """Evaluate tau(s) at a float or an array (density and tabulated kinds only)."""
        return _compiled(self).tau(s)

    def to_json(self):
        data = {"kind": self.kind, "label": self.label}
        if self.kind == SPHERE:
            data["radius"] = float(self.radius)
        elif self.kind == DENSITY:
            data["f"] = [float(c) for c in self.f_coeffs]
            data["g"] = [float(c) for c in self.g_coeffs]
        else:
            data["samples"] = [[s, t] for s, t in self.samples]
        return json.dumps(data)

    @classmethod
    def from_json(cls, text, exact=False):
        """Inverse of to_json; exact=True reads a sphere radius as a Fraction.

        The exact radius is Fraction(str(r)), so 0.2 becomes 1/5; the label
        is the same either way.  Numbers are read as floats (or that
        Fraction), so a value that is not a number raises here.
        """
        data = json.loads(text) if isinstance(text, str) else text
        if not isinstance(data, dict):
            raise MeasureError(f"a measure must be a JSON object, not {type(data).__name__}")
        kind = data.get("kind")
        label = data.get("label")
        if kind == SPHERE:
            radius = data["radius"]
            label = label or f"sphere(r={radius})"
            return cls.sphere(Fraction(str(radius)) if exact else float(radius), label)
        if kind == DENSITY:
            f = [float(c) for c in data.get("f", [1.0])]
            return cls.density(f, [float(c) for c in data["g"]], label)
        if kind == TABULATED:
            return cls.tabulated(data["samples"], label)
        raise MeasureError(f"unknown measure kind {kind!r}")


@dataclass(frozen=True)
class MeasureValidation:
    """Outcome of validate_measure: structural pass/fail plus diagnostics.

    ``certified_lee_yang`` records whether the measure family is known to
    carry the Lee-Yang property (spheres always; densities when f and g'
    have only nonpositive real roots).  Validation can pass while the
    certificate is False: such measures are legal inputs whose verdicts
    fall outside the theorem guarantee.
    """

    passed: bool
    checks: tuple
    certified_lee_yang: bool

    def failures(self):
        return [c for c in self.checks if not c[1]]


def _poly_roots_nonpositive_real(coeffs, tol=1e-9):
    coeffs = np.trim_zeros(np.asarray(coeffs, float), "b")
    if coeffs.size <= 1:
        return True
    try:
        with np.errstate(all="ignore"):
            roots = np.roots(coeffs[::-1])
    except np.linalg.LinAlgError:  # a root past the float range
        return False
    scale = 1.0 + np.abs(roots)
    return bool(
        np.all(np.abs(roots.imag) <= tol * scale) and np.all(roots.real <= tol * scale)
    )


def _finite(x):
    """Whether x is a finite float, or a Fraction inside the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def validate_measure(measure: RadialMeasure) -> MeasureValidation:
    """Check the structural invariants of a radial measure.

    Report-returning: never raises or warns.  Confirms that the numbers
    are finite, integrability of exp(a * s) * tau(s) (bounded support, or
    deg(g) >= 2 with positive leading coefficient, or finiteness on the
    tabulated grid at a = 1) and nonnegativity of the profile.
    """
    checks = []
    certified = False
    if measure.kind == SPHERE:
        try:
            r = float(measure.radius)
            ok = r > 0 and math.isfinite(r)
        except (TypeError, ValueError, OverflowError):
            ok = False
        checks.append(("radius positive", ok, f"radius={measure.radius}"))
        checks.append(("compact support", ok, "sphere deltas are trivially integrable"))
        certified = ok
    elif measure.kind == DENSITY:
        g = list(measure.g_coeffs)
        while g and g[-1] == 0:
            g.pop()
        deg_ok = len(g) - 1 >= 2
        checks.append(
            (
                "tail degree",
                deg_ok,
                "degree should be at least two" if not deg_ok else f"deg(g)={len(g) - 1}",
            )
        )
        lead_ok = bool(g) and g[-1] > 0
        checks.append(
            ("leading coefficient of g positive", lead_ok, f"g={list(measure.g_coeffs)}")
        )
        finite = all(map(_finite, (*measure.f_coeffs, *measure.g_coeffs)))
        checks.append(("coefficients finite", finite, ""))
        nonneg = len(measure.f_coeffs) > 0
        if nonneg and deg_ok and lead_ok and finite:
            with np.errstate(all="ignore"):
                tau = measure.profile(np.linspace(0.0, 20.0, 512))
            nonneg = bool(np.all(np.isfinite(tau) & (tau >= -1e-14)))
        checks.append(("profile nonnegative", nonneg, "tau(s) >= 0 on sampled support"))
        if deg_ok and lead_ok and finite and nonneg:
            gp = [c * k for k, c in enumerate(measure.g_coeffs)][1:]
            certified = _poly_roots_nonpositive_real(
                measure.f_coeffs
            ) and _poly_roots_nonpositive_real(gp)
    elif measure.kind == TABULATED:
        grid = np.array(measure.samples) if measure.samples else np.zeros((0, 2))
        has = grid.shape[0] >= 3
        checks.append(("at least three samples", has, f"n={grid.shape[0]}"))
        finite = bool(np.isfinite(grid).all())
        checks.append(("samples finite", finite, ""))
        if has and finite:
            ascending = bool(np.all(np.diff(grid[:, 0]) > 0))
            checks.append(("grid ascending", ascending, ""))
            nonneg = bool(np.all(grid[:, 1] >= 0))
            checks.append(("profile nonnegative", nonneg, ""))
            if ascending:
                with np.errstate(all="ignore"):
                    val = _integrate().simpson(np.exp(grid[:, 0]) * grid[:, 1], x=grid[:, 0])
                checks.append(
                    (
                        "exp-weighted integral finite at a=1",
                        bool(np.isfinite(val)),
                        f"value={val:.6g}",
                    )
                )
    else:
        checks.append(("known kind", False, f"kind={measure.kind!r}"))
    passed = all(ok for _, ok, _ in checks)
    return MeasureValidation(passed, tuple(checks), certified and passed)


@functools.lru_cache(maxsize=COMPILED_PROFILES)
def _validated(measure: RadialMeasure) -> MeasureValidation:
    """validate_measure(measure), shared by a run's check and every rung's transform."""
    return validate_measure(measure)


# ---------------------------------------------------------------------------
# Laplace transform series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceSeries:
    """Truncated expansion v(zeta) = sum c_n zeta^n of a Laplace transform.

    In float mode the pi^(D/2) mass factor is folded into the coefficients
    and ``pi_power`` is 0.  In rational mode the coefficients are exact
    rationals and ``pi_power`` carries the power of pi symbolically.

    The same type holds the partition series phi_N of a chain of
    ``chain_length`` spins at ``coupling`` J, with Z_N(z) = phi_N(z^2); for a
    single-spin transform both are None.  For nonnegative radial profiles
    every coefficient is a positive moment integral.
    """

    coefficients: tuple
    dimension: int
    truncation_degree: int
    measure_label: str
    field: str = FLOAT
    pi_power: Fraction = Fraction(0)
    chain_length: int | None = None
    coupling: float | Fraction | None = None

    def __post_init__(self):
        if len(self.coefficients) != self.truncation_degree + 1:
            raise ValueError("coefficient list must have length M+1")

    def float_coefficients(self):
        scale = math.pi ** float(self.pi_power)
        return np.array([float(c) * scale for c in self.coefficients])

    def derivative(self, order=1):
        coeffs = list(self.coefficients)
        for _ in range(order):
            coeffs = [coeffs[n] * n for n in range(1, len(coeffs))]
            if not coeffs:
                coeffs = [coerce_scalar(0, self.field)]
        return replace(
            self,
            coefficients=tuple(coeffs),
            truncation_degree=len(coeffs) - 1,
        )

    def evaluate(self, zeta):
        total = 0.0 + 0.0j
        for c in reversed(self.float_coefficients()):
            total = total * zeta + c
        return total

    def to_csv(self):
        lines = ["n,c_n" if self.chain_length is None else "n,a_n"]
        for n, c in enumerate(self.float_coefficients()):
            lines.append(f"{n},{float(c)!r}")
        return "\n".join(lines) + "\n"

    def metadata(self, stable_through=None):
        """Provenance of a chain series, for an artifact sidecar."""
        data = {
            "N": self.chain_length,
            "D": self.dimension,
            "J": float(self.coupling),
            "measure": self.measure_label,
            "M": self.truncation_degree,
        }
        if stable_through is not None:
            data["stable_through"] = stable_through
        return data


def _wd_coefficients(D, r, M, field):
    """Sphere kernel w_D(zeta, r): c_n = r^(D/2+n-1) / (4^n n! Gamma(D/2+n)), n <= M.

    The Laplace transform of the sphere delta up to the mass factor
    pi^(D/2).  Exact in the rational field, where even D makes
    Gamma(D/2+n) an integer factorial.  D is a positive integer and r a
    positive radius, as ``laplace_transform`` checks.
    """
    if field == RATIONAL:
        if D % 2 != 0:
            raise MeasureError("rational backend requires even D (integer Gamma)")
        r = Fraction(r)  # floats convert by their exact binary value
        return [
            r ** (D // 2 + n - 1)
            / (Fraction(4) ** n * math.factorial(n) * math.factorial(D // 2 + n - 1))
            for n in range(M + 1)
        ]
    r = float(r)
    coeffs = []
    for n in range(M + 1):
        if D % 2 == 0:
            try:
                denom = float(4**n * math.factorial(n) * math.factorial(D // 2 + n - 1))
                coeffs.append(r ** (D // 2 + n - 1) / denom)
                continue
            except OverflowError:
                pass
        log_c = (
            (D / 2 + n - 1) * math.log(r)
            - 2 * n * math.log(2.0)
            - math.lgamma(n + 1)
            - math.lgamma(D / 2 + n)
        )
        try:
            coeffs.append(math.exp(log_c))
        except OverflowError:  # past the float range; laplace_transform names it
            coeffs.append(math.inf)
    return coeffs


def _horner(coeffs):
    """Scalar polyval(s, coeffs) for a Python float s, in polyval's float operations.

    Seeded with c[-1] + s*0 as polyval is, so a -0.0 coefficient, inf and
    nan come out as they do there.
    """
    last, rest = coeffs[-1], coeffs[-2::-1]

    def value(s):
        acc = last + s * 0
        for c in rest:
            acc = c + acc * s
        return acc

    return value


def _density_tau(measure: RadialMeasure):
    """tau = f exp(-g) for a float or a float array, with polyval's bits.

    Horner in polyval's order, then np.exp, without the array set-up that
    costs polyval microseconds per scalar call.
    """
    f = _horner([float(c) for c in measure.f_coeffs])
    g = _horner([float(c) for c in measure.g_coeffs])
    exp = np.exp

    def tau(s):
        return f(s) * exp(-g(s))

    return tau


class _Profile:
    """A measure's profile compiled once, with what it has computed.

    ``tau`` is the profile, for floats and arrays alike; ``moments`` maps k
    to m_k; ``probes`` holds the tail cutoff's probe grids with the profile
    on them, which do not depend on k; ``nodes`` maps each quadrature node x
    to float(tau(x * x)).  Moments whose tail cutoffs agree are integrated
    over the same bisections of [0, sqrt(R)], so they share nodes, and tau
    runs once per node instead of once per integrand call.
    """

    def __init__(self, measure: RadialMeasure):
        if measure.kind not in (DENSITY, TABULATED):
            raise MeasureError("sphere profile is a distribution, not a function")
        self.measure = measure
        if measure.kind == DENSITY:
            self.tau = _density_tau(measure)
        else:  # linear between the samples, 0 outside them; the arrays are built once
            s, t = np.array(measure.samples).T
            self.tau = functools.partial(np.interp, xp=s, fp=t, left=0.0, right=0.0)
        self.moments = {}
        self.probes = []
        self.nodes = {}

    def integrand(self, k):
        """x -> 2 x^(2k+1) tau(x^2), the moment integrand in x = sqrt(s).

        The memoised tau is the value tau computed, made a Python float
        (exact), so every product rounds as it does on numpy scalars; x = -0.0
        shares +0.0's entry, where x * x is the same +0.0.
        """
        tau, nodes, power = self.tau, self.nodes, 2 * k + 1

        def value(x):
            t = nodes.get(x)
            if t is None:
                t = nodes[x] = float(tau(x * x))
            return 2.0 * x**power * t

        return value

    def probe(self, i):
        """(R, grid, profile on grid) of _tail_cutoff's i-th probe, R = 10 * 1.5^i."""
        while len(self.probes) <= i:
            if self.probes:
                R = self.probes[-1][0] * 1.5
                grid = np.linspace(1e-9, R, 600)
            else:
                R = 10.0
                grid = np.linspace(1e-9, R, 400)
            self.probes.append((R, grid, self.measure.profile(grid)))
        return self.probes[i]


@functools.lru_cache(maxsize=COMPILED_PROFILES)
def _compiled(measure: RadialMeasure) -> _Profile:
    return _Profile(measure)


def _tail_cutoff(measure: RadialMeasure, k):
    """Upper integration limit R with r^k tau(r) below TAIL_DROP of its peak."""
    compiled = _compiled(measure)
    R, grid, tau = compiled.probe(0)
    peak = float(np.max(grid**k * tau))
    for i in range(1, 61):
        if peak > 0 and float(R**k * compiled.tau(R)) < TAIL_DROP * peak:
            return R
        R, grid, tau = compiled.probe(i)
        peak = max(peak, float(np.max(grid**k * tau)))
    raise MeasureError(
        f"quadrature non-convergence: no integrable tail found for {measure.label}"
    )


def radial_moment(measure: RadialMeasure, k):
    """m_k = integral r^k tau(r) dr over [0, inf).

    Computed in the original length variable x = sqrt(r), where the
    integrand 2 x^(2k+1) tau(x^2) is smooth even for half-integer k,
    by adaptive Gauss-Kronrod quadrature at relative tolerance 1e-12.
    A density's moments are kept with its compiled profile (for the last
    COMPILED_PROFILES measures used), so every rung of a ladder shares them.
    """
    if measure.kind == SPHERE:
        return float(measure.radius) ** k
    if measure.kind == TABULATED:
        if k < 0:
            raise MeasureError(
                "tabulated profiles do not support D=1 (singular moment at s=0)"
            )
        grid = np.array(measure.samples)
        return float(_integrate().simpson(grid[:, 0] ** k * grid[:, 1], x=grid[:, 0]))
    compiled = _compiled(measure)
    if k in compiled.moments:
        return compiled.moments[k]
    R = _tail_cutoff(measure, max(k, 0))
    value, err = _integrate().quad(
        compiled.integrand(k), 0.0, math.sqrt(R), epsabs=0.0, epsrel=QUAD_RTOL, limit=400
    )
    if not math.isfinite(value) or (value != 0 and err > 1e-7 * abs(value)):
        raise MeasureError(
            f"quadrature non-convergence for moment k={k} of {measure.label}"
        )
    compiled.moments[k] = value
    return value


def laplace_transform(measure: RadialMeasure, D, M, field=FLOAT) -> LaplaceSeries:
    """Truncated series of v(zeta, D) = pi^(D/2) * integral w_D(zeta, r) tau(r) dr.

    Sphere profiles reduce exactly to the kernel coefficients; smooth and
    tabulated profiles go through the radial moments m_{D/2+n-1}.  Raises
    MeasureError for a measure that fails validate_measure, a D that is not
    a positive integer, a negative M, and a sphere coefficient that overflows.
    """
    report = _validated(measure)
    if not report.passed:
        raise MeasureError(
            f"measure {measure.label!r} failed validation: {report.failures()}"
        )
    if D < 1 or int(D) != D:
        raise MeasureError(f"dimension must be a positive integer, got {D}")
    if M < 0:
        raise MeasureError("truncation degree must be nonnegative")
    D = int(D)
    if field == RATIONAL:
        if measure.kind != SPHERE:
            raise MeasureError("rational backend supports sphere measures only")
        coeffs = _wd_coefficients(D, measure.radius, M, RATIONAL)
        return LaplaceSeries(
            tuple(coeffs), D, M, measure.label, RATIONAL, Fraction(D, 2)
        )
    if measure.kind == SPHERE:
        scale = math.pi ** (D / 2)
        coeffs = [scale * c for c in _wd_coefficients(D, measure.radius, M, FLOAT)]
        bad = [n for n, c in enumerate(coeffs) if not math.isfinite(c)]
        if bad:
            raise MeasureError(f"sphere coefficient of degree {bad[0]} overflows at r={measure.radius:g}")
        return LaplaceSeries(tuple(coeffs), D, M, measure.label, FLOAT)
    coeffs = []
    for n in range(M + 1):
        k = D / 2 + n - 1
        if abs(k - round(k)) < 1e-12:
            k = int(round(k))
        m_k = radial_moment(measure, k)
        log_den = 2 * n * math.log(2.0) + math.lgamma(n + 1) + math.lgamma(D / 2 + n)
        coeffs.append(math.pi ** (D / 2) * m_k * math.exp(-log_den))
    return LaplaceSeries(tuple(coeffs), D, M, measure.label, FLOAT)
