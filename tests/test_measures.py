"""Tests for radial measures and Laplace transform series."""

import hashlib
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest

from rotorzeros import measures
from rotorzeros.laguerre import counterexample_measure
from rotorzeros.zeros import find_roots
from rotorzeros.measures import (
    FLOAT,
    RATIONAL,
    MeasureError,
    RadialMeasure,
    laplace_transform,
    radial_moment,
    validate_measure,
)

SPHERE = RadialMeasure.sphere(1.0)
GAUSS = RadialMeasure.density([1.0], [0.0, 0.0, 1.0], label="gaussian-in-s")


def sphere_transform(D, r, M, field=FLOAT):
    return laplace_transform(RadialMeasure.sphere(r), D, M, field)


class TestWdSeries:
    """The sphere kernel w_D(zeta, r), the sphere's transform over pi^(D/2)."""

    def test_constant_term_d2(self):
        assert sphere_transform(2, 1.0, 0).coefficients[0] == math.pi * 1.0

    def test_first_coefficient_d2(self):
        # c_1 = 1 / (4 * 1! * Gamma(2)) = 1/4
        assert sphere_transform(2, 1.0, 1).coefficients[1] == math.pi * 0.25

    def test_constant_term_d4_r2(self):
        # c_0 = r^(D/2-1) / Gamma(D/2) = 2 / 1!
        assert sphere_transform(4, 2.0, 0).coefficients[0] == math.pi**2 * 2.0

    def test_rational_backend_exact(self):
        v = sphere_transform(2, Fraction(1), 3, RATIONAL)
        assert v.pi_power == 1
        assert list(v.coefficients) == [
            Fraction(1),
            Fraction(1, 4),
            Fraction(1, 64),
            Fraction(1, 2304),
        ]

    def test_rejects_bad_dimension(self):
        with pytest.raises(MeasureError):
            sphere_transform(0, 1.0, 3)
        with pytest.raises(MeasureError):
            sphere_transform(3, Fraction(1), 3, RATIONAL)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(MeasureError):
            sphere_transform(2, 0.0, 3)

    def test_log_path_rescues_an_overflowed_power(self):
        # r^40 overflows, but c_40 = r^40 / (4^40 40!^2) = 1.24e280 is a float
        c = sphere_transform(2, 1e10, 40).coefficients[40] / math.pi
        assert c == pytest.approx(float(Fraction(10**400, 4**40 * math.factorial(40) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("D, r, degree", [(2, 1e300, 2), (3, 1e300, 1), (4, 1e308, 0)])
    def test_coefficient_past_float_range_names_its_degree(self, D, r, degree):
        # at D = 4, r = 1e308, c_0 = r is a float but pi^2 c_0 is not
        with pytest.raises(MeasureError, match=re.escape(f"coefficient of degree {degree} overflows at r={r:g}")):
            sphere_transform(D, r, 10)

    def test_odd_dimension_float_allowed(self):
        # half-integer Gamma; D=1, r=1: c_0 = 1/Gamma(1/2) = 1/sqrt(pi)
        v = sphere_transform(1, 1.0, 2)
        assert v.coefficients[0] == pytest.approx(math.pi ** (1 / 2) * (1.0 / math.sqrt(math.pi)), rel=1e-14)


class TestLaplaceTransform:
    @pytest.mark.parametrize(
        "measure",
        [
            GAUSS,
            RadialMeasure.tabulated([[0.1 * k, math.exp(-0.1 * k)] for k in range(30)]),
        ],
        ids=["density", "tabulated"],
    )
    def test_rejects_negative_degree(self, measure):
        # both used to return an empty series of truncation degree -1
        with pytest.raises(MeasureError, match="truncation degree must be nonnegative"):
            laplace_transform(measure, 2, -1)

    def test_sphere_mass_is_pi(self):
        v = laplace_transform(SPHERE, 2, 0)
        assert v.coefficients[0] == pytest.approx(math.pi, rel=1e-15)

    def test_sphere_low_coefficients(self):
        v = laplace_transform(SPHERE, 2, 2)
        assert v.coefficients[1] == pytest.approx(math.pi / 4, rel=1e-15)
        assert v.coefficients[2] == pytest.approx(math.pi / 64, rel=1e-15)

    def test_gaussian_mass(self):
        v = laplace_transform(GAUSS, 2, 0)
        assert v.coefficients[0] == pytest.approx(math.pi**1.5 / 2, rel=1e-12)

    def test_rejects_invalid_measure(self):
        bad = RadialMeasure.density([1.0], [0.0, 1.0], label="linear-tail")
        with pytest.raises(MeasureError):
            laplace_transform(bad, 2, 4)

    def test_sphere_transform_strictly_log_concave(self):
        # a_k^2 > a_(k-1) a_(k+1) at every interior k, exactly: the D = 2
        # sphere's ratio is (k+1)^2 / k^2 (a necessary condition of the
        # Laguerre class for nonnegative coefficients)
        a = laplace_transform(RadialMeasure.sphere(1), 2, 22, RATIONAL).coefficients
        assert all(type(c) is Fraction for c in a)
        assert all(a[k] ** 2 > a[k - 1] * a[k + 1] for k in range(1, 22))

    def test_rational_tracks_pi_power(self):
        v = laplace_transform(SPHERE, 4, 2, RATIONAL)
        assert v.pi_power == Fraction(2)
        assert v.coefficients[0] == Fraction(1)

    def test_coefficients_nonnegative_for_nonnegative_profiles(self):
        for measure, D in ((SPHERE, 2), (SPHERE, 6), (GAUSS, 2), (GAUSS, 4)):
            v = laplace_transform(measure, D, 25)
            assert all(c >= 0 for c in v.coefficients)

    def test_tabulated_matches_density(self):
        grid = np.linspace(0.0, 12.0, 4001)
        tab = RadialMeasure.tabulated(
            list(zip(grid, np.exp(-(grid**2)))), label="tabulated-gaussian"
        )
        vt = laplace_transform(tab, 2, 6)
        vd = laplace_transform(GAUSS, 2, 6)
        assert np.allclose(vt.coefficients, vd.coefficients, rtol=1e-8)

    def test_half_integer_moments_for_d1(self):
        # m_{-1/2} of the Gaussian profile: integral r^(-1/2) e^(-r^2) dr
        got = radial_moment(GAUSS, -0.5)
        assert got == pytest.approx(math.gamma(0.25) / 2, rel=1e-10)


class TestValidation:
    def test_sphere_passes(self):
        report = validate_measure(SPHERE)
        assert report.passed and report.certified_lee_yang

    def test_linear_tail_fails_with_degree_message(self):
        report = validate_measure(RadialMeasure.density([1.0], [0.0, 1.0]))
        assert not report.passed
        assert any("degree should be at least two" in c[2] for c in report.failures())

    def test_trailing_zero_g_coefficients_trimmed(self):
        # g = s + s^2 + 0 s^3 has degree 2 and a positive leading coefficient
        report = validate_measure(RadialMeasure.density([1.0], [0.0, 1.0, 1.0, 0.0]))
        assert report.passed

    def test_gaussian_passes(self):
        report = validate_measure(GAUSS)
        assert report.passed and report.certified_lee_yang

    def test_quartic_well_valid_but_uncertified(self):
        # exp(-a*s - s(s-1)^2): legal profile, outside the certified family
        meas = RadialMeasure.density([1.0], [0.0, 3.0, -2.0, 1.0])
        report = validate_measure(meas)
        assert report.passed and not report.certified_lee_yang

    def test_tabulated_checks(self):
        grid = np.linspace(0.0, 5.0, 101)
        report = validate_measure(
            RadialMeasure.tabulated(list(zip(grid, np.exp(-(grid**2)))))
        )
        assert report.passed
        report2 = validate_measure(RadialMeasure.tabulated([(0.0, 1.0), (1.0, -1.0), (2.0, 0.5)]))
        assert not report2.passed

    @pytest.mark.parametrize(
        "measure, failed",
        [
            (RadialMeasure.sphere(Fraction(10**400)), ["radius positive", "compact support"]),
            (RadialMeasure.density([1.0], [0.0, 1.0, math.inf]), ["coefficients finite"]),
            (RadialMeasure.tabulated([(0.0, 1.0), (1.0, math.nan), (2.0, 0.5)]), ["samples finite"]),
            # finite numbers whose g' has a root past the float range: valid, uncertified
            (RadialMeasure.density([1.0], [0.0, 1e308, 1e-308]), []),
        ],
    )
    def test_numbers_past_the_float_range_fail_a_named_check(self, measure, failed):
        # a report, never an exception; Tier-1 makes any warning an error too
        report = validate_measure(measure)
        assert [c[0] for c in report.failures()] == failed
        assert not report.certified_lee_yang

    def test_measure_json_round_trip(self):
        for m in (SPHERE, GAUSS):
            again = RadialMeasure.from_json(m.to_json())
            assert again.kind == m.kind and again.label == m.label


    def test_tabulated_json_round_trip(self):
        grid = np.linspace(0.0, 5.0, 11)
        tabulated = RadialMeasure.tabulated(list(zip(grid, np.exp(-(grid**2)))), label="gauss-grid")
        assert RadialMeasure.from_json(tabulated.to_json()) == tabulated


class TestDimensionShift:
    """d/dzeta w_D = w_{D+2} / 4 and its v-level consequence, exactly."""

    @pytest.mark.parametrize("D", [2, 4, 6])
    @pytest.mark.parametrize("r", [Fraction(1), Fraction(2), Fraction(3, 2)])
    def test_kernel_derivative_identity(self, D, r):
        M = 30
        upper = sphere_transform(D + 2, r, M - 1, RATIONAL)
        deriv = sphere_transform(D, r, M, RATIONAL).derivative()
        assert list(deriv.coefficients) == [c / 4 for c in upper.coefficients]

    @pytest.mark.parametrize("D", [2, 4])
    @pytest.mark.parametrize("m", [1, 2])
    def test_transform_level_identity(self, D, m):
        M = 30
        sphere = RadialMeasure.sphere(Fraction(2))
        lifted = laplace_transform(sphere, D + 2 * m, M - m, RATIONAL)
        base = laplace_transform(sphere, D, M, RATIONAL).derivative(m)
        # v(., D+2m) = (4 pi)^m v^(m)(., D): pi powers match, rationals match x 4^m
        assert lifted.pi_power == base.pi_power + m
        assert list(lifted.coefficients) == [
            c * Fraction(4) ** m for c in base.coefficients
        ]

    def test_derivative_roots_transfer_to_next_dimension(self):
        # d/dzeta of the D kernel is the D+2 kernel over 4: stable roots match
        v2 = laplace_transform(SPHERE, 2, 51)
        v4 = laplace_transform(SPHERE, 4, 50)
        dr = find_roots([c * n for n, c in enumerate(v2.coefficients)][1:]).roots
        ur = find_roots(v4.coefficients).roots
        for a, b in zip(dr[:4], ur[:4]):
            assert abs(a - b) <= 1e-8 * (1 + abs(b))

    def test_float_mode_identity(self):
        M = 25
        base = laplace_transform(SPHERE, 2, M).derivative()
        lifted = laplace_transform(SPHERE, 4, M - 1)
        assert np.allclose(
            lifted.coefficients,
            4 * math.pi * np.array(base.coefficients),
            rtol=1e-12,
        )


class TestLazyIntegrate:
    def test_quadratures_read_measures_integrate_when_called(self, monkeypatch):
        # a replacement assigned to measures.integrate (as a tracer's counting
        # proxy is) must see every quadrature; a name bound at import would not
        calls = []
        real = measures.integrate

        def counted(name):
            def call(*args, **kwargs):
                calls.append(name)
                return getattr(real, name)(*args, **kwargs)

            return call

        proxy = types.SimpleNamespace(quad=counted("quad"), simpson=counted("simpson"))
        monkeypatch.setattr(measures, "integrate", proxy)
        measures._compiled.cache_clear()
        tab = RadialMeasure.tabulated([[0.1 * k, math.exp(-0.1 * k)] for k in range(30)])
        assert radial_moment(GAUSS, 1) == pytest.approx(0.5, rel=1e-12)
        assert validate_measure(tab).passed
        assert radial_moment(tab, 1) > 0
        assert calls == ["quad", "simpson", "simpson"]

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'quad'"):
            measures.quad


class TestQuadpackBinding:
    """measures.integrate.quad calls QUADPACK directly and keeps scipy.integrate.quad's bits."""

    @staticmethod
    def _through(monkeypatch, binding, compute):
        monkeypatch.setattr(measures, "integrate", binding)
        measures._compiled.cache_clear()
        try:
            return compute()
        finally:
            measures._compiled.cache_clear()

    @pytest.mark.parametrize("a", [-5.0, 0.0, 1.5])
    def test_scan_moments_match_scipy_quad_bit_for_bit(self, monkeypatch, a):
        from scipy import integrate

        def moments():  # m_k at k = -1/2 .. 59.5, the scan's top rung
            return laplace_transform(counterexample_measure(a), 1, 60).coefficients

        binding = measures.integrate
        assert binding is not integrate
        ours = self._through(monkeypatch, binding, moments)
        assert ours == self._through(monkeypatch, integrate, moments)

    def test_laplace_direct_matches_scipy_quad_bit_for_bit(self, monkeypatch):
        from scipy import integrate

        from rotorzeros.oracles import laplace_direct

        def value():
            return laplace_direct(counterexample_measure(0.0), 1, -1.5)

        ours = self._through(monkeypatch, measures.integrate, value)
        assert ours == self._through(monkeypatch, integrate, value)

    def test_nonzero_ier_warns_through_scipy(self):
        from scipy import integrate

        def narrow(x):
            return math.exp(-100.0 * x * x)

        args = dict(epsabs=0.0, epsrel=1e-12, limit=1)  # one interval: ier = 1
        with pytest.warns(integrate.IntegrationWarning, match="maximum number of subdivisions"):
            ours = measures.integrate.quad(narrow, 0.0, 10.0, **args)
        with pytest.warns(integrate.IntegrationWarning):
            assert ours == integrate.quad(narrow, 0.0, 10.0, **args)
        with pytest.raises(ValueError, match="invalid"):
            measures.integrate.quad(narrow, 0.0, 10.0, epsabs=0.0, epsrel=1e-12, limit=0)

    def test_missing_extension_falls_back_to_scipy_integrate(self, monkeypatch):
        from scipy import integrate

        measures.integrate  # bound first, so that monkeypatch restores it afterwards
        find_spec = measures.importlib.machinery.PathFinder.find_spec

        def no_quadpack(name, path=None, target=None):
            return None if name == "_quadpack" else find_spec(name, path, target)

        monkeypatch.setattr(measures.importlib.machinery.PathFinder, "find_spec", no_quadpack)
        monkeypatch.delitem(measures.sys.modules, "scipy.integrate._quadpack", raising=False)
        monkeypatch.delattr(measures, "integrate")
        measures._compiled.cache_clear()
        assert measures._load_qagse() is None
        assert measures.integrate is integrate
        assert radial_moment(GAUSS, 1) == pytest.approx(0.5, rel=1e-12)
        measures._compiled.cache_clear()


class TestCompiledDensity:
    """The compiled scalar integrand keeps every bit of the numpy profile path."""

    MEASURES = {
        "gaussian": GAUSS,  # g with zero inner coefficients
        "several-term-f": RadialMeasure.density([2.0, 0.5, 0.0, 1.5], [0.0, 1.0, -2.0, 1.0]),
        "json-integers": RadialMeasure.from_json(
            '{"kind": "density", "f": [3, 1], "g": [0, 2, 0, 1]}'
        ),
        "quartic-tail": RadialMeasure.density([1.0], [0.0, 0.0, 0.0, 0.0, 1.0]),
        "quartic-well": counterexample_measure(0.75),
    }

    @staticmethod
    def _quad_points(monkeypatch, measure, k):
        """Every x at which integrate.quad evaluates the integrand of m_k."""
        points = []
        quad = measures.integrate.quad

        def recording(func, *args, **kwargs):
            def seen(x):
                points.append(x)
                return func(x)

            return quad(seen, *args, **kwargs)

        monkeypatch.setattr(measures.integrate, "quad", recording)
        measures._compiled.cache_clear()
        radial_moment(measure, k)
        return points

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("k", [0, 3, 20, -0.5, 0.5, 29.5])
    def test_integrand_matches_profile_on_quad_points(self, monkeypatch, name, k):
        measure = self.MEASURES[name]
        points = self._quad_points(monkeypatch, measure, k)
        assert len(points) > 20
        integrand = measures._compiled(measure).integrand(k)
        got = [float(integrand(x)).hex() for x in points]
        want = [float(2.0 * x ** (2 * k + 1) * measure.profile(x * x)).hex() for x in points]
        assert got == want

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_scalar_profile_matches_at_edges(self, name):
        measure = self.MEASURES[name]
        tau = measures._compiled(measure).tau
        points = [0.0, -0.0, 5e-324, 1e-300, 0.5, -1.5, 10.0, 15.0, 1e3, 1e200]
        points += [math.inf, -math.inf, math.nan]
        with np.errstate(all="ignore"):
            got = [float(tau(s)).hex() for s in points]
            want = [float(measure.profile(s)).hex() for s in points]
        assert got == want

    # m_k of the quartic well, as float.hex, recorded before the profile was compiled
    PINNED = [
        (-5.0, -0.5, "0x1.e918f2c105870p+10"),
        (-0.25, 29.5, "0x1.44faa1ed2dd4fp+31"),
        (0.75, 9.5, "0x1.21601aea319c2p+4"),
        (2.0, 0.5, "0x1.0d389f228f92cp-2"),
        (2.0, 59.5, "0x1.816115db0a50ep+67"),
        (5.0, 59.5, "0x1.754c38bb454bfp+54"),
    ]

    @pytest.mark.parametrize("a, k, want", PINNED)
    def test_scan_moments_pinned(self, a, k, want):
        measures._compiled.cache_clear()
        assert radial_moment(counterexample_measure(a), k).hex() == want

    # sha256 of the profile's float.hex on the tail cutoff's first three probe
    # grids, validate_measure's grid and edge values (as an array and one by
    # one), for every density of the scan, recorded from polyval's profile
    PROFILE_SHA256 = "baf96812601aeef85d105d30dd8e28f72177e668130336374396b5e8d2c8bf89"

    def test_profile_pinned_on_scan_probe_grids(self):
        edges = [0.0, -0.0, 5e-324, 1e-300, 0.5, -1.5, 1e3, 1e200, math.inf, -math.inf, math.nan]
        grids = [
            np.linspace(1e-9, 10.0, 400),
            np.linspace(1e-9, 15.0, 600),
            np.linspace(1e-9, 22.5, 600),
            np.linspace(0.0, 20.0, 512),
            np.array(edges),
        ]
        digest = hashlib.sha256()
        with np.errstate(all="ignore"):
            for a in (round(-5 + 0.25 * k, 2) for k in range(41)):
                measure = counterexample_measure(a)
                for grid in grids:
                    digest.update(" ".join(float(v).hex() for v in measure.profile(grid)).encode())
                digest.update(" ".join(float(measure.profile(s)).hex() for s in edges).encode())
        assert digest.hexdigest() == self.PROFILE_SHA256


class TestNodeMemo:
    """tau runs once per quadrature node, and the memo never changes a moment."""

    WELL = counterexample_measure(0.75)

    def test_tau_runs_once_per_node(self, monkeypatch):
        measures._compiled.cache_clear()
        compiled = measures._compiled(self.WELL)
        tau, integrand = compiled.tau, compiled.integrand
        scalar_args, integrand_calls = [], [0]

        def counted_tau(s):
            if np.ndim(s) == 0:
                scalar_args.append(s)
            return tau(s)

        def counted_integrand(k):
            value = integrand(k)

            def call(x):
                integrand_calls[0] += 1
                return value(x)

            return call

        monkeypatch.setattr(compiled, "tau", counted_tau)
        monkeypatch.setattr(compiled, "integrand", counted_integrand)
        laplace_transform(self.WELL, 1, 60)
        # the tail cutoff's own scalar calls are at its probe radii R, which
        # are no node's x^2: quad's Gauss-Kronrod nodes lie inside [0, sqrt(R)]
        cutoffs = {R for R, _, _ in compiled.probes}
        node_calls = [s for s in scalar_args if s not in cutoffs]
        assert len(node_calls) == len(compiled.nodes) > 0
        assert 20 * len(node_calls) < integrand_calls[0]

    @pytest.mark.parametrize("k", [-0.5, 9.5, 59.5])
    def test_moment_independent_of_fill_order(self, k):
        measures._compiled.cache_clear()
        cold = radial_moment(self.WELL, k)
        measures._compiled.cache_clear()
        for other in [59.5 - j for j in range(61)]:
            if other != k:
                radial_moment(self.WELL, other)
        assert measures._compiled(self.WELL).nodes  # m_k now starts from a filled memo
        assert radial_moment(self.WELL, k).hex() == cold.hex()


def test_csv_export_shape():
    v = laplace_transform(SPHERE, 2, 3)
    lines = v.to_csv().strip().splitlines()
    assert lines[0] == "n,c_n"
    assert len(lines) == 5
