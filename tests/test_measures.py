"""Tests for radial measures and Laplace transform series."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rotorzeros import measures
from rotorzeros.laguerre import counterexample_measure
from rotorzeros.measures import (
    FLOAT,
    RATIONAL,
    MeasureError,
    RadialMeasure,
    laplace_transform,
    radial_moment,
    validate_measure,
    wd_series,
)

SPHERE = RadialMeasure.sphere(1.0)
GAUSS = RadialMeasure.density([1.0], [0.0, 0.0, 1.0], label="gaussian-in-s")


class TestWdSeries:
    def test_constant_term_d2(self):
        assert wd_series(2, 1.0, 0).coefficients[0] == 1.0

    def test_first_coefficient_d2(self):
        # c_1 = 1 / (4 * 1! * Gamma(2)) = 1/4
        assert wd_series(2, 1.0, 1).coefficients[1] == 0.25

    def test_constant_term_d4_r2(self):
        # c_0 = r^(D/2-1) / Gamma(D/2) = 2 / 1!
        assert wd_series(4, 2.0, 0).coefficients[0] == 2.0

    def test_rational_backend_exact(self):
        v = wd_series(2, Fraction(1), 3, RATIONAL)
        assert list(v.coefficients) == [
            Fraction(1),
            Fraction(1, 4),
            Fraction(1, 64),
            Fraction(1, 2304),
        ]

    def test_rejects_bad_dimension(self):
        with pytest.raises(MeasureError):
            wd_series(0, 1.0, 3)
        with pytest.raises(MeasureError):
            wd_series(3, Fraction(1), 3, RATIONAL)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(MeasureError):
            wd_series(2, 0.0, 3)

    def test_odd_dimension_float_allowed(self):
        # half-integer Gamma; D=1, r=1: c_0 = 1/Gamma(1/2) = 1/sqrt(pi)
        v = wd_series(1, 1.0, 2)
        assert v.coefficients[0] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


class TestLaplaceTransform:
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

    def test_measure_json_round_trip(self):
        for m in (SPHERE, GAUSS):
            again = RadialMeasure.from_json(m.to_json())
            assert again.kind == m.kind and again.label == m.label


class TestDimensionShift:
    """d/dzeta w_D = w_{D+2} / 4 and its v-level consequence, exactly."""

    @pytest.mark.parametrize("D", [2, 4, 6])
    @pytest.mark.parametrize("r", [Fraction(1), Fraction(2), Fraction(3, 2)])
    def test_kernel_derivative_identity(self, D, r):
        M = 30
        upper = wd_series(D + 2, r, M - 1, RATIONAL)
        deriv = wd_series(D, r, M, RATIONAL).derivative()
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

    def test_float_mode_identity(self):
        M = 25
        base = laplace_transform(SPHERE, 2, M).derivative()
        lifted = laplace_transform(SPHERE, 4, M - 1)
        assert np.allclose(
            lifted.coefficients,
            4 * math.pi * np.array(base.coefficients),
            rtol=1e-12,
        )


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


def test_csv_export_shape():
    v = laplace_transform(SPHERE, 2, 3)
    lines = v.to_csv().strip().splitlines()
    assert lines[0] == "n,c_n"
    assert len(lines) == 5
