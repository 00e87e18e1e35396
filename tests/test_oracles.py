"""Tests for the direct-integration oracles."""

import math

import numpy as np
import pytest

from rotorzeros.measures import RadialMeasure, laplace_transform
from rotorzeros.oracles import (
    laplace_direct,
    sphere_mass,
    uniform_sphere,
    w_kernel_value,
    z_direct_circle,
    z_direct_mc,
)
from rotorzeros.recursion import phi

SPHERE = RadialMeasure.sphere(1.0)
GAUSS = RadialMeasure.density([1.0], [0.0, 0.0, 1.0], label="gaussian-in-s")


class TestCircleOracle:
    def test_uncoupled_mass(self):
        res = z_direct_circle(2, 0.0, 1.0, 0.0)
        assert res.value.real == pytest.approx(math.pi**2, rel=1e-12)

    def test_uncoupled_factorizes(self):
        v = laplace_transform(SPHERE, 2, 40)
        for y in (0.4, 1.1):
            res = z_direct_circle(2, 0.0, 1.0, y)
            assert res.value.real == pytest.approx(
                v.evaluate(-(y * y)).real ** 2, rel=1e-10
            )

    def test_coupled_matches_series(self):
        series = phi(2, 2, 0.5, SPHERE, 40)
        res = z_direct_circle(2, 0.5, 1.0, 1.0)
        assert abs(series.evaluate(-1.0) - res.value) / abs(res.value) < 1e-6

    def test_real_positive_at_small_field(self):
        for y in (0.0, 0.3, 0.8):
            res = z_direct_circle(3, 0.7, 1.0, y)
            assert abs(res.value.imag) < 1e-12 * abs(res.value)
            assert res.value.real > 0

    def test_trapezoid_converged_by_256(self):
        for y in (0.5, 2.0):
            for J in (0.5, 1.0):
                a = z_direct_circle(3, J, 1.0, y, 256).value
                b = z_direct_circle(3, J, 1.0, y, 512).value
                assert abs(a - b) <= 1e-10 * abs(b)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            z_direct_circle(5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            z_direct_circle(2, 0.5, 1.0, 1.0, nodes=100)


class TestMonteCarloOracle:
    def test_uncoupled_agreement(self):
        v = laplace_transform(SPHERE, 4, 40)
        res = z_direct_mc(2, 4, 0.0, 1.0, 1.0, samples=400_000, seed=2)
        target = v.evaluate(-1.0).real ** 2
        assert abs(res.value - target) <= 3 * res.estimated_error

    def test_coupled_agreement_with_series(self):
        series = phi(2, 4, 0.5, SPHERE, 40)
        res = z_direct_mc(2, 4, 0.5, 1.0, 1.0, samples=400_000, seed=5)
        assert abs(res.value - series.evaluate(-1.0)) <= 3 * res.estimated_error

    def test_seeded_determinism(self):
        a = z_direct_mc(2, 4, 0.5, 1.0, 1.0, samples=150_000, seed=9)
        b = z_direct_mc(2, 4, 0.5, 1.0, 1.0, samples=150_000, seed=9)
        assert a.value == b.value and a.estimated_error == b.estimated_error

    def test_restrictions(self):
        with pytest.raises(ValueError):
            z_direct_mc(3, 4, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            z_direct_mc(2, 3, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            z_direct_mc(2, 4, 0.5, 1.0, 1.0, samples=10)

    def test_uniform_sphere_normalization(self):
        rng = np.random.default_rng(0)
        pts = uniform_sphere(rng, 1000, 6)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_sphere_mass_matches_kernel(self):
        for D in (2, 4, 6):
            assert sphere_mass(D, 1.0) == pytest.approx(
                math.pi ** (D / 2) * w_kernel_value(D, 0.0, 1.0), rel=1e-14
            )

    def test_result_json_export(self):
        res = z_direct_circle(2, 0.0, 1.0, 0.0)
        data = res.to_json()
        assert "angular-grid" in data and "estimated_error" in data


class TestLaplaceDirect:
    def test_sphere_mass(self):
        assert laplace_direct(SPHERE, 2, 0.0).value.real == pytest.approx(
            math.pi, rel=1e-14
        )

    def test_vanishes_at_bessel_zero(self):
        val = laplace_direct(SPHERE, 2, -5.783185962946785).value
        assert abs(val) < 1e-12

    def test_gaussian_mass(self):
        assert laplace_direct(GAUSS, 2, 0.0).value.real == pytest.approx(
            math.pi**1.5 / 2, rel=1e-10
        )

    def test_series_agrees_on_real_axis(self):
        v = laplace_transform(SPHERE, 2, 40)
        for zeta in np.linspace(-1, 1, 9):
            direct = laplace_direct(SPHERE, 2, zeta).value
            assert abs(v.evaluate(zeta) - direct) <= 1e-10 * abs(direct)

    def test_density_series_agrees(self):
        v = laplace_transform(GAUSS, 2, 40)
        for zeta in (-1.0, 0.5, 1.0):
            direct = laplace_direct(GAUSS, 2, zeta).value
            assert abs(v.evaluate(zeta) - direct) <= 1e-9 * abs(direct)

    # quad meets the kinks of the interpolated profile and warns about roundoff
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_tabulated_profile_agrees_with_density(self):
        grid = np.linspace(0.0, 12.0, 401)
        tab = RadialMeasure.tabulated(list(zip(grid, np.exp(-(grid**2)))))
        direct = laplace_direct(tab, 2, -1.0).value
        # linear interpolation on a 0.03 grid: relative error about 2e-5
        assert direct == pytest.approx(laplace_direct(GAUSS, 2, -1.0).value, rel=1e-4)
