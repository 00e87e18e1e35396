"""Tests for the direct-integration oracles."""

import math
import types

import numpy as np
import pytest

from rotorzeros import measures
from rotorzeros.measures import RadialMeasure, laplace_transform
from rotorzeros.oracles import (
    laplace_direct,
    phi_modal,
    sphere_mass,
    w_kernel_value,
    z_direct_circle,
)
from rotorzeros.recursion import phi_chain

SPHERE = RadialMeasure.sphere(1.0)
GAUSS = RadialMeasure.density([1.0], [0.0, 0.0, 1.0], label="gaussian-in-s")


class TestCircleOracle:
    def test_uncoupled_mass(self):
        res = z_direct_circle(2, 0.0, 1.0, 0.0)
        assert res.real == pytest.approx(math.pi**2, rel=1e-12)

    def test_uncoupled_factorizes(self):
        v = laplace_transform(SPHERE, 2, 40)
        for y in (0.4, 1.1):
            res = z_direct_circle(2, 0.0, 1.0, y)
            assert res.real == pytest.approx(
                v.evaluate(-(y * y)).real ** 2, rel=1e-10
            )

    def test_coupled_matches_series(self):
        series = phi_chain([2], 2, 0.5, SPHERE, 40)[2]
        res = z_direct_circle(2, 0.5, 1.0, 1.0)
        assert abs(series.evaluate(-1.0) - res) / abs(res) < 1e-6

    def test_real_positive_at_small_field(self):
        for y in (0.0, 0.3, 0.8):
            res = z_direct_circle(3, 0.7, 1.0, y)
            assert abs(res.imag) < 1e-12 * abs(res)
            assert res.real > 0

    def test_trapezoid_converged_by_256(self):
        for y in (0.5, 2.0):
            for J in (0.5, 1.0):
                a = z_direct_circle(3, J, 1.0, y, 256)
                b = z_direct_circle(3, J, 1.0, y, 512)
                assert abs(a - b) <= 1e-10 * abs(b)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            z_direct_circle(5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            z_direct_circle(2, 0.5, 1.0, 1.0, nodes=100)


class TestModalOracle:
    """phi_modal: the Funk-Hecke reduction of the sphere chain to one Jacobi matrix."""

    @staticmethod
    def _worst_rel(got, want):
        got, want = np.array(got), np.array(want)
        return float(np.max(np.abs(got - want) / np.abs(want)))

    @pytest.mark.parametrize("D, J, r", [(1, 0.5, 1.0), (3, -0.7, 2.0), (5, 1.0, 1.0), (4, -0.7, 1.0)])
    def test_matches_recursion_prefix(self, D, J, r):
        # odd D and J < 0 lie outside the theorem, not outside the recursion
        chain = phi_chain([2, 3], D, J, RadialMeasure.sphere(r), 40)
        modal = phi_modal([2, 3], D, J, r, 25)
        for N in (2, 3):
            assert modal[N].chain_length == N and modal[N].coupling == J
            assert self._worst_rel(modal[N].coefficients, chain[N].coefficients[:26]) <= 1e-12

    @pytest.mark.parametrize("D", [1, 2, 3, 4])
    def test_zero_coupling_factorizes(self, D):
        r, M = 1.5, 30
        v = np.array(laplace_transform(RadialMeasure.sphere(r), D, M).coefficients)
        modal = phi_modal([1, 2, 3, 4], D, 0.0, r, M)
        power = np.ones(1)
        for N in (1, 2, 3, 4):
            power = np.convolve(power, v)[: M + 1]
            assert self._worst_rel(modal[N].coefficients, power) <= 1e-13

    @pytest.mark.parametrize("J", [0.7, -0.7])
    def test_d1_closed_form(self, J):
        # D = 1: omega = +-1, so F = cosh k cosh^2 x + sinh k sinh^2 x, k = J r,
        # whose x^(2n) coefficient is e^k 4^n / (2 (2n)!) for n >= 1
        r, M = 2.0, 30
        kappa, m = J * r, r**-0.5
        want = [m**2 * math.cosh(kappa)]
        want += [m**2 * r**n * math.exp(kappa) * 4**n / (2 * math.factorial(2 * n)) for n in range(1, M + 1)]
        assert self._worst_rel(phi_modal([2], 1, J, r, M)[2].coefficients, want) <= 1e-13

    @pytest.mark.parametrize("J", [0.5, -0.7])
    def test_matches_circle_oracle(self, J):
        modal = phi_modal([2, 3, 4], 2, J, 1.0, 60)
        for N in (2, 3, 4):
            for y in (0.5, 1.0, 2.0):
                oracle = z_direct_circle(N, J, 1.0, y)
                assert abs(modal[N].evaluate(-(y * y)) - oracle) <= 1e-11 * abs(oracle)

    def test_argument_validation(self):
        for bad in (dict(Ns=[0]), dict(D=0), dict(D=2.5), dict(r=0.0)):
            args = {"Ns": [2], "D": 2, "J": 0.5, "r": 1.0, "M": 10, **bad}
            with pytest.raises(ValueError):
                phi_modal(**args)


class TestMonteCarloOracle:
    """Conventions shared by the oracles: the sphere mass."""

    def test_sphere_mass_matches_kernel(self):
        for D in (2, 4, 6):
            assert sphere_mass(D, 1.0) == pytest.approx(
                math.pi ** (D / 2) * w_kernel_value(D, 0.0, 1.0), rel=1e-14
            )


class TestLaplaceDirect:
    def test_sphere_mass(self):
        assert laplace_direct(SPHERE, 2, 0.0).real == pytest.approx(
            math.pi, rel=1e-14
        )

    def test_vanishes_at_bessel_zero(self):
        val = laplace_direct(SPHERE, 2, -5.783185962946785)
        assert abs(val) < 1e-12

    def test_gaussian_mass(self):
        assert laplace_direct(GAUSS, 2, 0.0).real == pytest.approx(
            math.pi**1.5 / 2, rel=1e-10
        )

    def test_series_agrees_on_real_axis(self):
        v = laplace_transform(SPHERE, 2, 40)
        for zeta in np.linspace(-1, 1, 9):
            direct = laplace_direct(SPHERE, 2, zeta)
            assert abs(v.evaluate(zeta) - direct) <= 1e-10 * abs(direct)

    def test_density_series_agrees(self):
        v = laplace_transform(GAUSS, 2, 40)
        for zeta in (-1.0, 0.5, 1.0):
            direct = laplace_direct(GAUSS, 2, zeta)
            assert abs(v.evaluate(zeta) - direct) <= 1e-9 * abs(direct)

    # quad meets the kinks of the interpolated profile and warns about roundoff
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_tabulated_profile_agrees_with_density(self):
        grid = np.linspace(0.0, 12.0, 401)
        tab = RadialMeasure.tabulated(list(zip(grid, np.exp(-(grid**2)))))
        direct = laplace_direct(tab, 2, -1.0)
        # linear interpolation on a 0.03 grid: relative error about 2e-5
        assert direct == pytest.approx(laplace_direct(GAUSS, 2, -1.0), rel=1e-4)
        assert direct.real.hex() == "0x1.34ccab10c496ep+1"

    def test_quadrature_uses_measures_integrate(self, monkeypatch):
        # measures owns the (lazily imported) scipy.integrate; a replacement
        # assigned to measures.integrate must see laplace_direct's quad too
        calls = []
        quad = measures.integrate.quad

        def counted(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(measures, "integrate", types.SimpleNamespace(quad=counted))
        assert laplace_direct(GAUSS, 2, 0.5).real > 0
        assert len(calls) == 1
