"""Tests for root localization, classification, and the stability ladder."""

import numpy as np
import pytest
from scipy.special import jn_zeros

from rotorzeros import measures
from rotorzeros.measures import RadialMeasure, laplace_transform
from rotorzeros.zeros import (
    INCONCLUSIVE,
    NEGATIVE_REAL,
    OFF_AXIS,
    VERIFIED,
    VIOLATED,
    ZeroReport,
    classify_lee_yang,
    find_roots,
    newton_check,
    stabilize,
    stabilize_chain,
    stabilize_series,
)

SPHERE = RadialMeasure.sphere(1.0)


class TestFindRoots:
    def test_linear(self):
        assert find_roots([1, 1]) == [pytest.approx(-1)]

    def test_factored_quadratic(self):
        roots = sorted(find_roots([1, 3, 2]), key=lambda z: z.real)
        assert roots[0] == pytest.approx(-1)
        assert roots[1] == pytest.approx(-0.5)

    def test_bessel_reduction(self):
        # the D=2 sphere transform vanishes exactly at -j_{0,k}^2
        v = laplace_transform(SPHERE, 2, 60)
        roots = find_roots(v.coefficients, window=60)
        targets = -jn_zeros(0, 3) ** 2
        for got, want in zip(roots[:3], targets):
            assert abs(got - want) / abs(want) < 1e-8

    def test_residual_bound_reported(self):
        v = laplace_transform(SPHERE, 2, 40)
        rs = find_roots(v.coefficients, detailed=True)
        assert all(rs.converged)
        assert all(res <= 1e-10 for res in rs.residuals)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            find_roots([1, 1], window=5)

    def test_scaling_invariance(self):
        v = laplace_transform(SPHERE, 2, 40)
        base = np.array(find_roots(v.coefficients, 20))
        # a power-of-two factor rescales without any rounding: bitwise equal
        exact = np.array(find_roots([2.0**19 * c for c in v.coefficients], 20))
        assert np.array_equal(base, exact)
        # a general factor rounds each coefficient by half an ulp; the
        # well-conditioned (reliable-window) roots still stay put to 1e-12
        scaled = np.array(find_roots([3.7e5 * c for c in v.coefficients], 20))
        d = np.abs(base - scaled) / (1 + np.abs(base))
        assert np.all(d[:3] <= 1e-12)

    def test_empty_for_constant(self):
        assert find_roots([2.0, 0.0, 0.0]) == []


class TestNewtonCheck:
    def test_real_rooted_passes(self):
        assert all(ok for _, ok in newton_check([1, 3, 2]))

    def test_boundary_equality_passes(self):
        assert all(ok for _, ok in newton_check([1, 1, 1]))

    def test_constructed_failure(self):
        results = dict(newton_check([1, 1, 2]))
        assert results[1] is False

    def test_kernel_truncation_passes(self):
        v = laplace_transform(SPHERE, 2, 22)
        assert all(ok for _, ok in newton_check(v.coefficients))


class TestClassify:
    def test_negative_reals_verified(self):
        report = classify_lee_yang([-1.0, -2.0])
        assert report.overall == VERIFIED
        assert report.gammas == (1.0, 0.5)

    def test_off_axis_violates(self):
        report = classify_lee_yang([complex(-1, 0.5)], tol=1e-6)
        assert report.overall == VIOLATED
        assert report.verdicts == (OFF_AXIS,)

    def test_positive_real_root_violates(self):
        report = classify_lee_yang([3.0 + 0j])
        assert report.overall == VIOLATED

    def test_only_stable_roots_enter_verdict(self):
        report = classify_lee_yang(
            [-1.0, complex(-2, 1.0)], stable=[True, False]
        )
        assert report.overall == VERIFIED
        assert report.verdicts[1] == OFF_AXIS and not report.stable[1]

    def test_no_stable_roots_inconclusive(self):
        report = classify_lee_yang([-1.0], stable=[False])
        assert report.overall == INCONCLUSIVE


class TestStabilize:
    def test_bessel_ladder(self):
        report = stabilize(1, 2, 0.0, SPHERE, (40, 60))
        assert report.overall == VERIFIED
        targets = -jn_zeros(0, 3) ** 2
        stable_roots = report.stable_roots()
        assert len(stable_roots) >= 3
        for got, want in zip(stable_roots[:3], targets):
            assert abs(got - want) / abs(want) < 1e-8
        assert report.gammas[0] == pytest.approx(1.0 / jn_zeros(0, 1)[0] ** 2, rel=1e-8)

    def test_squared_kernel_doubles_roots(self):
        report = stabilize(2, 2, 0.0, SPHERE, (40, 60))
        assert report.overall == VERIFIED
        assert report.multiplicities[0] == 2
        assert report.roots[0].real == pytest.approx(-jn_zeros(0, 1)[0] ** 2, rel=1e-6)

    def test_theorem_regime_configuration(self):
        report = stabilize(3, 4, 0.5, SPHERE, (30, 40, 50))
        assert report.overall == VERIFIED
        assert sum(report.stable) >= 1
        for r, s in zip(report.roots, report.stable):
            if s:
                assert abs(r.imag) <= 1e-6 * (1 + abs(r)) and r.real < 0

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            stabilize_series({40: [1.0, 1.0]})

    def test_gamma_sum_disclaimer(self):
        report = stabilize(1, 2, 0.0, SPHERE, (40, 60))
        assert "tail" in report.notes

    def test_rungs_share_density_moments(self, monkeypatch):
        # every rung's transform is a prefix of the top rung's, so a cleared
        # cache needs one quadrature per moment m_0 .. m_30, not 21 + 31
        calls = []
        quad = measures.integrate.quad

        def counted(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(measures.integrate, "quad", counted)
        measures._compiled.cache_clear()
        phi4 = RadialMeasure.density([1.0], [0.0, 1.0, 1.0], label="phi4")
        reports = stabilize_chain([2, 3], 2, 0.5, phi4, (20, 30))
        assert len(calls) == 31
        # verdicts and the stable root recorded before moments were shared
        assert reports[2].overall == VERIFIED and reports[3].overall == INCONCLUSIVE
        assert [z.real.hex() for z in reports[2].stable_roots()] == ["-0x1.17845d0ebd835p+4"]
        assert not any(reports[3].stable)


class TestSyntheticViolation:
    def test_stable_off_axis_pair_is_flagged(self):
        # genuine complex pair well beyond the wedge: (1 + z/(2-i))(1 + z/(2+i))
        quad = np.array([1.0, 4.0 / 5.0, 1.0 / 5.0])
        tail = np.convolve(quad, [1.0, 0.25])  # extra real-negative root
        series = {10: list(tail) + [0.0] * 7, 12: list(tail) + [0.0] * 9}
        report = stabilize_series(series)
        assert report.overall == VIOLATED
        off = [v for v, s in zip(report.verdicts, report.stable) if s]
        assert OFF_AXIS in off


class TestReconstruction:
    def test_partial_product_reproduces_low_coefficients(self):
        # surrogate with every root captured: phi = (1+z)^2 + 4J z + 2 J^2 D
        J, D = 0.5, 2
        coeffs = [1 + 2 * J**2 * D, 2 + 4 * J, 1.0]
        report = stabilize_series({10: coeffs + [0] * 8, 12: coeffs + [0] * 10})
        assert report.overall == VERIFIED and all(report.stable)
        rebuilt = report.reconstruct_coefficients(coeffs[0], count=3)
        for got, want in zip(rebuilt, coeffs):
            assert got == pytest.approx(want, rel=1e-4)


def test_report_serialization_round_trip_fields():
    report = stabilize(1, 2, 0.0, SPHERE, (30, 40))
    data = report.to_json()
    assert "roots" in data and "LeeYang" in report.overall
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("re_zeta")
