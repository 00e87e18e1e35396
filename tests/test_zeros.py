"""Tests for root localization, classification, and the stability ladder."""

import numpy as np
import pytest
from scipy.special import jn_zeros

from rotorzeros import measures
from rotorzeros.measures import RadialMeasure, laplace_transform, validate_measure
from rotorzeros.recursion import phi_chain
from rotorzeros.zeros import (
    INCONCLUSIVE,
    NEGATIVE_REAL,
    OFF_AXIS,
    UNSTABLE,
    VERIFIED,
    VIOLATED,
    ZeroReport,
    find_roots,
    solved_rungs,
    stabilize_chain,
    stabilize_series,
    stable_coefficient_count,
)

SPHERE = RadialMeasure.sphere(1.0)


def gammas(report):
    """-1/Re zeta of the stable negative-real roots, with multiplicity, largest first."""
    found = [
        -1.0 / z.real
        for z, mult, verdict, stable in zip(report.roots, report.multiplicities, report.verdicts, report.stable)
        if stable and verdict == NEGATIVE_REAL
        for _ in range(mult)
    ]
    return sorted(found, reverse=True)


class TestFindRoots:
    def test_linear(self):
        assert find_roots([1, 1]).roots == (pytest.approx(-1),)

    def test_factored_quadratic(self):
        roots = sorted(find_roots([1, 3, 2]).roots, key=lambda z: z.real)
        assert roots[0] == pytest.approx(-1)
        assert roots[1] == pytest.approx(-0.5)

    def test_bessel_reduction(self):
        # the D=2 sphere transform vanishes exactly at -j_{0,k}^2
        v = laplace_transform(SPHERE, 2, 60)
        roots = find_roots(v.coefficients).roots
        targets = -jn_zeros(0, 3) ** 2
        for got, want in zip(roots[:3], targets):
            assert abs(got - want) / abs(want) < 1e-8

    def test_residual_bound_reported(self):
        v = laplace_transform(SPHERE, 2, 40)
        rs = find_roots(v.coefficients)
        assert all(rs.converged)
        assert all(res <= 1e-10 for res in rs.residuals)

    def test_scaling_invariance(self):
        v = laplace_transform(SPHERE, 2, 40)
        base = np.array(find_roots(v.coefficients[:21]).roots)
        # a power-of-two factor rescales without any rounding: bitwise equal
        exact = np.array(find_roots([2.0**19 * c for c in v.coefficients[:21]]).roots)
        assert np.array_equal(base, exact)
        # a general factor rounds each coefficient by half an ulp; the
        # well-conditioned (reliable-window) roots still stay put to 1e-12
        scaled = np.array(find_roots([3.7e5 * c for c in v.coefficients[:21]]).roots)
        d = np.abs(base - scaled) / (1 + np.abs(base))
        assert np.all(d[:3] <= 1e-12)

    def test_empty_for_constant(self):
        assert find_roots([2.0, 0.0, 0.0]).roots == ()

    def test_exact_root_at_zero_has_zero_residual(self):
        # p(0) = 0 and every |c_k 0^k| = 0: the residual is 0, not 0/0
        rs = find_roots([0.0, 0.0, 1.0, 3.0])
        assert rs.roots[:2] == (0j, 0j) and rs.roots[2] == pytest.approx(-1 / 3)
        assert all(rs.converged)
        assert rs.residuals[:2] == (0.0, 0.0)

    def test_non_finite_coefficient_raises(self):
        with pytest.raises(RuntimeError, match="degree 1 is not finite"):
            find_roots([1.0, float("nan"), 1.0])


class TestResidualGate:
    """Companion eigenvalues are not refined: a root off its residual bar is flagged."""

    @pytest.fixture
    def perturbed_seeds(self, monkeypatch):
        exact = np.roots

        def perturbed(p):
            return exact(p) * (1 + 1e-4)

        monkeypatch.setattr(np, "roots", perturbed)

    def test_find_roots_flags_perturbed_seeds(self, perturbed_seeds):
        # the low roots, which match -j_{0,k}^2, miss the 1e-10 bar by orders
        # of magnitude; ill-conditioned high roots may still pass it
        v = laplace_transform(SPHERE, 2, 40)
        rs = find_roots(v.coefficients)
        assert not any(rs.converged[:3])
        assert all(res > 1e-8 for res in rs.residuals[:3])

    def test_flagged_roots_are_unstable_and_inconclusive(self, perturbed_seeds):
        report = stabilize_chain([1], 2, 0.0, SPHERE, (40, 60))[1]
        assert report.roots and not any(report.stable)
        assert report.overall == INCONCLUSIVE


def padded(roots, M):
    """Ascending coefficients of prod (zeta - root), zero-padded to degree M."""
    coeffs = list(np.poly(roots)[::-1])
    return coeffs + [0.0] * (M + 1 - len(coeffs))


def ladder(roots, lower_roots=None):
    """The report on rungs 10 and 12 with these roots (the lower rung's default to the upper's)."""
    lower = roots if lower_roots is None else lower_roots
    return stabilize_series(padded(lower, 10), padded(roots, 12))


class TestClassify:
    """The overall rule, reached only through a ladder with a lower rung."""

    def test_negative_reals_verified(self):
        report = ladder([-1.0, -2.0])
        assert report.overall == VERIFIED
        assert gammas(report) == pytest.approx([1.0, 0.5])

    def test_off_axis_violates(self):
        report = ladder([complex(-1, 0.5), complex(-1, -0.5)])
        assert report.overall == VIOLATED
        assert report.verdicts == (OFF_AXIS, OFF_AXIS) and all(report.stable)

    def test_positive_real_root_violates(self):
        report = ladder([3.0])
        assert report.overall == VIOLATED and report.stable == (True,)

    def test_only_stable_roots_enter_verdict(self):
        # the off-axis pair of the upper rung has no partner in the lower one
        report = ladder([-1.0, complex(-2, 1.0), complex(-2, -1.0)], lower_roots=[-1.0, -10.0])
        assert report.overall == VERIFIED
        assert report.stable == (True, False, False)
        assert report.verdicts[1:] == (OFF_AXIS, OFF_AXIS)

    def test_negative_real_and_unstable_roots_inconclusive(self):
        # 1.5e-5 off the axis lies between the tol and 10 tol wedges of -3
        report = ladder([-1.0, complex(-3, 1.5e-5)])
        assert report.verdicts == (NEGATIVE_REAL, UNSTABLE) and all(report.stable)
        assert report.overall == INCONCLUSIVE

    def test_no_stable_roots_inconclusive(self):
        report = ladder([-1.0], lower_roots=[-2.0])
        assert report.stable == (False,)
        assert report.overall == INCONCLUSIVE


class TestStabilize:
    def test_bessel_ladder(self):
        report = stabilize_chain([1], 2, 0.0, SPHERE, (40, 60))[1]
        assert report.overall == VERIFIED
        targets = -jn_zeros(0, 3) ** 2
        stable_roots = report.stable_roots()
        assert len(stable_roots) >= 3
        for got, want in zip(stable_roots[:3], targets):
            assert abs(got - want) / abs(want) < 1e-8
        assert gammas(report)[0] == pytest.approx(1.0 / jn_zeros(0, 1)[0] ** 2, rel=1e-8)

    def test_squared_kernel_doubles_roots(self):
        report = stabilize_chain([2], 2, 0.0, SPHERE, (40, 60))[2]
        assert report.overall == VERIFIED
        assert report.multiplicities[0] == 2
        assert report.roots[0].real == pytest.approx(-jn_zeros(0, 1)[0] ** 2, rel=1e-6)

    def test_theorem_regime_configuration(self):
        report = stabilize_chain([3], 4, 0.5, SPHERE, (30, 40, 50))[3]
        assert report.overall == VERIFIED
        assert sum(report.stable) >= 1
        for r, s in zip(report.roots, report.stable):
            if s:
                assert abs(r.imag) <= 1e-6 * (1 + abs(r)) and r.real < 0

    def test_ladder_validation(self):
        with pytest.raises(ValueError, match="at least two stages"):
            stabilize_chain([1], 2, 0.5, SPHERE, (40, 40))

    def test_reporting_window(self):
        # at most min(M // 2, 30) roots of the degree-M upper rung are reported
        roots = [-(1.5**k) for k in range(40)]
        assert len(stabilize_series(padded(roots[:8], 10), padded(roots[:8], 13)).roots) == 6
        assert len(stabilize_series(padded(roots, 70), padded(roots, 80)).roots) == 30

    def test_only_the_solved_rungs_are_read(self):
        assert solved_rungs([50, 30, 40, 40]) == [40, 50]
        assert solved_rungs([30]) == [30]

    def test_underflowed_rungs_raise(self):
        # at r = 1e-300 the series is (pi, 7.85e-301, 0.0, ...), so both rungs
        # trim to degree 1 and the one root would be compared with itself
        with pytest.raises(RuntimeError, match=r"N=1: .* rung 6 reaches degree 1, not above rung 5's degree 1"):
            stabilize_chain([1, 3], 2, 0.5, RadialMeasure.sphere(1e-300), (5, 6))

    @pytest.mark.parametrize("D", [2, 4, 6])
    def test_certified_density_verified(self, D):
        # phi^4-type density: in the certified family for every dimension
        phi4 = RadialMeasure.density([1.0], [0.0, 1.0, 1.0], label="phi4")
        assert validate_measure(phi4).certified_lee_yang
        report = stabilize_chain([1], D, 0.0, phi4, [40, 44])[1]
        assert report.overall == VERIFIED
        assert sum(report.stable) == {2: 4, 4: 3, 6: 2}[D]

    def test_stable_coefficient_count(self):
        low = phi_chain([3], 2, 0.5, SPHERE, 30)[3]
        high = phi_chain([3], 2, 0.5, SPHERE, 40)[3]
        k = stable_coefficient_count(low, high)
        assert k >= 20
        assert stable_coefficient_count(high, high) == 41

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
        report = stabilize_series(list(tail) + [0.0] * 7, list(tail) + [0.0] * 9)
        assert report.overall == VIOLATED
        off = [v for v, s in zip(report.verdicts, report.stable) if s]
        assert OFF_AXIS in off


class TestReconstruction:
    def test_partial_product_reproduces_low_coefficients(self):
        # surrogate with every root captured: phi = (1+z)^2 + 4J z + 2 J^2 D
        J, D = 0.5, 2
        coeffs = [1 + 2 * J**2 * D, 2 + 4 * J, 1.0]
        report = stabilize_series(coeffs + [0] * 8, coeffs + [0] * 10)
        assert report.overall == VERIFIED and all(report.stable)
        # Z(0) * prod (1 + gamma zeta) over the reported gammas
        rebuilt = [coeffs[0]]
        for g in gammas(report):
            rebuilt = np.convolve(rebuilt, [1.0, g])
        for got, want in zip(rebuilt, coeffs):
            assert got == pytest.approx(want, rel=1e-4)


def test_report_serialization_round_trip_fields():
    report = stabilize_chain([1], 2, 0.0, SPHERE, (30, 40))[1]
    assert "LeeYang" in report.overall
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("re_zeta")
