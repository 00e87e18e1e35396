"""Tests for Laguerre-class evidence and the quartic-well scan."""

import numpy as np
import pytest

from rotorzeros import measures
from rotorzeros.laguerre import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    counterexample_measure,
    counterexample_scan,
    laguerre_evidence,
    violation_witnesses,
)
from rotorzeros.measures import RadialMeasure, laplace_transform, validate_measure
from rotorzeros.zeros import VIOLATED, find_roots

SPHERE = RadialMeasure.sphere(1.0)


class TestEvidence:
    def test_cubed_binomial_passes_to_depth_two(self):
        # (1 + z)^3: derivatives stay real-rooted at -1
        ev = laguerre_evidence([1, 3, 3, 1, 0, 0], window=3, depth=2)
        assert ev.overall == PASS

    def test_kernel_truncation_passes_depth_one(self):
        v = laplace_transform(SPHERE, 2, 44)
        ev = laguerre_evidence(v.coefficients, window=20, depth=1)
        assert ev.overall == PASS

    def test_kernel_depth_two_covers_two_dimension_lifts(self):
        # differentiating twice probes the D+2 and D+4 transforms
        v = laplace_transform(SPHERE, 2, 46)
        ev = laguerre_evidence(v.coefficients, window=20, depth=2)
        assert ev.overall == PASS
        assert len(ev.checks) == 6

    def test_derivative_roots_transfer_to_next_dimension(self):
        # d/dzeta of the D kernel is the D+2 kernel over 4: stable roots match
        v2 = laplace_transform(SPHERE, 2, 51)
        v4 = laplace_transform(SPHERE, 4, 50)
        dr = find_roots([c * n for n, c in enumerate(v2.coefficients)][1:], 50).roots
        ur = find_roots(v4.coefficients, 50).roots
        for a, b in zip(dr[:4], ur[:4]):
            assert abs(a - b) <= 1e-8 * (1 + abs(b))

    def test_complex_pair_fails_at_order_zero(self):
        ev = laguerre_evidence([1, 1, 2, 0, 0], window=2, depth=0)
        assert dict(ev.checks)["roots-negative-real[0]"] == FAIL
        assert ev.overall == FAIL

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            laguerre_evidence([1, 1], window=3, depth=1)

    @pytest.mark.parametrize("D", [2, 4, 6])
    def test_certified_family_evidence(self, D):
        # phi^4-type density: in the certified family for every dimension;
        # its first zero sits near -27, so the window must reach past it
        meas = RadialMeasure.density([1.0], [0.0, 1.0, 1.0], label="phi4")
        assert validate_measure(meas).certified_lee_yang
        v = laplace_transform(meas, D, 44)
        ev = laguerre_evidence(v.coefficients, window=20, depth=0)
        assert ev.overall == PASS


class TestTrustRule:
    """Which roots of a truncation the evidence judges, and how."""

    @pytest.fixture
    def smallest_root_perturbed(self, monkeypatch):
        # moves only the smallest-modulus root 1e-4 off, relative: it still
        # matches across rungs but misses its residual bar
        exact = np.roots

        def perturbed(p):
            roots = exact(p)
            roots[np.argmin(np.abs(roots))] *= 1 + 1e-4
            return roots

        monkeypatch.setattr(np, "roots", perturbed)

    def test_well_off_axis_pair_fails_at_the_trust_drift(self):
        # the ladder's own 1e-8 drift bar says inconclusive here
        v = laplace_transform(counterexample_measure(2.0), 1, 60)
        ev = laguerre_evidence(v.float_coefficients(), window=16)
        assert dict(ev.checks)["roots-negative-real[0]"] == FAIL

    def test_complete_polynomial_judges_every_root(self):
        # the off-axis pair lies past the first default_window(10) = 5 clusters
        roots = [-1, -2, -3, -4, -5, -6, -8 + 3j, -8 - 3j]
        coeffs = np.polynomial.polynomial.polyfromroots(roots).real.tolist() + [0.0] * 4
        ev = laguerre_evidence(coeffs, window=10)
        assert dict(ev.checks)["roots-negative-real[0]"] == FAIL

    def test_constant_passes(self):
        assert laguerre_evidence([3.0, 0.0, 0.0], window=2).overall == PASS

    def test_window_below_two_rejected(self):
        # a degree-1 truncation has no lower rung to be matched against
        with pytest.raises(ValueError):
            laguerre_evidence([1.0, 1.0, 1.0], window=1)

    @pytest.mark.parametrize(
        "coeffs, window",
        [
            (laplace_transform(SPHERE, 2, 44).coefficients, 20),
            ([6.0, 11.0, 6.0, 1.0, 0.0], 3),  # (1 + zeta)(2 + zeta)(3 + zeta)
        ],
        ids=["sphere-truncation", "complete-cubic"],
    )
    def test_flagged_root_is_inconclusive(self, smallest_root_perturbed, coeffs, window):
        ev = laguerre_evidence(coeffs, window=window)
        assert dict(ev.checks)["roots-negative-real[0]"] == INCONCLUSIVE


class TestCounterexample:
    def test_measure_is_valid_but_uncertified(self):
        report = validate_measure(counterexample_measure(2.0))
        assert report.passed and not report.certified_lee_yang

    def test_single_point_violation(self):
        scan = counterexample_scan(a_values=[2.0], ladder=(40, 60))
        assert scan[0]["overall"] == VIOLATED
        assert scan[0]["off_axis_roots"]

    def test_scan_reports_negative_and_clean_points(self):
        scan = counterexample_scan(a_values=[-3.0, 2.0], ladder=(40, 60))
        by_a = {row["a"]: row for row in scan}
        assert by_a[2.0]["overall"] == VIOLATED
        assert by_a[-3.0]["overall"] != VIOLATED
        assert violation_witnesses(scan) == [by_a[2.0]]

    def test_scan_computes_each_moment_once(self, monkeypatch):
        # the rung-40 transform reads the moments the compiled profile kept,
        # so from a cleared cache one a at ladder (40, 60) needs one
        # quadrature for each of 61 moments, not 41 + 61
        calls = []
        quad = measures.integrate.quad

        def counted(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(measures.integrate, "quad", counted)
        measures._compiled.cache_clear()
        counterexample_scan(a_values=[2.0], ladder=(40, 60))
        assert len(calls) == 61

    @pytest.mark.parametrize("a", [-5.0, 0.0, 2.0, 5.0])
    def test_rung_coefficients_are_a_prefix_of_the_top_rung(self, a):
        meas = counterexample_measure(a)
        low = laplace_transform(meas, 1, 40).float_coefficients()
        top = laplace_transform(meas, 1, 60).float_coefficients()
        assert np.array_equal(low, top[:41])
