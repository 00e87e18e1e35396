"""Tests for the D = 1 quartic-well counterexample scan."""

import numpy as np
import pytest

from rotorzeros import laguerre, measures, zeros
from rotorzeros.laguerre import (
    counterexample_measure,
    counterexample_scan,
    violation_witnesses,
)
from rotorzeros.measures import laplace_transform, validate_measure
from rotorzeros.zeros import VIOLATED


def test_scan_reports_are_captured_through_laguerre():
    # bench/child.py finds the ladder whose reports it records for the scan
    # as laguerre.stabilize_series, so that name must stay the ladder's own
    assert laguerre.stabilize_series is zeros.stabilize_series


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

    def test_scan_validates_each_measure_once(self, monkeypatch):
        # both rungs' transforms read one cached validation of the well
        calls = []
        validate = measures.validate_measure

        def counted(measure):
            calls.append(measure)
            return validate(measure)

        monkeypatch.setattr(measures, "validate_measure", counted)
        measures._validated.cache_clear()
        measures._compiled.cache_clear()
        counterexample_scan(a_values=[2.0], ladder=(40, 60))
        assert calls == [counterexample_measure(2.0)]

    @pytest.mark.parametrize("a", [-5.0, 0.0, 2.0, 5.0])
    def test_rung_coefficients_are_a_prefix_of_the_top_rung(self, a):
        meas = counterexample_measure(a)
        low = laplace_transform(meas, 1, 40).float_coefficients()
        top = laplace_transform(meas, 1, 60).float_coefficients()
        assert np.array_equal(low, top[:41])
