"""Tests for the sparse truncated polynomial algebra and Gram operators."""

from fractions import Fraction

import numpy as np
import pytest

from rotorzeros.polys import (
    FLOAT,
    GRAM_VARS,
    PAIR_VARS,
    RATIONAL,
    FieldMismatchError,
    TruncatedPoly,
    VariableMismatchError,
    apply_operator,
    diagonal_series,
    delta_operator,
    exp_operator,
    merge_2_3,
)

from random_polys import random_poly


def poly(terms, variables=PAIR_VARS, cap=10, field=RATIONAL):
    return TruncatedPoly(
        variables,
        {e: Fraction(c) if field == RATIONAL else float(c) for e, c in terms.items()},
        cap,
        field,
    )


def mono(e, variables=PAIR_VARS, cap=10):
    return poly({e: 1}, variables, cap)


class TestArithmetic:
    def test_product_distributes(self):
        one_plus_z1 = poly({(0, 0, 0): 1, (1, 0, 0): 1})
        one_plus_z2 = poly({(0, 0, 0): 1, (0, 1, 0): 1})
        got = one_plus_z1 * one_plus_z2
        assert got == poly({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1})

    def test_cancellation_removes_entry(self):
        got = poly({(1, 0, 0): 1, (0, 1, 0): 1}) + poly({(0, 1, 0): -1})
        assert got.terms == {(1, 0, 0): Fraction(1)}

    def test_degree_cap_truncates_products(self):
        z1sq = poly({(2, 0, 0): 1}, cap=3)
        z2sq = poly({(0, 2, 0): 1}, cap=3)
        assert (z1sq * z2sq).is_zero()

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError):
            poly({(0, 0, 0): 1}) + poly({(0, 0, 0): 1}, field=FLOAT)

    def test_variable_mismatch_rejected(self):
        with pytest.raises(VariableMismatchError):
            poly({(0, 0, 0): 1}) + poly({(0,) * 6: 1}, variables=GRAM_VARS)

    def test_float_scalar_rejected_in_rational_field(self):
        with pytest.raises(FieldMismatchError):
            poly({(0, 0, 0): 1}).scale(0.5)


class TestEvaluate:
    def test_simple_root(self):
        p = poly({(0, 0, 0): 1, (1, 0, 0): 1})
        assert p.evaluate({"g11": -1, "g22": 0, "g12": 0}) == 0

    def test_mixed_terms(self):
        p = poly({(1, 1, 0): 1, (0, 0, 1): 4})
        assert p.evaluate({"g11": 1, "g22": 1, "g12": 1}) == 5

    def test_exp_operator_output_point(self):
        op = delta_operator(2, 2)
        p = exp_operator(Fraction(1, 2), op, mono((0, 0, 1)))
        assert p.evaluate({"g11": 3, "g22": -7, "g12": 0}) == 1  # J*D = 1


class TestApplyOperator:
    def test_delta2_on_g12_gives_dimension(self):
        for D in (1, 2, 5):
            got = apply_operator(delta_operator(2, D), mono((0, 0, 1)))
            assert got == poly({(0, 0, 0): D})

    def test_delta2_on_g11_g22(self):
        got = apply_operator(delta_operator(2, 3), mono((1, 1, 0)))
        assert got == poly({(0, 0, 1): 4})

    def test_delta2_on_g12_squared(self):
        for D in (2, 4):
            got = apply_operator(delta_operator(2, D), mono((0, 0, 2)))
            assert got == poly({(0, 0, 1): 2 * D + 2})

    def test_degree_drops_by_at_least_one(self):
        rng = np.random.default_rng(3)
        op = delta_operator(3, 4)
        for _ in range(25):
            p = random_poly(GRAM_VARS, 6, rng, n_terms=10)
            q = apply_operator(op, p)
            if not q.is_zero():
                assert q.degree() <= p.degree() - 1

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        op = delta_operator(2, 4)
        for _ in range(25):
            p = random_poly(PAIR_VARS, 6, rng, n_terms=8)
            q = random_poly(PAIR_VARS, 6, rng, n_terms=8)
            a, b = Fraction(3, 7), Fraction(-2, 5)
            left = apply_operator(op, p.scale(a) + q.scale(b))
            right = apply_operator(op, p).scale(a) + apply_operator(op, q).scale(b)
            assert left == right


class TestExpOperator:
    def test_constant_annihilated(self):
        op = delta_operator(2, 2)
        one = poly({(0, 0, 0): 1})
        assert exp_operator(Fraction(7), op, one) == one

    def test_g12_picks_up_jd(self):
        J, D = Fraction(3, 2), 5
        got = exp_operator(J, delta_operator(2, D), mono((0, 0, 1)))
        assert got == poly({(0, 0, 1): 1, (0, 0, 0): J * D})

    def test_g11_g22_three_term_expansion(self):
        J, D = Fraction(1, 3), 4
        got = exp_operator(J, delta_operator(2, D), mono((1, 1, 0)))
        expected = poly({(1, 1, 0): 1, (0, 0, 1): 4 * J, (0, 0, 0): 2 * J**2 * D})
        assert got == expected

    def test_zero_coupling_is_identity(self):
        rng = np.random.default_rng(11)
        p = random_poly(PAIR_VARS, 5, rng)
        assert exp_operator(Fraction(0), delta_operator(2, 2), p) == p

    def test_never_raises_degree(self):
        rng = np.random.default_rng(13)
        op = delta_operator(3, 2)
        for _ in range(10):
            p = random_poly(GRAM_VARS, 5, rng, n_terms=8)
            q = exp_operator(Fraction(2, 3), op, p)
            assert q.degree() <= p.degree()


class TestMerge:
    def test_g33_g13(self):
        got = merge_2_3(mono((0, 0, 1, 0, 1, 0), GRAM_VARS))
        assert got == mono((0, 1, 1))

    def test_g23_squared(self):
        got = merge_2_3(mono((0, 0, 0, 0, 0, 2), GRAM_VARS))
        assert got == mono((0, 2, 0))

    def test_triple_product(self):
        got = merge_2_3(mono((1, 1, 1, 0, 0, 0), GRAM_VARS))
        assert got == mono((1, 2, 0))

    def test_collects_like_terms(self):
        p = poly({(0, 0, 1, 0, 0, 0): 2, (0, 0, 0, 0, 0, 1): 3}, GRAM_VARS)
        assert merge_2_3(p) == poly({(0, 1, 0): 5})


class TestCommutation:
    """partial_1 after Delta_{k,D-2} equals Delta_{k,D} after partial_1."""

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("D", [4, 6, 8])
    def test_exact_on_random_rationals(self, arity, D):
        rng = np.random.default_rng(100 * arity + D)
        variables = PAIR_VARS if arity == 2 else GRAM_VARS
        lower = delta_operator(arity, D - 2)
        upper = delta_operator(arity, D)
        for _ in range(20):
            p = random_poly(variables, 8, rng, n_terms=14)
            left = apply_operator(lower, p).derivative("g11")
            right = apply_operator(upper, p.derivative("g11"))
            assert left == right


def test_diagonal_series_sums_matching_degrees():
    p = poly({(1, 0, 0): 2, (0, 1, 0): 3, (0, 0, 1): 4, (2, 1, 0): 1})
    assert diagonal_series(p) == [0, 9, 0, 1]
