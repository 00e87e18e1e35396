"""Tests for the transfer recursion: operators, psi builders, the fast step."""

import hashlib
import inspect
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rotorzeros import recursion
from rotorzeros.measures import LaplaceSeries, RadialMeasure, laplace_transform
from rotorzeros.oracles import z_direct_circle
from rotorzeros.polys import (
    FLOAT,
    GRAM_VARS,
    PAIR_VARS,
    RATIONAL,
    TruncatedPoly,
    apply_operator,
    delta_operator,
    diagonal_series,
    exp_operator,
    psi_step,
    psi_two,
)
from rotorzeros.recursion import phi_chain, phi_from_transform, psi_kernel

from random_polys import random_poly

SPHERE = RadialMeasure.sphere(1.0)


def surrogate(coeffs, D, field=RATIONAL, pad_to=None):
    coeffs = list(coeffs)
    if pad_to is not None:
        coeffs += [Fraction(0) if field == RATIONAL else 0.0] * (pad_to + 1 - len(coeffs))
    return LaplaceSeries(tuple(coeffs), D, len(coeffs) - 1, "surrogate", field)


def cubic_sphere_kernel(D):
    """The first four coefficients of the D-sphere transform, padded to cap 12."""
    full = laplace_transform(SPHERE, D, 12)
    return LaplaceSeries(tuple(full.coefficients[:4]) + (0.0,) * 9, D, 12, "cubic kernel", FLOAT)


def rational_univariate(coeffs, var, cap):
    return TruncatedPoly.from_univariate(coeffs, var, PAIR_VARS, cap, RATIONAL)


def operator_kernel(v, N, J):
    """Psi_N by the operator construction: psi_two, then N - 2 psi_steps."""
    psi = psi_two(v, v, J)
    for _ in range(N - 2):
        psi = psi_step(v, psi, J)
    return psi


class TestDeltaOperator:
    def test_arity2_constant_term_is_dimension(self):
        p = TruncatedPoly.monomial((0, 0, 1), 1, PAIR_VARS, 4, RATIONAL)
        got = apply_operator(delta_operator(2, 2), p)
        assert got == TruncatedPoly.constant(2, PAIR_VARS, 4, RATIONAL)

    def test_arity3_pure_cross_term(self):
        # g13 * g23 maps exactly to g33 (the g33 d13 d23 term)
        p = TruncatedPoly.monomial((0, 0, 0, 0, 1, 1), 1, GRAM_VARS, 4, RATIONAL)
        got = apply_operator(delta_operator(3, 7), p)
        assert got == TruncatedPoly.monomial((0, 0, 1, 0, 0, 0), 1, GRAM_VARS, 4, RATIONAL)

    def test_arity3_kills_constants(self):
        one = TruncatedPoly.constant(1, GRAM_VARS, 4, RATIONAL)
        assert apply_operator(delta_operator(3, 5), one).is_zero()

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            delta_operator(4, 2)


class TestPsiTwo:
    @pytest.mark.parametrize("gam,J,D", [(1, Fraction(1), 2), (2, Fraction(1, 2), 4)])
    def test_closed_form_linear_surrogate(self, gam, J, D):
        v = surrogate([1, gam], D, pad_to=2)
        got = diagonal_series(psi_two(v, v, J))
        expected = [
            Fraction(1) + 2 * J**2 * D * gam**2,
            2 * gam + 4 * J * gam**2,
            Fraction(gam**2),
        ]
        assert got == expected

    def test_zero_coupling_factorizes(self):
        v1 = surrogate([1, 2, 3], 2, pad_to=6)
        v2 = surrogate([2, 0, 5], 2, pad_to=6)
        got = psi_two(v1, v2, Fraction(0))
        expected = rational_univariate(v1.coefficients, "g11", 6) * rational_univariate(
            v2.coefficients, "g22", 6
        )
        assert got == expected

    def test_constant_transform_fixed_point(self):
        v = surrogate([1], 2, pad_to=4)
        got = psi_two(v, v, Fraction(5))
        assert got == TruncatedPoly.constant(1, PAIR_VARS, 4, RATIONAL)

    def test_swap_symmetry(self):
        v = surrogate([3, 1, 4, 1, 5], 4, pad_to=10)
        p = psi_two(v, v, Fraction(2, 3))
        assert p.terms == {(b, a, c): x for (a, b, c), x in p.terms.items()}


class TestPsiStep:
    def test_zero_coupling_decouples(self):
        rng = np.random.default_rng(23)
        prev = random_poly(PAIR_VARS, 5, rng, n_terms=8, cap=8)
        v = surrogate([2, 1, 1], 2, pad_to=8)
        got = psi_step(v, prev, Fraction(0))
        diag = diagonal_series(prev)  # prev at (g22, g22, g22)
        expected = rational_univariate(v.coefficients, "g11", 8) * rational_univariate(
            diag, "g22", 8
        )
        assert got == expected

    def test_bare_g23_survives_unchanged(self):
        # every operator term annihilates the lone cross monomial
        prev = TruncatedPoly.monomial((0, 0, 1), 1, PAIR_VARS, 5, RATIONAL)
        v = surrogate([1], 2, pad_to=5)
        for J in (Fraction(0), Fraction(2), Fraction(7, 3)):
            got = psi_step(v, prev, J)
            assert got == TruncatedPoly.monomial((0, 1, 0), 1, PAIR_VARS, 5, RATIONAL)

    def test_chain_consistency_against_oracle(self):
        M = 12
        v = laplace_transform(SPHERE, 2, M)
        p3 = psi_step(v, psi_two(v, v, 0.5), 0.5)
        val = np.polynomial.polynomial.polyval(
            -0.49, np.array(diagonal_series(p3), float)
        )
        oracle = z_direct_circle(3, 0.5, 1.0, 0.7, 512)
        assert abs(val - oracle) / abs(oracle) < 1e-6


class TestEngineEquivalence:
    """The fast step reproduces the operator construction exactly."""

    @pytest.mark.parametrize(
        "D,deg_v,N,J",
        [
            pytest.param(2, 3, 4, None, id="2-3-4"),
            pytest.param(3, 3, 4, None, id="3-3-4"),
            pytest.param(5, 3, 4, None, id="5-3-4"),
            pytest.param(3, 2, 5, None, id="3-2-5"),
            # a negative coupling and an integer one, beside the random
            # positive sevenths: the exact step scales by J's numerator and
            # denominator separately
            pytest.param(4, 3, 4, Fraction(-7, 3), id="4-3-4-J=-7/3"),
            pytest.param(2, 2, 5, Fraction(5), id="2-2-5-J=5"),
        ],
    )
    def test_exact_match_without_truncation_pressure(self, D, deg_v, N, J):
        rng = np.random.default_rng(29 + D + N)
        M = deg_v * N
        coeffs = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))) for _ in range(deg_v + 1)]
        v = surrogate(coeffs, D, pad_to=M)
        if J is None:
            J = Fraction(int(rng.integers(1, 6)), 7)
        op = diagonal_series(operator_kernel(v, N, J))
        fast = phi_from_transform(v, [N], J)[N]
        assert op == list(fast.coefficients)

    def test_float_engines_agree_near_machine(self):
        # a degree-3 kernel with cap 12 leaves no truncation pressure at N=3,
        # so the two truncation schemes coincide up to rounding
        v = cubic_sphere_kernel(2)
        op = diagonal_series(operator_kernel(v, 3, 0.5))
        fast = phi_from_transform(v, [3], 0.5)[3].coefficients
        assert np.allclose(op, fast[: len(op)], rtol=1e-12, atol=1e-300)
        assert not any(fast[len(op) :])

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("J", [0.5, -0.7])
    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_float_kernel_matches_term_by_term(self, D, J, N):
        # a coefficient in the wrong slot leaves the diagonal sums unchanged
        v = cubic_sphere_kernel(D)
        op, fast = operator_kernel(v, N, J), psi_kernel(v, N, J)
        assert sorted(fast.terms) == sorted(op.terms)
        for key, c in op.terms.items():
            assert abs(fast.terms[key] - c) < 1e-12 * abs(c)

    def test_full_kernel_tensors_match(self):
        # slot-sensitive: diagonal sums are blind to exponent swaps between
        # the three coordinates, so compare the kernels term by term
        rng = np.random.default_rng(41)
        coeffs = [Fraction(int(rng.integers(1, 7)), 3) for _ in range(4)]
        # cap 12 = 3 N at N = 4, so neither construction truncates
        v = surrogate(coeffs, 4, pad_to=12)
        for J in (Fraction(3, 7), Fraction(-7, 3), Fraction(5), Fraction(0)):
            for N in (2, 3, 4):
                op = operator_kernel(v, N, J)
                fast = psi_kernel(v, N, J)
                assert op == fast
                assert all(type(c) is Fraction for c in fast.terms.values())

    @pytest.mark.parametrize("J", [Fraction(1, 2), Fraction(-7, 3), Fraction(0)])
    def test_exact_kernels_leave_the_chain_in_lowest_terms(self, J):
        # Psi_N travels between steps as integer rows over one denominator,
        # which must be the least common one: no factor common to all.  The
        # chain yields kernels from N = 2 on (N = 1 has none)
        coeffs = [Fraction(6, 5), Fraction(4, 9), Fraction(0), Fraction(2, 7)]
        v = surrogate(coeffs, 4, pad_to=8)
        for (Pn, dP), _ in itertools.islice(recursion._chain(v, J), 1, 5):
            numerators = [x for plane in Pn for row in plane for x in row]
            assert dP > 0 and math.gcd(dP, *numerators) == 1

    def test_exact_chain_coefficients_pinned(self):
        # sha256 of str() of the N = 2, 3, 4 coefficients, recorded before
        # the exact step carried its kernel in integers
        chain = phi_chain([2, 3, 4], 4, Fraction(1, 2), RadialMeasure.sphere(1), 20, RATIONAL)
        text = str([chain[N].coefficients for N in (2, 3, 4)])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "ed50a3b980df37ac725d149118eccbda7c4e6c6971531a39347f656bfeec8d74"
        assert all(type(c) is Fraction for N in (2, 3, 4) for c in chain[N].coefficients)

    def test_truncated_kernels_agree_on_stabilized_window(self):
        # with a genuinely truncated kernel the two schemes differ in the
        # tail but their ladder-stable low coefficients coincide
        v12 = laplace_transform(SPHERE, 2, 12)
        v16 = laplace_transform(SPHERE, 2, 16)
        op = diagonal_series(operator_kernel(v16, 3, 0.5))
        fast = phi_from_transform(v12, [3], 0.5)[3].coefficients
        assert np.allclose(op[:6], fast[:6], rtol=1e-10)


class TestDimensionCheck:
    """The chain reads D from its transform and checks it once, for both
    fields and every J."""

    @staticmethod
    def transform(field, D):
        one = Fraction(1) if field == RATIONAL else 1.0
        return surrogate([one, one / 2, one / 3], D, field), (0 * one, one / 2)

    @pytest.mark.parametrize("D", [0, -2, 2.5, Fraction(5, 2)], ids=str)
    @pytest.mark.parametrize("field", [FLOAT, RATIONAL])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, field, D):
        v, couplings = self.transform(field, D)
        for J in couplings:
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                phi_from_transform(v, [2], J)
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                psi_kernel(v, 2, J)
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                psi_two(v, v, J)

    @pytest.mark.parametrize("field", [FLOAT, RATIONAL])
    def test_integral_dimension_runs_as_an_int(self, field):
        v, couplings = self.transform(field, Fraction(4))
        for J in couplings:
            series = phi_from_transform(v, [2], J)[2]
            assert series == phi_from_transform(self.transform(field, 4)[0], [2], J)[2]
            assert type(series.dimension) is int

    @pytest.mark.parametrize("fn", [phi_from_transform, psi_kernel, psi_two, psi_step])
    def test_no_dimension_parameter(self, fn):
        assert "D" not in inspect.signature(fn).parameters

    def test_chain_carries_its_transforms_dimension(self):
        v = laplace_transform(SPHERE, 2, 8)
        series = phi_from_transform(v, [2], 0.5)[2]
        assert series.dimension == 2
        assert series == phi_chain([2], 2, 0.5, SPHERE, 8)[2]

    def test_psi_two_rejects_transforms_of_two_dimensions(self):
        v2, v4 = laplace_transform(SPHERE, 2, 6), laplace_transform(SPHERE, 4, 6)
        with pytest.raises(ValueError, match="different dimensions"):
            psi_two(v2, v4, 0.5)

    @pytest.mark.parametrize("field,kind", [(FLOAT, float), (RATIONAL, Fraction)])
    def test_chain_coefficients_have_the_transforms_type(self, field, kind):
        v = laplace_transform(SPHERE, 2, 10, field)
        chain = phi_from_transform(v, [1, 2, 3], kind(1) / 2)
        assert all(type(c) is kind for series in chain.values() for c in series.coefficients)


class TestFloatStepPinned:
    """The float step's output bits, recorded before its vectorisation.

    Each hash covers every nonzero of Psi_N as float.hex(), so a 1-ulp
    change in any kernel coefficient (from reordering a sum, say) fails.
    """

    PINS = {
        (2, 2, 0.0): "e240bbb8c1748d92db4df05197d42908",
        (2, 2, 0.2): "17d3f96a10dd1db1427fe7ccd5bcb9e0",
        (2, 2, 1.0): "80238f443195f5cf845e99d033352047",
        (2, 4, 0.0): "ca994966eb0292ce1d87d57d3acd503b",
        (2, 4, 0.2): "a440a2c9141f7fef99d11dde41361918",
        (2, 4, 1.0): "8f855775c95bb818d02696074a3f304b",
        (3, 2, 0.0): "3db8e443164ce51584fd3185088856a7",
        (3, 2, 0.2): "cec5db352ecd80cb02a9d8e4dc63c63d",
        (3, 2, 1.0): "881b10ab80f595fc7be0b3d236007c00",
        (3, 4, 0.0): "81e48fc2c8627c776c8bc7293c679eeb",
        (3, 4, 0.2): "3755c2de922ecf5eee264214cc70654b",
        (3, 4, 1.0): "3762b7e5efedc0e42e781d42fa8d507d",
        (5, 2, 0.0): "f0d2bf1a753665f7c652c70b110344e6",
        (5, 2, 0.2): "2e40b8a49c253295ce947698dd19b0f1",
        (5, 2, 1.0): "b03c3c2e0808a2603dc3031d62f11739",
        (5, 4, 0.0): "e9cde9b65cd38f1a07c596f7a71f6304",
        (5, 4, 0.2): "9872785259d7ae95788217d50cc9e371",
        (5, 4, 1.0): "dbb22f9a96801a03cbbaeddbf72be113",
    }

    # odd D with a negative coupling, and the certified phi^4 density, at
    # M = 20 and N = 3: cases the verify grid does not cover
    WIDE_PINS = {
        ("sphere", 1, -0.7): "2975b7907eac98199a5cc698ad5229c1",
        ("sphere", 3, -0.7): "2dbe5c275dc1e84a027338cd8fb05cea",
        ("phi4", 2, 0.5): "6bbb42181e64021ab3cc8a52396cc68e",
    }

    # the top rung of the verify grid, M = 50, at N = 3: the step's slab
    # update there crosses the most row blocks
    TOP_RUNG_PINS = {
        (4, 1.0): "fef5454f5c1ff70536febc8e82e33c8e",
        (3, -0.7): "0f0f30bec507895b2569cb9f9f4c4ca9",
    }

    @staticmethod
    def digest(psi):
        h = hashlib.sha256()
        for key in sorted(psi.terms):
            h.update(f"{key}:{psi.terms[key].hex()}\n".encode())
        return h.hexdigest()[:32]

    @staticmethod
    def wide_kernel(kind, D, J):
        measure = SPHERE if kind == "sphere" else RadialMeasure.density([1], [0, 1, 0.5])
        return psi_kernel(laplace_transform(measure, D, 20), 3, J)

    @pytest.mark.parametrize("N,D,J", sorted(PINS))
    def test_kernel_bits(self, N, D, J):
        v = laplace_transform(SPHERE, D, 30)
        assert self.digest(psi_kernel(v, N, J)) == self.PINS[(N, D, J)]

    @pytest.mark.parametrize("kind,D,J", sorted(WIDE_PINS))
    def test_wide_kernel_bits(self, kind, D, J):
        assert self.digest(self.wide_kernel(kind, D, J)) == self.WIDE_PINS[(kind, D, J)]

    @pytest.mark.parametrize("D,J", sorted(TOP_RUNG_PINS))
    def test_top_rung_kernel_bits(self, D, J):
        v = laplace_transform(SPHERE, D, 50)
        assert self.digest(psi_kernel(v, 3, J)) == self.TOP_RUNG_PINS[(D, J)]

    @pytest.mark.parametrize("kind,D,J", sorted(WIDE_PINS))
    def test_kernel_has_no_term_past_the_cap(self, kind, D, J):
        psi = self.wide_kernel(kind, D, J)
        assert psi.terms and max(sum(key) for key in psi.terms) <= 20


def test_step_caches_stay_small():
    # the weight tables and the past-degree mask share one cache per degree
    # cap; caps of 30, 40 and 50 together must stay under 4 MB
    recursion._step_tables.cache_clear()
    for M in (30, 40, 50):
        phi_chain([3], 4, 1.0, SPHERE, M)
    assert recursion._step_tables.cache_info().currsize == 3
    held = [recursion._step_tables(M) for M in (30, 40, 50)]
    assert recursion._step_tables.cache_info().currsize == 3
    assert sum(arr.nbytes for tables in held for arr in tables) < 4 * 2**20


def test_float_step_working_set():
    # one M = 50 step, caches warm: its temporaries are a few 1 MB dense
    # tensors, with no index tensors of that size beside them and no
    # (M+1)^3 table of the lifts (vq is formed one p at a time)
    M = 50
    v = laplace_transform(SPHERE, 4, M).float_coefficients()
    P = np.zeros((M + 1, M + 1, M + 1))
    P[:, 0, 0] = v
    P = recursion._advance_float(v, P, 1.0, 4, M)
    tracemalloc.start()
    try:
        recursion._advance_float(v, P, 1.0, 4, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


class TestPhi:
    def test_single_spin_is_transform(self):
        series = phi_chain([1], 2, 0.7, SPHERE, 20)[1]
        v = laplace_transform(SPHERE, 2, 20)
        assert np.allclose(series.coefficients, v.coefficients, rtol=0)

    @pytest.mark.parametrize("field", [FLOAT, RATIONAL])
    def test_single_spin_builds_no_kernel(self, field):
        # the dense seed Psi_1 = v(g11), (M+1)^3 entries, is built only
        # when a step follows; a one-spin chain takes no step
        M = 60
        v = laplace_transform(RadialMeasure.sphere(1), 2, M, field)
        tracemalloc.start()
        try:
            kernel, diag = next(recursion._chain(v, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel is None and diag == v.coefficients
        assert peak < 2**20  # the float seed alone is (M+1)^3 * 8 bytes = 1.8 MB

    @pytest.mark.parametrize("J, k", [(1e200, 2), (-1e150, 3)])
    def test_coupling_power_overflow_names_j_and_k(self, J, k):
        with pytest.raises(OverflowError, match=re.escape(f"coupling power J^{k} overflows at J={J:g}")):
            phi_chain([2], 2, J, SPHERE, 10)

    @pytest.mark.parametrize("D", [2, 4])
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_zero_coupling_power_exact_rational(self, D, N):
        M = 25
        series = phi_chain([N], D, Fraction(0), SPHERE, M, field=RATIONAL)[N]
        v = laplace_transform(SPHERE, D, M, RATIONAL)
        power = [Fraction(1)]
        for _ in range(N):
            power = [
                sum(power[i] * v.coefficients[n - i] for i in range(max(0, n - M), min(len(power), n + 1)))
                for n in range(min(len(power) + M, M + 1))
            ]
        assert list(series.coefficients) == power
        assert series.pi_power == Fraction(N * D, 2)

    def test_zero_coupling_power_float(self):
        M, N, D = 30, 4, 2
        series = phi_chain([N], D, 0.0, SPHERE, M)[N]
        v = laplace_transform(SPHERE, D, M).float_coefficients()
        power = np.array([1.0])
        for _ in range(N):
            power = np.convolve(power, v)[: M + 1]
        assert np.allclose(series.float_coefficients(), power, rtol=1e-12)

    def test_coefficients_nonnegative(self):
        gauss = RadialMeasure.density([1.0], [0.0, 0.0, 1.0])
        for measure, D in ((SPHERE, 2), (SPHERE, 4), (gauss, 2)):
            series = phi_chain([3], D, 0.8, measure, 30)[3]
            assert np.all(series.float_coefficients() >= 0)

    @pytest.mark.parametrize(
        "field,J", [(FLOAT, 0.3), (RATIONAL, Fraction(3, 10))], ids=[FLOAT, RATIONAL]
    )
    def test_chain_matches_individual_runs(self, field, J):
        chain = phi_chain([4, 2], 2, J, SPHERE, 8, field)
        assert list(chain) == [2, 4]
        for N in (2, 4):
            single = phi_chain([N], 2, J, SPHERE, 8, field)[N]
            assert chain[N] == single

    def test_oracle_agreement_fast_engine(self):
        series = phi_chain([3], 2, 0.5, SPHERE, 40)[3]
        for y in (0.5, 1.0, 2.0):
            oracle = z_direct_circle(3, 0.5, 1.0, y, 512)
            rel = abs(series.evaluate(-(y * y)) - oracle) / abs(oracle)
            assert rel < 1e-6

    def test_oracle_agreement_four_spins(self):
        series = phi_chain([4], 2, 0.7, SPHERE, 40)[4]
        for y in (0.5, 1.5):
            oracle = z_direct_circle(4, 0.7, 1.0, y, 512)
            rel = abs(series.evaluate(-(y * y)) - oracle) / abs(oracle)
            assert rel < 1e-6


class TestDimensionalReduction:
    """Psi_{2,D} for D = 2 + 2m equals (4 pi d_1)^m applied to the mixed
    kernel built with the dimension-2 operator, exactly on truncations."""

    def test_m_equals_one(self):
        M, J, D = 6, Fraction(1, 3), 4
        cap = 2 * M + 2
        sphere = RadialMeasure.sphere(Fraction(2))
        v2 = laplace_transform(sphere, 2, M + 1, RATIONAL)
        v4 = laplace_transform(sphere, 4, M, RATIONAL)
        lhs = exp_operator(
            J,
            delta_operator(2, D),
            TruncatedPoly.from_univariate(v4.coefficients, "g11", PAIR_VARS, cap, RATIONAL)
            * TruncatedPoly.from_univariate(v4.coefficients, "g22", PAIR_VARS, cap, RATIONAL),
        )
        mixed = exp_operator(
            J,
            delta_operator(2, 2),
            TruncatedPoly.from_univariate(v2.coefficients, "g11", PAIR_VARS, cap, RATIONAL)
            * TruncatedPoly.from_univariate(v4.coefficients, "g22", PAIR_VARS, cap, RATIONAL),
        )
        # pi bookkeeping: lhs carries pi^4, rhs carries 4 pi * pi^3; rationals get the 4
        rhs = mixed.derivative("g11").scale(4)
        assert diagonal_series(lhs) == diagonal_series(rhs)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Finite-difference cross-check of the operators' defining property
# ---------------------------------------------------------------------------


def _cvec(rng, D):
    return 0.6 * (rng.standard_normal(D) + 1j * rng.standard_normal(D))


def _coupling_fd(G, z1, z2, D, h=5e-3):
    """sum_j d^2 G / dz1_j dz2_j by Richardson-extrapolated central stencils."""

    def mixed(hh):
        total = 0j
        for j in range(D):
            e = np.zeros(D)
            e[j] = 1.0
            total += (
                G(z1 + hh * e, z2 + hh * e)
                - G(z1 + hh * e, z2 - hh * e)
                - G(z1 - hh * e, z2 + hh * e)
                + G(z1 - hh * e, z2 - hh * e)
            ) / (4.0 * hh * hh)
        return total

    return (4.0 * mixed(h) - mixed(2.0 * h)) / 3.0


def _gram_point_pair(z1, z2):
    return {"g11": z1 @ z1, "g22": z2 @ z2, "g12": z1 @ z2}


def _gram_point_triple(z1, z2, z3):
    return {
        "g11": z1 @ z1,
        "g22": z2 @ z2,
        "g33": z3 @ z3,
        "g12": z1 @ z2,
        "g13": z1 @ z3,
        "g23": z2 @ z3,
    }


def coupling_consistency_trials(arity, D, trials, seed):
    rng = np.random.default_rng(seed)
    variables = PAIR_VARS if arity == 2 else GRAM_VARS
    op = delta_operator(arity, D)
    worst = 0.0
    for _ in range(trials):
        F = random_poly(variables, 4, rng, field_name=FLOAT, n_terms=10)
        if arity == 2:
            z1, z2 = _cvec(rng, D), _cvec(rng, D)
            point = _gram_point_pair(z1, z2)
            fd = _coupling_fd(
                lambda a, b: F.evaluate(_gram_point_pair(a, b)), z1, z2, D
            )
        else:
            z1, z2, z3 = _cvec(rng, D), _cvec(rng, D), _cvec(rng, D)
            point = _gram_point_triple(z1, z2, z3)
            fd = _coupling_fd(
                lambda a, b: F.evaluate(_gram_point_triple(a, b, z3)), z1, z2, D
            )
        exact = apply_operator(op, F).evaluate(point)
        worst = max(worst, abs(exact - fd) / max(1.0, abs(exact)))
    return worst


class TestCouplingConsistency:
    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("D", [2, 4])
    def test_operator_matches_vector_coupling(self, arity, D):
        worst = coupling_consistency_trials(arity, D, trials=10, seed=10 * arity + D)
        assert worst < 1e-6
