"""Tests for the nonvanishing domain, Gram maps, and preimage construction."""

import math

import numpy as np
import pytest

from rotorzeros.geometry import (
    ComplexVec2,
    GramTriple,
    gram_cubic_scale,
    gram_image_residual,
    gram_pair,
    in_L,
    in_L_many,
    preimage_pair,
    preimage_residual,
    sample_slit_plane,
    self_test,
)


class TestMembership:
    def test_real_vector_inside(self):
        assert in_L(ComplexVec2((1, 0), (0, 0)))

    def test_purely_imaginary_outside(self):
        assert not in_L(ComplexVec2((0, 0), (1, 0)))

    def test_null_square_excluded(self):
        # z^2 = 0 sits on the excluded half-line boundary; never strict
        assert not in_L(ComplexVec2((1, 1), (1, -1)))

    def test_near_isotropic_matrix(self):
        # |x| ~ |y| ~ 1e6 with x nearly orthogonal to y: x x^T + y y^T is near
        # 1e12 I, where trace^2/4 - det loses the eigenvalue gap of 200
        for k in range(1, 100):
            c, s = math.cos(0.01 * k), math.sin(0.01 * k)
            for p, q in ((1e6, 1e6 - 1e-4), (1e6 - 1e-4, 1e6)):
                z = ComplexVec2((p * c, p * s), (-q * s, q * c))
                zeta = z.square()
                assert in_L(z) == (not (zeta.imag == 0 and zeta.real <= 0))

    def test_routes_agree_in_bulk(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20000, 2))
        y = rng.standard_normal((20000, 2))
        spectral, reduced = in_L_many(x, y)
        assert np.array_equal(spectral, reduced)

    def test_membership_iff_square_off_halfline(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            z = ComplexVec2(tuple(rng.standard_normal(2)), tuple(rng.standard_normal(2)))
            zeta = z.square()
            expect = not (zeta.imag == 0 and zeta.real <= 0)
            assert in_L(z) == expect


class TestPreimage:
    def test_documented_mixed_case(self):
        # (1, i, i): real first slot; a = 1, x2^2 = 1/2, y1^2 = sqrt(1/2)
        t = GramTriple(1 + 0j, 1j, 1j)
        z1, z2 = preimage_pair(t)
        assert z1.y[0] ** 2 + z1.y[1] ** 2 == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert preimage_residual(t, z1, z2) < 1e-10
        assert in_L(z1) and in_L(z2)

    def test_documented_real_real_case(self):
        # z2 lies along e1, so the orthogonal z1 takes e2
        t = GramTriple(1 + 0j, 1 + 0j, 0j)
        z1, z2 = preimage_pair(t)
        assert z1 == ComplexVec2((0, 1), (0, 0))
        assert z2 == ComplexVec2((1, 0), (0, 0))

    def test_generic_branch_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            t = GramTriple(
                1j * (1 + rng.random()),
                1j * (1 + rng.random()),
                complex(*(2 * rng.random(2) - 1)),
            )
            z1, z2 = preimage_pair(t)
            assert preimage_residual(t, z1, z2) < 1e-10
            assert in_L(z1) and in_L(z2)

    def test_real_second_slot_round_trip(self):
        # zeta2 on the positive real axis, zeta1 off it: a = 0, so z2 is real
        t = GramTriple(1 + 1j, 2 + 0j, 0.5 - 0.3j)
        z1, z2 = preimage_pair(t)
        assert preimage_residual(t, z1, z2) < 1e-10
        assert in_L(z1) and in_L(z2)

    @pytest.mark.parametrize("real_slots", [(True, False), (False, True), (True, True)])
    def test_exactly_real_slots_across_scales(self, real_slots):
        # one scale per triple, from 1e-6 to 1e3; the residual is relative to
        # 1 + |zeta1| + |zeta2| + |zeta12|
        rng = np.random.default_rng(10)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-6, 3)
            z = scale * rng.uniform(0.1, 2, 3) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
            zeta1, zeta2 = (complex(abs(w)) if real else complex(w) for w, real in zip(z, real_slots))
            t = GramTriple(zeta1, zeta2, complex(z[2]))
            z1, z2 = preimage_pair(t)
            size = 1 + abs(t.zeta1) + abs(t.zeta2) + abs(t.zeta12)
            assert preimage_residual(t, z1, z2) <= 1e-13 * size
            assert in_L(z1) and in_L(z2)

    def test_real_slot_beside_spread_scales(self):
        # zeta1 real, |zeta2| ~ 700 and |zeta12| ~ 7e-6 in one triple
        t = GramTriple(18.399521512290594 + 0j, -661.1590625783002 + 201.99174206006614j,
                       1.825966797237251e-06 + 7.007810737620761e-06j)
        z1, z2 = preimage_pair(t)
        assert preimage_residual(t, z1, z2) <= 1e-13 * (1 + abs(t.zeta1) + abs(t.zeta2) + abs(t.zeta12))
        assert in_L(z1) and in_L(z2)

    def test_rejects_excluded_half_line(self):
        with pytest.raises(ValueError):
            preimage_pair(GramTriple(-1 + 0j, 1j, 0j))
        with pytest.raises(ValueError):
            preimage_pair(GramTriple(1j, -2 + 0j, 0j))

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(7)
        z1s = sample_slit_plane(rng, 300)
        z2s = sample_slit_plane(rng, 300)
        z12s = 3 * (rng.random(300) - 0.5) + 3j * (rng.random(300) - 0.5)
        for zeta1, zeta2, zeta12 in zip(z1s, z2s, z12s):
            t = GramTriple(zeta1, zeta2, zeta12)
            z1, z2 = preimage_pair(t)
            assert preimage_residual(t, z1, z2) < 1e-10
            assert in_L(z1) and in_L(z2)


class TestGramCubic:
    def test_unit_vector_identity(self):
        v = ComplexVec2((1, 0), (0, 0))
        assert gram_image_residual(v, v, v) == 0

    def test_real_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            vs = [ComplexVec2(tuple(rng.standard_normal(2)), (0, 0)) for _ in range(3)]
            rel = abs(gram_image_residual(*vs)) / gram_cubic_scale(*vs)
            assert rel < 1e-12

    def test_complex_triples(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            vs = [
                ComplexVec2(tuple(rng.standard_normal(2)), tuple(rng.standard_normal(2)))
                for _ in range(3)
            ]
            rel = abs(gram_image_residual(*vs)) / gram_cubic_scale(*vs)
            assert rel < 1e-10


def test_gram_pair_consistency():
    z1 = ComplexVec2((1, 2), (0.5, -1))
    z2 = ComplexVec2((0, 1), (2, 0.25))
    t = gram_pair(z1, z2)
    a, b = z1.components
    c, d = z2.components
    assert t.zeta1 == a * a + b * b
    assert t.zeta12 == a * c + b * d


def test_self_test_summary_passes():
    summary = self_test(200, 20000, 200, seed=3)
    assert all(section["pass"] for section in summary.values())
