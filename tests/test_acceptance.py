"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Numeric targets come from independent oracles: tabulated Bessel
zeros, direct quadrature of the partition integral, exact rational
identities, and finite differences.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jn_zeros

from rotorzeros.geometry import (
    ComplexVec2,
    GramTriple,
    gram_cubic_scale,
    gram_image_residual,
    in_L,
    in_L_many,
    preimage_pair,
    preimage_residual,
    sample_slit_plane,
)
from rotorzeros.laguerre import counterexample_scan, violation_witnesses
from rotorzeros.measures import RATIONAL, RadialMeasure, laplace_transform
from rotorzeros.oracles import phi_modal, z_direct_circle
from rotorzeros.polys import (
    GRAM_VARS,
    PAIR_VARS,
    apply_operator,
    delta_operator,
    diagonal_series,
    psi_two,
)
from rotorzeros.recursion import phi_chain, phi_from_transform
from rotorzeros.zeros import VERIFIED, VIOLATED, find_roots, stabilize_chain
from random_polys import random_poly
from test_recursion import coupling_consistency_trials, surrogate

SPHERE = RadialMeasure.sphere(1.0)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_bessel_zero_agreement():
    series = phi_chain([1], 2, 0.0, SPHERE, 60)[1]
    roots = find_roots(series.coefficients).roots
    targets = -jn_zeros(0, 3) ** 2
    worst = max(
        abs(got - want) / abs(want) for got, want in zip(roots[:3], targets)
    )
    series4 = phi_chain([1], 4, 0.0, SPHERE, 60)[1]
    root4 = find_roots(series4.coefficients).roots[0]
    target4 = -jn_zeros(1, 1)[0] ** 2
    worst = max(worst, abs(root4 - target4) / abs(target4))
    report(
        1,
        worst <= 1e-8,
        f"first zeros match tabulated Bessel values, worst rel err {worst:.2e} (tol 1e-8)",
    )


def test_criterion_2_lee_yang_verification_grid():
    failures = []
    checked = 0
    for D in (2, 4, 6):
        for J in (0.2, 1.0):
            reports = stabilize_chain([2, 3, 4, 5], D, J, SPHERE, (30, 40, 50))
            for N, rep in sorted(reports.items()):
                checked += 1
                if rep.overall != VERIFIED:
                    failures.append((D, J, N, rep.overall))
                for r, s in zip(rep.roots, rep.stable):
                    if s and not (abs(r.imag) <= 1e-6 * (1 + abs(r)) and r.real < 0):
                        failures.append((D, J, N, f"stable root off axis: {r}"))
    report(
        2,
        not failures,
        f"{checked} grid configurations all LeeYangVerified"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_3_oracle_equivalence():
    worst_circle = 0.0
    chain = phi_chain([2, 3], 2, 0.5, SPHERE, 40)
    for N in (2, 3):
        for y in (0.5, 1.0, 2.0):
            oracle = z_direct_circle(N, 0.5, 1.0, y, 512)
            rel = abs(chain[N].evaluate(-(y * y)) - oracle) / abs(oracle)
            worst_circle = max(worst_circle, rel)
    worst_modal = 0.0
    for D in (2, 4, 6):
        chain = phi_chain([2, 3, 4, 5], D, 0.5, SPHERE, 40)
        modal = phi_modal([2, 3, 4, 5], D, 0.5, 1.0, 80)
        for N in (2, 3, 4, 5):
            for y in (0.5, 1.0, 2.0):
                want = modal[N].evaluate(-(y * y))
                rel = abs(chain[N].evaluate(-(y * y)) - want) / abs(want)
                worst_modal = max(worst_modal, rel)
    ok = worst_circle <= 1e-6 and worst_modal <= 1e-10
    report(
        3,
        ok,
        f"circle worst rel {worst_circle:.2e} (tol 1e-6); "
        f"Funk-Hecke modal worst rel {worst_modal:.2e} at D = 2, 4, 6 (tol 1e-10)",
    )


def test_criterion_4_closed_form_psi_two():
    ok = True
    for gam, J, D in ((1, Fraction(1), 2), (2, Fraction(1, 2), 4)):
        v = surrogate([1, gam], D, pad_to=2)
        expected = [
            Fraction(1) + 2 * J**2 * D * gam**2,
            2 * gam + 4 * J * gam**2,
            Fraction(gam**2),
        ]
        via_operator = diagonal_series(psi_two(v, v, J))
        via_fast = list(phi_from_transform(v, [2], J)[2].coefficients)
        ok = ok and via_operator == expected and via_fast == expected
    report(4, ok, "surrogate kernel diagonal matches (1+gz)^2 + 4Jg^2 z + 2J^2 D g^2 exactly")


def test_criterion_5_dimension_shift_identities():
    ok = True
    for D in (2, 4, 6):
        for r in (Fraction(1), Fraction(3, 2)):
            lower = laplace_transform(RadialMeasure.sphere(r), D, 51, RATIONAL)
            upper = laplace_transform(RadialMeasure.sphere(r), D + 2, 50, RATIONAL)
            ok = ok and list(lower.derivative().coefficients) == [
                c / 4 for c in upper.coefficients
            ]
        for m in (1, 2):
            sphere = RadialMeasure.sphere(Fraction(1))
            lifted = laplace_transform(sphere, D + 2 * m, 50 - m, RATIONAL)
            base = laplace_transform(sphere, D, 50, RATIONAL).derivative(m)
            ok = (
                ok
                and lifted.pi_power == base.pi_power + m
                and list(lifted.coefficients)
                == [c * Fraction(4) ** m for c in base.coefficients]
            )
    report(5, ok, "kernel and transform dimension-shift identities exact through degree 50")


def test_criterion_6_commutation_exact():
    rng = np.random.default_rng(2718)
    checked = 0
    ok = True
    for _ in range(100):
        for arity, variables in ((2, PAIR_VARS), (3, GRAM_VARS)):
            p = random_poly(variables, 8, rng, n_terms=12)
            for D in (4, 6, 8):
                left = apply_operator(delta_operator(arity, D - 2), p).derivative("g11")
                right = apply_operator(delta_operator(arity, D), p.derivative("g11"))
                ok = ok and left == right
                checked += 1
    report(6, ok, f"derivative/operator commutation exact on {checked} rational cases")


def test_criterion_7_coupling_consistency():
    worst = 0.0
    for arity in (2, 3):
        for D in (2, 4):
            worst = max(
                worst,
                coupling_consistency_trials(arity, D, trials=50, seed=7000 + 10 * arity + D),
            )
    report(
        7,
        worst <= 1e-6,
        f"finite-difference coupling check worst rel err {worst:.2e} (tol 1e-6)",
    )


def test_criterion_8_geometry():
    rng = np.random.default_rng(88)
    z1s = sample_slit_plane(rng, 1000)
    z2s = sample_slit_plane(rng, 1000)
    z12s = 3 * (rng.random(1000) - 0.5) + 3j * (rng.random(1000) - 0.5)
    worst_rt = 0.0
    all_in = True
    for zeta1, zeta2, zeta12 in zip(z1s, z2s, z12s):
        t = GramTriple(zeta1, zeta2, zeta12)
        z1, z2 = preimage_pair(t)
        worst_rt = max(worst_rt, preimage_residual(t, z1, z2))
        all_in = all_in and in_L(z1) and in_L(z2)
    x = rng.standard_normal((100_000, 2))
    y = rng.standard_normal((100_000, 2))
    spectral, reduced = in_L_many(x, y)
    agree = bool(np.array_equal(spectral, reduced))
    worst_cubic = 0.0
    for _ in range(1000):
        vs = [
            ComplexVec2(tuple(rng.standard_normal(2)), tuple(rng.standard_normal(2)))
            for _ in range(3)
        ]
        worst_cubic = max(
            worst_cubic, abs(gram_image_residual(*vs)) / gram_cubic_scale(*vs)
        )
    ok = worst_rt <= 1e-10 and all_in and agree and worst_cubic <= 1e-10
    report(
        8,
        ok,
        f"1000 preimage round trips worst {worst_rt:.2e} (tol 1e-10), membership agreement on 1e5 "
        f"points: {agree}, cubic worst rel {worst_cubic:.2e} (tol 1e-10)",
    )


def test_criterion_9_zero_coupling_factorization():
    ok = True
    M = 40
    for D in (2, 4):
        v_rat = laplace_transform(SPHERE, D, M, RATIONAL)
        power = [Fraction(1)] + [Fraction(0)] * M
        v_float = laplace_transform(SPHERE, D, M).float_coefficients()
        power_f = np.array([1.0] + [0.0] * M)
        for N in range(1, 6):
            power = [
                sum(
                    power[i] * v_rat.coefficients[n - i]
                    for i in range(max(0, n - M), n + 1)
                )
                for n in range(M + 1)
            ]
            series = phi_chain([N], D, Fraction(0), SPHERE, M, field=RATIONAL)[N]
            ok = ok and list(series.coefficients) == power
            power_f = np.convolve(power_f, v_float)[: M + 1]
            series_f = phi_chain([N], D, 0.0, SPHERE, M)[N]
            with np.errstate(invalid="ignore"):
                rel = np.abs(series_f.float_coefficients() - power_f) / np.where(
                    power_f == 0, 1.0, np.abs(power_f)
                )
            ok = ok and bool(np.all(rel <= 1e-12))
    report(9, ok, "phi at J=0 equals v^N exactly (rational) and to 1e-12 (float), N<=5, D in {2,4}")


def test_criterion_10_counterexample_path():
    scan = counterexample_scan(ladder=(40, 60))
    witnesses = violation_witnesses(scan)
    ok = len(witnesses) >= 1
    detail = "no violations found"
    if ok:
        first = witnesses[0]
        root = first["off_axis_roots"][0]
        detail = (
            f"{len(witnesses)} scan points Violated; first at a={first['a']} with stable "
            f"off-axis root {root[0]:.4f}{root[1]:+.4f}i"
        )
    report(10, ok, detail)
