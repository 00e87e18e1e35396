"""Seeded random sparse polynomials for the property tests."""

from fractions import Fraction

from rotorzeros.polys import RATIONAL, TruncatedPoly


def random_poly(variables, max_degree, rng, field_name=RATIONAL, n_terms=12, cap=None):
    """Random sparse polynomial for property tests (seeded rng)."""
    variables = tuple(variables)
    cap = max_degree if cap is None else cap
    zero = Fraction(0) if field_name == RATIONAL else 0.0
    terms = {}
    for _ in range(n_terms):
        exp = [0] * len(variables)
        budget = int(rng.integers(0, max_degree + 1))
        for _k in range(budget):
            exp[int(rng.integers(0, len(variables)))] += 1
        num = int(rng.integers(-9, 10))
        if num == 0:
            continue
        if field_name == RATIONAL:
            coeff = Fraction(num, int(rng.integers(1, 7)))
        else:
            coeff = float(num)
        exp = tuple(exp)
        terms[exp] = terms.get(exp, zero) + coeff
    terms = {e: c for e, c in terms.items() if c != 0}
    return TruncatedPoly(variables, terms, cap, field_name)
