"""Sparse truncated polynomial algebra over named Gram coordinates, and the
paper's transfer construction written in it.

A chain of D-vector spins is analyzed through the rotation invariants
g_jk = z_j . z_k of up to three complex vectors.  This module provides the
polynomial ring in those six coordinates (with total-degree truncation),
linear differential operators whose every term lowers total degree by one,
and their exactly-nilpotent exponentials.  On them it builds the chain
kernel as the paper does: Psi_2 = exp(J Delta_2D) v(g11) v(g22), and each
further spin through exp(J Delta_3D) and a slot merge.  That construction
is the exact reference for ``recursion``'s fast chain, so it stays literal.

Two coefficient fields are supported: ``float64`` for production runs and
``rational`` (``fractions.Fraction``) for exact identity verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .measures import LaplaceSeries

# Canonical coordinate order.  g11, g22, g33 are the squared vectors
# (diagonal Gram entries), g12, g13, g23 the mixed products.
GRAM_VARS = ("g11", "g22", "g33", "g12", "g13", "g23")
PAIR_VARS = ("g11", "g22", "g12")

FLOAT = "float64"
RATIONAL = "rational"


class FieldMismatchError(ValueError):
    """Raised when operands use different coefficient fields."""


class VariableMismatchError(ValueError):
    """Raised when operands use different variable sets."""


def coerce_scalar(value, field_name):
    """Convert a scalar into the given coefficient field.

    Floats are rejected in rational mode: a float carries rounding, so
    feeding one into an exact computation would silently poison it.
    """
    if field_name == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldMismatchError(
            f"rational field requires Fraction or int scalars, got {type(value).__name__}"
        )
    if field_name == FLOAT:
        return float(value)
    raise ValueError(f"unknown coefficient field {field_name!r}")


def _zero(field_name):
    return Fraction(0) if field_name == RATIONAL else 0.0


@dataclass(frozen=True)
class TruncatedPoly:
    """Sparse polynomial with a total-degree cap.

    ``terms`` maps exponent tuples (aligned with ``variables``) to nonzero
    coefficients; every stored multi-index has total degree <= ``max_degree``.
    Instances are treated as immutable values.
    """

    variables: tuple[str, ...]
    terms: dict[tuple[int, ...], object]
    max_degree: int
    field: str = FLOAT

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise VariableMismatchError("duplicate variable names")
        for name in self.variables:
            if name not in GRAM_VARS:
                raise VariableMismatchError(f"unknown Gram coordinate {name!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables, max_degree, field_name=FLOAT):
        return cls(tuple(variables), {}, max_degree, field_name)

    @classmethod
    def constant(cls, value, variables, max_degree, field_name=FLOAT):
        value = coerce_scalar(value, field_name)
        if value == 0:
            return cls.zero(variables, max_degree, field_name)
        exp = (0,) * len(tuple(variables))
        return cls(tuple(variables), {exp: value}, max_degree, field_name)

    @classmethod
    def monomial(cls, exponents, coefficient, variables, max_degree, field_name=FLOAT):
        variables = tuple(variables)
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(variables):
            raise VariableMismatchError("exponent tuple does not match variables")
        coefficient = coerce_scalar(coefficient, field_name)
        if sum(exponents) > max_degree or coefficient == 0:
            return cls.zero(variables, max_degree, field_name)
        return cls(variables, {exponents: coefficient}, max_degree, field_name)

    @classmethod
    def from_univariate(cls, coefficients, var, variables, max_degree, field_name=FLOAT):
        """Lift a coefficient list c_0..c_n in ``var`` into the ring."""
        variables = tuple(variables)
        idx = variables.index(var)
        terms = {}
        for n, c in enumerate(coefficients):
            if n > max_degree:
                break
            c = coerce_scalar(c, field_name)
            if c == 0:
                continue
            exp = [0] * len(variables)
            exp[idx] = n
            terms[tuple(exp)] = c
        return cls(variables, terms, max_degree, field_name)

    # -- basic queries ------------------------------------------------

    def degree(self):
        """Total degree of the stored polynomial (-1 for the zero poly)."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.field == other.field
            and self.terms == other.terms
        )

    # -- arithmetic ---------------------------------------------------

    def _check_compat(self, other):
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable sets differ: {self.variables} vs {other.variables}"
            )
        if self.field != other.field:
            raise FieldMismatchError(f"fields differ: {self.field} vs {other.field}")
        if self.max_degree != other.max_degree:
            raise ValueError(
                f"degree caps differ: {self.max_degree} vs {other.max_degree}"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compat(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, _zero(self.field)) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return TruncatedPoly(self.variables, terms, self.max_degree, self.field)

    def scale(self, scalar):
        scalar = coerce_scalar(scalar, self.field)
        if scalar == 0:
            return TruncatedPoly.zero(self.variables, self.max_degree, self.field)
        return TruncatedPoly(
            self.variables,
            {e: c * scalar for e, c in self.terms.items()},
            self.max_degree,
            self.field,
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compat(other)
        cap = self.max_degree
        terms = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > cap:
                    continue  # truncation: silently drop over-cap products
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exp, _zero(self.field)) + c1 * c2
                if s == 0:
                    terms.pop(exp, None)
                else:
                    terms[exp] = s
        return TruncatedPoly(self.variables, terms, cap, self.field)

    # -- calculus and substitution -------------------------------------

    def derivative(self, var, order=1):
        """Partial derivative with respect to one Gram coordinate."""
        idx = self.variables.index(var)
        terms = self.terms
        for _ in range(order):
            new_terms = {}
            for exp, c in terms.items():
                k = exp[idx]
                if k == 0:
                    continue
                new_exp = exp[:idx] + (k - 1,) + exp[idx + 1 :]
                new_terms[new_exp] = new_terms.get(new_exp, _zero(self.field)) + c * k
            terms = {e: c for e, c in new_terms.items() if c != 0}
        return TruncatedPoly(self.variables, terms, self.max_degree, self.field)

    def evaluate(self, point):
        """Evaluate at a complex point given as ``{var: value}``.

        Terms are summed in sorted exponent order so results are
        deterministic regardless of dict history.
        """
        values = [point[v] for v in self.variables]
        total = 0j
        for exp in sorted(self.terms):
            c = self.terms[exp]
            term = complex(c)
            for val, e in zip(values, exp):
                if e:
                    term *= val**e
            total += term
        return total


# ---------------------------------------------------------------------------
# Differential operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorTerm:
    """One primitive term: coefficient * monomial * product of partials."""

    coefficient: object
    multiplier: tuple[int, ...]
    derivatives: tuple[str, ...]


@dataclass(frozen=True)
class GramOperator:
    """A sum of degree-lowering (monomial x partial-derivative) terms.

    Every term must lower total degree by exactly one; this is what makes
    exp(J * op) terminate after deg(p) applications on any polynomial p.
    """

    variables: tuple[str, ...]
    terms: tuple[OperatorTerm, ...]
    dimension: int

    def __post_init__(self):
        for t in self.terms:
            drop = len(t.derivatives) - sum(t.multiplier)
            if drop != 1:
                raise ValueError(
                    f"operator term must lower degree by 1, got drop={drop}"
                )
            for d in t.derivatives:
                if d not in self.variables:
                    raise VariableMismatchError(f"derivative in unknown variable {d!r}")


def apply_operator(op: GramOperator, p: TruncatedPoly) -> TruncatedPoly:
    """Apply a GramOperator once.  Output degree <= deg(p) - 1."""
    for v in op.variables:
        if v not in p.variables:
            raise VariableMismatchError(
                f"polynomial lacks operator variable {v!r}"
            )
    out = TruncatedPoly.zero(p.variables, p.max_degree, p.field)
    for term in op.terms:
        q = p
        for d in term.derivatives:
            q = q.derivative(d)
            if q.is_zero():
                break
        if q.is_zero():
            continue
        mono = TruncatedPoly.monomial(
            _pad_exponents(term.multiplier, op.variables, p.variables),
            coerce_scalar(term.coefficient, p.field),
            p.variables,
            p.max_degree,
            p.field,
        )
        out = out + mono * q
    return out


def _pad_exponents(exps, from_vars, to_vars):
    padded = [0] * len(to_vars)
    for v, e in zip(from_vars, exps):
        padded[to_vars.index(v)] = e
    return tuple(padded)


def exp_operator(J, op: GramOperator, p: TruncatedPoly) -> TruncatedPoly:
    """Compute sum_k (J^k / k!) op^k p.

    The sum terminates at k = deg(p) because each application lowers total
    degree by one, so no truncation error is introduced beyond what is
    already present in p.
    """
    J = coerce_scalar(J, p.field)
    if J == 0 or p.is_zero():
        return p
    out = p
    power = p
    scale = coerce_scalar(1, p.field)
    for k in range(1, p.degree() + 1):
        power = apply_operator(op, power)
        if power.is_zero():
            break
        scale = scale * J / k
        out = out + power.scale(scale)
    return out


def merge_2_3(p: TruncatedPoly) -> TruncatedPoly:
    """Identify slots 2 and 3: g33 -> g22, g23 -> g22, g13 -> g12.

    Takes a six-variable polynomial to the three-variable ring
    (g11, g22, g12), collecting like terms.  Total degree is preserved.
    """
    if p.variables != GRAM_VARS:
        raise VariableMismatchError("merge_2_3 expects the full six-variable ring")
    terms = {}
    for (e1, e2, e3, e12, e13, e23), c in p.terms.items():
        exp = (e1, e2 + e3 + e23, e12 + e13)
        s = terms.get(exp, _zero(p.field)) + c
        if s == 0:
            terms.pop(exp, None)
        else:
            terms[exp] = s
    return TruncatedPoly(PAIR_VARS, terms, p.max_degree, p.field)


def diagonal_series(p: TruncatedPoly) -> list:
    """Restrict all variables to a single one: coefficients of p(z, z, ..., z)."""
    out = [_zero(p.field)] * (p.max_degree + 1)
    for exp, c in p.terms.items():
        out[sum(exp)] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# The paper's construction: Delta, Psi_2 and the chain step
# ---------------------------------------------------------------------------

# Exponent tuples over GRAM_VARS for operator multipliers.
_E = {name: tuple(1 if v == name else 0 for v in GRAM_VARS) for name in GRAM_VARS}
_E3 = {name: tuple(1 if v == name else 0 for v in PAIR_VARS) for name in PAIR_VARS}


def _dimension(D):
    """D as an int, or ValueError unless it is a positive integer."""
    if D < 1 or int(D) != D:
        raise ValueError(f"dimension must be a positive integer, got {D}")
    return int(D)


def delta_operator(arity, D) -> GramOperator:
    """The Gram-variable representative of D_z1 . D_z2.

    arity 2 acts on the pair ring (g11, g22, g12); arity 3 on the full
    six-coordinate ring with the third vector as spectator.  Every term
    lowers total degree by one, so the operator exponential is nilpotent
    on polynomials.
    """
    D = _dimension(D)
    if arity == 2:
        zero = (0, 0, 0)
        terms = (
            OperatorTerm(D, zero, ("g12",)),
            OperatorTerm(2, _E3["g11"], ("g11", "g12")),
            OperatorTerm(2, _E3["g22"], ("g22", "g12")),
            OperatorTerm(4, _E3["g12"], ("g11", "g22")),
            OperatorTerm(1, _E3["g12"], ("g12", "g12")),
        )
        return GramOperator(PAIR_VARS, terms, D)
    if arity == 3:
        zero = (0,) * 6
        terms = (
            OperatorTerm(D, zero, ("g12",)),
            OperatorTerm(2, _E["g11"], ("g11", "g12")),
            OperatorTerm(2, _E["g22"], ("g22", "g12")),
            OperatorTerm(1, _E["g33"], ("g13", "g23")),
            OperatorTerm(4, _E["g12"], ("g11", "g22")),
            OperatorTerm(1, _E["g12"], ("g12", "g12")),
            OperatorTerm(2, _E["g13"], ("g11", "g23")),
            OperatorTerm(1, _E["g13"], ("g12", "g13")),
            OperatorTerm(2, _E["g23"], ("g22", "g13")),
            OperatorTerm(1, _E["g23"], ("g12", "g23")),
        )
        return GramOperator(GRAM_VARS, terms, D)
    raise ValueError(f"arity must be 2 or 3, got {arity}")


def _series_poly(v: LaplaceSeries, var, variables):
    return TruncatedPoly.from_univariate(
        v.coefficients, var, variables, v.truncation_degree, v.field
    )


def psi_two(v1: LaplaceSeries, v2: LaplaceSeries, J) -> TruncatedPoly:
    """Psi_2 = exp(J * Delta_2D) v1(g11) v2(g22), in the ring (g11, g22, g12).

    Exact given the truncated inputs.  In rational mode the pi^(D/2) mass
    factors of v1 and v2 are carried outside the polynomial (see
    LaplaceSeries.pi_power).
    """
    if v1.dimension != v2.dimension:
        raise ValueError("transforms have different dimensions")
    if v1.truncation_degree != v2.truncation_degree or v1.field != v2.field:
        raise ValueError("transforms must share truncation degree and field")
    p = _series_poly(v1, "g11", PAIR_VARS) * _series_poly(v2, "g22", PAIR_VARS)
    return exp_operator(J, delta_operator(2, v1.dimension), p)


def psi_step(v: LaplaceSeries, psi_prev: TruncatedPoly, J) -> TruncatedPoly:
    """One chain extension: absorb a new end spin into Psi_{N-1}.

    Moves psi_prev's slots (g11, g22, g12) to (g22, g33, g23) of the
    six-variable ring, multiplies by the new spin's transform in g11,
    applies exp(J * Delta_3D), and identifies slots 2 and 3: slot 2 then
    carries the field of every spin but the new one.
    """
    if psi_prev.variables != PAIR_VARS:
        raise ValueError("psi_prev must live in the pair ring (g11, g22, g12)")
    if psi_prev.max_degree != v.truncation_degree or psi_prev.field != v.field:
        raise ValueError("transform and kernel must share degree cap and field")
    terms = {(0, a11, a22, 0, 0, a12): c for (a11, a22, a12), c in psi_prev.terms.items()}
    shifted = TruncatedPoly(GRAM_VARS, terms, psi_prev.max_degree, psi_prev.field)
    p = _series_poly(v, "g11", GRAM_VARS) * shifted
    return merge_2_3(exp_operator(J, delta_operator(3, v.dimension), p))
