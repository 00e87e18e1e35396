"""Transfer recursion for the chain partition function.

The two-boundary kernel Psi_N(zeta1, zeta2, zeta12) is built inductively:
Psi_2 couples two single-spin transforms through exp(J * Delta_2D), and each
further spin enters through exp(J * Delta_3D) followed by identifying the
second and third vector slots.  The full-chain function of the squared
field is then the diagonal phi_N(zeta) = Psi_N(zeta, zeta, zeta), so that
Z_N(z) = phi_N(z^2).

The chain driver takes one fast step per coefficient field: a Taylor
re-expansion of Psi_{N-1} around the diagonal, which needs only univariate
transforms, on dense float tensors or in exact integers.  The rational
chain carries Psi_N between steps as integer rows over one least common
denominator and makes Fractions only for phi_N and ``psi_kernel``.  The
operator construction (``psi_two`` and ``psi_step``) applies the nilpotent
differential-operator exponentials literally on sparse polynomials; it is
the paper's construction and the exact reference the tests check the fast
step against, term by term.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .measures import LaplaceSeries, RadialMeasure, laplace_transform
from .polys import (
    FLOAT,
    GRAM_VARS,
    PAIR_VARS,
    RATIONAL,
    GramOperator,
    OperatorTerm,
    TruncatedPoly,
    coerce_scalar,
    exp_operator,
    merge_2_3,
)

# Exponent tuples over GRAM_VARS for operator multipliers.
_E = {name: tuple(1 if v == name else 0 for v in GRAM_VARS) for name in GRAM_VARS}
_E3 = {name: tuple(1 if v == name else 0 for v in PAIR_VARS) for name in PAIR_VARS}


def delta_operator(arity, D) -> GramOperator:
    """The Gram-variable representative of D_z1 . D_z2.

    arity 2 acts on the pair ring (g11, g22, g12); arity 3 on the full
    six-coordinate ring with the third vector as spectator.  Every term
    lowers total degree by one, so the operator exponential is nilpotent
    on polynomials.
    """
    if D < 1 or int(D) != D:
        raise ValueError(f"dimension must be a positive integer, got {D}")
    D = int(D)
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


def psi_two(v1: LaplaceSeries, v2: LaplaceSeries, J, D) -> TruncatedPoly:
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
    return exp_operator(J, delta_operator(2, D), p)


def psi_step(v: LaplaceSeries, psi_prev: TruncatedPoly, J, D) -> TruncatedPoly:
    """One chain extension: absorb a new boundary spin into Psi_{N-1}.

    Relabels psi_prev into the slots (g22, g33, g23), multiplies by the new
    spin's transform in g11, applies exp(J * Delta_3D) in the six-variable
    ring, and identifies slots 2 and 3.
    """
    if psi_prev.variables != PAIR_VARS:
        raise ValueError("psi_prev must live in the pair ring (g11, g22, g12)")
    if psi_prev.max_degree != v.truncation_degree or psi_prev.field != v.field:
        raise ValueError("transform and kernel must share degree cap and field")
    shifted = psi_prev.relabel({"g11": "g22", "g22": "g33", "g12": "g23"})
    p = _series_poly(v, "g11", GRAM_VARS) * shifted.embed(GRAM_VARS)
    q = exp_operator(J, delta_operator(3, D), p)
    return merge_2_3(q)


# ---------------------------------------------------------------------------
# The fast step: the same recursion through diagonal Taylor data
# ---------------------------------------------------------------------------
#
# Integrating the new spin sigma exactly gives
#
#   Psi_N(z1^2, z2^2, z1.z2) = integral chi(d sigma) e^{z1.sigma}
#       * Psi_{N-1}(zeta2 + 2Jt + J^2 s,  zeta2,  zeta2 + Jt),
#
# with t = z2.sigma and s = sigma^2.  Expanding Psi_{N-1} around the
# diagonal (zeta2, zeta2, zeta2) and using
#
#   integral chi(d sigma) e^{z1.sigma} t^m s^p = (z2 . grad_z1)^m V_p(zeta1),
#   V_p = (2D d/dzeta + 4 zeta d^2/dzeta^2)^p v,
#   (z2 . grad_z1)^m V = sum_a m! 2^(m-2a)/(a!(m-2a)!)
#                              * zeta2^a zeta12^(m-2a) V^((m-a)),
#
# turns one chain extension into dense univariate algebra.  All weights are
# positive, so for nonnegative profiles no cancellation occurs.
#
# In the float step, output cell out[c, a+n2, i], the coefficient of
# zeta12^c zeta2^(a+n2) zeta1^i, receives from (p, m = c+2a, a) the term
#
#   w[c] * (vq[c, i] * B[p, m, n2]),   vq[c, i] = perm(q+i, q) V_p[q+i],
#   q = c+a,   w[c] = m! 2^(m-2a) / (a! (m-2a)!) * J^(m+2p).
#
# V_p vanishes past degree M-p and B[p, m] past M-p-m, so row c of a
# (p, a) slab can be nonzero only where n2 <= cmax-c and i <= M-p-a-c,
# cmax = M-p-2a: a triangle that narrows as c grows.  The slab is cut into
# blocks of _BLOCK_ROWS rows, and each block is one strided update over the
# box of its first row lo: n2 <= cmax-lo and i <= M-p-a-lo.  vq is a
# Hankel window of V_p (padded to width 2(M+1)) times perm, formed once per
# p and sliced per (p, a); out is laid out [c, j, i], the longest axis
# last.  Rows past the last nonzero w, or past the last nonzero row of
# B[p], are cut.  The boxes also reach cells with c+i+j > M, which a
# cached mask zeroes at the end.  Every cell with c+i+j <= M gets the
# terms of the scalar loop over that simplex, each formed as w * (vq * b)
# and summed with p ascending, then a ascending.  The boxes' other terms
# there are exact +-0 products, the cells they skip would only have
# received such terms, and a cell starts at +0.0 and is never -0.0, so the
# output is bit-for-bit the loop's.  Do not reorder or fuse the sums over
# p and a: the CSV artifacts write roots with repr, so a 1-ulp change
# shows.
#
# _step_tables(M) and _past_degree(M) cache read-only tables per degree cap.


# Rows per block of the float step's slab update: of 4, 6, 8, 10, 13 and
# 16 rows and one block per slab, 8 was the fastest on one M = 50 step
# (2-core Xeon, one BLAS thread).
_BLOCK_ROWS = 8


def _falling(n, k):
    return math.perm(n, k) if 0 <= k <= n else 0


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _step_tables(M):
    """Weights of the float step at degree cap M: F, fact, perm, C."""
    n1 = M + 1
    F = np.zeros((n1, n1))
    for i in range(n1):
        for a in range(i, n1):
            F[i, a] = _falling(a, i)
    fact = np.array([math.factorial(k) for k in range(n1)], dtype=float)
    # perm[q, k] = q-th falling factorial of k + q, the derivative weights
    perm = np.array([[_falling(k + q, q) for k in range(n1)] for q in range(n1)], dtype=float)
    C = np.zeros((n1, n1 // 2 + 1))
    for m in range(n1):
        for a in range(m // 2 + 1):
            C[m, a] = (
                math.factorial(m)
                * 2.0 ** (m - 2 * a)
                / (math.factorial(a) * math.factorial(m - 2 * a))
            )
    return _frozen(F, fact, perm, C)


@functools.lru_cache(maxsize=None)
def _past_degree(M):
    """Mask of the cells of an (M+1)^3 tensor whose exponents sum past M."""
    r = np.arange(M + 1)
    return _frozen(np.add.outer(np.add.outer(r, r), r) > M)[0]


def _taylor_data(P, M):
    """B[p, m, n] of the expansion of P around the diagonal (dense floats)."""
    n1 = M + 1
    F, fact, _, _ = _step_tables(M)
    # Regrade P by total degree: R[alpha, gamma, d] = P[alpha, d-alpha-gamma, gamma]
    R = np.zeros((n1, n1, n1))
    for al in range(n1):
        for ga in range(n1 - al):
            R[al, ga, al + ga :] = P[al, : n1 - al - ga, ga]
    # Falling-factorial transforms along the slot-1 and slot-3 axes.
    # each dense temporary is dropped once used, to keep the step's peak low
    S = np.einsum("ia,agd->igd", F, R, optimize=True)
    del R
    S = np.einsum("kg,igd->ikd", F, S, optimize=True)
    # Diagonal derivative data A[i, k, n] = S[i, k, n+i+k].
    Adata = np.zeros((n1, n1, n1))
    for i in range(n1):
        for k in range(n1 - i):
            Adata[i, k, : n1 - i - k] = S[i, k, i + k :]
    del S
    # B[p, m, n] = (1/p!) sum_j 2^j / (j! (m-j)!) A[p+j, m-j, n]
    Bdata = np.zeros((n1, n1, n1))
    for j in range(n1):
        w = np.zeros(n1)
        w[j:] = (2.0**j) / (math.factorial(j) * fact[: n1 - j])
        # A[i, k] vanishes past n = M-i-k, so nothing lands past n = M-j
        Bdata[: n1 - j, j:, : n1 - j] += w[None, j:, None] * Adata[j:, : n1 - j, : n1 - j]
    Bdata /= fact[:, None, None]
    return Bdata


def _advance_float(v_coeffs, P, J, D, M):
    """One fast step on dense float tensors P[a1, a2, a12]."""
    n1 = M + 1
    _, _, perm, C = _step_tables(M)
    Bdata = _taylor_data(P, M)
    # Laplacian lifts V_p of the new spin's transform, zero past column M.
    V = np.zeros((n1, 2 * n1))
    V[0, :n1] = v_coeffs
    for p in range(1, n1):
        n = np.arange(n1 - 1)
        V[p, : n1 - 1] = 2.0 * (n + 1) * (D + 2.0 * n) * V[p - 1, 1:n1]
    hankel = sliding_window_view(V, n1, axis=1)  # hankel[p, s, i] = V[p, s+i]
    Jpow = np.array([float(J) ** k for k in range(2 * M + 1)])
    # w vanishes past J^last_k, and B[p] past row last_m[p] (-1: all zero)
    last_k = np.flatnonzero(Jpow)[-1]
    live = Bdata.any(axis=2)
    last_m = np.where(live.any(axis=1), M - np.argmax(live[:, ::-1], axis=1), -1)
    out = np.zeros((n1, n1, n1))  # laid out [c, j, i]
    for p in range(n1):
        vq_p = perm * hankel[p, :n1]  # vq_p[q, i] = perm(q+i, q) V_p[q+i]
        for a in range((M - p) // 2 + 1):
            cmax, ni = M - p - 2 * a, M - p - a + 1
            nc = min(cmax, last_m[p] - 2 * a, last_k - 2 * a - 2 * p) + 1
            w = C[2 * a : M - p + 1, a] * Jpow[2 * a + 2 * p : M + p + 1]
            for lo in range(0, nc, _BLOCK_ROWS):
                hi = min(lo + _BLOCK_ROWS, nc)
                vq = vq_p[a + lo : a + hi, : ni - lo]
                X = Bdata[p, 2 * a + lo : 2 * a + hi, : cmax - lo + 1, None] * vq[:, None, :]
                X *= w[lo:hi, None, None]
                out[lo:hi, a : a + cmax - lo + 1, : ni - lo] += X
    out[_past_degree(M)] = 0.0
    return out.transpose(2, 1, 0).copy()


def _add_row(target, offset, coef, row):
    """target[offset + n] += coef * row[n], on lists of Python ints."""
    stop = offset + len(row)
    target[offset:stop] = [t + coef * x for t, x in zip(target[offset:stop], row)]


def _int_rows(n1):
    return [[[0] * n1 for _ in range(n1)] for _ in range(n1)]


def _lowest(rows, den):
    """Integer rows over den, brought to the least common denominator."""
    g = math.gcd(den, *(x for plane in rows for row in plane for x in row))
    if g > 1:
        rows = [[[x // g for x in row] for row in plane] for plane in rows]
    return rows, den // g


def _diagonal_sums(Pn, M):
    """sums[n] of Pn[al][ga][be] over al + be + ga = n <= M."""
    sums = [0] * (M + 1)
    for al, plane in enumerate(Pn):
        for ga, row in enumerate(plane[: M + 1 - al]):
            _add_row(sums, al + ga, 1, row[: M + 1 - al - ga])
    return sums


def _advance_exact(v, P, J, D, M):
    """Rational-field version of _advance_float, in Python ints.

    v = (vn, dv) holds the new spin's transform as vn / dv, and
    P = (Pn, dP) the kernel as Pn[al][ga][be] / dP, the coefficient of
    zeta1^al zeta2^be zeta12^ga.  Returns the next kernel in the same form,
    over its least common denominator, so it is exactly the step written
    out in Fractions.
    """
    vn, dv = v
    Pn, dP = P
    J = coerce_scalar(J, RATIONAL)
    n1 = M + 1
    if J == 0:
        # the step collapses to v(zeta1) times the diagonal of the kernel
        diag = _diagonal_sums(Pn, M)
        out = _int_rows(n1)
        for al, x in enumerate(vn):
            if x:
                out[al][0][: n1 - al] = [x * d for d in diag[: n1 - al]]
        return _lowest(out, dP * dv)
    if int(D) != D:
        raise ValueError(f"dimension must be a positive integer, got {D}")
    D = int(D)
    # Diagonal derivative data with the 1/(i! k!) of the B split folded in,
    # A[i][k][n] = sum of C(al, i) C(ga, k) Pn[al][ga][be] over
    # al+be+ga = n+i+k: first along al into T[i][ga] (a row over
    # al+be-i), then along ga.
    T = _int_rows(n1)
    for al in range(n1):
        for ga in range(n1 - al):
            row = Pn[al][ga][: n1 - al - ga]
            if any(row):
                for i in range(al + 1):
                    _add_row(T[i][ga], al - i, math.comb(al, i), row)
    A = _int_rows(n1)
    for i in range(n1):
        for ga in range(n1 - i):
            row = T[i][ga][: n1 - i - ga]
            if any(row):
                for k in range(ga + 1):
                    _add_row(A[i][k], ga - k, math.comb(ga, k), row)
    # B[p][m] = sum_j 2^j C(p+j, j) A[p+j][m-j] is the B[p, m] of the
    # float step times dP: 2^j / (j! k! p!) times i! k! is 2^j C(i, j).
    B = _int_rows(n1)
    for i in range(n1):
        for k in range(n1 - i):
            row = A[i][k][: n1 - i - k]
            if any(row):
                for j in range(i + 1):
                    _add_row(B[i - j][k + j], 0, math.comb(i, j) << j, row)
    # Laplacian lifts V_p of the new spin's transform, times dv.
    V = [vn]
    for p in range(1, n1):
        prev = V[-1]
        V.append([2 * (n + 1) * (D + 2 * n) * prev[n + 1] for n in range(len(prev) - 1)])
    # J^e = Jn^e Jd^(E-e) / Jd^E, and B[p][m] is nonzero only for
    # p + m <= M, so m + 2p <= E = 2M; the output is over dP dv Jd^E.
    E = 2 * M
    Jn, Jd = J.numerator, J.denominator
    Jpow = [Jn**e * Jd ** (E - e) for e in range(E + 1)]
    fact = [math.factorial(k) for k in range(n1)]
    # out[al][c][n2] is the term of zeta1^al zeta2^n2 zeta12^c.  The term of
    # (p, m, a) at zeta1^(s-q), q = m-a, takes perm(s, q) V_p[s] and the
    # first M-s+1 entries of B[p][m], so the sum over p is done first:
    # G[s] = sum_p J^(m+2p) V_p[s] B[p][m][: M-s+1].
    out = _int_rows(n1)
    for m in range(n1):
        live = [p for p in range(n1 - m) if any(B[p][m])]
        lo = (m + 1) // 2  # the least q = m - a
        G = {}
        for s in range(lo, n1):
            row = [0] * (n1 - s)
            for p in live:
                if s < len(V[p]) and V[p][s]:
                    _add_row(row, 0, Jpow[m + 2 * p] * V[p][s], B[p][m][: n1 - s])
            if any(row):
                G[s] = row
        for a in range(m // 2 + 1):
            q, c = m - a, m - 2 * a
            # m! 2^(m-2a) / (a! (m-2a)!); perm(s, q) is the derivative weight
            w = fact[m] // (fact[a] * fact[c]) << c
            for s, row in G.items():
                if s >= q:
                    _add_row(out[s - q][c], a, w * math.perm(s, q), row)
    return _lowest(out, dP * dv * Jd**E)


# ---------------------------------------------------------------------------
# The chain driver
# ---------------------------------------------------------------------------


def _diag_from_tensor(P, M):
    n1 = M + 1
    deg = np.add.outer(np.add.outer(np.arange(n1), np.arange(n1)), np.arange(n1))
    return np.bincount(deg.ravel(), weights=P.ravel(), minlength=n1)[: n1]


def _chain(v: LaplaceSeries, J, D):
    """Grow the chain from the transform v one spin at a time.

    Yields (kernel, diagonal) for N = 1, 2, 3, ...: Psi_N in the field's
    own form (integer rows Pn[a1][a12][a2] over one denominator dP, as the
    pair (Pn, dP), or a dense float tensor P[a1, a2, a12]) and the M+1
    coefficients of phi_N.  N = 1 yields no kernel (None): its kernel
    v(g11) is the seed of the first step, built only when that step is taken.
    """
    M = v.truncation_degree
    if v.field == RATIONAL:
        dv = math.lcm(*(c.denominator for c in v.coefficients))
        vn = [c.numerator * (dv // c.denominator) for c in v.coefficients]

        def seed():
            Pn = _int_rows(M + 1)
            for al, x in enumerate(vn):
                Pn[al][0][0] = x
            return Pn, dv

        def diagonal(P):
            Pn, dP = P
            return [Fraction(x, dP) for x in _diagonal_sums(Pn, M)]

        def advance(P):
            return _advance_exact((vn, dv), P, J, D, M)

    else:
        v_arr = np.array([float(c) for c in v.coefficients])

        def seed():
            P = np.zeros((M + 1, M + 1, M + 1))
            P[:, 0, 0] = v_arr
            return P

        def diagonal(P):
            return list(_diag_from_tensor(P, M))

        def advance(P):
            return _advance_float(v_arr, P, float(J), int(D), M)

    yield None, tuple(v.coefficients)
    kernel = seed()
    while True:
        kernel = advance(kernel)
        yield kernel, tuple(diagonal(kernel))


def phi_from_transform(v: LaplaceSeries, Ns, J, D):
    """Partition series phi_N for every chain length N in Ns, from a transform series.

    Returns {N: series} in ascending N, from one sweep of the chain.  Useful
    for surrogate kernels; ``phi_chain`` does the same for real measures.
    """
    Ns = list(Ns)
    if not Ns or any(n < 1 or int(n) != n for n in Ns):
        raise ValueError(f"chain lengths must be positive integers, got {Ns}")
    wanted = {int(n) for n in Ns}
    out = {}
    # zip stops on the range, so no step past the longest chain is taken
    for N, (_, diag) in zip(range(1, max(wanted) + 1), _chain(v, J, D)):
        if N in wanted:
            out[N] = replace(
                v,
                coefficients=diag,
                dimension=int(D),
                pi_power=v.pi_power * N,
                chain_length=N,
                coupling=J,
            )
    return out


def psi_kernel(v: LaplaceSeries, N, J, D) -> TruncatedPoly:
    """The two-boundary kernel Psi_N itself, as a pair-ring polynomial.

    phi is its diagonal; the full kernel is useful for slot-sensitive
    checks and for seeding longer chains.
    """
    if N < 2 or int(N) != N:
        raise ValueError("the two-boundary kernel needs at least two spins")
    kernel, _ = next(itertools.islice(_chain(v, J, D), int(N) - 1, None))
    if v.field == RATIONAL:
        Pn, dP = kernel
        terms = {
            (al, be, ga): Fraction(x, dP)
            for al, plane in enumerate(Pn)
            for ga, row in enumerate(plane)
            for be, x in enumerate(row)
            if x
        }
        return TruncatedPoly(PAIR_VARS, terms, v.truncation_degree, RATIONAL)
    terms = {
        (int(a), int(b), int(c)): float(kernel[a, b, c]) for a, b, c in zip(*np.nonzero(kernel))
    }
    return TruncatedPoly(PAIR_VARS, terms, v.truncation_degree, FLOAT)


def phi_chain(Ns, D, J, measure: RadialMeasure, M, field=FLOAT):
    """Partition series phi_{N,D} for every chain length N in Ns at coupling J.

    N = 1 is the single-spin transform; longer chains iterate the transfer
    recursion at truncation degree M, in one sweep.  Z_N(z) = phi_N(z^2).
    """
    return phi_from_transform(laplace_transform(measure, D, M, field), Ns, J, D)
