"""The fast transfer chain for the chain partition function.

The kernel Psi_N(zeta1, zeta2, zeta12) of a chain of N spins carries the
field of the end spin in slot 1 and the field of every other spin in slot 2.
The full-chain function of the squared field is its diagonal
phi_N(zeta) = Psi_N(zeta, zeta, zeta), so that Z_N(z) = phi_N(z^2).

The chain driver takes one fast step per coefficient field: a Taylor
re-expansion of Psi_{N-1} around the diagonal, which needs only univariate
transforms, on dense float tensors or in exact integers.  The rational
chain carries Psi_N between steps as integer rows over one least common
denominator and makes Fractions only for phi_N and ``psi_kernel``.  The
paper's operator construction in ``polys`` (``psi_two`` and ``psi_step``)
is the reference the tests check both steps against, term by term.
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
from .polys import FLOAT, PAIR_VARS, RATIONAL, TruncatedPoly, _dimension, coerce_scalar

# ---------------------------------------------------------------------------
# The fast step: the chain step through diagonal Taylor data
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
# _step_tables(M) caches the read-only tables of one degree cap.


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
    """Float-step tables at cap M: F, fact, perm, C, and past, the cells past M."""
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
    r = np.arange(n1)
    past = np.add.outer(np.add.outer(r, r), r) > M
    return _frozen(F, fact, perm, C, past)


def _taylor_data(P, M):
    """B[p, m, n] of the expansion of P around the diagonal (dense floats)."""
    n1 = M + 1
    F, fact, *_ = _step_tables(M)
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
    _, _, perm, C, past = _step_tables(M)
    Bdata = _taylor_data(P, M)
    # Laplacian lifts V_p of the new spin's transform, zero past column M.
    V = np.zeros((n1, 2 * n1))
    V[0, :n1] = v_coeffs
    for p in range(1, n1):
        n = np.arange(n1 - 1)
        V[p, : n1 - 1] = 2.0 * (n + 1) * (D + 2.0 * n) * V[p - 1, 1:n1]
    hankel = sliding_window_view(V, n1, axis=1)  # hankel[p, s, i] = V[p, s+i]
    Jpow = np.ones(2 * M + 1)
    for k in range(1, 2 * M + 1):
        try:
            Jpow[k] = float(J) ** k
        except OverflowError:
            raise OverflowError(f"coupling power J^{k} overflows at J={float(J):g}") from None
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
    out[past] = 0.0
    return out.transpose(2, 1, 0).copy()


def _add_row(target, offset, coef, row):
    """target[offset + n] += coef * row[n], on lists of Python ints."""
    stop = offset + len(row)
    target[offset:stop] = [t + coef * x for t, x in zip(target[offset:stop], row)]


def _int_plane(n1):
    return [[0] * n1 for _ in range(n1)]


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
    # Every term carries J^(m+2p), m + 2p <= E = 2M as B[p][m] vanishes
    # past p + m = M, and A[i][k] feeds only terms with m + 2p >= i + k.
    # So with top the last power of J that is not 0 (2M, or 0 at J = 0),
    # every stage keeps i + k <= top and m + 2p <= top; at J = 0 that
    # leaves v(zeta1) times the diagonal sums of the kernel.
    E = 2 * M
    top = E if J else 0
    planes = range(min(n1, top + 1))
    # Diagonal derivative data with the 1/(i! k!) of the B split folded in,
    # A[i][k][n] = sum of C(al, i) C(ga, k) Pn[al][ga][be] over
    # al+be+ga = n+i+k: first along al into T[i][ga] (a row over
    # al+be-i), then along ga.
    T = [_int_plane(n1) for _ in planes]
    for al in range(n1):
        for ga in range(n1 - al):
            row = Pn[al][ga][: n1 - al - ga]
            if any(row):
                for i in range(min(al, top) + 1):
                    _add_row(T[i][ga], al - i, math.comb(al, i), row)
    A = [_int_plane(n1) for _ in planes]
    for i in planes:
        for ga in range(n1 - i):
            row = T[i][ga][: n1 - i - ga]
            if any(row):
                for k in range(min(ga, top - i) + 1):
                    _add_row(A[i][k], ga - k, math.comb(ga, k), row)
    # B[p][m] = sum_j 2^j C(p+j, j) A[p+j][m-j] is the B[p, m] of the
    # float step times dP: 2^j / (j! k! p!) times i! k! is 2^j C(i, j).
    B = [_int_plane(n1) for _ in planes]
    for i in planes:
        for k in range(n1 - i):
            row = A[i][k][: n1 - i - k]
            if any(row):
                for j in range(i + 1):
                    _add_row(B[i - j][k + j], 0, math.comb(i, j) << j, row)
    # Laplacian lifts V_p of the new spin's transform, times dv.
    V = [vn]
    for p in planes[1:]:
        prev = V[-1]
        V.append([2 * (n + 1) * (D + 2 * n) * prev[n + 1] for n in range(len(prev) - 1)])
    # J^e = Jn^e Jd^(E-e) / Jd^E, so the output is over dP dv Jd^E.
    Jn, Jd = J.numerator, J.denominator
    Jpow = [Jn**e * Jd ** (E - e) for e in range(E + 1)]
    fact = [math.factorial(k) for k in range(n1)]
    # out[al][c][n2] is the term of zeta1^al zeta2^n2 zeta12^c.  The term of
    # (p, m, a) at zeta1^(s-q), q = m-a, takes perm(s, q) V_p[s] and the
    # first M-s+1 entries of B[p][m], so the sum over p is done first:
    # G[s] = sum_p J^(m+2p) V_p[s] B[p][m][: M-s+1].
    out = [_int_plane(n1) for _ in range(n1)]
    for m in planes:
        live = [p for p in range(min(n1 - m, (top - m) // 2 + 1)) if any(B[p][m])]
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


def _chain(v: LaplaceSeries, J):
    """Grow the chain from the transform v one spin at a time.

    Yields (kernel, diagonal) for N = 1, 2, 3, ...: Psi_N in the field's
    own form (integer rows Pn[a1][a12][a2] over one denominator dP, as the
    pair (Pn, dP), or a dense float tensor P[a1, a2, a12]) and the M+1
    coefficients of phi_N.  N = 1 yields no kernel (None): its kernel
    v(g11) is the seed of the first step, built only when that step is taken.
    The transform's D must be a positive integer, in both fields and every J.
    A float diagonal that is not finite raises OverflowError naming N.
    """
    D = _dimension(v.dimension)
    M = v.truncation_degree
    if v.field == RATIONAL:
        dv = math.lcm(*(c.denominator for c in v.coefficients))
        vn = [c.numerator * (dv // c.denominator) for c in v.coefficients]

        def seed():
            Pn = [_int_plane(M + 1) for _ in range(M + 1)]
            for al, x in enumerate(vn):
                Pn[al][0][0] = x
            return Pn, dv

        def diagonal(P, N):
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

        def diagonal(P, N):
            r = np.arange(M + 1)
            deg = np.add.outer(np.add.outer(r, r), r)
            diag = np.bincount(deg.ravel(), weights=P.ravel(), minlength=M + 1)[: M + 1]
            bad = ~np.isfinite(diag)
            if bad.any():
                raise OverflowError(f"N={N}: chain coefficient of degree {np.argmax(bad)} is not finite")
            return diag.tolist()

        def advance(P):
            # an overflow shows in the diagonal, which every cell inside the cap feeds
            with np.errstate(over="ignore", invalid="ignore"):
                return _advance_float(v_arr, P, float(J), D, M)

    yield None, tuple(v.coefficients)
    kernel = seed()
    for N in itertools.count(2):
        kernel = advance(kernel)
        yield kernel, tuple(diagonal(kernel, N))


def phi_from_transform(v: LaplaceSeries, Ns, J):
    """Partition series phi_N for every chain length N in Ns, from a transform series.

    Returns {N: series} in ascending N, from one sweep of the chain.  Useful
    for surrogate kernels; ``phi_chain`` does the same for real measures.
    The chain takes its dimension D from the transform.
    """
    Ns = list(Ns)
    if not Ns or any(n < 1 or int(n) != n for n in Ns):
        raise ValueError(f"chain lengths must be positive integers, got {Ns}")
    wanted = {int(n) for n in Ns}
    out = {}
    # zip stops on the range, so no step past the longest chain is taken
    for N, (_, diag) in zip(range(1, max(wanted) + 1), _chain(v, J)):
        if N in wanted:
            out[N] = replace(
                v,
                coefficients=diag,
                dimension=int(v.dimension),
                pi_power=v.pi_power * N,
                chain_length=N,
                coupling=J,
            )
    return out


def psi_kernel(v: LaplaceSeries, N, J) -> TruncatedPoly:
    """The kernel Psi_N itself, as a pair-ring polynomial.

    Slot 1 carries the field of the end spin, slot 2 the field of every
    other spin; phi is its diagonal.  The full kernel is useful for
    slot-sensitive checks and for seeding longer chains.
    """
    if N < 2 or int(N) != N:
        raise ValueError("the chain kernel needs at least two spins")
    kernel, _ = next(itertools.islice(_chain(v, J), int(N) - 1, None))
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
    return phi_from_transform(laplace_transform(measure, D, M, field), Ns, J)
