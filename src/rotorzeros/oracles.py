"""Oracles for small chains and single-spin transforms.

These evaluate the partition integral and the single-spin transform by
routes independent of the series recursion: tensor trapezoid over circle
angles at D = 2 (spectrally accurate for periodic analytic integrands),
the Funk-Hecke reduction of the sphere chain to one Jacobi matrix at any D
(exact in every coefficient), and radial quadrature of the summed kernel.
The sphere-delta convention is pinned by mass = pi^(D/2) r^(D/2-1) /
Gamma(D/2): each sphere integral is (1/2) r^(D/2-1) times the surface
integral over the unit sphere with points sqrt(r) * omega.
"""

from __future__ import annotations

import math

import numpy as np

from . import measures
from .measures import LaplaceSeries, MeasureError, RadialMeasure

W_TERM_CAP = 2000


def z_direct_circle(N, J, r, y, nodes=512) -> complex:
    """Z_N(i y e1) for the D = 2 sphere chain by tensor trapezoid.

    The chain structure reduces the N-torus sum to N matrix-vector
    products on the angular grid.
    """
    if not 2 <= N <= 4:
        raise ValueError(f"direct circle oracle supports N in 2..4, got {N}")
    if r <= 0:
        raise ValueError("sphere parameter r must be positive")
    if nodes < 64 or nodes & (nodes - 1):
        raise ValueError("nodes must be a power of 2, at least 64")
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    # per-spin weight: (2 pi / n) * (1/2) * r^(D/2-1) with D = 2
    w = np.pi / nodes
    field = np.exp(1j * y * math.sqrt(r) * np.cos(theta))
    kernel = np.exp(J * r * np.cos(theta[:, None] - theta[None, :]))
    u = w * field
    for _ in range(N - 1):
        u = (w * field) * (kernel @ u)
    return complex(u.sum())


def sphere_mass(D, r):
    """Total mass pi^(D/2) r^(D/2-1) / Gamma(D/2) of the sphere delta."""
    return math.pi ** (D / 2) * r ** (D / 2 - 1) / math.gamma(D / 2)


def phi_modal(Ns, D, J, r, M):
    """phi_N for N in Ns of the sphere chain: a_0..a_M, exact up to rounding.

    Funk-Hecke reduction (H. E. Stanley, Phys. Rev. 179, 570 (1969)): in the
    orthonormal polynomials of t = omega.e1 for the weight (1-t^2)^(lam-1/2),
    lam = (D-2)/2, multiplication by t is the Jacobi matrix T (zero diagonal,
    off-diagonal sqrt(beta_l)), and exp(kappa omega.omega'), kappa = J r, is
    diag(mu), mu_l = Gamma(lam+1) (2/kappa)^lam I_(l+lam)(kappa) summed as a
    power series.  With x = z sqrt(r) and m the sphere mass, a_n = m^N r^n
    [x^(2n)] e0' (e^(xT) diag mu)^(N-1) e^(xT) e0.  A path of at most 2M steps
    from e0 back to e0 never passes l = M, so M+1 basis functions and 2M+1
    orders in x lose nothing.
    """
    Ns = sorted({int(n) for n in Ns})
    if not Ns or Ns[0] < 1 or D < 1 or int(D) != D or not r > 0:
        raise ValueError(f"need N >= 1, an integer D >= 1 and r > 0, got {Ns}, {D}, {r}")
    lam, h, K = (D - 2) / 2, J * r / 2, 2 * M + 1
    ls = np.arange(2, M + 1)
    beta = np.r_[1 / (2 + 2 * lam), ls * (ls + 2 * lam - 1) / (4 * (ls + lam) * (ls + lam - 1))]
    s = np.sqrt(beta[:M])[:, None]  # s[l-1] couples l-1 and l; D = 1 closes at {1, t}
    mu, lead = [], 1.0  # lead: the k = 0 term Gamma(lam+1) h^l / Gamma(l+lam+1)
    for l in range(M + 1):
        lead = term = total = lead * h / (l + lam) if l else 1.0
        k = 0
        while term and abs(term) > 1e-17 * abs(total):
            k += 1
            term *= h * h / (k * (k + l + lam))
            total += term
        mu.append([total])
    u, out = np.zeros((M + 1, K)), {}
    u[0, 0] = 1.0
    for N in range(1, Ns[-1] + 1):
        term = u = u * mu if N > 1 else u
        for j in range(1, K):  # add (xT)^j / j! of the input; column c of term is order c + j
            prev, term = term[:, :-1] / j, np.zeros((M + 1, K - j))
            term[1:] += s * prev[:-1]
            term[:-1] += s * prev[1:]
            u[:, j:] += term
        if N in Ns:
            a = sphere_mass(D, r) ** N * r ** np.arange(M + 1) * u[0, ::2]
            out[N] = LaplaceSeries(
                tuple(a.tolist()), int(D), M, f"sphere(r={r})", chain_length=N, coupling=J
            )
    return out


def w_kernel_value(D, zeta, r):
    """w_D(zeta, r) summed adaptively to machine precision.

    Terms grow like (|zeta| r / 4)^n / (n!)^2; the cap guards profiles
    fed far outside any sensible range.
    """
    term = r ** (D / 2 - 1) / math.gamma(D / 2)
    total = term
    for n in range(1, W_TERM_CAP + 1):
        term = term * zeta * r / (4.0 * n * (D / 2 + n - 1))
        total += term
        if abs(term) <= 1e-18 * max(abs(total), 1e-300):
            return total
    raise MeasureError(
        f"w_D series did not converge: |zeta| r / 4 = {abs(zeta) * r / 4:.3g} "
        f"exceeded the term cap {W_TERM_CAP}"
    )


def laplace_direct(measure: RadialMeasure, D, zeta) -> complex:
    """chi_hat at z with z^2 = zeta, by radial quadrature of the kernel.

    Independent of the series pipeline: the kernel is summed pointwise and
    integrated against tau, rather than exchanging sum and integral.
    """
    zeta = float(zeta)
    if measure.kind == "sphere":
        r = float(measure.radius)
        return complex(math.pi ** (D / 2) * w_kernel_value(D, zeta, r))
    R = measures._tail_cutoff(measure, max(D / 2 - 1, 0))
    tau = measures._compiled(measure).tau

    def integrand(x):
        # substitution r = x^2; the kernel carries the radial powers, which
        # with the Jacobian 2x stays smooth at 0 also for odd D
        return 2.0 * x * w_kernel_value(D, zeta, x * x) * tau(x * x)

    value, _ = measures.integrate.quad(
        integrand, 0.0, math.sqrt(R), epsabs=0.0, epsrel=1e-12, limit=400
    )
    return complex(math.pi ** (D / 2) * value)
