"""Riesz kernels and their spherical averages.

Conventions used throughout the package:

* the free-space process with stability index ``alpha`` in (0, 2] has
  characteristic function exp(-t |xi|^alpha); alpha = 2 is Brownian motion
  generated by the full Laplacian (increment covariance 2*t*I),
* for dim > alpha its Green function is
  G(x, y) = C(dim, alpha) |x - y|^(alpha - dim) with
  C(dim, alpha) = Gamma((dim - alpha)/2) / (2^alpha pi^(dim/2) Gamma(alpha/2)),
* the shell averages here work with the *idealized* kernel
  |x - y|^(alpha - dim); the constant is applied by callers that need
  physical expectations (see :func:`green_constant`).

``radial_shell_average`` is the workhorse for rotation-invariant measures:
the average of the kernel over a centered sphere of radius ``s`` seen from
distance ``rho``, i.e. the kernel of the one-dimensional radial reduction.
It has one closed form in every dimension, the Gauss hypergeometric

    kbar(rho, s) = M^(alpha-dim) 2F1((dim-alpha)/2, 1-alpha/2; dim/2; (m/M)^2)

with M = max(rho, s), m = min(rho, s), by ``scipy.special.hyp2f1`` on whole
arrays. At m = M the series converges exactly when alpha > 1. Where
m/M > 0.9 hyp2f1 is slow, loses up to 1e-9 for alpha < 1 and fails within
about 1e-14 of z = 1 for |alpha - 1| < 0.05 (inf, or its z = 1 value), so
the kernel takes the 1 - z connection formula (DLMF 15.8.4, c - a - b =
epsilon = alpha - 1) with 1 - z = (M - m)(M + m)/M^2 formed without
cancellation. Its two terms grow like 1/epsilon and cancel near alpha = 1,
so it is summed as one series whose k-th term is the difference of theirs
divided by epsilon, by a recurrence free of that cancellation; at epsilon
= 0 it is the logarithmic case, DLMF 15.8.10. At alpha = 2 (b = 0) the
factor is 1, exactly as hyp2f1 returns it, so no call is made; left to
hyp2f1: dim <= alpha (a <= 0).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    AlphaOutOfRange,
    CoincidentPoints,
    NotTransient,
)

__all__ = [
    "KernelModel",
    "green_constant",
    "radial_shell_average",
    "shell_average_batch",
    "sphere_surface_area",
]


@dataclass(frozen=True)
class KernelModel:
    """Stability index and dimension of one free-space Green function."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not (0 < self.alpha <= 2):
            raise AlphaOutOfRange(f"alpha must be in (0, 2], got {self.alpha}")
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")

    def require_transient(self):
        if self.dim <= self.alpha:
            raise NotTransient(
                f"free-space process with alpha={self.alpha} in dim={self.dim} "
                "is recurrent; no Green function"
            )


def sphere_surface_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim: 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / special.gamma(dim / 2.0)


def green_constant(alpha: float, dim: int) -> float:
    """C(dim, alpha) such that G(x,y) = C |x-y|^(alpha-dim); requires dim > alpha."""
    if not (0 < alpha <= 2):
        raise AlphaOutOfRange(f"alpha must be in (0, 2], got {alpha}")
    if dim <= alpha:
        raise NotTransient(f"need dim > alpha, got dim={dim}, alpha={alpha}")
    return special.gamma((dim - alpha) / 2.0) / (
        2.0**alpha * math.pi ** (dim / 2.0) * special.gamma(alpha / 2.0)
    )


def radial_shell_average(rho: float, s: float, alpha: float, dim: int) -> float:
    """Average of |x - y|^(alpha-dim) over the sphere |y| = s, with |x| = rho.

    With M = max(rho, s) and m = min(rho, s) the average is
    M^(alpha-dim) 2F1((dim-alpha)/2, 1-alpha/2; dim/2; (m/M)^2), one closed
    form for every dimension: in dim 1 it is the two-point average of
    |rho -+ s|^(alpha-1), and at alpha = 2 it is Newton's M^(2-dim).
    Returns math.inf when the average diverges (rho == s with alpha <= 1
    and alpha < dim).
    """
    if rho < 0 or s < 0:
        raise ValueError("radii must be nonnegative")
    if not (0 < alpha <= 2):
        raise AlphaOutOfRange(f"alpha must be in (0, 2], got {alpha}")
    if rho == s == 0.0:
        raise CoincidentPoints("shell average at rho = s = 0")
    return float(shell_average_batch(rho, s, alpha, dim))


def shell_average_batch(rho: float, s, alpha: float, dim: int) -> np.ndarray:
    """Shell average of :func:`radial_shell_average` over an array of radii s.

    Coincidences rho == s come back as inf for alpha <= 1, as in the scalar
    path; with rho == 0 the value is the plain power s^(alpha-dim).
    """
    s = np.asarray(s, dtype=float)
    if rho == 0.0:
        with np.errstate(divide="ignore"):
            return s ** (alpha - dim)
    shape, s = s.shape, s.ravel()
    big = np.maximum(rho, s)
    if alpha == 2.0:
        # Newton's M^(2 - dim)
        return (big ** (alpha - dim)).reshape(shape)
    gap = np.abs(s - rho) / big  # 1 - m/M, and 1 - z = gap (2 - gap)
    near = (gap < 0.1) & (alpha < min(dim, 2.0))
    val = np.empty_like(big)
    u = np.minimum(rho, s[~near]) / big[~near]
    val[~near] = special.hyp2f1((dim - alpha) / 2.0, 1.0 - alpha / 2.0, dim / 2.0, u * u)
    if near.any():
        val[near] = _near_coincidence(alpha, dim, gap[near] * (2.0 - gap[near]))
    val *= big ** (alpha - dim)
    if alpha <= 1.0 and alpha < dim:
        # the polar integral diverges at coincident radii
        val[gap == 0.0] = math.inf
    return val.reshape(shape)


def _near_coincidence(alpha: float, dim: int, w: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; 1 - w) of the shell kernel for 0 <= w < 0.19 (DLMF 15.8.4).

    With e = c - a - b = alpha - 1 the connection formula is sum_k (p_k -
    q_k) / e, where p_k / e and -q_k / e are the k-th terms of its two series
    (p_k and q_k stay finite as e -> 0; q_k carries the factor w^e). The sum
    is t_0 (1 + P(w)) + q_0 Q(w) with t_0 = (p_0 - q_0) / e and power series
    P, Q of fixed coefficients.
    """
    head, p0, lam0, (P, Q) = _connection(alpha, dim)
    e = alpha - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = head * w**e
        if lam0 is None:
            t = (p0 - q) / e
        else:
            # q_0 / p_0 = exp(-e lam), so t_0 = -p_0 expm1(-e lam) / e exactly
            lam = lam0 - np.log(w)
            t = p0 * lam if e == 0.0 else -p0 * np.expm1(-e * lam) / e
        powers = np.cumprod(np.broadcast_to(w, (P.size, w.size)), axis=0)
        return t * (1.0 + P @ powers) + q * (Q @ powers)


@functools.lru_cache(maxsize=64)
def _connection(alpha: float, dim: int) -> tuple:
    """Per-(alpha, dim) constants of :func:`_near_coincidence`.

    q_0 = head w^e and p_0 = Gamma(c) Gamma(1 + e) / (Gamma(a + e) Gamma(b +
    e)). For |e| < 0.05 (and dim > 1, where all four Gammas are positive) the
    difference p_0 - q_0 is taken through lam = log(p_0 / q_0) / e =
    lam0 - log w, whose Gamma differences are means of the digamma function.
    P, Q: coefficients of w^1 ... w^32 (enough below w = 0.19), from the
    ratios of consecutive terms.
    """
    a, b, c, e = (dim - alpha) / 2.0, 1.0 - alpha / 2.0, dim / 2.0, alpha - 1.0
    g, rg = special.gamma, special.rgamma
    head, p0, lam0 = g(c) * g(1.0 - e) * rg(a) * rg(b), g(c) * g(1.0 + e) * rg(a + e) * rg(b + e), None
    if abs(e) < 0.05 and dim > 1:
        x, wts = np.polynomial.legendre.leggauss(16)
        mean = lambda lo: 0.5 * wts @ special.digamma(lo + 0.5 * (1.0 + x) * e)
        lam0 = wts @ special.digamma(1.0 + x * e) - mean(a) - mean(b)
    # t_k = w^k (u_k t_0 + v_k q_0), q_k = w^k z_k q_0, with t_k = (p_k - q_k) / e
    u, v, z, P, Q = 1.0, 0.0, 1.0, [], []
    for k in range(32):
        A, B, K = a + k, b + k, 1.0 + k
        # p_{k+1} = p_k w r / K and q_{k+1} = q_k w (A + e)(B + e) / ((K + e) K);
        # m is (r - (A + e)(B + e) / (K + e)) / e with the e cancelled by hand
        r = A * B / (K - e)
        m = (2.0 * A * B - (A + B) * K + e * (A + B - K) + e * e) / ((K - e) * (K + e))
        u, v, z = r * u / K, (r * v + m * z) / K, z * (A + e) * (B + e) / ((K + e) * K)
        P.append(u)
        Q.append(v)
    return head, p0, lam0, (np.array(P), np.array(Q))
