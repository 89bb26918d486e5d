"""Riesz kernels and their spherical averages.

Conventions used throughout the package:

* the free-space process with stability index ``alpha`` in (0, 2] has
  characteristic function exp(-t |xi|^alpha); alpha = 2 is Brownian motion
  generated by the full Laplacian (increment covariance 2*t*I),
* for dim > alpha its Green function is
  G(x, y) = C(dim, alpha) |x - y|^(alpha - dim) with
  C(dim, alpha) = Gamma((dim - alpha)/2) / (2^alpha pi^(dim/2) Gamma(alpha/2)),
* ``riesz_kernel`` and everything built on it works with the *idealized*
  kernel |x - y|^(alpha - dim); the constant is applied by callers that need
  physical expectations (see :func:`green_constant`).

``radial_shell_average`` is the workhorse for rotation-invariant measures:
the average of the kernel over a centered sphere of radius ``s`` seen from
distance ``rho``, i.e. the kernel of the one-dimensional radial reduction.
It has one closed form in every dimension, the Gauss hypergeometric

    kbar(rho, s) = M^(alpha-dim) 2F1((dim-alpha)/2, 1-alpha/2; dim/2; (m/M)^2)

with M = max(rho, s), m = min(rho, s), evaluated by ``scipy.special.hyp2f1``
on whole arrays. At m = M the series converges exactly when alpha > 1.
"""

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
    "riesz_kernel",
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


def riesz_kernel(x, y, model: KernelModel) -> float:
    """Idealized kernel |x - y|^(alpha - dim)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dist = float(np.linalg.norm(x - y))
    if dist == 0.0:
        raise CoincidentPoints("riesz_kernel at x == y")
    return dist ** (model.alpha - model.dim)


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
    big = np.maximum(rho, s)
    u = np.minimum(rho, s) / big
    val = big ** (alpha - dim) * special.hyp2f1(
        (dim - alpha) / 2.0, 1.0 - alpha / 2.0, dim / 2.0, u * u
    )
    if alpha <= 1.0 and alpha < dim:
        # the polar integral diverges at coincident radii
        val = np.where(u == 1.0, math.inf, val)
    return val
