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

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import (
    AlphaOutOfRange,
    CoincidentPoints,
    NotTransient,
)

__all__ = [
    "FreeSpace",
    "BoundedBall",
    "KernelModel",
    "green_constant",
    "riesz_kernel",
    "radial_shell_average",
    "shell_average_batch",
    "boundary_green_profile",
    "sphere_surface_area",
]


@dataclass(frozen=True)
class FreeSpace:
    """Kernel comparable to the free-space Riesz kernel, c_lower <= ratio <= c_upper."""

    c_lower: float = 1.0
    c_upper: float = 1.0

    def __post_init__(self):
        if not (0 < self.c_lower <= self.c_upper):
            raise ValueError("need 0 < c_lower <= c_upper")


@dataclass(frozen=True)
class BoundedBall:
    """Absorbing ball of given radius; Green function vanishes at the boundary."""

    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class KernelModel:
    """Stability index, dimension and domain variant for one Green function.

    ``boundary_exponent`` is the rate at which the bounded-domain Green
    function vanishes at the boundary: 1 for alpha = 2, alpha - 1 for
    alpha in (1, 2). It is derived from alpha; passing it explicitly only
    validates the value.
    """

    alpha: float
    dim: int
    variant: FreeSpace | BoundedBall = field(default_factory=FreeSpace)
    boundary_exponent: float | None = None

    def __post_init__(self):
        if not (0 < self.alpha <= 2):
            raise AlphaOutOfRange(f"alpha must be in (0, 2], got {self.alpha}")
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if isinstance(self.variant, BoundedBall):
            if self.alpha <= 1:
                raise AlphaOutOfRange(
                    "bounded-ball model requires alpha in (1, 2] "
                    "(boundary exponent undefined otherwise)"
                )
            beta = 1.0 if self.alpha == 2 else self.alpha - 1.0
            if self.boundary_exponent is None:
                object.__setattr__(self, "boundary_exponent", beta)
            elif self.boundary_exponent != beta:
                raise ValueError(
                    f"boundary_exponent must be {beta} for alpha={self.alpha}"
                )
        elif self.boundary_exponent is not None:
            raise ValueError("boundary_exponent only applies to BoundedBall")

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
    """Idealized kernel |x - y|^(alpha - dim) for the free-space model."""
    if isinstance(model.variant, BoundedBall):
        raise ValueError("riesz_kernel is the free-space kernel; got BoundedBall")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dist = float(np.linalg.norm(x - y))
    if dist == 0.0:
        raise CoincidentPoints("riesz_kernel at x == y")
    return dist ** (model.alpha - model.dim)


def boundary_green_profile(delta_y: float, model: KernelModel) -> float:
    """Boundary decay factor delta^beta of the bounded-ball Green function."""
    if not isinstance(model.variant, BoundedBall):
        raise ValueError("boundary_green_profile requires a BoundedBall model")
    if delta_y < 0:
        raise ValueError("distance to the boundary must be nonnegative")
    return delta_y**model.boundary_exponent


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
