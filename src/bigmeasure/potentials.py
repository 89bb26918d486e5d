"""Numerical Riesz potentials of the radial measure families.

``riesz_potential`` evaluates U(x) = integral of |x - y|^(alpha - dim) mu(dy)
with the *idealized* kernel (no normalizing constant; multiply by
:func:`bigmeasure.kernels.green_constant` for Green-function expectations).
Rotation invariance reduces everything to one radial integral against the
shell-averaged kernel kbar(rho, s), a closed-form 2F1 (see
:mod:`bigmeasure.kernels`). Every integral goes through one vectorized
panel rule, ``_panels``: Gauss-Legendre 16 on panels, all nodes of a round
in one kernel call, bisecting a panel where its value and the sum over its
halves disagree. The starting edges hold every break known in advance (0,
the probe radius, the ball wall, window ends, gauge knots), and panels
halve in width toward the kernel's kink |s - rho|^(alpha - 1), whose last
sliver is summed in closed form from a fit of its singular and regular
parts. A stretch the rule cannot bring within tol raises ValueError. The
power weight's near field has geometric edges from its bulk out to the
probe; the ball is taken in t up to halfway from the probe to its wall and
in v = (R - t)^(1 - r) past that, where the wall singularity is gone;
annulus windows take one panel each, and those next to the probe one
``_panels`` call between them. Far fields run the same rule in u = log x,
where power laws are gentle exponentials (``_log_integral``), out to a
span past which the power-law remainder is added in closed form. A series
sums its head and the indices within _KINK_PAD of the probe's index term
by term, and the stretches before and after that span by the midpoint
Euler-Maclaurin closure over such an integral.

Divergence is decided analytically from the family tail exponents, never
from partial sums looking large; ``divergent`` results carry a witness with
the exponent and growing partial sums or integrals.

``tol`` arguments are relative tolerances for each ``_panels`` call. Every
piece carries an error estimate (bisection differences, sliver-fit misses,
2 % of each Euler-Maclaurin derivative correction, 1e-5 of each power-law
remainder); ``abs_error`` is their sum, an estimate, not a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import GaugeOutOfRange, HypothesisViolated
from .kernels import KernelModel, shell_average_batch, sphere_surface_area
from .measures import (
    AnnulusSeries,
    BoundaryPower,
    MeasureSpec,
    PowerWeight,
    SphereSeries,
    family_class,
    point_radius,
    support_scale,
)

__all__ = [
    "PotentialResult",
    "RadialTable",
    "riesz_potential",
    "gauge_weighted_potential",
    "DecayCheck",
    "potential_decay_check",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# windows 1.._DIRECT_HEAD are always summed exactly; the index stretch
# within _KINK_PAD of the window holding the probe radius is summed exactly
# too, because the shell kernel has a kink at s = rho
_DIRECT_HEAD = 64
_KINK_PAD = 64
_MAX_DIRECT = 2_000_000
# bisection rounds of the panel rule; a jump the edges miss needs about
# log2(1/tol) of them
_MAX_ROUNDS = 50
# panels left to bisect in one round beyond which the rule gives up
_MAX_OPEN = 1 << 14
# least width of the sliver beside a singular kink c, as a share of |c|:
# nodes nearer than that sit on a float64 grid too coarse for fixed weights
_SLIVER = 2.0**-26


@dataclass(frozen=True)
class PotentialResult:
    """Value of one radial potential evaluation.

    value is +inf exactly when ``divergent``; ``compact_part`` is the
    contribution of the stated near region (always <= value) and
    ``terms_used`` counts exactly-enumerated windows, shells, or quadrature
    evaluations, whichever the family uses.
    """

    value: float
    divergent: bool
    abs_error: float
    terms_used: int
    compact_part: float
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class RadialTable:
    """Radial gauge profile: piecewise linear in radius, values in [0, 1].

    Extrapolates as a constant beyond the last knot (and before the first),
    which keeps interpolated values inside [0, 1].
    """

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise ValueError("need matching 1-d radii/values arrays with >= 2 knots")
        if not np.all(np.diff(r) > 0):
            raise ValueError("radii must be strictly increasing")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise GaugeOutOfRange("gauge table values must lie in [0, 1]")

    def __call__(self, s) -> np.ndarray:
        return np.interp(np.asarray(s, dtype=float), self.radii, self.values)


# ---------------------------------------------------------------------------
# quadrature and series helpers


def _at(f, x) -> float:
    """f at one point; every integrand here maps a 1-d array to an array."""
    return float(f(np.array([x], dtype=float))[0])


def _gl(f, lo, width):
    """16-point Gauss-Legendre integral of f over each panel [lo_i, lo_i + width_i]."""
    half = 0.5 * width
    x = (lo + half)[:, None] + half[:, None] * _GL_NODES
    return (f(x.ravel()).reshape(x.shape) @ _GL_WEIGHTS) * half


def _panels(f, edges, kinks, tol, inside=None):
    """(integral, abs_error, evaluations) of f between the first and last edge.

    Gauss-Legendre 16 on the panels between the edges (those whose midpoint
    is ``inside``, all by default), with all nodes of a round in one call of
    f. A panel is done where its value and the sum over its halves differ by
    at most tol times the running total, that difference being its error
    estimate; the rest are bisected, for at most _MAX_ROUNDS rounds.
    ``kinks`` holds (c, beta, sliver): c an edge where f ~ A + B |s -
    c|^beta (B log|s - c| for beta = 0), as at the kernel's kink |s -
    rho|^(alpha - 1). For beta >= 1 the panels beside c get edges that
    halve toward it until the one beside c is below tol. For beta < 1 they
    halve down to a sliver 2^-16 of the nearest edge's distance h, but no
    narrower than ``sliver``, the finest width the float grid near c
    resolves for fixed nodes (2^-30 h for sliver 0, as at c = 0). The sliver
    takes the exact integral of A + B phi + C x + D x phi, x = |s - c| and
    phi = x^beta or log x, fitted to f at four points of it (good to O((x /
    h)^2)); the fit's miss at its midpoint is its error estimate.
    ValueError where f is not finite or the error stays above tol.
    """
    tol = max(tol, 1e-12)
    edges = np.unique(edges)
    graded = [edges]
    for c, beta, sliver in kinks:
        i = int(np.searchsorted(edges, c))
        near = edges[[j for j in (i - 1, i + 1) if 0 <= j < edges.size]] - c
        if beta >= 1.0:
            steps = [math.ceil((math.log2(1.0 / tol) + 10.0) / (1.0 + beta))] * near.size
        elif sliver:
            # the sliver's model holds to O((x / h)^2) for the nearest edge h
            width = max(sliver, 2.0**-16 * float(np.abs(near).min()))
            steps = [math.ceil(math.log2(abs(h) / width)) for h in near]
        else:
            steps = [30] * near.size
        for h, n in zip(near, steps):
            graded.append(c + h * 2.0 ** -np.arange(1.0, n + 1.0))
    edges = np.unique(np.concatenate(graded)) if len(graded) > 1 else edges
    lo, width = edges[:-1], np.diff(edges)
    keep = np.ones(lo.size, dtype=bool) if inside is None else inside(lo + 0.5 * width)
    ends = []
    for c, beta, _ in kinks:
        i = int(np.searchsorted(edges, c))
        for j in [j for j in (i - 1, i) if beta < 1.0 and 0 <= j < lo.size and keep[j]]:
            keep[j] = False
            ends.append((c, width[j] if j == i else -width[j], beta))
    total, err, neval = 0.0, 0.0, 0
    if ends:
        c, delta, beta = (np.array(column)[:, None] for column in zip(*ends))
        s = c + delta * np.array([0.05, 0.3, 0.65, 0.95, 0.5])
        v = f(s.ravel()).reshape(s.shape)
        u = np.abs(s - c) / np.abs(delta)  # as rounded, so the fit sees where f was taken
        with np.errstate(divide="ignore"):
            phi = np.where(beta == 0.0, np.log(u), u**beta)
        basis = np.stack([np.ones_like(u), phi, u, u * phi], axis=-1)
        coef = np.linalg.solve(basis[:, :4], v[:, :4, None])[:, :, 0]
        # means of the basis over the unit sliver
        ones = np.ones_like(beta[:, 0])
        means = np.stack([ones, 1.0 / (1.0 + beta[:, 0]), 0.5 * ones, 1.0 / (2.0 + beta[:, 0])], -1)
        means[beta[:, 0] == 0.0] = [1.0, -1.0, 0.5, -0.25]
        d = np.abs(delta[:, 0])
        total = float(np.sum(d * np.sum(coef * means, axis=1)))
        err = float(np.sum(d * np.abs(v[:, 4] - np.sum(basis[:, 4] * coef, axis=1))))
        neval = v.size
    lo, width = lo[keep], width[keep]
    whole = _gl(f, lo, width)
    neval += 16 * lo.size
    for _ in range(_MAX_ROUNDS):
        if not 0 < (n := lo.size) <= _MAX_OPEN:
            break
        lo, width = np.concatenate([lo, lo + 0.5 * width]), np.concatenate([0.5 * width] * 2)
        parts = _gl(f, lo, width)
        neval += 16 * parts.size
        if not np.isfinite(parts).all():
            break
        pair = parts[:n] + parts[n:]
        diff = np.abs(whole - pair)
        done = diff <= tol * abs(total + pair.sum())
        total += float(pair[done].sum())
        err += float(diff[done].sum())
        again = np.concatenate([~done, ~done])
        lo, width, whole = lo[again], width[again], parts[again]
    if lo.size or not (math.isfinite(total) and err <= 10.0 * max(1e-10, tol * abs(total))):
        raise ValueError(
            f"the panel rule missed tol={tol:g} on [{edges[0]:g}, {edges[-1]:g}]: "
            f"error estimate {err:g} on a sum of {total:g}"
        )
    return total, err, neval


def _fd(f, x, step=0.25):
    lo, hi = f(np.array([x - step, x + step]))
    return float(hi - lo) / (2.0 * step)


def _log_integral(f, a, b, tol, exponent=None, x_cap=None):
    """(integral, abs_error, evaluations) of f over [a, b], 0 < a < b <= inf.

    ``_panels`` in u = log x, where power laws are gentle exponentials, from
    starting edges at most 4 apart. For b = inf, f(x) ~ c x^exponent with
    exponent < -1, the panels end at B = a exp(span), where the remainder
    f(B) B / (-1 - exponent) is negligible or the power law holds closely,
    and that remainder is added; ``x_cap`` bounds B where f's factors would
    leave the normal float range.
    """
    rest = 0.0
    if math.isinf(b):
        if exponent >= -1.0:
            raise ValueError("tail integral needs a decay exponent below -1")
        rate = -1.0 - exponent
        span = min(120.0, math.log(1e6 / tol) / rate)
        if x_cap is not None and x_cap > a:
            span = min(span, math.log(x_cap / a))
        b = a * math.exp(span)
        rest = _at(f, b) * b / rate
    lo, hi = math.log(a), math.log(b)
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / 4.0) + 1)
    val, err, ne = _panels(lambda u: f(np.exp(u)) * np.exp(u), edges, [], tol)
    return val + rest, err + 1e-5 * abs(rest), ne


def _em_sum(f, lo, hi, tol, exponent=None, x_cap=None):
    """sum of f(n) over integers n in (lo, hi], hi may be inf.

    Midpoint Euler-Maclaurin: the sum equals the integral over
    [lo + 1/2, hi + 1/2] plus derivative corrections of order 1/24; needs f
    smooth there, which the callers arrange by keeping the probe-radius kink
    out of the stretch. ``exponent`` is the analytic decay power of f,
    required when hi is infinite.
    """
    if hi <= lo:
        return 0.0, 0.0, 0
    a, b = lo + 0.5, hi + 0.5
    val, err, ne = _log_integral(f, a, b, tol, exponent, x_cap)
    corr = (_fd(f, a) - (0.0 if math.isinf(b) else _fd(f, b))) / 24.0
    return val + corr, err + 0.02 * abs(corr), ne


def _interval_batch(a, w, rho, integrand, tol, alpha):
    """Integrate over the disjoint intervals [a_i, a_i + w_i].

    Widths are carried separately from the left endpoints: far windows are
    narrower than one ulp of their position, where an endpoint difference
    would round to zero but the product form keeps the width exact (the
    Gauss nodes then collapse onto the midpoint, the correct limit).
    Gauss-Legendre panels where the kernel is smooth; one
    :func:`_panels` call for the intervals within two widths of rho,
    graded toward rho clamped into each, a kink only where it is rho itself.
    There the integrand counts the intervals holding each node, since a
    prefix of admissible windows may overlap.
    """
    dist = np.maximum.reduce([a - rho, rho - a - w, np.zeros_like(a)])
    hard = dist < 2.0 * w
    total = 0.0
    lo, wd = a[~hard], w[~hard]
    for start in range(0, lo.size, 65536):
        total += float(_gl(integrand, lo[start : start + 65536], wd[start : start + 65536]).sum())
    lo, hi = a[hard], a[hard] + w[hard]
    lo, hi = lo[hi > lo], hi[hi > lo]
    starts, stops = np.sort(lo), np.sort(hi)
    count = lambda s: np.searchsorted(starts, s, side="right") - np.searchsorted(stops, s, side="right")
    c = np.clip(rho, lo, hi)
    # a window beside rho but not holding it is graded toward its end nearest
    # rho, as for a kink of exponent 1 there
    kinks = [(x, alpha - 1.0 if x == rho else 1.0, _SLIVER * x) for x in c] if alpha < 2.0 else []
    held = lambda s: integrand(s) * count(s)
    v, err, _ = _panels(held, np.concatenate([lo, c, hi]), kinks, tol, lambda m: count(m) > 0)
    return total + v, err


def _radius_cap(dim: int, alpha: float) -> float:
    """Radius up to which s^(dim-1) and the kernel's s^(alpha-dim) stay normal floats."""
    return 10.0 ** (300.0 / max(dim - min(alpha, 1.0), 3))


# ---------------------------------------------------------------------------
# family drivers (all work with the idealized kernel, no green constant)


def _power_weight_potential(mu, rho, model, gfun, g_tail, knots, tol):
    alpha, d = model.alpha, model.dim
    omega = sphere_surface_area(d)
    p = mu.p

    def F(t):
        v = shell_average_batch(rho, t, alpha, d) * omega * t ** (d - 1) * (1.0 + t) ** p
        return v if gfun is None else v * gfun(t)

    tail_exp = alpha + p - 1.0
    bare_div = tail_exp >= -1.0
    divergent = bare_div and (gfun is None or g_tail > 0.0)
    # past the last gauge knot the gauge is constant, so the integrand is
    # smooth there and the tail starts past every knot
    bulk = max(4.0, knots[-1] if knots is not None else 0.0)
    cut, cap = max(2.0 * rho + 2.0, bulk), _radius_cap(d, alpha)
    if not cut <= cap:
        raise ValueError(
            f"probe radius {rho:g} is too far out: the near field reaches {cut:g}, past "
            f"radius {cap:g} where s^(d-1) or the kernel leaves the float range in d={d}"
        )
    # geometric edges from the bulk out to the cut keep the weight near
    # |y| ~ 1 on panels of its own scale however far out the probe is
    n_geo = math.ceil(math.log(cut / bulk, 4.0))
    edges = [0.0, rho, cut, *bulk * 4.0 ** np.arange(n_geo)]
    if knots is not None:
        edges += [k for k in knots if 0.0 < k < cut]
    near, err1, n1 = _panels(F, edges, [(rho, alpha - 1.0, _SLIVER * rho)] if alpha < 2.0 else [], tol)
    witness = {"tail_exponent": tail_exp, "threshold": -1.0}
    if divergent:
        marks = {}
        for upper in (1e2, 1e5, 1e8):
            if upper > cut:
                v, _, _ = _log_integral(F, cut, upper, tol)
                marks["%g" % upper] = near + v
        witness["partial_integrals"] = marks
        return PotentialResult(math.inf, True, math.inf, n1, near, witness)
    if gfun is not None and g_tail == 0.0:
        return PotentialResult(near, False, err1, n1, near, witness)
    far, err2, n2 = _log_integral(F, cut, math.inf, tol, tail_exp, cap)
    return PotentialResult(near + far, False, err1 + err2, n1 + n2, near, witness)


def _series_integrand(rho, model, r, gfun):
    """s -> kbar(rho, s) omega_d s^(d-1-r) g(s), the shell weight of a window or shell."""
    alpha, d = model.alpha, model.dim
    omega = sphere_surface_area(d)

    def integrand(s):
        v = shell_average_batch(rho, s, alpha, d) * omega * s ** (d - 1 - r)
        if gfun is not None:
            v = v * gfun(s)
        return v

    return integrand


def _series_potential(mu, noun, block, f, rho, model, gfun, g_tail, knots, tol):
    """Potential of a measure made of one term per index n = 1, 2, ...

    The family's first sequence (growth or radii) places the probe radius
    and the gauge knots on the index axis (``Seq.index``). ``block(n)`` sums
    the terms of the indices n and returns (value, error estimate, whether
    a term is infinite); ``f(x)`` is the term at real indices x past every
    table, where each sequence is its smooth tail rule, for the
    Euler-Maclaurin stretches. The head and the stretch around the probe
    index go through ``block``, the rest through ``_em_sum``.
    """
    lead, hard_cap = mu.seqs[0], mu.hard_cap
    head_n = max([_DIRECT_HEAD] + [seq.table_len for seq in mu.seqs])
    if knots is not None:
        # enumerate every term the gauge table can vary on; past the last
        # knot the gauge is constant and the tail machinery applies
        head_n = max(head_n, math.ceil(min(lead.index(knots[-1]), _MAX_DIRECT)) + 1)
    if hard_cap is not None:
        head_n = min(head_n, hard_cap)
    if head_n > _MAX_DIRECT:
        raise ValueError(f"too many {noun} to enumerate ({head_n})")

    exponent = mu.series_exponent(model.alpha)
    witness = {"tail_exponent": exponent, "threshold": -1.0}
    value, err, singular = block(np.arange(1, head_n + 1, dtype=float))
    compact, terms = value, head_n

    def probe_on_a_shell():
        witness["note"] = "shell at the probe radius with alpha <= 1"
        return PotentialResult(math.inf, True, math.inf, terms, compact, witness)

    if singular:
        return probe_on_a_shell()

    if hard_cap is not None:
        witness["truncated_at"] = hard_cap
        return PotentialResult(value, False, err, terms, compact, witness)

    divergent = exponent >= -1.0 and (gfun is None or g_tail > 0.0)
    if divergent:
        marks = {}
        for upper in (1e3, 1e6):
            if upper > head_n:
                v, _, _ = _em_sum(f, head_n, upper, tol)
                marks["%g" % upper] = value + v
        witness["partial_sums"] = marks
        return PotentialResult(math.inf, True, math.inf, terms, compact, witness)

    if gfun is not None and g_tail == 0.0:
        # the gauge vanishes beyond its last knot and the head covers it
        return PotentialResult(value, False, err, terms, compact, witness)

    # the span summed term by term keeps the kernel's kink _KINK_PAD indices
    # from either Euler-Maclaurin stretch. Past index 1e12 float64 cannot
    # index it; its share of the tail is ~f(x_rho), negligible, but flagged
    x_rho, x_cap = float(lead.index(rho)), float(lead.index(_radius_cap(model.dim, model.alpha)))
    lo = hi = head_n
    if x_rho <= 1e12:
        lo = max(head_n, math.floor(x_rho) - _KINK_PAD)
        hi = max(head_n, math.ceil(x_rho) + _KINK_PAD)
    else:
        err += 3.0 * abs(_at(f, 1e12))
    if hi > lo:
        v, e, singular = block(np.arange(lo + 1, hi + 1, dtype=float))
        if singular:
            return probe_on_a_shell()
        value += v
        err += e
        terms += hi - lo
        if x_rho < head_n + _KINK_PAD:
            compact += v
    for a, b in ((head_n, lo), (hi, math.inf)):
        v, e, _ = _em_sum(f, a, b, tol, exponent, x_cap=x_cap)
        value += v
        err += e
    return PotentialResult(value, False, err, terms, compact, witness)


def _window_series_potential(mu, rho, model, gfun, g_tail, knots, tol):
    mu.require_admissible()
    integrand = _series_integrand(rho, model, mu.r, gfun)

    def block(n):
        a = mu.growth(n)
        v, e = _interval_batch(a, a * mu.gap(n), rho, integrand, tol, model.alpha)
        return v, e, False

    def f(x):
        # window integrals at real indices x
        a = mu.growth(x)
        return _gl(integrand, a, a * mu.gap(x))

    return _series_potential(mu, "windows", block, f, rho, model, gfun, g_tail, knots, tol)


def _sphere_series_potential(mu, rho, model, gfun, g_tail, knots, tol):
    integrand = _series_integrand(rho, model, mu.r, gfun)

    def block(n):
        terms = integrand(mu.radii(n))
        finite = np.isfinite(terms)
        return float(terms[finite].sum()), 0.0, not finite.all()

    def f(x):
        return integrand(mu.radii(x))

    return _series_potential(mu, "shells", block, f, rho, model, gfun, g_tail, knots, tol)


def _boundary_potential(mu, rho, model, gfun, g_tail, knots, tol):
    alpha, d = model.alpha, model.dim
    omega = sphere_surface_area(d)
    R, r = mu.radius, mu.r
    if r >= 1.0:
        if gfun is not None:
            raise ValueError(
                "gauge-weighted potential of a boundary measure with r >= 1 "
                "is not supported (the measure is not locally finite)"
            )
        return PotentialResult(
            math.inf,
            True,
            math.inf,
            0,
            math.inf,
            {"boundary_exponent": r, "threshold": 1.0, "note": "mass near the boundary is infinite"},
        )
    if rho == R and r >= alpha:
        return PotentialResult(
            math.inf,
            True,
            math.inf,
            0,
            0.0,
            {
                "boundary_exponent": r,
                "threshold": alpha,
                "note": "probe on the boundary: kernel singularity meets the density",
            },
        )

    knots = [] if knots is None else [x for x in knots if 0.0 < x < R]

    def weight(t):
        val = shell_average_batch(rho, t, alpha, d) * omega * t ** (d - 1)
        return val if gfun is None else val * gfun(t)

    # between 0 and the midpoint of probe and wall the variable is t itself,
    # where nodes near the kernel's kink at rho stay apart from it
    mid = 0.5 * (rho + R) if rho < R else 0.0
    val, err, ne = 0.0, 0.0, 0
    if rho < R:
        kinks = [(rho, alpha - 1.0, _SLIVER * rho)] if alpha < 2.0 else []
        edges = [0.0, rho, mid, *[x for x in knots if x < mid]]
        val, err, ne = _panels(lambda t: weight(t) * (R - t) ** -r, edges, kinks, tol)
    # past it, v = (R - t)^(1 - r) with (R - t)^-r dt = -dv / (1 - r): the
    # wall singularity is gone, and the wall end v = 0 is as smooth as t = R
    # - v^k; a probe on the wall puts the kernel's kink there too, of
    # exponent k (alpha - 1), with a sliver _SLIVER R wide in t
    k, top = 1.0 / (1.0 - r), R ** (1.0 - r)
    # R - v^k, exact to rounding near t = 0
    F = lambda v: weight(-R * np.expm1(k * np.log1p((v - top) / top))) * k
    edges = [0.0, (R - mid) ** (1.0 - r)] + [(R - x) ** (1.0 - r) for x in knots if x > mid]
    wall = (0.0, k * (alpha - 1.0), (_SLIVER * R) ** (1.0 - r)) if rho == R else (0.0, k, 0.0)
    v, e, n = _panels(F, edges, [wall], tol)
    val, err, ne = val + v, err + e, ne + n
    return PotentialResult(val, False, err, ne, val, {"boundary_exponent": r, "threshold": 1.0})


# ---------------------------------------------------------------------------
# public entry points


# family -> (potential routine, whether its bare potential diverges at a given alpha)
_ROUTES = {
    PowerWeight: (_power_weight_potential, lambda mu, alpha: alpha + mu.p >= 0.0),
    AnnulusSeries: (_window_series_potential, lambda mu, alpha: bool(mu.series_diverges(alpha))),
    SphereSeries: (_sphere_series_potential, lambda mu, alpha: bool(mu.series_diverges(alpha))),
    BoundaryPower: (_boundary_potential, lambda mu, alpha: mu.r >= 1.0),
}


def _radial_potential(mu, rho, model, gfun, g_tail, knots, tol) -> PotentialResult:
    model.require_transient()
    route, bare_divergent = _ROUTES[family_class(mu)]
    if gfun is not None and g_tail is None and bare_divergent(mu, model.alpha):
        raise ValueError(
            "divergent bare potential: pass the gauge as a RadialTable so its "
            "tail value is defined"
        )
    return route(mu, rho, model, gfun, g_tail, knots, tol)


def riesz_potential(mu: MeasureSpec, x, model: KernelModel, tol: float = 1e-9) -> PotentialResult:
    """U(x) = integral of |x - y|^(alpha - dim) mu(dy), idealized kernel."""
    return _radial_potential(mu, point_radius(x), model, None, None, None, float(tol))


def gauge_weighted_potential(
    mu: MeasureSpec,
    gauge: Union[RadialTable, Callable],
    x,
    model: KernelModel,
    tol: float = 1e-9,
) -> PotentialResult:
    """integral of |x - y|^(alpha - dim) g(|y|) mu(dy) for a radial gauge g.

    ``gauge`` is a :class:`RadialTable` (piecewise linear, constant beyond
    the last knot) or a vectorized callable of the radius.
    """
    if isinstance(gauge, RadialTable):
        gfun: Callable = gauge
        g_tail: Optional[float] = float(gauge.values[-1])
        knots: Optional[np.ndarray] = gauge.radii
    elif callable(gauge):
        gfun = lambda s: np.asarray(gauge(np.asarray(s, dtype=float)), dtype=float)
        g_tail = None
        knots = None
    else:
        raise TypeError("gauge must be a RadialTable or a callable of the radius")
    return _radial_potential(mu, point_radius(x), model, gfun, g_tail, knots, float(tol))


@dataclass(frozen=True, eq=False)
class DecayCheck:
    """Far-field decay probe of a finite potential."""

    radii: np.ndarray
    values: np.ndarray
    passed: bool
    decay_fraction: float
    decreasing_from: int


def potential_decay_check(
    mu: MeasureSpec,
    model: KernelModel,
    radii=None,
    decay_fraction: float = 0.5,
    tol: float = 1e-9,
) -> DecayCheck:
    """Check that U decays along a geometric radius grid.

    Default grid: support_scale * 10 * 2^k, k = 0..3. Passes when the values
    are eventually strictly decreasing and the last is at most
    ``decay_fraction`` times the first. Finite potentials with tail exponent
    close to the divergence threshold decay arbitrarily slowly; widen the
    grid or raise the fraction for those.
    """
    if model.alpha <= 1.0:
        raise HypothesisViolated(
            f"the decay property needs alpha > 1, got alpha={model.alpha}"
        )
    if radii is None:
        radii = support_scale(mu) * 10.0 * 2.0 ** np.arange(4)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.size < 2 or not np.all(np.diff(radii) > 0):
        raise ValueError("need at least two strictly increasing probe radii")
    first = riesz_potential(mu, radii[0], model, tol)
    if first.divergent:
        raise HypothesisViolated("the potential is divergent; nothing can decay")
    values = np.empty_like(radii)
    values[0] = first.value
    for i, rr in enumerate(radii[1:], start=1):
        values[i] = riesz_potential(mu, rr, model, tol).value
    rising = np.nonzero(np.diff(values) >= 0.0)[0]
    decreasing_from = int(rising[-1]) + 1 if rising.size else 0
    passed = decreasing_from <= radii.size - 2 and values[-1] <= decay_fraction * values[0]
    return DecayCheck(radii, values, bool(passed), float(decay_fraction), decreasing_from)
