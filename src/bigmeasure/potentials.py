"""Numerical Riesz potentials of the radial measure families.

``riesz_potential`` evaluates U(x) = integral of |x - y|^(alpha - dim) mu(dy)
with the *idealized* kernel (no normalizing constant; multiply by
:func:`bigmeasure.kernels.green_constant` for Green-function expectations).
Rotation invariance reduces everything to one radial integral against the
shell-averaged kernel kbar(rho, s), a closed-form 2F1 (see
:mod:`bigmeasure.kernels`): adaptive quadrature with singularity splitting
near s = rho, log-coordinate Gauss-Legendre panels on the smooth stretch
between a power weight's bulk and a far probe, fixed Gauss-Legendre panels
per annulus window, and a midpoint
Euler-Maclaurin closure for the infinite series tails. The integrands take
whole arrays of radii, so each panel set and each tail is one kernel call.

Divergence is decided analytically from the family tail exponents, never
from partial sums looking large; ``divergent`` results carry a witness with
the exponent and growing partial sums or integrals.

``tol`` arguments are relative tolerances for the quadrature pieces. The
Euler-Maclaurin closure adds an O(f''') error of its own; reported
``abs_error`` values are estimates, not bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate

from .errors import GaugeOutOfRange, HypothesisViolated, NonConvergedQuadrature
from .kernels import KernelModel, shell_average_batch, sphere_surface_area
from .measures import (
    AnnulusSeries,
    BoundaryPower,
    MeasureSpec,
    PowerWeight,
    SphereSeries,
    family_class,
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

    @property
    def max_radius(self) -> float:
        return float(self.radii[-1])

    def __call__(self, s) -> np.ndarray:
        return np.interp(np.asarray(s, dtype=float), self.radii, self.values)


# ---------------------------------------------------------------------------
# quadrature and series helpers


def _at(f, x) -> float:
    """f at one point; every integrand here maps a 1-d array to an array."""
    return float(f(np.array([x], dtype=float))[0])


def _quad(f, a, b, tol, points=None):
    kwargs = dict(epsabs=1e-12, epsrel=max(tol, 1e-12), limit=400, full_output=1)
    if points is not None and not math.isinf(b):
        kwargs["points"] = points
    out = integrate.quad(lambda t: _at(f, t), a, b, **kwargs)
    val, err = out[0], out[1]
    if len(out) > 3 and err > 10.0 * max(1e-10, tol * abs(val)):
        raise NonConvergedQuadrature(str(out[3]))
    neval = int(out[2]["neval"]) if isinstance(out[2], dict) else 0
    return val, err, neval


def _fd(f, x, step=0.25):
    lo, hi = f(np.array([x - step, x + step]))
    return float(hi - lo) / (2.0 * step)


def _log_quad(f, a, b, tol, step=0.5):
    """Integral of f over [a, b], 0 < a <= b, in log coordinates.

    Composite fixed-order Gauss-Legendre on short panels in u = log x, where
    power-law integrands are gentle exponentials; each panel is then exact to
    near machine precision, with no adaptive quadrature to fail.
    """
    ua, ub = math.log(a), math.log(b)
    if ub <= ua:
        return 0.0, 0.0, 0
    n_panel = max(1, int(math.ceil((ub - ua) / step)))
    edges = np.linspace(ua, ub, n_panel + 1)
    half = 0.5 * (edges[1] - edges[0])
    mid = 0.5 * (edges[:-1] + edges[1:])
    u = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    x = np.exp(u)
    panel = (f(x) * x).reshape(n_panel, 16) @ _GL_WEIGHTS * half
    total = float(panel.sum())
    return total, 1e-13 * float(np.abs(panel).sum()), x.size


def _tail_integral(f, a, exponent, tol, x_cap=None):
    """Integral of f over [a, inf) for f(x) ~ c x^exponent, exponent < -1.

    Integrates numerically out to B = a exp(span) and adds the analytic
    remainder f(B) B / (-1 - exponent); the span is chosen so either the
    remainder is negligible or the power law holds to high accuracy by B.
    ``x_cap`` bounds B where f's factors would leave the float range.
    """
    if exponent >= -1.0:
        raise ValueError("tail integral needs a decay exponent below -1")
    rate = -1.0 - exponent
    span = min(120.0, math.log(1e6 / tol) / rate)
    if x_cap is not None and x_cap > a:
        span = min(span, math.log(x_cap / a))
    b = a * math.exp(span)
    step = min(0.5, 6.0 / rate)
    val, err, ne = _log_quad(f, a, b, tol, step=step)
    rest = _at(f, b) * b / rate
    return val + rest, err + 1e-5 * abs(rest), ne


def _em_sum(f, lo, hi, tol, exponent=None, x_cap=None):
    """sum of f(n) over integers n in (lo, hi], hi may be inf.

    Midpoint Euler-Maclaurin: the sum equals the integral over
    [lo + 1/2, hi + 1/2] plus derivative corrections of order 1/24; needs f
    smooth there, which the callers arrange by keeping the probe-radius kink
    out of the stretch. ``exponent`` is the analytic decay power of f,
    required when hi is infinite.
    """
    a = lo + 0.5
    der_a = _fd(f, a)
    if math.isinf(hi):
        val, err, ne = _tail_integral(f, a, exponent, tol, x_cap=x_cap)
        corr = der_a / 24.0
    else:
        if hi <= lo:
            return 0.0, 0.0, 0
        b = hi + 0.5
        val, err, ne = _log_quad(f, a, b, tol)
        corr = (der_a - _fd(f, b)) / 24.0
    return val + corr, err + 0.02 * abs(corr), ne


def _interval_batch(a, w, rho, integrand, tol):
    """Integrate over the disjoint intervals [a_i, a_i + w_i].

    Widths are carried separately from the left endpoints: far windows are
    narrower than one ulp of their position, where an endpoint difference
    would round to zero but the product form keeps the width exact (the
    Gauss nodes then collapse onto the midpoint, the correct limit).
    Gauss-Legendre panels where the kernel is smooth; adaptive quadrature
    with a breakpoint at rho for intervals within two widths of it.
    """
    dist = np.maximum.reduce([a - rho, rho - a - w, np.zeros_like(a)])
    hard = dist < 2.0 * w
    total = 0.0
    err = 0.0
    if np.any(~hard):
        lo, wd = a[~hard], w[~hard]
        for start in range(0, lo.size, 65536):
            l, d = lo[start : start + 65536], wd[start : start + 65536]
            half = 0.5 * d
            mid = l + half
            s = mid[:, None] + half[:, None] * _GL_NODES[None, :]
            vals = integrand(s.ravel()).reshape(s.shape)
            total += float((vals @ _GL_WEIGHTS) @ half)
    for lo, wd in zip(a[hard], w[hard]):
        hi = lo + wd
        if hi <= lo:
            continue
        pts = [rho] if lo < rho < hi else None
        v, e, _ = _quad(integrand, lo, hi, tol, points=pts)
        total += v
        err += e
    return total, err, int(np.count_nonzero(hard))


def _radius_cap(dim: int) -> float:
    """Radius up to which the surface factor s^(dim-1) stays inside the float range."""
    return 10.0 ** (300.0 / max(dim - 1, 3))


def _tail_plan(head_n: int, x_rho: float):
    """(extra direct span, EM stretches) so no stretch crosses the kink index."""
    pad = _KINK_PAD
    if x_rho > 1e12:
        # the kink window is too far out to index in float64; its relative
        # share of the tail is ~h(x_rho), negligible, but flag it
        return None, [(head_n, math.inf)], True
    if x_rho < head_n + pad:
        if x_rho > head_n - pad:
            ext = int(math.ceil(x_rho)) + pad
            return (head_n, ext, True), [(ext, math.inf)], False
        return None, [(head_n, math.inf)], False
    m_lo = int(math.floor(x_rho)) - pad
    m_hi = int(math.ceil(x_rho)) + pad
    return (m_lo, m_hi, False), [(head_n, m_lo), (m_hi, math.inf)], False


# ---------------------------------------------------------------------------
# family drivers (all work with the idealized kernel, no green constant)


def _power_weight_potential(mu, rho, model, gfun, g_tail, g_top, tol):
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
    # smooth there; fold the knots into the adaptive near-field part
    bulk = max(4.0, g_top if g_top is not None else 0.0)
    cut, cap = max(2.0 * rho + 2.0, bulk), _radius_cap(d)
    if not cut <= cap:
        raise ValueError(
            f"probe radius {rho:g} is too far out: the near field reaches {cut:g}, past "
            f"radius {cap:g} where the surface factor leaves the float range in d={d}"
        )
    if rho > 2.0 * bulk:
        # the weight near |y| ~ 1 is a tiny share of [0, cut] for a far probe,
        # and one adaptive rule over all of it can miss it entirely: split the
        # smooth stretch between the bulk and the kink at rho off into log panels
        pieces = [
            _quad(F, 0.0, bulk, tol),
            _log_quad(F, bulk, 0.5 * rho, tol),
            _quad(F, 0.5 * rho, cut, tol, points=[rho]),
        ]
    else:
        pieces = [_quad(F, 0.0, cut, tol, points=[rho] if 0.0 < rho < cut else None)]
    near, err1, n1 = (sum(column) for column in zip(*pieces))
    witness = {"tail_exponent": tail_exp, "threshold": -1.0}
    if divergent:
        marks = {}
        for upper in (1e2, 1e5, 1e8):
            if upper > cut:
                v, _, _ = _log_quad(F, cut, upper, tol)
                marks["%g" % upper] = near + v
        witness["partial_integrals"] = marks
        return PotentialResult(math.inf, True, math.inf, n1, near, witness)
    if gfun is not None and g_tail == 0.0:
        return PotentialResult(near, False, err1, n1, near, witness)
    far, err2, n2 = _tail_integral(F, cut, tail_exp, tol, x_cap=cap)
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


def _series_potential(mu, noun, block, f, rho, model, gfun, g_tail, g_top, tol):
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
    if g_top is not None:
        # enumerate every term the gauge table can vary on; past the last
        # knot the gauge is constant and the tail machinery applies
        head_n = max(head_n, math.ceil(min(lead.index(g_top), _MAX_DIRECT)) + 1)
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
                try:
                    v, _, _ = _em_sum(f, head_n, upper, tol)
                except NonConvergedQuadrature:
                    continue
                marks["%g" % upper] = value + v
        witness["partial_sums"] = marks
        return PotentialResult(math.inf, True, math.inf, terms, compact, witness)

    if gfun is not None and g_tail == 0.0:
        # the gauge vanishes beyond its last knot and the head covers it
        return PotentialResult(value, False, err, terms, compact, witness)

    x_cap = float(lead.index(_radius_cap(model.dim)))
    span, stretches, capped = _tail_plan(head_n, float(lead.index(rho)))
    if span is not None:
        lo, hi, near_head = span
        v, e, singular = block(np.arange(lo + 1, hi + 1, dtype=float))
        if singular:
            return probe_on_a_shell()
        value += v
        err += e
        terms += hi - lo
        if near_head:
            compact += v
    for lo, hi in stretches:
        v, e, _ = _em_sum(f, lo, hi, tol, exponent, x_cap=x_cap)
        value += v
        err += e
    if capped:
        err += 3.0 * abs(_at(f, 1e12))
    return PotentialResult(value, False, err, terms, compact, witness)


def _window_series_potential(mu, rho, model, gfun, g_tail, g_top, tol):
    mu.require_admissible()
    integrand = _series_integrand(rho, model, mu.r, gfun)

    def block(n):
        a = mu.growth(n)
        v, e, _ = _interval_batch(a, a * mu.gap(n), rho, integrand, tol)
        return v, e, False

    def f(x):
        # window integrals at real indices x, on an (N, 16) Gauss node grid
        a = mu.growth(x)
        half = 0.5 * (a * mu.gap(x))
        s = (a + half)[:, None] + half[:, None] * _GL_NODES
        return (integrand(s.ravel()).reshape(s.shape) @ _GL_WEIGHTS) * half

    return _series_potential(mu, "windows", block, f, rho, model, gfun, g_tail, g_top, tol)


def _sphere_series_potential(mu, rho, model, gfun, g_tail, g_top, tol):
    integrand = _series_integrand(rho, model, mu.r, gfun)

    def block(n):
        terms = integrand(mu.radii(n))
        finite = np.isfinite(terms)
        return float(terms[finite].sum()), 0.0, not finite.all()

    def f(x):
        return integrand(mu.radii(x))

    return _series_potential(mu, "shells", block, f, rho, model, gfun, g_tail, g_top, tol)


def _boundary_potential(mu, rho, model, gfun, g_tail, g_top, tol):
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

    def F(t):
        v = shell_average_batch(rho, t, alpha, d) * omega * t ** (d - 1) * (R - t) ** -r
        return v if gfun is None else v * gfun(t)

    pts = [rho] if 0.0 < rho < R else None
    val, err, ne = _quad(F, 0.0, R, tol, points=pts)
    return PotentialResult(val, False, err, ne, val, {"boundary_exponent": r, "threshold": 1.0})


# ---------------------------------------------------------------------------
# public entry points


def _probe_radius(x) -> float:
    return float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))


# family -> (potential routine, whether its bare potential diverges at a given alpha)
_ROUTES = {
    PowerWeight: (_power_weight_potential, lambda mu, alpha: alpha + mu.p >= 0.0),
    AnnulusSeries: (_window_series_potential, lambda mu, alpha: bool(mu.series_diverges(alpha))),
    SphereSeries: (_sphere_series_potential, lambda mu, alpha: bool(mu.series_diverges(alpha))),
    BoundaryPower: (_boundary_potential, lambda mu, alpha: mu.r >= 1.0),
}


def _radial_potential(mu, rho, model, gfun, g_tail, g_top, tol) -> PotentialResult:
    model.require_transient()
    route, bare_divergent = _ROUTES[family_class(mu)]
    if gfun is not None and g_tail is None and bare_divergent(mu, model.alpha):
        raise ValueError(
            "divergent bare potential: pass the gauge as a RadialTable so its "
            "tail value is defined"
        )
    return route(mu, rho, model, gfun, g_tail, g_top, tol)


def riesz_potential(mu: MeasureSpec, x, model: KernelModel, tol: float = 1e-9) -> PotentialResult:
    """U(x) = integral of |x - y|^(alpha - dim) mu(dy), idealized kernel."""
    return _radial_potential(mu, _probe_radius(x), model, None, None, None, float(tol))


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
        g_top: Optional[float] = gauge.max_radius
    elif callable(gauge):
        gfun = lambda s: np.asarray(gauge(np.asarray(s, dtype=float)), dtype=float)
        g_tail = None
        g_top = None
    else:
        raise TypeError("gauge must be a RadialTable or a callable of the radius")
    return _radial_potential(mu, _probe_radius(x), model, gfun, g_tail, g_top, float(tol))


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
