"""Rotation-invariant measure families and their radial reductions.

Four families of potential measures mu on R^d (d = dim), all rotation
invariant so every computation reduces to the radial profile:

* ``PowerWeight(p)``: absolutely continuous with density (1 + |y|)^p.
* ``AnnulusSeries(growth, gap, r)``: density |y|^(-r) restricted to the
  union of annuli a_n <= |y| <= b_n with a_n = f(n), b_n = f(n)(1 + h(n)).
* ``SphereSeries(radii, r)``: singular; weight s_n^(-r) times surface
  measure on the centered sphere of radius s_n.
* ``BoundaryPower(r, radius)``: density dist(y, boundary)^(-r) on a ball,
  for use with the absorbing-ball process.

Sequences f, h, s are either parametric pure powers of n or finite tables
with an optional power-law tail rule. A table without a tail rule leaves
the far behaviour of the measure undefined: downstream decisions that need
the tail report Inconclusive rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy import integrate

from .errors import NotAdmissible, ShellOverlap, SingularMeasure
from .kernels import sphere_surface_area

__all__ = [
    "Seq",
    "PowerWeight",
    "AnnulusSeries",
    "SphereSeries",
    "BoundaryPower",
    "MeasureSpec",
    "AdmissibilityResult",
    "admissibility_check",
    "RadialProfile",
    "radial_marginal",
    "evaluate_density",
    "smoothed_density",
    "radial_weight_fn",
    "default_smoothing_eps",
    "support_scale",
    "describe",
]


@dataclass(frozen=True)
class Seq:
    """Positive sequence indexed by n = 1, 2, ...

    Parametric: value(n) = n**exponent. Tabulated: explicit values for
    n <= len(values), continued as values[-1] * (n/len)**tail_exponent
    beyond the table when a tail rule is given, undefined otherwise.
    """

    exponent: Optional[float] = None
    values: Optional[tuple] = None
    tail_exponent: Optional[float] = None

    @classmethod
    def power(cls, exponent: float) -> "Seq":
        return cls(exponent=float(exponent))

    @classmethod
    def table(cls, values, tail_exponent: Optional[float] = None) -> "Seq":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("table must not be empty")
        if any(v <= 0 for v in vals):
            raise ValueError("table values must be positive")
        return cls(values=vals, tail_exponent=tail_exponent)

    def __post_init__(self):
        if (self.exponent is None) == (self.values is None):
            raise ValueError("exactly one of exponent / values must be set")
        if self.exponent is not None and self.tail_exponent is not None:
            raise ValueError("tail rule only applies to tabulated sequences")

    @property
    def is_parametric(self) -> bool:
        return self.exponent is not None

    @property
    def table_len(self) -> int:
        return 0 if self.values is None else len(self.values)

    @property
    def truncated(self) -> bool:
        """A table without a tail rule: undefined beyond its last entry."""
        return not self.is_parametric and self.tail_exponent is None

    def tail_power(self) -> Optional[float]:
        """Exponent governing value(n) for large n, None when undefined."""
        return self.exponent if self.is_parametric else self.tail_exponent

    def covers(self, n: int) -> bool:
        return self.is_parametric or n <= self.table_len or self.tail_exponent is not None

    def __call__(self, n):
        n_arr = np.asarray(n)
        scalar = n_arr.ndim == 0
        n_arr = np.atleast_1d(n_arr).astype(float)
        if np.any(n_arr < 1):
            raise ValueError("sequence index starts at 1")
        if self.is_parametric:
            out = n_arr**self.exponent
        else:
            vals = np.asarray(self.values, dtype=float)
            cnt = len(vals)
            out = np.empty_like(n_arr)
            within = n_arr <= cnt
            idx = np.minimum(n_arr, cnt).astype(np.int64) - 1
            out[within] = vals[idx[within]]
            beyond = ~within
            if beyond.any():
                if self.tail_exponent is None:
                    raise ValueError(
                        f"sequence undefined beyond table length {cnt} "
                        "(no tail rule)"
                    )
                out[beyond] = vals[-1] * (n_arr[beyond] / cnt) ** self.tail_exponent
        return float(out[0]) if scalar else out

    def log(self, n: np.ndarray) -> np.ndarray:
        """log value(n), finite where value(n) itself leaves the float range.

        NaN where a table entry (or the last one, for the tail) is not positive.
        """
        if self.is_parametric:
            return self.exponent * np.log(n)
        cnt = self.table_len
        within = n <= cnt
        out = np.empty_like(n)
        out[within] = np.log(self(n[within]))
        last = self.values[-1]
        log_last = math.log(last) if last > 0 else math.nan
        out[~within] = log_last + self.tail_exponent * np.log(n[~within] / cnt)
        return out


@dataclass(frozen=True)
class PowerWeight:
    """Density (1 + |y|)^p on all of R^d."""

    p: float


@dataclass(frozen=True)
class AnnulusSeries:
    """Density |y|^(-r) on the union of annuli [f(n), f(n)(1+h(n))]."""

    growth: Seq
    gap: Seq
    r: float

    def __post_init__(self):
        g, h = self.growth, self.gap
        if g.is_parametric:
            if g.exponent <= 0:
                raise ValueError("growth exponent must be positive")
        else:
            if np.any(np.diff(g.values) <= 0):
                raise ValueError("tabulated growth must be strictly increasing")
            if g.tail_exponent is not None and g.tail_exponent <= 0:
                raise ValueError("growth tail exponent must be positive")
        if h.is_parametric:
            if h.exponent > 0:
                raise ValueError("gap exponent must be <= 0 (h nonincreasing)")
        elif h.tail_exponent is not None and h.tail_exponent > 0:
            raise ValueError("gap tail exponent must be <= 0")

    @classmethod
    def parametric(cls, p: float, q: float, r: float) -> "AnnulusSeries":
        """f(n) = n^p, h(n) = n^(-q)."""
        return cls(growth=Seq.power(p), gap=Seq.power(-q), r=r)

    def window(self, n):
        """(a_n, b_n), vectorized over n."""
        f = self.growth(n)
        return f, f * (1.0 + self.gap(n))

    def series_exponent(self, alpha: float) -> Optional[float]:
        """Exponent e with f(n)^(alpha-r) h(n) ~ n^e, None when tails are unknown."""
        tp, th = self.growth.tail_power(), self.gap.tail_power()
        if tp is None or th is None:
            return None
        return tp * (alpha - self.r) + th


@dataclass(frozen=True)
class SphereSeries:
    """Weight s_n^(-r) times surface measure on spheres of radius s_n."""

    radii: Seq
    r: float

    def __post_init__(self):
        s = self.radii
        if s.is_parametric:
            if s.exponent <= 0:
                raise ValueError("radius exponent must be positive")
        else:
            if np.any(np.diff(s.values) <= 0):
                raise ValueError("tabulated radii must be strictly increasing")
            if s.tail_exponent is not None and s.tail_exponent <= 0:
                raise ValueError("radius tail exponent must be positive")

    @classmethod
    def parametric(cls, p: float, r: float) -> "SphereSeries":
        """s_n = n^p."""
        return cls(radii=Seq.power(p), r=r)

    def series_exponent(self, alpha: float) -> Optional[float]:
        """Exponent e with s_n^(alpha-1-r) ~ n^e, None when the tail is unknown."""
        tp = self.radii.tail_power()
        return None if tp is None else tp * (alpha - 1.0 - self.r)


@dataclass(frozen=True)
class BoundaryPower:
    """Density dist(y, boundary)^(-r) on the ball of the given radius."""

    r: float
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


MeasureSpec = Union[PowerWeight, AnnulusSeries, SphereSeries, BoundaryPower]


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of the window-disjointness check.

    For parametric input ``ok`` follows the asymptotic criterion (q > 1, or
    q = 1 and p >= 1): that is what makes the windows *eventually* disjoint,
    and it is the hypothesis the annulus threshold rule needs. When p < 1 a
    finite prefix of windows overlaps even for passing pairs (h(1) = 1
    regardless of q); ``first_violation`` reports the first such index, so
    it can be non-None while ok is True.
    """

    ok: bool
    first_violation: Optional[int]
    checked_to: int
    mode: str  # "analytic" or "direct"

    def __bool__(self):
        return self.ok


def _window_overlaps(growth: Seq, gap: Seq, n: np.ndarray) -> np.ndarray:
    """b_n > a_{n+1} for parametric windows; touching (b_n = a_{n+1}) is allowed."""
    return growth(n) * (1.0 + gap(n)) > growth(n + 1) * (1.0 + 1e-12)


def _parametric_first_violation(growth: Seq, gap: Seq, n_max: int) -> Optional[int]:
    """First n < n_max with b_n > a_{n+1}, settled in O(1) where provable.

    n = 1 overlaps for every p < 1 (b_1 = 2 > 2^p = a_2). For p >= 1 and
    q >= 1 no n does: b_n = n^p (1 + n^-q) <= n^p (1 + 1/n) <= (n+1)^p.
    Only the remaining pairs (q < 1) need the scan.
    """
    if n_max < 2:
        return None
    if _window_overlaps(growth, gap, np.ones(1))[0]:
        return 1
    if growth.exponent >= 1.0 and -gap.exponent >= 1.0:
        return None
    hits = np.nonzero(_window_overlaps(growth, gap, np.arange(1, n_max, dtype=float)))[0]
    return int(hits[0]) + 1 if hits.size else None


def admissibility_check(growth: Seq, gap: Seq, n_max: int = 100_000) -> AdmissibilityResult:
    """Do the annuli stay increasing and disjoint (b_n <= a_{n+1})?

    Parametric pairs f(n) = n^p, h(n) = n^(-q) are settled analytically:
    eventually disjoint iff q > 1, or q = 1 with p >= 1 (for p >= 1 that
    already gives disjointness at every n). Tabulated input is checked
    directly up to n_max (or the table end); tail rules, when both are
    present, are checked by the analytic criterion on the tail powers.
    """
    if growth.is_parametric and gap.is_parametric:
        p, q = growth.exponent, -gap.exponent
        ok = q > 1.0 or (q == 1.0 and p >= 1.0)
        first = _parametric_first_violation(growth, gap, n_max)
        return AdmissibilityResult(ok, first, n_max, "analytic")

    limit = n_max
    if not growth.covers(n_max + 1) or not gap.covers(n_max + 1):
        limit = min(
            n_max,
            (growth.table_len or n_max) if not growth.is_parametric else n_max,
            (gap.table_len or n_max) if not gap.is_parametric else n_max,
        )
    n = np.arange(1, limit, dtype=float)
    # b_n = a_n (1 + h_n) <= a_{n+1} (1 + 1e-12), compared in log space so
    # that steep sequences neither overflow nor underflow to a false verdict;
    # the logs come from the rules, so only a nonpositive entry is not finite
    with np.errstate(all="ignore"):
        log_a, log_h = growth.log(n), gap.log(n)
        overlap = log_a + np.logaddexp(0.0, log_h) > growth.log(n + 1) + math.log1p(1e-12)
        rising = np.concatenate([[True], np.diff(log_a) > 0])
    bad = overlap | ~rising | ~np.isfinite(log_a) | ~np.isfinite(log_h)
    hits = np.nonzero(bad)[0]
    if hits.size:
        return AdmissibilityResult(False, int(hits[0]) + 1, limit, "direct")
    tp, tq = growth.tail_power(), gap.tail_power()
    if tp is not None and tq is not None:
        q = -tq
        if not (q > 1.0 or (q == 1.0 and tp >= 1.0)):
            return AdmissibilityResult(False, None, limit, "direct")
    return AdmissibilityResult(True, None, limit, "direct")


def require_admissible(mu: AnnulusSeries, n_max: int = 100_000) -> None:
    res = admissibility_check(mu.growth, mu.gap, n_max)
    if not res.ok:
        where = (
            f"first violation at n={res.first_violation}"
            if res.first_violation is not None
            else f"eventually, none up to n={res.checked_to}"
        )
        raise NotAdmissible(f"annulus windows overlap ({where}, mode={res.mode})")


# ---------------------------------------------------------------------------
# window / shell membership, shared by densities and the simulator weight


_INDEX_CAP = float(2**62)


def _safe_index(real_index: np.ndarray) -> np.ndarray:
    """Round a real-valued sequence index down to int64 without overflow."""
    return np.clip(np.floor(real_index), 1.0, _INDEX_CAP).astype(np.int64)


def _seq_hard_cap(mu: AnnulusSeries) -> Optional[int]:
    """Last n the family is defined at, None if unbounded."""
    caps = [seq.table_len for seq in (mu.growth, mu.gap) if seq.truncated]
    return min(caps) if caps else None


def _window_index_base(mu: AnnulusSeries, s: np.ndarray) -> np.ndarray:
    """Largest n with a_n <= s (approximately); candidates are base, base+1."""
    g = mu.growth
    if g.is_parametric:
        return _safe_index(np.maximum(s, g(1)) ** (1.0 / g.exponent))
    vals = np.asarray(g.values)
    base = np.maximum(np.searchsorted(vals, s, side="right"), 1).astype(np.int64)
    if g.tail_exponent is not None:
        beyond = s > vals[-1]
        if beyond.any():
            base = base.copy()
            base[beyond] = _safe_index(
                len(vals) * (s[beyond] / vals[-1]) ** (1.0 / g.tail_exponent)
            )
    return base


def _annulus_membership(mu: AnnulusSeries, s: np.ndarray) -> np.ndarray:
    """Multiplicity of coverage of radius s by the annuli (0 or 1 if admissible).

    A tabulated family without a tail rule is treated as the finite union
    of its tabulated windows (zero density beyond the table); whether the
    *classification* can be settled without the tail is a separate question
    handled by the classifier.
    """
    s = np.asarray(s, dtype=float)
    base = _window_index_base(mu, s)
    cap = _seq_hard_cap(mu)
    mult = np.zeros(s.shape, dtype=np.int64)
    for dn in (0, 1):
        n = base + dn
        valid = n >= 1
        if cap is not None:
            valid &= n <= cap
        if not valid.any():
            continue
        n_eval = np.clip(n, 1, cap) if cap is not None else np.maximum(n, 1)
        a, b = mu.window(n_eval)
        mult += (valid & (s >= a) & (s <= b)).astype(np.int64)
    return mult


def _shell_hits(mu: SphereSeries, s: np.ndarray, eps: float):
    """(hit mask, shell radius) for each sample radius; raises on overlap."""
    s = np.asarray(s, dtype=float)
    seq = mu.radii
    if seq.is_parametric:
        base = _safe_index(np.round(np.maximum(s, 1e-300) ** (1.0 / seq.exponent)))
    else:
        vals = np.asarray(seq.values)
        base = np.clip(np.searchsorted(vals, s), 1, None).astype(np.int64)
        if seq.tail_exponent is not None:
            beyond = s > vals[-1]
            if beyond.any():
                base = base.copy()
                base[beyond] = _safe_index(
                    np.round(len(vals) * (s[beyond] / vals[-1]) ** (1.0 / seq.tail_exponent))
                )
    cap = seq.table_len if seq.truncated else None
    hit = np.zeros(s.shape, dtype=bool)
    radius = np.zeros_like(s)
    nhits = np.zeros(s.shape, dtype=np.int64)
    for dn in (-1, 0, 1):
        n = base + dn
        valid = n >= 1
        if cap is not None:
            valid &= n <= cap
        if not valid.any():
            continue
        n_eval = np.clip(n, 1, cap) if cap is not None else np.maximum(n, 1)
        sn = seq(n_eval)
        match = valid & (np.abs(s - sn) <= eps)
        nhits += match.astype(np.int64)
        radius = np.where(match & ~hit, sn, radius)
        hit |= match
    if np.any(nhits > 1):
        raise ShellOverlap(
            f"smoothing eps={eps} covers two shells near radius "
            f"{float(s[int(np.argmax(nhits > 1))]):g}"
        )
    return hit, radius


def default_smoothing_eps(mu: SphereSeries, max_radius: float) -> float:
    """min(0.05, smallest shell gap / 4) over shells up to max_radius."""
    seq = mu.radii
    if seq.is_parametric:
        n_hi = max(2, int(math.ceil(max_radius ** (1.0 / seq.exponent))) + 1)
    else:
        n_hi = seq.table_len
        if seq.tail_exponent is not None and seq(n_hi) < max_radius:
            n_hi = max(
                n_hi,
                int(math.ceil(n_hi * (max_radius / seq(seq.table_len)) ** (1.0 / seq.tail_exponent))) + 1,
            )
    n_hi = min(n_hi, 10_000_000)
    n = np.arange(1, n_hi + 1)
    gaps = np.diff(seq(n))
    min_gap = float(gaps.min()) if gaps.size else math.inf
    if min_gap <= 0:
        raise ShellOverlap("shells are not strictly increasing")
    return min(0.05, min_gap / 4.0)


# ---------------------------------------------------------------------------
# densities


def evaluate_density(mu: MeasureSpec, x) -> float:
    """Pointwise density of mu at x in R^d (w(x) in the PCAF integrand)."""
    s = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    if isinstance(mu, PowerWeight):
        return (1.0 + s) ** mu.p
    if isinstance(mu, AnnulusSeries):
        mult = int(_annulus_membership(mu, np.array([s]))[0])
        return mult * s**-mu.r if mult else 0.0
    if isinstance(mu, BoundaryPower):
        if s > mu.radius:
            return 0.0
        delta = mu.radius - s
        if delta == 0.0:
            return math.inf if mu.r > 0 else (1.0 if mu.r == 0 else 0.0)
        return delta**-mu.r
    if isinstance(mu, SphereSeries):
        raise SingularMeasure(
            "SphereSeries has no pointwise density; use smoothed_density"
        )
    raise TypeError(f"not a measure family: {type(mu).__name__}")


def smoothed_density(mu: SphereSeries, x, eps: float) -> float:
    """eps-shell approximation: s_n^(-r) / (2 eps) within distance eps of shell n."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    hit, radius = _shell_hits(mu, np.array([s]), eps)
    if not hit[0]:
        return 0.0
    return float(radius[0]) ** -mu.r / (2.0 * eps)


def radial_weight_fn(
    mu: Optional[MeasureSpec], smoothing_eps: Optional[float] = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized |y| -> w(y) map used by the PCAF accumulator.

    mu=None is the zero measure. SphereSeries requires smoothing_eps.
    BoundaryPower weights are taken to be 0 outside the open ball (paths
    there are past absorption).
    """
    if mu is None:
        return lambda s: np.zeros_like(np.asarray(s, dtype=float))
    if isinstance(mu, PowerWeight):
        p = mu.p
        return lambda s: (1.0 + np.asarray(s, dtype=float)) ** p
    if isinstance(mu, AnnulusSeries):
        require_admissible(mu)
        r = mu.r

        def w_ann(s):
            s = np.asarray(s, dtype=float)
            mult = _annulus_membership(mu, s)
            with np.errstate(divide="ignore"):
                vals = np.where(mult > 0, np.where(s > 0, s, 1.0) ** -r, 0.0)
            return vals * mult

        return w_ann
    if isinstance(mu, SphereSeries):
        if smoothing_eps is None:
            raise SingularMeasure(
                "SphereSeries needs smoothing_eps for a pointwise weight"
            )
        eps, r = float(smoothing_eps), mu.r

        def w_sph(s):
            hit, radius = _shell_hits(mu, np.asarray(s, dtype=float), eps)
            return np.where(hit, np.where(hit, radius, 1.0) ** -r / (2.0 * eps), 0.0)

        return w_sph
    if isinstance(mu, BoundaryPower):
        R, r = mu.radius, mu.r

        def w_bnd(s):
            s = np.asarray(s, dtype=float)
            inside = s < R
            with np.errstate(divide="ignore"):
                return np.where(inside, np.where(inside, R - s, 1.0) ** -r, 0.0)

        return w_bnd
    raise TypeError(f"not a measure family: {type(mu).__name__}")


# ---------------------------------------------------------------------------
# radial marginal


@dataclass(frozen=True)
class RadialProfile:
    """Pushforward of mu under y -> |y|: a.c. density plus an atom list.

    ``density`` includes the surface factor omega_d s^(d-1); ``pieces``
    lists the smoothness intervals of the density inside a window;
    ``atoms`` lists (radii, masses) inside a window. Windows must be
    finite when the support is unbounded. ``mass_override`` settles windows
    whose mass is known analytically (in particular divergent ones).
    """

    dim: int
    support_upper: float
    density: Optional[Callable]
    pieces: Callable
    atoms: Callable
    mass_override: Optional[Callable] = None

    def mass(self, lo: float = 0.0, hi: Optional[float] = None) -> float:
        if hi is None:
            if not math.isfinite(self.support_upper):
                raise ValueError("unbounded support: pass a finite window")
            hi = self.support_upper
        if self.mass_override is not None:
            known = self.mass_override(lo, hi)
            if known is not None:
                return known
        total = 0.0
        if self.density is not None:
            for a, b in self.pieces(lo, hi):
                val, _ = integrate.quad(
                    lambda t: float(self.density(np.array([t]))[0]),
                    a,
                    b,
                    epsabs=1e-12,
                    epsrel=1e-10,
                    limit=200,
                )
                total += val
        radii, masses = self.atoms(lo, hi)
        total += float(np.sum(masses))
        return total


_MAX_ENUMERATED = 2_000_000


def _annulus_pieces(mu: AnnulusSeries, lo: float, hi: float):
    g = mu.growth
    if g.is_parametric:
        n = max(1, int(math.floor(lo ** (1.0 / g.exponent))) if lo > 1 else 1)
    else:
        n = max(1, int(np.searchsorted(np.asarray(g.values), lo, side="right")))
    out = []
    while g.covers(n) and mu.gap.covers(n):
        a, b = mu.window(n)
        if a > hi:
            break
        seg = (max(a, lo), min(b, hi))
        if seg[0] < seg[1]:
            out.append(seg)
        n += 1
        if len(out) > _MAX_ENUMERATED:
            raise ValueError("window too wide: too many annuli to enumerate")
    return out


def _sphere_atom_indices(mu: SphereSeries, lo: float, hi: float):
    seq = mu.radii
    if not math.isfinite(hi):
        raise ValueError("unbounded support: pass a finite window")
    if seq.is_parametric:
        n_lo = max(1, int(math.ceil(lo ** (1.0 / seq.exponent) - 1e-9))) if lo > 0 else 1
        n_hi = int(math.floor(hi ** (1.0 / seq.exponent) + 1e-9))
    else:
        vals = np.asarray(seq.values)
        n_lo = int(np.searchsorted(vals, lo, side="left")) + 1
        n_hi = int(np.searchsorted(vals, hi, side="right"))
        if seq.tail_exponent is not None and hi > vals[-1]:
            cnt = len(vals)
            n_hi = int(math.floor(cnt * (hi / vals[-1]) ** (1.0 / seq.tail_exponent) + 1e-9))
    if n_hi - n_lo > _MAX_ENUMERATED:
        raise ValueError("window too wide: too many shells to enumerate")
    return n_lo, n_hi


def radial_marginal(mu: MeasureSpec, dim: int) -> RadialProfile:
    """One-dimensional radial reduction of mu in R^dim."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    omega = sphere_surface_area(dim)
    no_atoms = lambda lo, hi: (np.empty(0), np.empty(0))

    if isinstance(mu, PowerWeight):
        p = mu.p
        dens = lambda s: omega * np.asarray(s, dtype=float) ** (dim - 1) * (1.0 + np.asarray(s, dtype=float)) ** p
        return RadialProfile(
            dim, math.inf, dens, lambda lo, hi: [(lo, hi)] if lo < hi else [], no_atoms
        )

    if isinstance(mu, AnnulusSeries):
        require_admissible(mu)
        r = mu.r

        def dens(s):
            s = np.asarray(s, dtype=float)
            mult = _annulus_membership(mu, s)
            return omega * mult * np.where(s > 0, s, 1.0) ** (dim - 1 - r)

        return RadialProfile(
            dim, math.inf, dens, lambda lo, hi: _annulus_pieces(mu, lo, hi), no_atoms
        )

    if isinstance(mu, SphereSeries):
        r = mu.r

        def atoms(lo, hi):
            n_lo, n_hi = _sphere_atom_indices(mu, lo, hi)
            if n_hi < n_lo:
                return np.empty(0), np.empty(0)
            n = np.arange(n_lo, n_hi + 1)
            radii = mu.radii(n)
            keep = (radii >= lo) & (radii <= hi)
            radii = radii[keep]
            return radii, radii**-r * omega * radii ** (dim - 1)

        return RadialProfile(dim, math.inf, None, lambda lo, hi: [], atoms)

    if isinstance(mu, BoundaryPower):
        R, r = mu.radius, mu.r

        def dens(s):
            s = np.asarray(s, dtype=float)
            inside = s < R
            with np.errstate(divide="ignore"):
                return np.where(
                    inside,
                    omega * s ** (dim - 1) * np.where(inside, R - s, 1.0) ** -r,
                    0.0,
                )

        def known_mass(lo, hi):
            if r >= 1.0 and hi >= R and lo < R:
                return math.inf
            return None

        return RadialProfile(
            dim,
            R,
            dens,
            lambda lo, hi: [(lo, min(hi, R))] if lo < min(hi, R) else [],
            no_atoms,
            mass_override=known_mass,
        )

    raise TypeError(f"not a measure family: {type(mu).__name__}")


def support_scale(mu: MeasureSpec) -> float:
    """Characteristic radius of the support (sets default probe distances)."""
    if isinstance(mu, PowerWeight):
        return 1.0
    if isinstance(mu, AnnulusSeries):
        return float(mu.window(1)[1])
    if isinstance(mu, SphereSeries):
        return float(mu.radii(1))
    if isinstance(mu, BoundaryPower):
        return mu.radius
    raise TypeError(f"not a measure family: {type(mu).__name__}")


def _seq_params(seq: Seq) -> dict:
    if seq.is_parametric:
        return {"power": seq.exponent}
    out = {"table": list(seq.values)}
    if seq.tail_exponent is not None:
        out["tail_exponent"] = seq.tail_exponent
    return out


def describe(mu: MeasureSpec) -> tuple[str, dict]:
    """(family name, JSON-safe parameter dict), stable across runs."""
    if isinstance(mu, PowerWeight):
        return "power_weight", {"p": mu.p}
    if isinstance(mu, AnnulusSeries):
        return "annulus_series", {
            "growth": _seq_params(mu.growth),
            "gap": _seq_params(mu.gap),
            "r": mu.r,
        }
    if isinstance(mu, SphereSeries):
        return "sphere_series", {"radii": _seq_params(mu.radii), "r": mu.r}
    if isinstance(mu, BoundaryPower):
        return "boundary_power", {"r": mu.r, "radius": mu.radius}
    raise TypeError(f"not a measure family: {type(mu).__name__}")
