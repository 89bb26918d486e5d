"""Rotation-invariant measure families and their radial weights.

Four families of potential measures mu on R^d (d = dim), all rotation
invariant so every computation reduces to one radial variable:

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
the tail report Inconclusive rather than guessing. ``Seq.index`` is the one
inverse of a sequence, from a radius back to a real index; every lookup of
the window or shell near a radius goes through it, except that the
sphere-series weight first drops the radii whose bin in a table of eps-wide
bins, built once per ``weight_fn`` call, lies near no shell.

Each family class is the one home of its facts: ``family`` (its config
name), its config forms (``spec_keys``, ``from_spec``, ``grid_params``),
``params``, ``support_scale``, ``truncated``, ``singular`` (no pointwise
density), ``require_admissible`` and ``weight_fn``. ``FAMILIES`` maps
names to classes, and
``family_class``, through which every layer dispatches, is the one place
that rejects a non-family object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NotAdmissible, ShellOverlap, SingularMeasure

__all__ = [
    "Seq",
    "FAMILIES",
    "PowerWeight",
    "AnnulusSeries",
    "SphereSeries",
    "BoundaryPower",
    "MeasureSpec",
    "AdmissibilityResult",
    "admissibility_check",
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

    def index(self, v, side: str = "left"):
        """Real index at which the (increasing) rule reaches v, vectorized over v.

        Inside a table: the insertion position of v (``np.searchsorted``
        with the given side), so side="left" maps values[k] to k and
        side="right" maps it to k + 1. Past the table: the inverted tail
        rule, or the table length when there is none. Parametric:
        v^(1/exponent). inf where the index leaves the float range.
        """
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            if self.is_parametric:
                return v ** (1.0 / self.exponent)
            vals = np.asarray(self.values)
            out = np.searchsorted(vals, v, side=side).astype(float)
            if self.tail_exponent is None:
                return out
            tail = len(vals) * (v / vals[-1]) ** (1.0 / self.tail_exponent)
            return np.where(v > vals[-1], tail, out)


def _float(v) -> float:
    """float(v) for a config parameter; NaN, Infinity and out-of-range ints are errors."""
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"parameters must be finite numbers, got {v!r}")
    return f


def _seq_from_spec(obj, errors, label):
    if not isinstance(obj, dict):
        errors.append(f"{label} must be an object with 'exponent' or 'table'")
        return None
    keys = set(obj)
    if keys == {"exponent"}:
        try:
            return Seq.power(_float(obj["exponent"]))
        except (TypeError, ValueError) as e:
            errors.append(f"{label}: {e}")
    elif keys in ({"table"}, {"table", "tail_exponent"}):
        try:
            tail = obj.get("tail_exponent")
            return Seq.table([_float(v) for v in obj["table"]], None if tail is None else _float(tail))
        except (TypeError, ValueError) as e:
            errors.append(f"{label}: {e}")
    else:
        errors.append(f"{label}: keys must be 'exponent' or 'table'[, 'tail_exponent'], got {sorted(keys)}")
    return None


def _seqs_from_spec(spec: dict, *labels) -> list:
    errors = []
    seqs = [_seq_from_spec(spec[label], errors, label) for label in labels]
    if errors:
        raise ValueError("; ".join(errors))
    return seqs


def _seq_params(seq: Seq) -> dict:
    if seq.is_parametric:
        return {"power": seq.exponent}
    out = {"table": list(seq.values)}
    if seq.tail_exponent is not None:
        out["tail_exponent"] = seq.tail_exponent
    return out


class _Family:
    """What the four family classes share (see the module docstring)."""

    singular = False

    @property
    def seqs(self) -> tuple:
        """The index sequences: growth and gap, or radii."""
        return tuple(v for v in vars(self).values() if isinstance(v, Seq))

    @property
    def hard_cap(self) -> Optional[int]:
        """Last index the family is defined at, None if unbounded."""
        caps = [seq.table_len for seq in self.seqs if seq.truncated]
        return min(caps) if caps else None

    @property
    def truncated(self) -> bool:
        """A table without a tail rule leaves the family undefined beyond it."""
        return self.hard_cap is not None

    def params(self) -> dict:
        """JSON-safe parameters, in field order."""
        return {k: _seq_params(v) if isinstance(v, Seq) else v for k, v in vars(self).items()}

    def require_admissible(self, n_max: int = 100_000) -> None:
        """Raise NotAdmissible for a malformed support; only annulus windows can be."""

    def series_diverges(self, alpha: float) -> Optional[bool]:
        """Series families: does sum n^e, e = series_exponent, diverge? None if e is unknown."""
        e = self.series_exponent(alpha)
        return None if e is None else e >= -1.0


@dataclass(frozen=True)
class PowerWeight(_Family):
    """Density (1 + |y|)^p on all of R^d."""

    p: float

    family = "power_weight"
    grid_params = frozenset({"p", "alpha"})

    @classmethod
    def spec_keys(cls, spec):
        return {"p"}, {"p"}

    @classmethod
    def from_spec(cls, spec) -> "PowerWeight":
        return cls(_float(spec["p"]))

    def support_scale(self) -> float:
        return 1.0

    def weight_fn(self, smoothing_eps=None):
        p = self.p
        return lambda s: (1.0 + np.asarray(s, dtype=float)) ** p


@dataclass(frozen=True)
class AnnulusSeries(_Family):
    """Density |y|^(-r) on the union of annuli [f(n), f(n)(1+h(n))]."""

    growth: Seq
    gap: Seq
    r: float

    family = "annulus_series"
    grid_params = frozenset({"p", "q", "r", "alpha"})

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

    @classmethod
    def spec_keys(cls, spec):
        keys = {"growth", "gap", "r"} if "growth" in spec or "gap" in spec else {"p", "q", "r"}
        return keys, keys

    @classmethod
    def from_spec(cls, spec) -> "AnnulusSeries":
        if "p" in spec:
            return cls.parametric(p=_float(spec["p"]), q=_float(spec["q"]), r=_float(spec["r"]))
        growth, gap = _seqs_from_spec(spec, "growth", "gap")
        return cls(growth=growth, gap=gap, r=_float(spec["r"]))

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

    def support_scale(self) -> float:
        return float(self.window(1)[1])

    def require_admissible(self, n_max: int = 100_000) -> None:
        res = admissibility_check(self.growth, self.gap, n_max)
        if not res.ok:
            where = (
                f"first violation at n={res.first_violation}"
                if res.first_violation is not None
                else f"eventually, none up to n={res.checked_to}"
            )
            raise NotAdmissible(f"annulus windows overlap ({where}, mode={res.mode})")

    def weight_fn(self, smoothing_eps=None):
        self.require_admissible()
        r = self.r

        def w_ann(s):
            s = np.asarray(s, dtype=float)
            mult = _annulus_membership(self, s)
            with np.errstate(divide="ignore"):
                vals = np.where(mult > 0, np.where(s > 0, s, 1.0) ** -r, 0.0)
            return vals * mult

        return w_ann


@dataclass(frozen=True)
class SphereSeries(_Family):
    """Weight s_n^(-r) times surface measure on spheres of radius s_n."""

    radii: Seq
    r: float

    family = "sphere_series"
    grid_params = frozenset({"p", "r", "alpha"})
    singular = True

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

    @classmethod
    def spec_keys(cls, spec):
        if isinstance(spec.get("radii"), dict):
            return {"radii", "r"}, {"radii", "r"}
        if "radii" in spec:
            return {"radii", "tail_exponent", "r"}, {"radii", "r"}
        return {"p", "r"}, {"p", "r"}

    @classmethod
    def from_spec(cls, spec) -> "SphereSeries":
        if "p" in spec:
            return cls.parametric(p=_float(spec["p"]), r=_float(spec["r"]))
        if isinstance(spec["radii"], dict):
            (radii,) = _seqs_from_spec(spec, "radii")
        else:
            tail = spec.get("tail_exponent")
            radii = Seq.table([_float(v) for v in spec["radii"]], None if tail is None else _float(tail))
        return cls(radii=radii, r=_float(spec["r"]))

    def series_exponent(self, alpha: float) -> Optional[float]:
        """Exponent e with s_n^(alpha-1-r) ~ n^e, None when the tail is unknown."""
        tp = self.radii.tail_power()
        return None if tp is None else tp * (alpha - 1.0 - self.r)

    def support_scale(self) -> float:
        return float(self.radii(1))

    def weight_fn(self, smoothing_eps=None):
        if smoothing_eps is None:
            raise SingularMeasure(
                "SphereSeries needs smoothing_eps for a pointwise weight"
            )
        eps, r = float(smoothing_eps), self.r
        if not eps > 0:
            raise ValueError(f"smoothing_eps must be positive, got {eps}")
        table = _shell_table(self.radii, eps, self.hard_cap)

        def w_sph(s):
            s = np.asarray(s, dtype=float)
            at, radius = _shell_hits(self, s.reshape(-1), eps, table)
            w = np.zeros(s.size)
            w[at] = radius ** -r / (2.0 * eps)
            return w.reshape(s.shape)

        return w_sph


@dataclass(frozen=True)
class BoundaryPower(_Family):
    """Density dist(y, boundary)^(-r) on the ball of the given radius."""

    r: float
    radius: float = 1.0

    family = "boundary_power"
    grid_params = frozenset({"r", "alpha"})

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @classmethod
    def spec_keys(cls, spec):
        return {"r", "radius"}, {"r"}

    @classmethod
    def from_spec(cls, spec) -> "BoundaryPower":
        return cls(_float(spec["r"]), _float(spec.get("radius", 1.0)))

    def support_scale(self) -> float:
        return self.radius

    def weight_fn(self, smoothing_eps=None):
        R, r = self.radius, self.r

        def w_bnd(s):
            s = np.asarray(s, dtype=float)
            inside = s < R
            with np.errstate(divide="ignore"):
                return np.where(inside, np.where(inside, R - s, 1.0) ** -r, 0.0)

        return w_bnd


MeasureSpec = Union[PowerWeight, AnnulusSeries, SphereSeries, BoundaryPower]

FAMILIES = {cls.family: cls for cls in (PowerWeight, AnnulusSeries, SphereSeries, BoundaryPower)}


def family_class(mu) -> type:
    """The class of mu, which must be one of FAMILIES; TypeError for anything else."""
    cls = type(mu)
    if cls not in FAMILIES.values():
        raise TypeError(f"not a measure family: {cls.__name__}")
    return cls


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


# ---------------------------------------------------------------------------
# window / shell membership of the weights


_INDEX_CAP = float(2**62)


def _safe_index(real_index: np.ndarray) -> np.ndarray:
    """Round a real-valued sequence index down to int64 without overflow."""
    return np.clip(np.floor(real_index), 1.0, _INDEX_CAP).astype(np.int64)


def _annulus_membership(mu: AnnulusSeries, s: np.ndarray) -> np.ndarray:
    """Multiplicity of coverage of radius s by the annuli (0 or 1 if admissible).

    A tabulated family without a tail rule is treated as the finite union
    of its tabulated windows (zero density beyond the table); whether the
    *classification* can be settled without the tail is a separate question
    handled by the classifier.
    """
    s = np.asarray(s, dtype=float)
    # largest n with a_n <= s (approximately); candidates are base, base + 1.
    # side="right" puts a radius shared by two touching windows in the later
    # one only, so its candidates never count the same radius twice
    base = _safe_index(mu.growth.index(s, side="right"))
    cap = mu.hard_cap
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


# Relative slack of the shell prefilter: far above the rounding of s +- eps,
# of a shell radius, of the index rule (a pow) and of s / width, far below a
# shell gap
_INDEX_SLACK = 1e-9

# The bin table of the shell prefilter holds at most this many bins (64 KB)
# and is built from at most this many shells, which bounds its build to about
# a millisecond and its temporaries to under 1 MB
_TABLE_BINS = 1 << 16
_TABLE_SHELLS = 1 << 14


def _near_a_shell(seq: Seq, s: np.ndarray, eps: float) -> np.ndarray:
    """Mask of the radii s whose index interval [index(s - eps), index(s + eps)]
    can hold a shell index; every radius within eps of a shell is in it.

    Both ends move out by _INDEX_SLACK, in radius and in index. A table
    index counts the entries below s - eps (side="left") and those up to
    s + eps (side="right"), so there the first candidate is one past the
    lower index.
    """
    with np.errstate(over="ignore"):
        lo_v = np.maximum(s * (1.0 - _INDEX_SLACK) - eps * (1.0 + _INDEX_SLACK), 0.0)
        hi_v = s * (1.0 + _INDEX_SLACK) + eps * (1.0 + _INDEX_SLACK)
        lo = seq.index(lo_v)
        first = np.ceil(lo * (1.0 - _INDEX_SLACK))
        if not seq.is_parametric:
            table = True if seq.tail_exponent is None else lo_v <= seq.values[-1]
            first = np.where(table, lo + 1.0, first)
        return np.floor(seq.index(hi_v, side="right") * (1.0 + _INDEX_SLACK)) >= first


def _shell_table(seq: Seq, eps: float, cap: Optional[int]):
    """(1 / width, marked): the bin table of the shell prefilter, read-only.

    Bins are eps wide; a radius s below the table's top falls in bin
    int(s / width). Each shell marks the bins of [s_n - eps, s_n + eps],
    widened by _INDEX_SLACK in radius and in bins, so an unmarked bin holds
    no radius within eps of a shell. The last entry, marked, stands for NaN
    and every radius from the top on, which _near_a_shell then tests. The
    table ends after _TABLE_BINS bins or below the first shell past the
    first _TABLE_SHELLS, whichever is lower.
    """
    inv_width = 1.0 / eps
    slack = np.array([[1.0 - _INDEX_SLACK], [1.0 + _INDEX_SLACK]])
    with np.errstate(over="ignore"):
        # the shells that reach the bins, and the first one past them
        reach = float(seq.index((_TABLE_BINS + 2.0) * eps))
        n = min(_TABLE_SHELLS, cap or math.inf, math.floor(min(reach, 2.0 * _TABLE_SHELLS)) + 1)
        sn = seq(np.arange(1.0, min(n + 1, cap or math.inf) + 1.0))
        ends = np.stack([sn * slack[0] - eps * slack[1], (sn + eps) * slack[1]])
        lo, hi = np.clip(np.floor(ends * inv_width * slack), 0.0, _TABLE_BINS).astype(np.intp)
    top = lo[n] if len(sn) > n else _TABLE_BINS
    marked = np.zeros(_TABLE_BINS + 1, dtype=bool)
    for j in range(int((hi[:n] - lo[:n]).max()) + 1):
        marked[np.minimum(lo[:n] + j, hi[:n])] = True
    marked = marked[: top + 1]
    marked[top] = True
    marked.flags.writeable = False
    return inv_width, marked


def _shell_hits(mu: SphereSeries, s: np.ndarray, eps: float, table):
    """(positions, shell radii) of the radii in the 1-d s within eps of a shell,
    in the order of s; raises on overlap.

    A radius in an unmarked bin of the table (see _shell_table) misses every
    shell, and one past the table's top is tested by _near_a_shell. The
    others are matched against the three shells around round(index(s)).
    """
    seq = mu.radii
    inv_width, marked = table
    top = len(marked) - 1
    with np.errstate(over="ignore"):
        bins = s * inv_width
    np.fmin(bins, top, out=bins)  # NaN, inf and radii past the top to the last entry
    bins = bins.astype(np.intp)
    at = np.flatnonzero(marked[bins])
    past = bins[at] == top
    if past.any():
        keep = ~past
        keep[past] = _near_a_shell(seq, s[at[past]], eps)
        at = at[keep]
    s_near = s[at]
    base = _safe_index(np.round(seq.index(s_near)))
    cap = mu.hard_cap
    h = np.zeros(s_near.shape, dtype=bool)
    rad = np.zeros_like(s_near)
    nhits = np.zeros(s_near.shape, dtype=np.int64)
    for dn in (-1, 0, 1):
        n = base + dn
        valid = n >= 1
        if cap is not None:
            valid &= n <= cap
        if not valid.any():
            continue
        n_eval = np.clip(n, 1, cap) if cap is not None else np.maximum(n, 1)
        sn = seq(n_eval)
        match = valid & (np.abs(s_near - sn) <= eps)
        nhits += match.astype(np.int64)
        rad = np.where(match & ~h, sn, rad)
        h |= match
    if np.any(nhits > 1):
        raise ShellOverlap(
            f"smoothing eps={eps} covers two shells near radius "
            f"{float(s_near[int(np.argmax(nhits > 1))]):g}"
        )
    return at[h], rad[h]


def default_smoothing_eps(mu: SphereSeries, max_radius: float) -> float:
    """min(0.05, smallest shell gap / 4) over the shells up to max_radius.

    Table gaps are scanned. A power rule's gaps (parametric, or a table's
    tail rule) are monotone: its tightest within reach is its first for an
    exponent >= 1 and its last below 1, in closed form however far the
    reach. ShellOverlap where a gap is under four ulps of its radius, which
    no eps can resolve.
    """
    seq = mu.radii
    # the whole table, or two shells of a parametric rule, at the least
    n_hi = max(seq.table_len or 2, float(np.ceil(seq.index(max_radius))) + 1.0)
    n_hi = min(n_hi, mu.hard_cap or math.inf)
    vals = np.asarray(seq.values or ())[: int(min(n_hi, seq.table_len))]
    gaps, radii = list(np.diff(vals)), list(vals[1:])
    first, q = (1.0, seq.exponent) if seq.is_parametric else (float(seq.table_len), seq.tail_exponent)
    if q is not None and n_hi > first:
        n = first if q >= 1.0 else n_hi - 1.0
        # s(n + 1) - s(n) = s(n) ((1 + 1/n)^q - 1) without the cancellation; 0
        # where the reach index leaves the float range
        gaps.append(seq(n) * math.expm1(q * math.log1p(1.0 / n)) if n < math.inf else 0.0)
        radii.append(seq(n + 1.0) if n < math.inf else max_radius)
    gaps, radii = np.array(gaps), np.array(radii)
    tight = gaps < 4.0 * np.spacing(radii)
    if tight.any():
        i = int(np.argmax(tight))
        raise ShellOverlap(f"shells {gaps[i]:g} apart near radius {radii[i]:g} are below float resolution")
    return float(min([0.05, *gaps / 4.0]))


# ---------------------------------------------------------------------------
# radii and weights


def point_radius(x) -> float:
    """|x| of a number or coordinates; unlike np.linalg.norm, it does not overflow above 1.3e154."""
    return math.hypot(*np.ravel(np.asarray(x, dtype=float)))


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
    return family_class(mu).weight_fn(mu, smoothing_eps)


def support_scale(mu: MeasureSpec) -> float:
    """Characteristic radius of the support (sets default probe distances)."""
    return family_class(mu).support_scale(mu)


def describe(mu: MeasureSpec) -> tuple[str, dict]:
    """(family name, JSON-safe parameter dict), stable across runs."""
    cls = family_class(mu)
    return cls.family, cls.params(mu)
