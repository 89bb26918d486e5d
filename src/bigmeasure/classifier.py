"""Closed-form Big / NonBig decisions for the measure families.

A measure mu is *Big* for the process with index alpha in dimension dim when
the additive functional A_t = int_0^t w(X_s) ds diverges almost surely from
every starting point, equivalently when the gauge E_x[exp(-A_infty)] vanishes
identically; bounded solutions of the associated stationary problem are then
constant (the Liouville property). NonBig means the gauge is positive
somewhere. Each rule below is a sharp threshold in the family parameters;
every boundary case sits on the Big side.

Rule identifiers attached to verdicts:

=========================  =================================================
radial-power-threshold     PowerWeight: Big iff p >= -alpha
boundary-recurrence        BoundaryPower, alpha <= 1: every nontrivial
                           weight is Big (the censored process is recurrent)
boundary-power-threshold   BoundaryPower, alpha in (1, 2]: Big iff r >= alpha
annulus-exponent-above-alpha  AnnulusSeries, r > alpha: NonBig
annulus-mass-series        AnnulusSeries, r <= alpha < dim, alpha > 1:
                           Big iff sum f(n)^(alpha-r) h(n) diverges
                           (parametric: q <= p(alpha-r)+1)
annulus-low-alpha          AnnulusSeries, alpha <= 1, r <= alpha: NonBig when
                           the mass series converges, Inconclusive otherwise
sphere-mass-series         SphereSeries, alpha in (1,2): Big iff
                           sum s_n^(alpha-1-r) diverges (parametric:
                           r <= alpha-1, or p <= 1/(r-alpha+1))
tabulated-tail-unsettled   a tabulated sequence without a tail rule leaves
                           the deciding series unsettled: Inconclusive
potential-divergence       numeric route: Big iff the Riesz potential is
                           identically infinite while finite on compacts
=========================  =================================================
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AlphaOutOfRange, DecayHypothesisUnavailable, NotTransient
from .kernels import KernelModel
from .measures import (
    AnnulusSeries,
    BoundaryPower,
    MeasureSpec,
    PowerWeight,
    Seq,
    SphereSeries,
    describe,
    require_admissible,
)

__all__ = [
    "Conclusion",
    "Verdict",
    "classify",
    "classify_radial_weight",
    "classify_boundary_weight",
    "classify_annulus",
    "classify_sphere_series",
    "divergence_by_potential",
]


class Conclusion(enum.Enum):
    BIG = "Big"
    NON_BIG = "NonBig"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Verdict:
    conclusion: Conclusion
    rule: str
    family: str
    params: dict
    alpha: float
    dim: int
    witness: dict = field(default_factory=dict)

    @property
    def is_big(self) -> bool:
        return self.conclusion is Conclusion.BIG

    def to_row(self) -> dict:
        """Flat, CSV/JSON-friendly record."""
        return {
            "family": self.family,
            "params": json.dumps(self.params, sort_keys=True),
            "alpha": self.alpha,
            "dim": self.dim,
            "conclusion": self.conclusion.value,
            "rule": self.rule,
            "witness": json.dumps(self.witness, sort_keys=True),
        }


def _verdict(conclusion, rule, mu, alpha, dim, witness) -> Verdict:
    family, params = describe(mu)
    return Verdict(conclusion, rule, family, params, float(alpha), int(dim), witness)


def _require_transient(alpha: float, dim: int):
    if not (0 < alpha <= 2):
        raise AlphaOutOfRange(f"alpha must be in (0, 2], got {alpha}")
    if dim <= alpha:
        raise NotTransient(f"need dim > alpha for a free-space Green function, got dim={dim}, alpha={alpha}")


def _series_tail_decision(term_exponent: Optional[float]) -> Optional[bool]:
    """Does sum n^e diverge? None when the exponent is unknown."""
    if term_exponent is None:
        return None
    return term_exponent >= -1.0


def classify_radial_weight(p: float, alpha: float, dim: int) -> Verdict:
    """PowerWeight (1+|y|)^p: Big iff p >= -alpha."""
    _require_transient(alpha, dim)
    big = p >= -alpha
    return _verdict(
        Conclusion.BIG if big else Conclusion.NON_BIG,
        "radial-power-threshold",
        PowerWeight(p),
        alpha,
        dim,
        {"p": p, "threshold": -alpha, "margin": p + alpha},
    )


def classify_boundary_weight(r: float, alpha: float, radius: float = 1.0, dim: int = 3) -> Verdict:
    """BoundaryPower dist^(-r) on an absorbing ball.

    For alpha <= 1 the censored process never reaches the boundary and is
    recurrent, so any nontrivial weight accumulates without bound: Big.
    For alpha in (1, 2] the threshold is r >= alpha.
    """
    if not (0 < alpha <= 2):
        raise AlphaOutOfRange(f"alpha must be in (0, 2], got {alpha}")
    mu = BoundaryPower(r=r, radius=radius)
    if alpha <= 1.0:
        return _verdict(
            Conclusion.BIG,
            "boundary-recurrence",
            mu,
            alpha,
            dim,
            {"r": r, "note": "recurrent censored process, any nontrivial weight"},
        )
    big = r >= alpha
    return _verdict(
        Conclusion.BIG if big else Conclusion.NON_BIG,
        "boundary-power-threshold",
        mu,
        alpha,
        dim,
        {"r": r, "threshold": alpha, "margin": r - alpha},
    )


_WITNESS_MARKS = (10, 100, 1000, 10_000, 100_000, 1_000_000)
_WITNESS_HEAD = 1000


def _power_tail_sum(e: float, k: int, m: int) -> float:
    """sum_{n=k+1}^{m} (n/k)^e by Euler-Maclaurin with two Bernoulli corrections.

    The integral term is written with expm1/log so it stays exact as
    e -> -1; the first omitted correction is O(e^5 / k^5) relative to the
    first term, below double precision for k >= 1000 and moderate e.
    """
    ratio = m / k
    x = math.log(ratio)
    e1 = e + 1.0
    try:
        integral = k * (x if e1 == 0.0 else math.expm1(e1 * x) / e1)
        # g(t) = (t/k)^e has g(k) = 1; the corrections take the first and
        # third derivatives at both ends
        d1 = e / k * (ratio ** (e - 1.0) - 1.0)
        d3 = e * (e - 1.0) * (e - 2.0) / k**3 * (ratio ** (e - 3.0) - 1.0)
        return integral + 0.5 * (ratio**e - 1.0) + d1 / 12.0 - d3 / 720.0
    except OverflowError:
        return math.inf


def _mark(v) -> float | str:
    """A witness sum, or "overflow" where it left the float range (JSON has no inf/nan)."""
    v = float(v)
    return v if math.isfinite(v) else "overflow"


def _annulus_partial_sums(mu: AnnulusSeries, alpha: float, n_terms: int) -> dict:
    """Partial sums of f(n)^(alpha-r) h(n) at the decade marks up to n_terms.

    The first max(1000, longest table) terms are summed directly. Past every
    table the terms are exactly C n^e, so the later marks add a closed-form
    Euler-Maclaurin tail to the head: the cost does not grow with n_terms.
    A term whose direct product is not finite (f(n)^(alpha-r) overflowed,
    possibly against an underflowed h(n)) is taken in log space instead;
    marks whose sums still leave the float range read "overflow".
    """
    upto = n_terms
    head = _WITNESS_HEAD
    for seq in (mu.growth, mu.gap):
        head = max(head, seq.table_len)
        if seq.truncated:
            upto = min(upto, seq.table_len)
    head = min(head, upto)
    n = np.arange(1, head + 1, dtype=float)
    exponent = mu.series_exponent(alpha)
    marks = {}
    with np.errstate(over="ignore", invalid="ignore"):
        terms = mu.growth(n) ** (alpha - mu.r) * mu.gap(n)
        bad = ~np.isfinite(terms)
        if bad.any():
            nb = n[bad]
            terms[bad] = np.exp((alpha - mu.r) * mu.growth.log(nb) + mu.gap.log(nb))
        sums = np.cumsum(terms)
        for m in _WITNESS_MARKS:
            if m > upto:
                break
            if m <= head:
                marks[str(m)] = _mark(sums[m - 1])
            else:
                marks[str(m)] = _mark(sums[-1] + terms[-1] * _power_tail_sum(exponent, head, m))
    return {"terms_summed": int(upto), "partial_sums": marks}


def classify_annulus(
    mu: AnnulusSeries, alpha: float, dim: int, n_terms: int = 1_000_000
) -> Verdict:
    """AnnulusSeries |y|^(-r) on windows [f(n), f(n)(1+h(n))].

    r > alpha makes the mass series converge regardless of the windows:
    NonBig. For r <= alpha and alpha > 1, Big iff sum f(n)^(alpha-r) h(n)
    diverges; with f(n) = n^p, h(n) = n^(-q) that reads q <= p(alpha-r) + 1,
    boundary included. For alpha <= 1 a convergent series still gives
    NonBig, but the divergent case is Inconclusive here (the divergence
    route needs alpha > 1).
    """
    _require_transient(alpha, dim)
    require_admissible(mu, n_max=min(n_terms, 100_000))
    if mu.r > alpha:
        return _verdict(
            Conclusion.NON_BIG,
            "annulus-exponent-above-alpha",
            mu,
            alpha,
            dim,
            {"r": mu.r, "alpha": alpha},
        )
    exponent = mu.series_exponent(alpha)
    diverges = _series_tail_decision(exponent)
    witness = {"series_term_exponent": exponent, "divergence_threshold": -1.0}
    witness.update(_annulus_partial_sums(mu, alpha, n_terms))
    if mu.growth.is_parametric and mu.gap.is_parametric:
        p, q = mu.growth.exponent, -mu.gap.exponent
        witness["q_bound"] = p * (alpha - mu.r) + 1.0
        witness["q"] = q
    if diverges is None:
        return _verdict(
            Conclusion.INCONCLUSIVE, "tabulated-tail-unsettled", mu, alpha, dim, witness
        )
    if alpha <= 1.0:
        if not diverges:
            return _verdict(
                Conclusion.NON_BIG, "annulus-low-alpha", mu, alpha, dim, witness
            )
        witness["note"] = "mass series diverges but the divergence route needs alpha > 1"
        return _verdict(
            Conclusion.INCONCLUSIVE, "annulus-low-alpha", mu, alpha, dim, witness
        )
    return _verdict(
        Conclusion.BIG if diverges else Conclusion.NON_BIG,
        "annulus-mass-series",
        mu,
        alpha,
        dim,
        witness,
    )


def classify_sphere_series(
    mu: SphereSeries, alpha: float, dim: int, n_terms: int = 1_000_000
) -> Verdict:
    """SphereSeries with weights s_n^(-r): Big iff sum s_n^(alpha-1-r) diverges.

    Proved for alpha strictly between 1 and 2. With s_n = n^p the series is
    sum n^(p(alpha-1-r)): divergent for every p when r <= alpha - 1, and for
    p <= 1/(r - alpha + 1) otherwise (boundary included).
    """
    if not (1.0 < alpha < 2.0):
        raise AlphaOutOfRange(
            f"sphere-series rule is proved for alpha in (1, 2), got {alpha}"
        )
    _require_transient(alpha, dim)
    exponent = mu.series_exponent(alpha)
    diverges = _series_tail_decision(exponent)
    witness = {"series_term_exponent": exponent, "divergence_threshold": -1.0}
    if mu.radii.is_parametric:
        p = mu.radii.exponent
        witness["p"] = p
        if mu.r > alpha - 1.0:
            witness["p_bound"] = 1.0 / (mu.r - alpha + 1.0)
        else:
            witness["note"] = "r <= alpha - 1: Big for every radius growth rate"
    if diverges is None:
        upto = min(n_terms, mu.radii.table_len)
        n = np.arange(1, upto + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.cumsum(mu.radii(n) ** (alpha - 1.0 - mu.r))
        witness["terms_summed"] = int(upto)
        witness["partial_sum"] = _mark(sums[-1]) if upto else 0.0
        return _verdict(
            Conclusion.INCONCLUSIVE, "tabulated-tail-unsettled", mu, alpha, dim, witness
        )
    return _verdict(
        Conclusion.BIG if diverges else Conclusion.NON_BIG,
        "sphere-mass-series",
        mu,
        alpha,
        dim,
        witness,
    )


def classify(mu: MeasureSpec, alpha: float, dim: int, **kwargs) -> Verdict:
    """Dispatch to the family rule."""
    if isinstance(mu, PowerWeight):
        return classify_radial_weight(mu.p, alpha, dim)
    if isinstance(mu, AnnulusSeries):
        return classify_annulus(mu, alpha, dim, **kwargs)
    if isinstance(mu, SphereSeries):
        return classify_sphere_series(mu, alpha, dim, **kwargs)
    if isinstance(mu, BoundaryPower):
        return classify_boundary_weight(mu.r, alpha, radius=mu.radius, dim=dim)
    raise TypeError(f"not a measure family: {type(mu).__name__}")


def divergence_by_potential(mu: MeasureSpec, model: KernelModel, x0) -> Verdict:
    """Numeric route: Big iff the Riesz potential diverges at x0.

    Valid when the divergence of U_mu at one point forces divergence
    everywhere and divergence of the functional A_infty: certified here for
    rotation-invariant measures in free space with alpha in (1, 2] (the
    far-field decay of potentials of finite measures does the rest). The
    measure must be finite on compacts.
    """
    if model.alpha <= 1.0:
        raise DecayHypothesisUnavailable(
            f"potential-divergence route needs alpha in (1, 2], got {model.alpha}"
        )
    model.require_transient()
    if isinstance(mu, BoundaryPower) and mu.r >= 1.0:
        raise ValueError(
            "measure is not finite on compacts (boundary exponent r >= 1); "
            "the potential criterion does not apply"
        )
    from .potentials import riesz_potential

    result = riesz_potential(mu, x0, model)
    family, params = describe(mu)
    witness = {
        "x0_norm": float(math.hypot(*([x0] if isinstance(x0, (int, float)) else list(x0)))),
        "value": result.value,
        "divergent": result.divergent,
        "compact_part": result.compact_part,
        "certificate": "rotation-invariant measure, free space, alpha in (1,2]",
    }
    conclusion = Conclusion.BIG if result.divergent else Conclusion.NON_BIG
    if _tail_truncated(mu):
        witness["note"] = (
            "tabulated sequence without a tail rule: the verdict applies to "
            "the truncated measure, not to any intended continuation"
        )
    return Verdict(conclusion, "potential-divergence", family, params, model.alpha, model.dim, witness)


def _tail_truncated(mu: MeasureSpec) -> bool:
    seqs: tuple[Seq, ...]
    if isinstance(mu, AnnulusSeries):
        seqs = (mu.growth, mu.gap)
    elif isinstance(mu, SphereSeries):
        seqs = (mu.radii,)
    else:
        return False
    return any(s.truncated for s in seqs)
