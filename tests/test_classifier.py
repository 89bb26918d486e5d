import math

import numpy as np
import pytest

from bigmeasure.classifier import (
    Conclusion,
    Verdict,
    classify,
    classify_annulus,
    classify_boundary_weight,
    classify_radial_weight,
    classify_sphere_series,
)
from bigmeasure.errors import AlphaOutOfRange, NotAdmissible, NotTransient
from bigmeasure.measures import AnnulusSeries, BoundaryPower, PowerWeight, Seq, SphereSeries

# Frozen truth tables. Each threshold is closed on the Big side.

RADIAL_CASES = [
    # (p, alpha, dim, big)
    (-3.0, 1.5, 3, False),
    (-2.0, 1.5, 3, False),
    (-1.6, 1.5, 3, False),
    (-1.5, 1.5, 3, True),  # boundary
    (-1.4, 1.5, 3, True),
    (0.0, 1.5, 3, True),
    (2.0, 1.5, 3, True),
    (-2.1, 2.0, 3, False),
    (-2.0, 2.0, 3, True),  # boundary
    (-0.5, 0.5, 2, True),
    (-0.6, 0.5, 2, False),
]

BOUNDARY_CASES = [
    # (r, alpha, big)
    (0.5, 1.5, False),
    (1.0, 1.5, False),
    (1.4, 1.5, False),
    (1.5, 1.5, True),  # boundary
    (1.7, 1.5, True),
    (1.9, 2.0, False),
    (2.0, 2.0, True),  # boundary
]

# alpha = 1.5, dim = 3, r = 0: Big iff q <= 1.5 p + 1
ANNULUS_P = [0.5, 1.0, 1.5, 2.0, 2.5]
ANNULUS_Q = [1.5, 2.0, 2.5, 3.0, 3.5]
ANNULUS_BIG = [
    # q:   1.5    2.0    2.5    3.0    3.5
    [True, False, False, False, False],  # p = 0.5 (bound 1.75)
    [True, True, True, False, False],  # p = 1.0 (bound 2.50, boundary hit)
    [True, True, True, True, False],  # p = 1.5 (bound 3.25)
    [True, True, True, True, True],  # p = 2.0 (bound 4.00)
    [True, True, True, True, True],  # p = 2.5 (bound 4.75)
]

# alpha = 1.5, dim = 3, r = 1: Big iff p <= 1 / (r - alpha + 1) = 2
SPHERE_CASES = [
    (1.0, 1.0, True),
    (1.5, 1.0, True),
    (2.0, 1.0, True),  # boundary
    (2.5, 1.0, False),
    (3.0, 1.0, False),
    # r <= alpha - 1: Big for every growth rate
    (5.0, 0.5, True),
    (9.0, 0.3, True),
]


def test_radial_threshold():
    for p, alpha, dim, big in RADIAL_CASES:
        v = classify_radial_weight(p, alpha, dim)
        assert v.is_big == big, (p, alpha, dim)
        assert v.rule == "radial-power-threshold"
        assert v.conclusion in (Conclusion.BIG, Conclusion.NON_BIG)


def test_radial_needs_transience():
    with pytest.raises(NotTransient):
        classify_radial_weight(0.0, alpha=1.5, dim=1)
    with pytest.raises(NotTransient):
        classify_radial_weight(0.0, alpha=2.0, dim=2)
    with pytest.raises(AlphaOutOfRange):
        classify_radial_weight(0.0, alpha=2.5, dim=3)


def test_boundary_threshold():
    for r, alpha, big in BOUNDARY_CASES:
        v = classify_boundary_weight(r, alpha)
        assert v.is_big == big, (r, alpha)
        assert v.rule == "boundary-power-threshold"


def test_boundary_low_alpha_always_big():
    for alpha in (0.3, 0.8, 1.0):
        for r in (0.1, 1.0, 5.0):
            v = classify_boundary_weight(r, alpha)
            assert v.is_big
            assert v.rule == "boundary-recurrence"


def test_annulus_grid():
    for i, p in enumerate(ANNULUS_P):
        for j, q in enumerate(ANNULUS_Q):
            mu = AnnulusSeries.parametric(p=p, q=q, r=0.0)
            v = classify_annulus(mu, alpha=1.5, dim=3)
            assert v.is_big == ANNULUS_BIG[i][j], (p, q)
            assert v.rule == "annulus-mass-series"
            assert v.witness["q_bound"] == pytest.approx(1.5 * p + 1.0)


def test_annulus_boundary_is_big():
    # q exactly at p (alpha - r) + 1 sits on the Big side
    mu = AnnulusSeries.parametric(p=2.0, q=2.0, r=1.0)
    v = classify_annulus(mu, alpha=1.5, dim=3)
    assert v.is_big
    assert v.witness["series_term_exponent"] == pytest.approx(-1.0)


def test_annulus_exponent_above_alpha():
    # r > alpha forces NonBig no matter how heavy the windows are
    mu = AnnulusSeries.parametric(p=5.0, q=1.5, r=1.8)
    v = classify_annulus(mu, alpha=1.5, dim=3)
    assert not v.is_big
    assert v.rule == "annulus-exponent-above-alpha"


def test_annulus_low_alpha():
    mu = AnnulusSeries.parametric(p=1.0, q=2.0, r=0.5)
    v = classify_annulus(mu, alpha=0.8, dim=3)
    assert v.conclusion is Conclusion.NON_BIG
    assert v.rule == "annulus-low-alpha"

    mu = AnnulusSeries.parametric(p=2.0, q=1.5, r=0.5)
    v = classify_annulus(mu, alpha=0.8, dim=3)
    assert v.conclusion is Conclusion.INCONCLUSIVE
    assert v.rule == "annulus-low-alpha"


def test_annulus_rejects_overlapping_windows():
    mu = AnnulusSeries.parametric(p=2.0, q=0.5, r=1.0)
    with pytest.raises(NotAdmissible):
        classify_annulus(mu, alpha=1.5, dim=3)


def test_annulus_tabulated_matches_parametric():
    p, q, r = 1.5, 2.0, 1.0
    growth = Seq.table([n**p for n in range(1, 51)], tail_exponent=p)
    gap = Seq.table([n**-q for n in range(1, 51)], tail_exponent=-q)
    tab = AnnulusSeries(growth=growth, gap=gap, r=r)
    par = AnnulusSeries.parametric(p=p, q=q, r=r)
    vt = classify_annulus(tab, alpha=1.5, dim=3)
    vp = classify_annulus(par, alpha=1.5, dim=3)
    assert vt.conclusion is vp.conclusion
    assert vt.rule == vp.rule == "annulus-mass-series"


def test_annulus_tabulated_without_tail_is_inconclusive():
    growth = Seq.table([float(n) for n in range(1, 31)])
    gap = Seq.table([n**-1.5 for n in range(1, 31)])
    mu = AnnulusSeries(growth=growth, gap=gap, r=1.0)
    v = classify_annulus(mu, alpha=1.5, dim=3)
    assert v.conclusion is Conclusion.INCONCLUSIVE
    assert v.rule == "tabulated-tail-unsettled"
    assert v.witness["terms_summed"] == 30


def test_annulus_big_monotone_in_r():
    # shrinking r only helps: if Big at r1, Big at any r2 < r1
    alpha, dim = 1.5, 3
    for p in (0.5, 1.0, 2.0):
        for q in (1.5, 2.0, 3.0):
            rs = [0.0, 0.3, 0.7, 1.1, 1.5]
            bigs = [
                classify_annulus(AnnulusSeries.parametric(p=p, q=q, r=r), alpha, dim).is_big
                for r in rs
            ]
            # once the verdict drops to NonBig it stays NonBig as r grows
            for earlier, later in zip(bigs, bigs[1:]):
                assert earlier or not later, (p, q)


def test_sphere_threshold():
    for p, r, big in SPHERE_CASES:
        mu = SphereSeries.parametric(p=p, r=r)
        v = classify_sphere_series(mu, alpha=1.5, dim=3)
        assert v.is_big == big, (p, r)
        assert v.rule == "sphere-mass-series"


def test_sphere_alpha_range_is_strict():
    mu = SphereSeries.parametric(p=1.0, r=1.0)
    for alpha in (1.0, 2.0, 0.5):
        with pytest.raises(AlphaOutOfRange):
            classify_sphere_series(mu, alpha=alpha, dim=3)


def test_sphere_tabulated_without_tail_is_inconclusive():
    mu = SphereSeries(radii=Seq.table([1.0, 2.0, 4.0, 8.0]), r=1.0)
    v = classify_sphere_series(mu, alpha=1.5, dim=3)
    assert v.conclusion is Conclusion.INCONCLUSIVE
    assert v.rule == "tabulated-tail-unsettled"


def test_dispatcher_routes_by_family():
    assert classify(PowerWeight(p=0.0), 1.5, 3).rule == "radial-power-threshold"
    assert classify(AnnulusSeries.parametric(p=1.0, q=1.5, r=0.0), 1.5, 3).rule == "annulus-mass-series"
    assert classify(SphereSeries.parametric(p=1.0, r=1.0), 1.5, 3).rule == "sphere-mass-series"
    assert classify(BoundaryPower(r=2.0, radius=1.0), 1.5, 3).rule == "boundary-power-threshold"
    with pytest.raises(TypeError):
        classify("not a measure", 1.5, 3)


def test_verdict_row_is_flat_and_json_safe():
    import json

    v = classify(AnnulusSeries.parametric(p=1.0, q=1.5, r=0.0), 1.5, 3)
    row = v.to_row()
    assert row["conclusion"] == "Big"
    assert set(row) == {"family", "params", "alpha", "dim", "conclusion", "rule", "witness"}
    params = json.loads(row["params"])
    assert params["growth"]["power"] == 1.0
    assert params["gap"]["power"] == -1.5
    json.loads(row["witness"])
    assert str(v.conclusion) == "Big"


def test_overflowing_witness_sums_are_strict_json():
    import json
    import warnings

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = classify(AnnulusSeries.parametric(p=100.0, q=1.5, r=0.0), 1.5, 3)
        w = classify(AnnulusSeries.parametric(p=100.0, q=400.0, r=0.0), 1.5, 3)
        s = classify(SphereSeries(radii=Seq.table([1e100, 1e250, 1e300]), r=-1.0), 1.5, 3)
    assert v.conclusion is Conclusion.BIG and v.rule == "annulus-mass-series"
    assert w.conclusion is Conclusion.NON_BIG
    assert s.conclusion is Conclusion.INCONCLUSIVE
    witness = json.loads(v.to_row()["witness"], parse_constant=reject)
    marks = witness["partial_sums"]
    assert marks["10"] == pytest.approx(sum(n**148.5 for n in range(1, 11)), rel=1e-12)
    assert marks["1000"] == marks["1000000"] == "overflow"
    json.loads(w.to_row()["witness"], parse_constant=reject)
    assert json.loads(s.to_row()["witness"], parse_constant=reject)["partial_sum"] == "overflow"


def test_steep_convergent_annulus_marks_are_finite():
    # f(n)^(alpha-r) leaves the float range while the terms themselves do not
    import json
    import warnings

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    # n^150 overflows and n^-400 underflows; the terms are n^-250 after n = 1
    steep = AnnulusSeries.parametric(p=100.0, q=400.0, r=0.0)
    # f(n) = 1e250 n/2 and h(n) = 1e-200 (n/2)^-3 past n = 1: f^1.5 overflows,
    # the term 1e175 (n/2)^-1.5 does not
    tabulated = AnnulusSeries(
        growth=Seq.table([1.0, 1e250], tail_exponent=1.0),
        gap=Seq.table([1.0, 1e-200], tail_exponent=-3.0),
        r=0.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = [classify(steep, 1.5, 3), classify(tabulated, 1.5, 3)]
    marks = []
    for v in verdicts:
        assert v.conclusion is Conclusion.NON_BIG
        marks.append(json.loads(v.to_row()["witness"], parse_constant=reject)["partial_sums"])
    assert list(marks[0]) == ["10", "100", "1000", "10000", "100000", "1000000"]
    for value in marks[0].values():
        assert value == pytest.approx(1.0, rel=1e-12)
    terms = [1.0] + [1e175 * (n / 2.0) ** -1.5 for n in range(2, 10**6 + 1)]
    for mark, value in marks[1].items():
        assert value == pytest.approx(math.fsum(terms[: int(mark)]), rel=1e-12)


def test_partial_sums_reflect_the_series():
    # divergent case: partial sums keep growing; convergent case: they settle
    big = classify_annulus(AnnulusSeries.parametric(p=2.0, q=1.5, r=0.0), 1.5, 3)
    s_big = big.witness["partial_sums"]
    assert s_big["1000000"] > 10 * s_big["1000"]

    small = classify_annulus(AnnulusSeries.parametric(p=0.5, q=3.0, r=0.0), 1.5, 3)
    s_small = small.witness["partial_sums"]
    assert s_small["1000000"] < s_small["1000"] + 1e-3


def _fsum_marks(mu, alpha, upto):
    """Correctly rounded partial sums of f(n)^(alpha-r) h(n) at the decade marks."""
    n = np.arange(1, upto + 1, dtype=float)
    terms = (mu.growth(n) ** (alpha - mu.r) * mu.gap(n)).tolist()
    return {str(m): math.fsum(terms[:m]) for m in (10, 100, 1000, 10_000, 100_000, 1_000_000) if m <= upto}


@pytest.mark.parametrize(
    "mu",
    [
        # alpha = 1.5, p = 1, r = 0: term exponent 1.5 - q
        AnnulusSeries.parametric(p=1.0, q=2.5, r=0.0),  # e = -1
        AnnulusSeries.parametric(p=1.0, q=2.5 - 1e-6, r=0.0),  # e = -1 + 1e-6
        AnnulusSeries.parametric(p=1.0, q=2.5 + 1e-6, r=0.0),  # e = -1 - 1e-6
        AnnulusSeries.parametric(p=1.0, q=4.5, r=0.0),  # convergent, e = -3
        AnnulusSeries.parametric(p=2.0, q=1.25, r=0.5),  # divergent, e = 0.75
        # tables longer than the direct head, continued by tail rules
        AnnulusSeries(
            growth=Seq.table([n**2.0 for n in range(1, 1501)], tail_exponent=2.0),
            gap=Seq.table([n**-1.5 for n in range(1, 1201)], tail_exponent=-1.5),
            r=1.0,
        ),
    ],
)
def test_witness_marks_match_exact_sums(mu):
    w = classify_annulus(mu, alpha=1.5, dim=3).witness
    want = _fsum_marks(mu, 1.5, 1_000_000)
    assert w["terms_summed"] == 1_000_000
    assert w["partial_sums"].keys() == want.keys()
    for m, ref in want.items():
        assert abs(w["partial_sums"][m] - ref) <= 1e-12 * abs(ref), m


def test_witness_cost_does_not_grow_with_n_terms():
    mu = AnnulusSeries.parametric(p=1.0, q=2.0, r=0.0)
    v = classify_annulus(mu, alpha=1.5, dim=3, n_terms=10**12)
    assert v.witness["terms_summed"] == 10**12
    assert set(v.witness["partial_sums"]) == {"10", "100", "1000", "10000", "100000", "1000000"}
    assert v.is_big


def test_admissible_steep_mixed_annulus_is_classified_without_warnings():
    # gap(n) = n^-400 underflows to 0 from n = 7 on and the tail growth
    # 1e6 (n/3)^100 overflows; the windows are disjoint all the same
    import warnings

    mu = AnnulusSeries(
        growth=Seq.table([1.0, 1e3, 1e6], tail_exponent=100.0), gap=Seq.power(-400.0), r=0.0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = classify(mu, 1.5, 3)
    assert verdict.conclusion is Conclusion.NON_BIG
