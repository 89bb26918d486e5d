import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from bigmeasure.classifier import classify
from bigmeasure.errors import NotAdmissible, ShellOverlap, SingularMeasure
from bigmeasure.kernels import KernelModel
from bigmeasure.measures import (
    FAMILIES,
    AdmissibilityResult,
    AnnulusSeries,
    BoundaryPower,
    PowerWeight,
    Seq,
    SphereSeries,
    admissibility_check,
    default_smoothing_eps,
    describe,
    evaluate_density,
    radial_weight_fn,
    smoothed_density,
    support_scale,
)
from bigmeasure.potentials import riesz_potential


def test_seq_power_and_table():
    f = Seq.power(1.5)
    assert f(4) == pytest.approx(8.0)
    assert np.allclose(f(np.array([1, 4, 9])), [1.0, 8.0, 27.0])
    t = Seq.table([1.0, 2.0, 4.0], tail_exponent=2.0)
    assert t(2) == 2.0
    # tail: values[-1] * (n/len)^tail
    assert t(6) == pytest.approx(4.0 * (6 / 3) ** 2)
    bare = Seq.table([1.0, 2.0])
    assert bare(2) == 2.0
    with pytest.raises(ValueError):
        bare(3)
    with pytest.raises(ValueError):
        Seq.power(1.0)(0)
    with pytest.raises(ValueError):
        Seq(exponent=1.0, values=(1.0,))
    with pytest.raises(ValueError):
        Seq.table([])
    with pytest.raises(ValueError):
        Seq.table([1.0, -2.0])
    assert Seq.power(2.0).tail_power() == 2.0
    assert Seq.table([1.0]).tail_power() is None


_INCREASING = st.one_of(
    st.floats(0.01, 4.0).map(Seq.power),
    st.builds(
        lambda steps, tail: Seq.table(np.cumsum(steps), tail_exponent=tail),
        st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
        st.floats(0.01, 4.0),
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    seq=_INCREASING,
    past=st.floats(1.0, 1e6),
    v=st.lists(st.floats(0.0, 1e300), min_size=2, max_size=16),
)
def test_seq_index_inverts_the_rule(seq, past, v):
    # past the table: the inverse of the rule
    n = seq.table_len + past
    assert float(seq.index(seq(n))) == pytest.approx(n, rel=1e-9)
    # inside a table: the insertion position, 0-based on side left
    k = np.arange(seq.table_len)
    assert np.array_equal(seq.index(np.array(seq.values or [])), k)
    assert np.array_equal(seq.index(np.array(seq.values or []), side="right"), k + 1)
    v = np.sort(np.array(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx = seq.index(v)
    assert np.all(idx[1:] >= idx[:-1])
    # inf, silently, exactly where the index leaves the float range
    cnt, last = (seq.table_len, seq.values[-1]) if seq.values else (1, 1.0)
    with np.errstate(divide="ignore"):
        log_idx = math.log(cnt) + (np.log(v) - math.log(last)) / seq.tail_power()
    beyond = v > last if seq.values else v > 0.0
    assert np.all(np.isinf(idx[beyond & (log_idx > 709.9)]))
    assert np.all(np.isfinite(idx[~beyond | (log_idx < 709.7)]))


def test_admissibility_parametric():
    # eventually disjoint increasing windows iff q > 1, or q = 1 with p >= 1
    assert admissibility_check(Seq.power(1.0), Seq.power(-1.0)).ok
    assert admissibility_check(Seq.power(0.5), Seq.power(-1.5)).ok
    assert admissibility_check(Seq.power(2.0), Seq.power(-1.0)).ok
    res = admissibility_check(Seq.power(0.5), Seq.power(-1.0))
    assert not res.ok and res.first_violation is not None
    res = admissibility_check(Seq.power(2.0), Seq.power(-0.5))
    assert not res.ok
    assert not admissibility_check(Seq.power(1.0), Seq.power(0.0)).ok


def test_admissibility_direct_scan():
    # p >= 1 passing pairs are disjoint at every n, not just eventually
    for p, q in [(1.0, 1.0), (2.0, 1.2), (1.5, 1.0)]:
        res = admissibility_check(Seq.power(p), Seq.power(-q))
        assert res.ok and res.first_violation is None
        n = np.arange(1, 100_000, dtype=float)
        a = n**p
        b = a * (1 + n**-q)
        assert np.all(a < b)
        assert np.all(b <= (n + 1) ** p * (1 + 1e-12))
    # p < 1: h(1) = 1 forces b_1 = 2 a_1 > a_2 = 2^p, so a finite prefix
    # overlaps even though the tail is disjoint; the check passes but
    # reports the violating prefix
    res = admissibility_check(Seq.power(0.5), Seq.power(-1.5))
    assert res.ok and res.first_violation == 1
    n = np.arange(20, 100_000, dtype=float)
    assert np.all(n**0.5 * (1 + n**-1.5) <= (n + 1) ** 0.5)


def test_admissibility_direct_scan_in_log_space():
    # an underflowed gap and an overflowed growth are not overlaps
    res = admissibility_check(Seq.table([1.0, 1e3, 1e6], tail_exponent=100.0), Seq.power(-400.0))
    assert res.ok and res.first_violation is None and res.mode == "direct"
    # a tabulated prefix that really overlaps: b_2 = 2 * 2 > a_3 = 3
    growth = Seq.table([1.0, 2.0, 3.0], tail_exponent=2.0)
    res = admissibility_check(growth, Seq.table([1.0, 1.0], tail_exponent=-2.0))
    assert not res.ok and res.first_violation == 2
    # windows that touch exactly (b_n = a_{n+1}) pass
    doubling = Seq.table([2.0**k for k in range(40)], tail_exponent=40.0)
    assert admissibility_check(doubling, Seq.table([1.0], tail_exponent=-2.0)).first_violation is None
    # the sign comes from the rule: a nonpositive entry is a violation
    res = admissibility_check(Seq.power(2.0), Seq(values=(1.0, -0.5), tail_exponent=-2.0))
    assert not res.ok and res.first_violation == 2
    res = admissibility_check(Seq(values=(1.0, -2.0, 4.0)), Seq.power(-2.0))
    assert not res.ok and res.first_violation == 2
    res = admissibility_check(Seq.power(1.0), Seq(values=(1.0, 0.0), tail_exponent=-2.0))
    assert not res.ok and res.first_violation == 2


_EXPONENTS = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.05, 4.0))


@settings(max_examples=60, deadline=None)
@given(p=_EXPONENTS, q=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 4.0)))
def test_admissibility_parametric_matches_direct_scan(p, q):
    # the analytic shortcuts must reproduce the full scan over n < n_max
    n_max = 100_000
    n = np.arange(1, n_max, dtype=float)
    bad = n**p * (1.0 + n**-q) > (n + 1.0) ** p * (1.0 + 1e-12)
    hits = np.nonzero(bad)[0]
    want = AdmissibilityResult(
        ok=q > 1.0 or (q == 1.0 and p >= 1.0),
        first_violation=int(hits[0]) + 1 if hits.size else None,
        checked_to=n_max,
        mode="analytic",
    )
    assert admissibility_check(Seq.power(p), Seq.power(-q), n_max) == want


def test_admissibility_tabulated():
    growth = Seq.table([1.0, 2.0, 4.0, 8.0])
    gap = Seq.table([0.5, 0.5, 0.5, 0.5])
    assert admissibility_check(growth, gap).ok
    bad_gap = Seq.table([0.5, 1.5, 0.1, 0.1])
    res = admissibility_check(growth, bad_gap)
    assert not res.ok
    assert res.first_violation == 2  # b_2 = 2 * 2.5 = 5 > a_3 = 4
    # consistent tables but overlapping tail rules
    res = admissibility_check(
        Seq.table([1.0, 2.0, 4.0], tail_exponent=1.0),
        Seq.table([0.4, 0.3, 0.2], tail_exponent=-0.5),
    )
    assert not res.ok


def test_annulus_family_validation():
    with pytest.raises(ValueError):
        AnnulusSeries.parametric(p=-1.0, q=2.0, r=0.0)
    with pytest.raises(ValueError):
        AnnulusSeries.parametric(p=1.0, q=-0.5, r=0.0)
    mu = AnnulusSeries.parametric(p=1.0, q=1.0, r=0.0)
    a, b = mu.window(3)
    assert (a, b) == (3.0, 4.0)
    with pytest.raises(NotAdmissible):
        radial_weight_fn(AnnulusSeries.parametric(p=0.5, q=0.6, r=1.0))


def test_evaluate_density():
    assert evaluate_density(PowerWeight(-2.0), [1.0, 0.0, 0.0]) == pytest.approx(0.25)
    mu = AnnulusSeries.parametric(p=1.0, q=1.5, r=2.0)
    assert evaluate_density(mu, [1.2, 0.0, 0.0]) == pytest.approx(1.2**-2)
    # window 2 ends at 2(1 + 2^-1.5) ~ 2.707, window 3 starts at 3
    mid = 0.5 * (mu.window(2)[1] + mu.window(3)[0])
    assert evaluate_density(mu, [mid, 0.0, 0.0]) == 0.0
    assert evaluate_density(mu, [0.0, 0.0, 0.0]) == 0.0
    bnd = BoundaryPower(r=2.0, radius=1.0)
    assert evaluate_density(bnd, [0.5, 0.0, 0.0]) == pytest.approx(4.0)
    assert evaluate_density(bnd, [2.0, 0.0, 0.0]) == 0.0
    assert evaluate_density(bnd, [1.0, 0.0, 0.0]) == math.inf
    with pytest.raises(SingularMeasure):
        evaluate_density(SphereSeries.parametric(1.0, 1.0), [1.0, 0.0, 0.0])


def test_smoothed_density_shell_mass():
    mu = SphereSeries.parametric(p=1.0, r=3.0)
    eps = 0.05
    s0 = 2.0
    # integral of the smoothed density over R^3 near shell 2 equals
    # s0^(-3)/(2 eps) * (4 pi / 3)((s0+eps)^3 - (s0-eps)^3)
    val, _ = integrate.quad(
        lambda t: smoothed_density(mu, [t, 0.0, 0.0], eps) * 4 * math.pi * t**2,
        s0 - eps,
        s0 + eps,
    )
    expected = s0**-3 / (2 * eps) * (4 * math.pi / 3) * ((s0 + eps) ** 3 - (s0 - eps) ** 3)
    assert val == pytest.approx(expected, rel=1e-7)
    # and approximates the atom mass to O((eps/s0)^2)
    atom = s0**-3 * 4 * math.pi * s0**2
    assert abs(val - atom) / atom <= (eps / s0) ** 2
    assert smoothed_density(mu, [2.5, 0.0, 0.0], eps) == 0.0
    with pytest.raises(ShellOverlap):
        smoothed_density(SphereSeries(Seq.table([1.0, 1.15]), 1.0), [1.08, 0, 0], 0.1)


def test_radial_weight_fn_matches_pointwise():
    rng = np.random.default_rng(5)
    radii = rng.uniform(0.0, 6.0, size=64)
    for mu in (
        PowerWeight(-1.5),
        AnnulusSeries.parametric(p=1.0, q=1.5, r=0.5),
        BoundaryPower(r=1.0, radius=2.0),
    ):
        w = radial_weight_fn(mu)
        vals = w(radii)
        for s, v in zip(radii, vals):
            assert v == pytest.approx(evaluate_density(mu, [s, 0.0, 0.0]))
    mu = SphereSeries.parametric(p=1.0, r=2.0)
    w = radial_weight_fn(mu, smoothing_eps=0.05)
    vals = w(radii)
    for s, v in zip(radii, vals):
        assert v == pytest.approx(smoothed_density(mu, [s, 0.0, 0.0], 0.05))
    with pytest.raises(SingularMeasure):
        radial_weight_fn(mu)
    zero = radial_weight_fn(None)
    assert np.all(zero(radii) == 0.0)


def test_touching_windows_count_their_shared_radius_once():
    # tabulated windows [1, 2], [2, 4], [4, 5] touch; each shared endpoint
    # belongs to one window, as at every radius of an admissible family
    mu = AnnulusSeries(Seq.table([1, 2, 4], 1.0), Seq.table([1, 1, 0.25], -2.0), 0.0)
    assert list(radial_weight_fn(mu)(np.array([2.0, 4.0]))) == [1.0, 1.0]


def test_weight_fn_far_radii_no_overflow():
    # stable paths can wander very far; the window lookup must stay sane
    mu = AnnulusSeries.parametric(p=0.5, q=1.5, r=1.0)
    w = radial_weight_fn(mu)
    vals = w(np.array([1e3, 1e8, 1e15]))
    assert np.all(np.isfinite(vals))
    mu = SphereSeries.parametric(p=1.5, r=1.0)
    w = radial_weight_fn(mu, smoothing_eps=0.05)
    assert np.all(np.isfinite(w(np.array([1e3, 1e8, 1e15]))))


def test_default_smoothing_eps():
    assert default_smoothing_eps(SphereSeries.parametric(1.0, 1.0), 50.0) == pytest.approx(0.05)
    # sqrt spacing: the tightest gap within reach is at the top
    mu = SphereSeries.parametric(0.5, 1.0)
    eps = default_smoothing_eps(mu, 10.0)
    gaps = np.diff(np.sqrt(np.arange(1, 102)))
    assert eps == pytest.approx(min(0.05, gaps.min() / 4))
    # radii n^0.01: radius 1.2 sits at index 1.2^100 ~ 8.3e7, and the tightest
    # gap within reach is the last one, n^0.01 - (n - 1)^0.01 at n = ceil + 1
    mu = SphereSeries.parametric(0.01, 1.0)
    n = math.ceil(1.2**100) + 1.0
    last_gap = -(n**0.01) * math.expm1(0.01 * math.log1p(-1.0 / n))
    assert default_smoothing_eps(mu, 1.2) == pytest.approx(last_gap / 4, rel=1e-9, abs=0.0)
    # the index of radius 1270 leaves the float range: the gaps there are
    # below float resolution, an error rather than an eps that covers two shells
    with pytest.raises(ShellOverlap, match="float resolution"):
        default_smoothing_eps(mu, 1270.0)


def _scanned_eps(mu, max_radius):
    """default_smoothing_eps by scanning every shell gap within reach."""
    seq = mu.radii
    n_hi = max(seq.table_len or 2, math.ceil(float(seq.index(max_radius))) + 1)
    gaps = np.diff(seq(np.arange(1, n_hi + 1)))
    return min(0.05, float(gaps.min()) / 4.0)


def test_default_smoothing_eps_closed_form_matches_a_scan():
    rules = [SphereSeries.parametric(p, 1.0) for p in (0.3, 0.5, 1.0, 1.5)]
    rules.append(SphereSeries(Seq.table([1.0, 1.5, 1.75, 3.0, 3.1], tail_exponent=0.4), 1.0))
    rules.append(SphereSeries(Seq.table([0.5, 0.52, 2.0], tail_exponent=2.0), 1.0))
    for mu in rules:
        for index in (1.0, 3.0, 4.5, 17.0, 1e3, 9.9e4):
            radius = float(mu.radii(index))
            assert default_smoothing_eps(mu, radius) == pytest.approx(_scanned_eps(mu, radius), rel=1e-9, abs=0.0)
    # far reaches cost no scan: sqrt spacing out to radius 1e4 (index 1e8), where
    # the last gap is sqrt(1e8 + 1) - 1e4
    mu = SphereSeries.parametric(0.5, 1.0)
    want = 1.0 / (math.sqrt(1e8 + 1.0) + 1e4) / 4
    assert default_smoothing_eps(mu, 1e4) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_density_rotation_invariant():
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    x = np.array([1.3, -0.2, 0.4])
    for mu in (
        PowerWeight(-2.0),
        AnnulusSeries.parametric(p=1.0, q=1.5, r=0.5),
        BoundaryPower(r=1.0, radius=2.0),
    ):
        assert evaluate_density(mu, q @ x) == pytest.approx(evaluate_density(mu, x))
    mu = SphereSeries.parametric(p=1.0, r=2.0)
    assert smoothed_density(mu, q @ x, 0.05) == pytest.approx(smoothed_density(mu, x, 0.05))


def test_describe_and_support_scale():
    fam, params = describe(AnnulusSeries.parametric(p=2.0, q=1.5, r=0.5))
    assert fam == "annulus_series"
    assert params["growth"] == {"power": 2.0}
    assert params["gap"] == {"power": -1.5}
    fam, params = describe(SphereSeries(Seq.table([1.0, 2.0], tail_exponent=1.0), 3.0))
    assert params["radii"] == {"table": [1.0, 2.0], "tail_exponent": 1.0}
    assert support_scale(PowerWeight(1.0)) == 1.0
    assert support_scale(AnnulusSeries.parametric(p=1.0, q=1.0, r=0.0)) == 2.0
    assert support_scale(SphereSeries.parametric(p=2.0, r=1.0)) == 1.0
    assert support_scale(BoundaryPower(r=1.0, radius=3.0)) == 3.0


@pytest.mark.parametrize("call", [
    pytest.param(lambda mu: classify(mu, 1.5, 3), id="classify"),
    pytest.param(lambda mu: riesz_potential(mu, 1.0, KernelModel(1.5, 3)), id="riesz_potential"),
    pytest.param(radial_weight_fn, id="radial_weight_fn"),
    pytest.param(describe, id="describe"),
    pytest.param(support_scale, id="support_scale"),
    pytest.param(lambda mu: evaluate_density(mu, 1.0), id="evaluate_density"),
])
def test_non_family_objects_get_one_type_error(call):
    with pytest.raises(TypeError, match="^not a measure family: str$"):
        call("not a measure")


def test_family_registry_round_trips_describe():
    for mu in (PowerWeight(-4.0), AnnulusSeries.parametric(1.0, 2.0, 0.5),
               SphereSeries(Seq.table([1.0, 2.0], 1.5), 1.0), BoundaryPower(0.5, 2.0)):
        family, params = describe(mu)
        assert FAMILIES[family] is type(mu)
