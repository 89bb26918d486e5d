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
    point_radius,
    radial_weight_fn,
    support_scale,
    _shell_hits,
    _shell_table,
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


def test_weight_values():
    assert radial_weight_fn(PowerWeight(-2.0))(1.0) == pytest.approx(0.25)
    mu = AnnulusSeries.parametric(p=1.0, q=1.5, r=2.0)
    # window 2 ends at 2(1 + 2^-1.5) ~ 2.707, window 3 starts at 3
    mid = 0.5 * (mu.window(2)[1] + mu.window(3)[0])
    assert list(radial_weight_fn(mu)(np.array([1.2, mid, 0.0]))) == pytest.approx([1.2**-2, 0.0, 0.0])
    # the ball weight is 0 on the wall and outside: paths there are absorbed
    bnd = BoundaryPower(r=2.0, radius=1.0)
    assert list(radial_weight_fn(bnd)(np.array([0.5, 2.0, 1.0]))) == pytest.approx([4.0, 0.0, 0.0])
    with pytest.raises(SingularMeasure):
        radial_weight_fn(SphereSeries.parametric(1.0, 1.0))
    for eps in (0.0, -0.05, math.nan):
        with pytest.raises(ValueError, match="smoothing_eps must be positive"):
            radial_weight_fn(SphereSeries.parametric(1.0, 1.0), eps)


def test_smoothed_density_shell_mass():
    mu = SphereSeries.parametric(p=1.0, r=3.0)
    eps = 0.05
    s0 = 2.0
    w = radial_weight_fn(mu, smoothing_eps=eps)
    # integral of the smoothed weight over R^3 near shell 2 equals
    # s0^(-3)/(2 eps) * (4 pi / 3)((s0+eps)^3 - (s0-eps)^3)
    val, _ = integrate.quad(lambda t: float(w(t)) * 4 * math.pi * t**2, s0 - eps, s0 + eps)
    expected = s0**-3 / (2 * eps) * (4 * math.pi / 3) * ((s0 + eps) ** 3 - (s0 - eps) ** 3)
    assert val == pytest.approx(expected, rel=1e-7)
    # and approximates the atom mass to O((eps/s0)^2)
    atom = s0**-3 * 4 * math.pi * s0**2
    assert abs(val - atom) / atom <= (eps / s0) ** 2
    assert w(2.5) == 0.0
    with pytest.raises(ShellOverlap):
        radial_weight_fn(SphereSeries(Seq.table([1.0, 1.15]), 1.0), 0.1)(np.array([1.08]))


def test_radial_weight_fn_matches_pointwise():
    rng = np.random.default_rng(5)
    radii = rng.uniform(0.0, 6.0, size=64)
    ann = AnnulusSeries.parametric(p=1.0, q=1.5, r=0.5)
    a, b = ann.window(np.arange(1, 8))
    for mu, want in (
        (PowerWeight(-1.5), lambda s: (1.0 + s) ** -1.5),
        (ann, lambda s: s**-0.5 if np.any((a <= s) & (s <= b)) else 0.0),
        (BoundaryPower(r=1.0, radius=2.0), lambda s: 1.0 / (2.0 - s) if s < 2.0 else 0.0),
        (SphereSeries.parametric(p=1.0, r=2.0), lambda s: max(round(s), 1) ** -2 / 0.1 if abs(s - max(round(s), 1)) <= 0.05 else 0.0),
    ):
        w = radial_weight_fn(mu, smoothing_eps=0.05)
        vals = w(radii)
        for s, v in zip(radii, vals):
            assert v == pytest.approx(want(s))
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
    # |x| = 1.3748, within 0.05 of the shell at sqrt(2)
    for mu in (
        PowerWeight(-2.0),
        AnnulusSeries.parametric(p=1.0, q=1.5, r=0.5),
        BoundaryPower(r=1.0, radius=2.0),
        SphereSeries.parametric(p=0.5, r=2.0),
    ):
        w = radial_weight_fn(mu, smoothing_eps=0.05)
        assert w(point_radius(q @ x)) == pytest.approx(w(point_radius(x)))
        assert w(point_radius(x)) > 0.0


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
])
def test_non_family_objects_get_one_type_error(call):
    with pytest.raises(TypeError, match="^not a measure family: str$"):
        call("not a measure")


def test_family_registry_round_trips_describe():
    for mu in (PowerWeight(-4.0), AnnulusSeries.parametric(1.0, 2.0, 0.5),
               SphereSeries(Seq.table([1.0, 2.0], 1.5), 1.0), BoundaryPower(0.5, 2.0)):
        family, params = describe(mu)
        assert FAMILIES[family] is type(mu)


# ---------------------------------------------------------------------------
# the shell prefilter against the full three-candidate scan


def _scan_shell_hits(mu, s, eps):
    """Every radius through the three shells around round(index(s)), no prefilter."""
    s = np.asarray(s, dtype=float)
    seq = mu.radii
    base = np.clip(np.floor(np.round(seq.index(s))), 1.0, float(2**62)).astype(np.int64)
    cap = mu.hard_cap
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


def _scan_weight(mu, s, eps):
    hit, radius = _scan_shell_hits(mu, s, eps)
    return np.where(hit, np.where(hit, radius, 1.0) ** -mu.r / (2.0 * eps), 0.0)


def _shell_probes(seq, eps, rng):
    """Radii on, beside and between the shells: each shell +- eps, the bin
    edges around those and the float neighbours of all of them, below eps,
    0, past a truncated table, the top of the bin table and its float
    neighbours, the shells around the top, radii far past it, past index
    2^62, inf and nan."""
    cap = seq.table_len if seq.truncated else None
    inv_width, marked = _shell_table(seq, eps, cap)
    top = (len(marked) - 1) / inv_width
    n_hi = cap or seq.table_len + 8
    n_top = min(float(np.floor(seq.index(top))), 2.0**62) + np.arange(-2.0, 3.0)
    n = np.concatenate([np.arange(1, n_hi + 1), n_top[(n_top >= 1) & (n_top <= (cap or np.inf))]])
    sn = seq(n)
    edges = np.concatenate([sn - eps, sn + eps])
    bin_edges = (np.floor(edges * inv_width)[:, None] + [0.0, 1.0]).ravel() / inv_width
    near = np.concatenate([sn, edges, bin_edges, [top]])
    s_hi = float(seq(n_hi))
    probes = [
        near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf),
        rng.uniform(0.0, eps, 4), [0.0], rng.uniform(0.0, 1.5 * s_hi + 2.0, 48),
        s_hi + rng.uniform(0.0, 3.0, 4), top * np.array([1.5, 2.0, 1e3]), [1e300, np.inf, np.nan],
    ]
    if not seq.truncated:
        probes.append(seq(2.0**62) * np.array([0.5, 1.0, 2.0, 1e6]))
    s = np.concatenate(probes)
    return rng.permutation(s[~(s < 0.0)])


def _check_against_the_full_scan(mu, s, eps):
    """The weight and _shell_hits on s against _scan_shell_hits: the same
    hits, shell radii and weight bits, or the same ShellOverlap message; a
    NaN radius weighs 0."""
    weight = radial_weight_fn(mu, smoothing_eps=eps)
    table = _shell_table(mu.radii, eps, mu.hard_cap)
    nan = np.isnan(s)
    try:
        want_hit, want_radius = _scan_shell_hits(mu, s[~nan], eps)
    except ShellOverlap as e:
        for call in (lambda: _shell_hits(mu, s, eps, table), lambda: weight(s)):
            with pytest.raises(ShellOverlap) as got:
                call()
            assert str(got.value) == str(e)
        return
    at, shell = _shell_hits(mu, s, eps, table)
    hit, radius = np.zeros(s.shape, dtype=bool), np.zeros_like(s)
    hit[at], radius[at] = True, shell
    assert not hit[nan].any()
    assert np.array_equal(hit[~nan], want_hit)
    assert np.array_equal(radius[~nan].view(np.int64), want_radius.view(np.int64))
    w = weight(s)
    assert np.all(w[nan] == 0.0)
    assert np.array_equal(w[~nan].view(np.int64), _scan_weight(mu, s[~nan], eps).view(np.int64))


_SHELL_RADII = st.one_of(
    st.floats(0.3, 3.0).map(Seq.power),
    st.builds(
        lambda steps, tail: Seq.table(np.cumsum(steps), tail_exponent=tail),
        st.lists(st.floats(0.01, 3.0), min_size=1, max_size=8),
        st.one_of(st.none(), st.floats(0.3, 3.0)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    seq=_SHELL_RADII,
    r=st.one_of(st.sampled_from([0.0, 0.75, 1.0, 2.0, -1.0]), st.floats(-1.0, 3.0)),
    eps=st.one_of(st.floats(1e-6, 1.0), st.sampled_from([0.05, 0.025])),
    seed=st.integers(0, 2**32 - 1),
)
def test_shell_prefilter_matches_the_full_scan(seq, r, eps, seed):
    mu = SphereSeries(seq, r)
    s = _shell_probes(seq, eps, np.random.default_rng(seed))
    _check_against_the_full_scan(mu, s, eps)
    weight = radial_weight_fn(mu, smoothing_eps=eps)
    for x in s[:12]:
        if np.isnan(x):
            assert float(weight(x)) == 0.0
            continue
        try:
            want = _scan_weight(mu, np.array([x]), eps)[0]
        except ShellOverlap as e:
            with pytest.raises(ShellOverlap) as got:
                weight(np.float64(x))
            assert str(got.value) == str(e)
            continue
        w = weight(np.float64(x))
        assert w.shape == () and float(w) == want


@pytest.mark.parametrize("seq, eps, binds", [
    # integer radii: 1/0.3 bins per shell, so the shell cap ends the table
    # below its bin cap, near shell 16385
    (Seq.power(1.0), 0.3, "shells"),
    (Seq.table([0.5, 1.0, 2.0], tail_exponent=1.0), 0.3, "shells"),
    # the bin cap ends the table below radius 66, and below the first shell
    (Seq.power(1.0), 1e-3, "bins"),
    (Seq.power(1.5), 1e-6, "bins"),
    # shells denser than the bins: a square root spacing at eps = 1e-4
    (Seq.power(0.5), 1e-4, "bins"),
    (Seq.power(0.9), 0.1, "shells"),
])
def test_shell_table_caps(seq, eps, binds):
    mu = SphereSeries(seq, 1.0)
    inv_width, marked = _shell_table(seq, eps, None)
    top = len(marked) - 1
    assert not marked.flags.writeable and marked[top]
    assert top <= (1 << 16) and (top == 1 << 16) == (binds == "bins")
    assert float(seq.index((top + 3) / inv_width)) > 1 << 14 or binds == "bins"
    s = _shell_probes(seq, eps, np.random.default_rng(7))
    _check_against_the_full_scan(mu, s, eps)


@pytest.mark.parametrize("seq, eps", [
    # dyadic shells and eps: each reach s_n +- eps ends exactly on a bin edge
    (Seq.table([1.0, 2.0, 3.5, 4.0], tail_exponent=1.0), 0.25),
    (Seq.power(1.5), 0.05),
    (Seq.power(3.0), 0.025),
])
def test_shell_table_marks_each_reach_with_slack(seq, eps):
    # a shell radius or a radius off by far more than its rounding still
    # lands in a marked bin: every bin that the reach [s_n - eps, s_n + eps],
    # widened by 1e-12 relative, touches is marked
    inv_width, marked = _shell_table(seq, eps, None)
    top = len(marked) - 1
    sn = seq(np.arange(1.0, 2000.0))
    reach = np.concatenate([sn * (1 - 1e-12) - eps * (1 + 1e-12), sn, (sn + eps) * (1 + 1e-12)])
    bins = np.floor(np.maximum(reach, 0.0) * inv_width)
    assert np.all(marked[bins[bins < top].astype(np.intp)])
