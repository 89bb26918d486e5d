import math

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
    radial_marginal,
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


def test_power_weight_ball_mass():
    prof = radial_marginal(PowerWeight(0.0), 3)
    assert prof.mass(0.0, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-9)
    prof2 = radial_marginal(PowerWeight(0.0), 2)
    assert prof2.mass(0.0, 2.0) == pytest.approx(math.pi * 4.0, rel=1e-9)


def test_annulus_first_window_mass():
    # f(n) = n, h(n) = 1/n: first window is [1, 2]; with r = 0 its mass in
    # R^3 is (4 pi / 3)(2^3 - 1) = (4 pi / 3) * 7
    mu = AnnulusSeries.parametric(p=1.0, q=1.0, r=0.0)
    prof = radial_marginal(mu, 3)
    assert prof.mass(0.9, 2.0) == pytest.approx(4.0 * math.pi / 3.0 * 7.0, rel=1e-9)
    # with the density exponent: mass of [1,2] at r = 2 is 4 pi int_1^2 1 ds
    mu = AnnulusSeries.parametric(p=1.0, q=1.0, r=2.0)
    prof = radial_marginal(mu, 3)
    assert prof.mass(0.9, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_sphere_atoms():
    mu = SphereSeries.parametric(p=1.0, r=3.0)
    prof = radial_marginal(mu, 3)
    radii, masses = prof.atoms(1.5, 3.5)
    assert np.allclose(radii, [2.0, 3.0])
    # mass of shell n: s_n^(-r) * omega_3 * s_n^2
    assert masses[0] == pytest.approx(2.0**-3 * 4 * math.pi * 4.0)
    assert prof.mass(1.5, 3.5) == pytest.approx(float(np.sum(masses)))
    assert prof.density is None


def test_marginal_matches_3d_monte_carlo():
    # two independent routes to int (1+|y|)^(-2) dy over the ball |y| <= 2
    mu = PowerWeight(-2.0)
    expected = radial_marginal(mu, 3).mass(0.0, 2.0)
    rng = np.random.default_rng(314)
    n = 2_000_000
    pts = rng.uniform(-2.0, 2.0, size=(n, 3))
    norms = np.linalg.norm(pts, axis=1)
    inside = norms <= 2.0
    vals = np.where(inside, (1.0 + norms) ** -2.0, 0.0)
    vol = 4.0**3
    mc = vals.mean() * vol
    se = vals.std(ddof=1) / math.sqrt(n) * vol
    assert abs(mc - expected) <= 4 * se


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


def test_boundary_mass_divergence():
    prof = radial_marginal(BoundaryPower(r=1.5, radius=1.0), 3)
    assert prof.mass(0.0, 1.0) == math.inf
    prof = radial_marginal(BoundaryPower(r=0.5, radius=1.0), 3)
    assert np.isfinite(prof.mass(0.0, 1.0))


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
    pytest.param(lambda mu: radial_marginal(mu, 3), id="radial_marginal"),
])
def test_non_family_objects_get_one_type_error(call):
    with pytest.raises(TypeError, match="^not a measure family: str$"):
        call("not a measure")


def test_family_registry_round_trips_describe():
    for mu in (PowerWeight(-4.0), AnnulusSeries.parametric(1.0, 2.0, 0.5),
               SphereSeries(Seq.table([1.0, 2.0], 1.5), 1.0), BoundaryPower(0.5, 2.0)):
        family, params = describe(mu)
        assert FAMILIES[family] is type(mu)
