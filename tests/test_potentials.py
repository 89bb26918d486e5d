import math

import numpy as np
import pytest
from scipy import special

import bigmeasure.potentials as potentials_mod
from bigmeasure.classifier import classify, divergence_by_potential
from bigmeasure.errors import GaugeOutOfRange, HypothesisViolated, NotTransient
from bigmeasure.kernels import KernelModel, shell_average_batch, sphere_surface_area
from bigmeasure.measures import (
    AnnulusSeries,
    BoundaryPower,
    PowerWeight,
    Seq,
    SphereSeries,
)
from bigmeasure.potentials import (
    RadialTable,
    gauge_weighted_potential,
    potential_decay_check,
    riesz_potential,
)

M32 = KernelModel(alpha=1.5, dim=3)
M23 = KernelModel(alpha=2.0, dim=3)
OMEGA3 = 4.0 * math.pi

# Frozen oracles, all derived by hand before running the implementation.
#
# Uniform unit ball (BoundaryPower r=0, radius 1), alpha = 2, dim = 3:
# Newton's theorem gives U(rho) = 4 pi (1/2 - rho^2/6) inside and
# (4 pi / 3) / rho outside.
NEWTON_INSIDE = lambda rho: 4.0 * math.pi * (0.5 - rho * rho / 6.0)
NEWTON_OUTSIDE = lambda rho: (4.0 * math.pi / 3.0) / rho

# Density (1 + s)^-4, alpha = 2, dim = 3. With u = 1 + s,
# U(rho) = 4 pi [ I1(rho)/rho + 1/(2(1+rho)^2) - 1/(3(1+rho)^3) ],
# I1 = 1/3 - (1/(1+rho) - 1/(1+rho)^2 + 1/(3(1+rho)^3)); U(0) = 2 pi / 3,
# U(1) = pi / 2, U(3) = 7 pi / 24.
POWER4_AT_0 = 2.0 * math.pi / 3.0
POWER4_AT_1 = math.pi / 2.0
POWER4_AT_3 = 7.0 * math.pi / 24.0

# Spheres at radius n with weight s^-3, alpha = 1.5: atoms 4 pi n^-2.5,
# so U(0) = 4 pi zeta(5/2).
SPHERE_ZETA = 4.0 * math.pi * 1.3414872572509171

# Annuli [n, n(1 + n^-2)] with weight s^-1, alpha = 1.5, probed at 0:
# each window contributes exactly 2 omega (sqrt(n + 1/n) - sqrt(n)), and
# expanding the square root gives the Hurwitz zeta series
# omega sum_k 2 C(1/2, k) zeta(2k - 1/2, N) past any direct head N.
ANNULUS_SQRT_ORACLE = 30.30857345180449
_SQRT_COEF = (1.0, -0.25, 0.125, -5.0 / 64.0, 7.0 / 128.0, -21.0 / 512.0, 33.0 / 1024.0)
_SQRT_EXPO = (1.5, 3.5, 5.5, 7.5, 9.5, 11.5, 13.5)


def test_uniform_ball_newton_profile():
    ball = BoundaryPower(0.0, 1.0)
    res = riesz_potential(ball, 0.0, M23)
    assert res.value == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert not res.divergent
    for rho in (0.25, 0.5, 0.9):
        got = riesz_potential(ball, rho, M23).value
        assert got == pytest.approx(NEWTON_INSIDE(rho), rel=1e-10)
    for rho in (1.5, 2.0, 7.0):
        got = riesz_potential(ball, rho, M23).value
        assert got == pytest.approx(NEWTON_OUTSIDE(rho), rel=1e-10)


def test_power_weight_closed_forms():
    mu = PowerWeight(-4.0)
    for rho, want in ((0.0, POWER4_AT_0), (1.0, POWER4_AT_1), (3.0, POWER4_AT_3)):
        res = riesz_potential(mu, rho, M23)
        assert res.value == pytest.approx(want, rel=1e-9)
        assert abs(res.value - want) <= max(res.abs_error, 1e-12)


def test_sphere_series_zeta_oracle():
    res = riesz_potential(SphereSeries.parametric(p=1.0, r=3.0), 0.0, M32)
    want = 4.0 * math.pi * float(special.zeta(2.5))
    assert want == pytest.approx(SPHERE_ZETA, abs=1e-12)
    assert res.value == pytest.approx(want, rel=1e-8)
    assert res.terms_used >= 64


def test_annulus_sqrt_series_oracle():
    # re-derive the frozen value: exact window sums for n <= 1000 in the
    # subtraction-free form, Hurwitz zeta series for the rest
    n = np.arange(1, 1001, dtype=float)
    w = 1.0 / n
    head = float(np.sum(2.0 * OMEGA3 * w / (np.sqrt(n + w) + np.sqrt(n))))
    tail = OMEGA3 * sum(
        c * float(special.zeta(e, 1001.0)) for c, e in zip(_SQRT_COEF, _SQRT_EXPO)
    )
    assert head + tail == pytest.approx(ANNULUS_SQRT_ORACLE, abs=1e-11)

    mu = AnnulusSeries.parametric(p=1.0, q=2.0, r=1.0)
    res = riesz_potential(mu, 0.0, M32)
    assert res.value == pytest.approx(ANNULUS_SQRT_ORACLE, abs=1e-7)
    assert abs(res.value - ANNULUS_SQRT_ORACLE) <= res.abs_error


def test_direct_head_size_does_not_matter(monkeypatch):
    mu = AnnulusSeries.parametric(p=1.0, q=2.0, r=1.0)
    mus = SphereSeries.parametric(p=1.0, r=3.0)
    cases = [(mu, rho) for rho in (0.0, 0.7, 3.3, 47.0)]
    cases += [(mus, rho) for rho in (0.5, 7.25, 700.0)]
    small = [riesz_potential(m, rho, M32).value for m, rho in cases]
    monkeypatch.setattr(potentials_mod, "_DIRECT_HEAD", 2048)
    large = [riesz_potential(m, rho, M32).value for m, rho in cases]
    for lo, hi in zip(small, large):
        assert lo == pytest.approx(hi, rel=1e-8)


def test_single_shell_matches_kernel():
    # one tabulated sphere: the potential is mass times the kernel average
    for radius in (1.0, 2.5):
        mu = SphereSeries(radii=Seq.table([radius]), r=0.0)
        mass = OMEGA3 * radius**2
        at_zero = riesz_potential(mu, 0.0, M32)
        assert at_zero.value == pytest.approx(mass * radius**-1.5, rel=1e-12)
        for rho in (0.4, 3.3):
            got = riesz_potential(mu, rho, M32).value
            want = mass * float(shell_average_batch(rho, np.array([radius]), 1.5, 3)[0])
            assert got == pytest.approx(want, rel=1e-12)


def test_shell_pair_symmetry():
    # kernel symmetry through the API: U_{shell s}(rho)/mass_s equals
    # U_{shell rho}(s)/mass_rho
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho, s = rng.uniform(0.1, 4.0, size=2)
        if abs(rho - s) < 1e-3:
            continue
        mu_s = SphereSeries(radii=Seq.table([s]), r=0.0)
        mu_rho = SphereSeries(radii=Seq.table([rho]), r=0.0)
        left = riesz_potential(mu_s, rho, M32).value / (OMEGA3 * s**2)
        right = riesz_potential(mu_rho, s, M32).value / (OMEGA3 * rho**2)
        assert left == pytest.approx(right, rel=1e-11)


def test_monte_carlo_radial_reduction():
    # the shell average is E |x - s Z|^(alpha - dim) over uniform Z on the
    # unit sphere; check the potential of a single shell against a fixed
    # Monte Carlo draw within three standard errors
    rng = np.random.Generator(np.random.Philox(20240816))
    z = rng.normal(size=(200_000, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    x = np.array([0.3, 0.0, 0.0])
    samples = np.linalg.norm(x - z, axis=1) ** (1.5 - 3.0)
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    mu = SphereSeries(radii=Seq.table([1.0]), r=0.0)
    val = riesz_potential(mu, 0.3, M32).value / OMEGA3
    assert val == pytest.approx(1.011717995216875, rel=1e-10)
    assert abs(est - val) <= 3.0 * se
    assert se < 2e-3


def test_divergence_flags_and_witnesses():
    res = riesz_potential(PowerWeight(-1.5), 2.0, M32)
    assert res.divergent and res.value == math.inf
    marks = res.witness["partial_integrals"]
    vals = [marks[k] for k in ("100", "100000", "1e+08")]
    assert vals[0] < vals[1] < vals[2]

    assert not riesz_potential(PowerWeight(-1.51), 2.0, M32).divergent

    res = riesz_potential(BoundaryPower(1.0, 1.0), 0.3, M32)
    assert res.divergent and "note" in res.witness

    res = riesz_potential(AnnulusSeries.parametric(p=2.0, q=2.0, r=1.0), 0.5, M32)
    assert res.divergent
    sums = res.witness["partial_sums"]
    assert sums["1000"] < sums["1e+06"]

    res = riesz_potential(SphereSeries.parametric(p=1.0, r=0.5), 0.0, M32)
    assert res.divergent and res.witness["tail_exponent"] == 0.0


def test_boundary_probe_on_the_boundary():
    # density blows up at the boundary faster than the kernel integrates
    res = riesz_potential(BoundaryPower(r=0.9, radius=1.0), 1.0, KernelModel(1.5, 3))
    assert not res.divergent
    res = riesz_potential(BoundaryPower(r=0.7, radius=1.0), 1.0, KernelModel(1.5, 3))
    assert not res.divergent
    res = riesz_potential(BoundaryPower(r=0.7, radius=1.0), 1.0, KernelModel(1.5, 3))
    assert res.value > 0


def test_truncated_tables_are_monotone():
    radii = np.arange(1.0, 41.0)
    vals = []
    for k in (5, 10, 20, 40):
        mu = SphereSeries(radii=Seq.table(radii[:k]), r=3.0)
        res = riesz_potential(mu, 0.0, M32)
        assert res.witness["truncated_at"] == k
        assert res.value == res.compact_part
        vals.append(res.value)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    full = riesz_potential(SphereSeries.parametric(p=1.0, r=3.0), 0.0, M32).value
    assert vals[-1] < full


def test_gauge_weighting():
    ball2 = BoundaryPower(0.0, 2.0)
    ones = lambda s: np.ones_like(s)
    zeros = lambda s: np.zeros_like(s)
    bare = riesz_potential(ball2, 0.0, M23).value
    assert gauge_weighted_potential(ball2, ones, 0.0, M23).value == pytest.approx(bare)
    assert gauge_weighted_potential(ball2, zeros, 0.0, M23).value == 0.0

    indicator = lambda s: (s <= 1.0).astype(float)
    got = gauge_weighted_potential(ball2, indicator, 0.0, M23).value
    assert got == pytest.approx(2.0 * math.pi, rel=1e-9)

    # piecewise-linear hat on a measure whose bare potential diverges:
    # 4 pi (int_0^1 s ds + int_1^2 s (2 - s) ds) = 4 pi (1/2 + 2/3)
    hat = RadialTable(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 0.0]))
    res = gauge_weighted_potential(PowerWeight(0.0), hat, 0.0, M23)
    assert not res.divergent
    assert res.value == pytest.approx(4.0 * math.pi * (0.5 + 2.0 / 3.0), rel=1e-10)

    # a nonvanishing gauge tail keeps the divergence
    flat = RadialTable(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
    assert gauge_weighted_potential(PowerWeight(0.0), flat, 0.0, M23).divergent

    # a callable gauge cannot settle a divergent bare potential
    with pytest.raises(ValueError):
        gauge_weighted_potential(PowerWeight(0.0), ones, 0.0, M23)

    with pytest.raises(GaugeOutOfRange):
        RadialTable(np.array([0.0, 1.0]), np.array([0.5, 1.2]))

    halfish = gauge_weighted_potential(PowerWeight(-4.0), flat, 0.0, M23).value
    assert 0.5 * POWER4_AT_0 < halfish < POWER4_AT_0


def test_value_dominates_compact_part():
    cases = [
        (PowerWeight(-4.0), 0.5, M23),
        (AnnulusSeries.parametric(p=1.0, q=2.0, r=1.0), 1.2, M32),
        (SphereSeries.parametric(p=1.0, r=3.0), 0.0, M32),
        (BoundaryPower(0.0, 1.0), 0.2, M23),
    ]
    for mu, rho, model in cases:
        res = riesz_potential(mu, rho, model)
        assert res.value >= res.compact_part - 1e-12


def test_decay_check_passes_for_fast_decay():
    chk = potential_decay_check(PowerWeight(-4.0), M23)
    assert chk.passed
    assert chk.values[-1] <= 0.5 * chk.values[0]
    assert chk.decreasing_from == 0

    chk = potential_decay_check(BoundaryPower(0.0, 1.0), M32)
    assert chk.passed
    # compactly supported mass: far field recovers mass * rho^(alpha - dim)
    recovered = chk.values * chk.radii**1.5
    assert recovered[-1] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-3)


def test_decay_check_near_threshold_is_slow():
    # tail exponent alpha + p = -0.1: the potential decays like rho^-0.1,
    # so an 8-fold radius grid only shrinks it by 8^-0.1 ~ 0.81
    chk = potential_decay_check(PowerWeight(-1.6), M32)
    assert not chk.passed
    assert chk.decreasing_from == 0
    ratio = chk.values[-1] / chk.values[0]
    assert ratio == pytest.approx(8.0 ** -0.1, rel=5e-2)


def test_decay_check_hypothesis_violations():
    with pytest.raises(HypothesisViolated):
        potential_decay_check(PowerWeight(0.0), M23)
    with pytest.raises(HypothesisViolated):
        potential_decay_check(PowerWeight(-4.0), KernelModel(1.0, 3))
    with pytest.raises(ValueError):
        potential_decay_check(PowerWeight(-4.0), M23, radii=[1.0])


def test_high_dimension_tail_stays_in_float_range():
    # alpha = 2, rho = 0: U(0) = omega_d int t (1 + t)^p dt = omega_d / ((-p-1)(-p-2));
    # near the threshold the tail runs to radii where t^(d-1) overflows
    for dim in (7, 9):
        res = riesz_potential(PowerWeight(-2.1), 0.0, KernelModel(2.0, dim))
        want = sphere_surface_area(dim) / (1.1 * 0.1)
        assert not res.divergent
        assert res.value == pytest.approx(want, rel=1e-8)
    for mu in (SphereSeries.parametric(p=1.0, r=1.6), AnnulusSeries.parametric(p=1.0, q=2.55, r=0.0)):
        res = riesz_potential(mu, 1.3, KernelModel(1.5, 9))
        assert not res.divergent and math.isfinite(res.value) and math.isfinite(res.abs_error)


def test_recurrent_model_is_rejected():
    with pytest.raises(NotTransient):
        riesz_potential(PowerWeight(-4.0), 0.0, KernelModel(2.0, 2))


def test_divergence_route_agrees_with_thresholds():
    for p in (-3.0, -2.0, -1.6, -1.5, -1.2, -0.5):
        mu = PowerWeight(p)
        want = classify(mu, 1.5, 3)
        got = divergence_by_potential(mu, M32, 0.7)
        assert got.conclusion == want.conclusion, f"p={p}"

    for p in (0.5, 1.0, 1.5):
        for q in (1.25, 2.0, 3.5):
            mu = AnnulusSeries.parametric(p=p, q=q, r=0.0)
            want = classify(mu, 1.5, 3)
            got = divergence_by_potential(mu, M32, 0.0)
            assert got.conclusion == want.conclusion, f"p={p} q={q}"

    for p, r in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 1.0), (1.0, 1.5)):
        mu = SphereSeries.parametric(p=p, r=r)
        want = classify(mu, 1.5, 3)
        got = divergence_by_potential(mu, M32, 0.0)
        assert got.conclusion == want.conclusion, f"p={p} r={r}"
