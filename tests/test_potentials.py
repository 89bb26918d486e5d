import json
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


def test_slow_growth_series_potentials_stay_finite():
    # growth and radii n^0.25: the index of the tail cap radius, (1e100)^4,
    # leaves the float range
    res = riesz_potential(SphereSeries.parametric(p=0.25, r=6.0), 0.0, M32)
    assert res.value == pytest.approx(OMEGA3 * float(special.zeta(1.375)), rel=1e-8)
    # annuli [a_n, a_n (1 + n^-3)], a_n = n^0.25, weight s^-2, probed at 0:
    # window n holds 2 omega (a_n^-1/2 - b_n^-1/2); the terms past 10^6
    # add about 1e-12
    n = np.arange(1, 10**6 + 1, dtype=float)
    windows = -2.0 * OMEGA3 * n**-0.125 * np.expm1(-0.5 * np.log1p(n**-3.0))
    res = riesz_potential(AnnulusSeries.parametric(p=0.25, q=3.0, r=2.0), 0.0, M32)
    assert res.value == pytest.approx(math.fsum(windows), rel=1e-8)


def test_probe_on_a_table_entry():
    # a probe radius equal to table entry k sits at index k - 1 (side left),
    # which places the exactly summed span around the kernel kink; values
    # and term counts written before the index lookups were merged
    mu = SphereSeries(Seq.table([float(n) for n in range(1, 101)], tail_exponent=1.0), 3.0)
    for rho, value, terms in ((80.0, 0.10142637822380333, 143), (100.0, 0.07537684339934202, 163)):
        res = riesz_potential(mu, rho, M32)
        assert (res.value, res.terms_used) == (value, terms)


def newton_power_m4(rho: float) -> float:
    """U(rho) of the density (1+|y|)^-4 for alpha=2, d=3 (Newton's theorem)."""
    a = 1.0 / (1.0 + rho)
    outer = a * a / 2.0 - a ** 3 / 3.0
    if rho == 0.0:
        return 4.0 * math.pi * outer
    inner = (1.0 / 3.0 - a + a * a - a ** 3 / 3.0) / rho
    return 4.0 * math.pi * (inner + outer)


def test_power_weight_far_probes_match_newton():
    mu = PowerWeight(-4.0)
    for k in range(1, 100, 2):
        rho = 10.0**k
        assert riesz_potential(mu, rho, M23).value == pytest.approx(newton_power_m4(rho), rel=1e-9)
    # the near field [0, 2 rho + 2] past radius 1e100, where s^2 leaves the
    # float range in d = 3, is an error, never a NaN or a negative value
    for rho in (1e100, 1e150):
        with pytest.raises(ValueError, match="too far out"):
            riesz_potential(mu, rho, M23)


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


def test_gauge_jump_off_every_edge():
    # the indicator of s <= 0.7 jumps where no panel edge is: bisection has
    # to find it. Flat ball of radius 2, alpha = 2, rho = 0: 4 pi int_0^0.7 s ds
    jump = lambda s: (s <= 0.7).astype(float)
    res = gauge_weighted_potential(BoundaryPower(0.0, 2.0), jump, 0.0, M23)
    want = 4.0 * math.pi * 0.7**2 / 2.0
    assert res.value == pytest.approx(want, rel=1e-9)
    assert abs(res.value - want) <= res.abs_error


def test_ball_centre_closed_form():
    # U(0) = omega_d int_0^R t^(alpha-1) (R - t)^-r dt = omega_d R^(alpha-r) B(alpha, 1-r)
    for radius in (1.0, 1.5):
        for r in (0.5, 0.9):
            for alpha in (1.5, 2.0):
                for dim in (3, 5):
                    want = sphere_surface_area(dim) * radius ** (alpha - r) * special.beta(alpha, 1.0 - r)
                    res = riesz_potential(BoundaryPower(r, radius), 0.0, KernelModel(alpha, dim))
                    assert res.value == pytest.approx(want, rel=1e-12), (radius, r, alpha, dim)


# Off-centre probes of the unit ball with r = 0.9, where the wall singularity
# (1 - t)^-0.9 is steepest: (alpha, dim, rho, U), U from 30-digit mpmath
# quadrature of the 2F1 shell kernel against the density, offline; a second
# mpmath run in the variable v = (1 - t)^0.1 agreed within 3e-16.
BALL_R09 = [
    (1.5, 3, 0.5, 121.85032637550539169),
    (1.25, 5, 3.0, 3.6078610537675176529),
]


@pytest.mark.parametrize("alpha, dim, rho, want", BALL_R09)
def test_ball_steep_wall_frozen(alpha, dim, rho, want):
    res = riesz_potential(BoundaryPower(0.9, 1.0), rho, KernelModel(alpha, dim))
    assert res.value == pytest.approx(want, rel=1e-11)


# Probes at or just inside the unit ball's wall in d = 3 with alpha near 1,
# where the shell kernel's kink at rho is logarithmic or nearly so: (r, rho,
# alpha, U, rel), U from mpmath quadrature in v = (1 - t)^(1 - r), offline,
# the kernel taken at 25 digits beyond the offset from rho. Panels graded
# toward the kink in v put nodes that round onto rho in t, where the kernel
# is infinite; at alpha = 1.0001 hyp2f1 near z = 1 returned its z = 1 value.
BALL_NEAR_WALL = [
    (0.0, 0.99, 1.0, 6.6174531963273249833, 1e-12),
    (0.5, 0.99, 1.0, 27.170715059561498494, 1e-12),
    (0.5, 0.999, 1.0, 27.194730064537441143, 1e-12),
    (0.3, 1.0, 1.0, 13.525235051089480631, 1e-12),
    (0.5, 1.0, 1.0001, 27.192708527919462306, 1e-10),
]


@pytest.mark.parametrize("r, rho, alpha, want, rel", BALL_NEAR_WALL)
def test_ball_near_wall_log_kink(r, rho, alpha, want, rel):
    res = riesz_potential(BoundaryPower(r, 1.0), rho, KernelModel(alpha, 3))
    assert res.value == pytest.approx(want, rel=rel)


# The window [1000, 1000 + 1e-6] (its end as rounded) of a_n = n, h_n = n^-3
# with the probe on its left end, where the kernel's kink sits at offsets
# the float grid near 1000 resolves to 1e-13 only: (alpha, window integral)
# from 40-digit mpmath, offline.
FAR_WINDOW_ON_PROBE = [
    (0.3, 0.47419889016172126381),
    (0.7, 0.0018856783020756713859),
    (1.0, 0.00014084647664194874372),
    (1.0001, 0.00014079539400378773895),
]


@pytest.mark.parametrize("alpha, want", FAR_WINDOW_ON_PROBE)
def test_probe_on_a_far_window_end(alpha, want):
    integrand = potentials_mod._series_integrand(1000.0, KernelModel(alpha, 3), 0.0, None)
    got, _ = potentials_mod._interval_batch(np.array([1000.0]), np.array([1e-6]), 1000.0, integrand, 1e-9, alpha)
    assert got == pytest.approx(want, rel=1e-12)
    mu = AnnulusSeries.parametric(1.0, 3.0, 0.0)
    assert math.isfinite(riesz_potential(mu, 1000.0, KernelModel(alpha, 3)).value)


def test_panel_rule_raises_where_it_misses_tol():
    # noise on every scale, a non-finite value and a probe on a steep wall
    # whose mass sits below float resolution in t end in a ValueError, never
    # in a number that misses tol
    rng = np.random.default_rng(3)
    noise = lambda s: rng.random(np.shape(s))
    hole = lambda s: np.where(np.abs(s - 0.5) < 0.1, np.nan, 1.0)
    for gauge in (noise, hole):
        with pytest.raises(ValueError, match="panel rule missed"):
            gauge_weighted_potential(BoundaryPower(0.0, 2.0), gauge, 0.0, M23)
    with pytest.raises(ValueError, match="panel rule missed"):
        riesz_potential(BoundaryPower(0.9, 1.0), 1.0, KernelModel(0.95, 3))


def test_overlapping_prefix_windows_count_twice():
    # a_n = sqrt(n), h_n = n^-3 is admissible, yet windows 1 = [1, 2] and
    # 2 = [sqrt 2, 9 sqrt 2 / 8] overlap, and both sit at the probe. At
    # alpha = 2, d = 3, r = 0 each window holds 4 pi int s^2 / max(rho, s) ds:
    # (rho^3 - a^3) 4 pi / (3 rho) below rho, 2 pi (b^2 - a^2) above, and
    # windows n >= 3 lie above rho = 1.5, where b^2 - a^2 = 2 n^-2 + n^-5
    rho = 1.5

    def window(a, b):
        return 4.0 * math.pi * (rho**3 - a**3) / (3.0 * rho) + 2.0 * math.pi * (b * b - rho * rho)

    want = window(1.0, 2.0) + window(math.sqrt(2.0), 1.125 * math.sqrt(2.0))
    want += 2.0 * math.pi * (2.0 * special.zeta(2.0, 3.0) + special.zeta(5.0, 3.0))
    mu = AnnulusSeries.parametric(p=0.5, q=3.0, r=0.0)
    assert riesz_potential(mu, rho, M23).value == pytest.approx(want, rel=1e-9)
    # the same windows at alpha = 1.5, as QUADPACK window by window gave it
    assert riesz_potential(mu, rho, M32).value == pytest.approx(22.85885559487005, rel=1e-9)


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


# Exact output of the series potentials (annulus windows and sphere shells):
# repr of value, abs_error and compact_part, divergent, terms_used and the
# witness JSON, recorded before the two routes shared one routine; re-recorded
# (each value within 1e-15) when the 1 - z kernel form and the panel rule for
# the windows near the probe came in. The cases
# cover parametric and tabulated input, tail rules, truncated tables,
# divergence marks, probes inside the direct head, near its end and past it,
# a probe index beyond 1e12, gauge tables with tail value 0 and above 0, and
# a shell exactly at the probe radius with alpha <= 1.
def _gauge_table(tail):
    return RadialTable(np.array([0.0, 1.0, 3.0, 100.0]), np.array([1.0, 0.8, 0.5, tail]))


FROZEN_SERIES = {
    "annulus-parametric-head": (
        lambda: riesz_potential(AnnulusSeries.parametric(1.0, 3.0, 0.0), 2.5, KernelModel(1.5, 3)),
        ("28.404255958280228", "4.1980190110900536e-07", False, 67, "25.345111807121583",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "annulus-parametric-near-head": (
        lambda: riesz_potential(AnnulusSeries.parametric(1.0, 3.0, 0.0), 100.3, KernelModel(1.5, 3)),
        ("3.954870074905246", "5.108334010022964e-08", False, 165, "1.9814104872503993",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "annulus-parametric-past-pad": (
        lambda: riesz_potential(AnnulusSeries.parametric(1.0, 3.0, 0.0), 500.2, KernelModel(1.5, 5)),
        ("2.9575790273222142", "1.9331360849625644e-08", False, 193, "0.0008426003570548234",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "annulus-table-tail": (
        lambda: riesz_potential(AnnulusSeries(Seq.table([1.0, 2.5, 4.0, 7.0], 1.5), Seq.table([0.5, 0.25], -4.0), 0.5), 3.0, KernelModel(1.8, 3)),
        ("27.50989463724329", "1.990038221826239e-07", False, 66, "27.019303529435707",
         '{"tail_exponent": -2.05, "threshold": -1.0}'),
    ),
    "annulus-truncated": (
        lambda: riesz_potential(AnnulusSeries(Seq.table([1.0, 2.5, 4.0, 7.0]), Seq.power(-2.0), 0.0), 3.0, KernelModel(1.5, 3)),
        ("48.165144693828225", "2.61330840051633e-15", False, 4, "48.165144693828225",
         '{"tail_exponent": null, "threshold": -1.0, "truncated_at": 4}'),
    ),
    "annulus-table-tail-divergent": (
        lambda: riesz_potential(AnnulusSeries(Seq.table([1.0, 2.5, 4.0, 7.0], 1.5), Seq.table([0.5, 0.25], -2.0), 0.5), 3.0, KernelModel(1.8, 3)),
        ("inf", "inf", True, 64, "568.0196250428977",
         '{"tail_exponent": -0.04999999999999982, "threshold": -1.0, "partial_sums": {"1000": 7861.645586252874, "1e+06": 5573086.955672695}}'),
    ),
    "annulus-divergent": (
        lambda: riesz_potential(AnnulusSeries.parametric(1.0, 1.2, 0.0), 1.7, KernelModel(1.5, 3)),
        ("inf", "inf", True, 64, "2193.652095133253",
         '{"tail_exponent": 0.30000000000000004, "threshold": -1.0, "partial_sums": {"1000": 76865.97491788263, "1e+06": 609911555.7309173}}'),
    ),
    "annulus-past-1e12": (
        lambda: riesz_potential(AnnulusSeries.parametric(0.5, 3.0, 2.0), 1e7, KernelModel(1.5, 3)),
        ("5.330849425811055e-10", "3.8417297474234984e-19", False, 64, "5.325735402293167e-10",
         '{"tail_exponent": -3.25, "threshold": -1.0}'),
    ),
    "annulus-gauge-tail-zero": (
        lambda: gauge_weighted_potential(AnnulusSeries.parametric(1.0, 1.2, 0.0), _gauge_table(0.0), 2.0, KernelModel(1.5, 3)),
        ("868.9811693312157", "4.468929489793715e-15", False, 101, "868.9811693312157",
         '{"tail_exponent": 0.30000000000000004, "threshold": -1.0}'),
    ),
    "annulus-gauge-tail-positive": (
        lambda: gauge_weighted_potential(AnnulusSeries.parametric(1.0, 3.0, 0.0), _gauge_table(0.25), 2.0, KernelModel(1.5, 3)),
        ("18.96381844677329", "3.7839801805926755e-08", False, 101, "18.340155761260007",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "sphere-parametric-head": (
        lambda: riesz_potential(SphereSeries.parametric(1.0, 2.0), 2.5, KernelModel(1.5, 3)),
        ("23.138205542660952", "4.1980087791794177e-07", False, 67, "20.07906174657202",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "sphere-parametric-near-head": (
        lambda: riesz_potential(SphereSeries.parametric(1.0, 2.0), 100.3, KernelModel(1.5, 3)),
        ("3.935588197120455", "5.108333541502063e-08", False, 165, "1.9621286229980202",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "sphere-parametric-past-pad": (
        lambda: riesz_potential(SphereSeries.parametric(1.0, 2.0), 500.2, KernelModel(1.5, 5)),
        ("2.9575788631446276", "1.9331357074974163e-08", False, 193, "0.0008424793841773903",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "sphere-table-tail": (
        lambda: riesz_potential(SphereSeries(Seq.table([1.0, 1.5, 3.0], 3.0), 1.0), 2.0, KernelModel(1.5, 3)),
        ("59.93971505147209", "1.306761341255281e-06", False, 66, "50.6938569753061",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "sphere-table-tail-divergent": (
        lambda: riesz_potential(SphereSeries(Seq.table([1.0, 1.5, 3.0], 2.0), 1.0), 2.0, KernelModel(1.5, 3)),
        ("inf", "inf", True, 64, "83.18844028313717",
         '{"tail_exponent": -1.0, "threshold": -1.0, "partial_sums": {"1000": 142.8605534778147, "1e+06": 293.2010689778874}}'),
    ),
    "sphere-truncated": (
        lambda: riesz_potential(SphereSeries(Seq.table([1.0, 1.5, 3.0]), 1.0), 2.0, KernelModel(1.5, 3)),
        ("19.677935453508212", "0.0", False, 3, "19.677935453508212",
         '{"tail_exponent": null, "threshold": -1.0, "truncated_at": 3}'),
    ),
    "sphere-divergent": (
        lambda: riesz_potential(SphereSeries.parametric(1.0, 0.2), 2.0, KernelModel(1.5, 3)),
        ("inf", "inf", True, 64, "2175.5330379346387",
         '{"tail_exponent": 0.3, "threshold": -1.0, "partial_sums": {"1000": 76832.94476931282, "1e+06": 609911460.3377174}}'),
    ),
    "sphere-past-1e12": (
        lambda: riesz_potential(SphereSeries.parametric(0.5, 6.0), 1e7, KernelModel(1.5, 3)),
        ("6.536697071195866e-10", "2.4682698810032878e-18", False, 64, "6.475088455690822e-10",
         '{"tail_exponent": -2.75, "threshold": -1.0}'),
    ),
    "sphere-gauge-tail-zero": (
        lambda: gauge_weighted_potential(SphereSeries.parametric(1.0, 0.2), _gauge_table(0.0), 2.0, KernelModel(1.5, 3)),
        ("866.3569492754668", "0.0", False, 101, "866.3569492754668",
         '{"tail_exponent": 0.3, "threshold": -1.0}'),
    ),
    "sphere-gauge-tail-positive": (
        lambda: gauge_weighted_potential(SphereSeries.parametric(1.0, 2.0), _gauge_table(0.25), 2.0, KernelModel(1.5, 3)),
        ("14.74483489049339", "3.783977370401815e-08", False, 101, "14.121172226277318",
         '{"tail_exponent": -1.5, "threshold": -1.0}'),
    ),
    "sphere-shell-at-probe-head": (
        lambda: riesz_potential(SphereSeries.parametric(1.0, 3.0), 2.0, KernelModel(1.0, 3)),
        ("inf", "inf", True, 64, "4.54459450012099",
         '{"tail_exponent": -3.0, "threshold": -1.0, "note": "shell at the probe radius with alpha <= 1"}'),
    ),
    "sphere-shell-at-probe-span": (
        lambda: riesz_potential(SphereSeries.parametric(1.0, 3.0), 500.0, KernelModel(0.8, 3)),
        ("inf", "inf", True, 64, "6.885689676644003e-05",
         '{"tail_exponent": -3.2, "threshold": -1.0, "note": "shell at the probe radius with alpha <= 1"}'),
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SERIES))
def test_series_potentials_are_frozen(case):
    build, want = FROZEN_SERIES[case]
    r = build()
    got = (repr(r.value), repr(r.abs_error), r.divergent, r.terms_used, repr(r.compact_part),
           json.dumps(r.witness))
    assert got == want
