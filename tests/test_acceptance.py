"""Acceptance suite: ten criteria, one visible pass/fail line each.

Criteria 1-4 and 8 are exact or quadrature-backed and run in seconds.
Criteria 5-7, 9, 10 are Monte Carlo with frozen seeds; the whole file takes
a few minutes on one core. Criterion 7's >= 10x growth demand is not
attainable for this discretization (the measured growth is ~2x per fourfold
dt refinement, matching the dt^(-1/2) occupation-density scaling); the test
asserts the stated form faithfully and is expected to fail. The analysis
and measurements live in the decisions ledger next to the repo.
"""

import json
import math

import numpy as np
import pytest

from conftest import record_criterion

from bigmeasure import (
    AbsorbingBrownianBall,
    AnnulusSeries,
    BoundaryPower,
    Brownian,
    IsotropicStable,
    KernelModel,
    PowerWeight,
    Seq,
    SphereSeries,
    absorbed_pcaf_sample,
    classify,
    estimate_gauge,
    expected_pcaf_oracle,
    green_constant,
    radial_shell_average,
    riesz_potential,
    rotation_invariance_check,
    sample_increment,
    verify_integral_identity,
)
from bigmeasure.cli import run_cli
from bigmeasure.simulate import gauge_checkpoint_samples

BIG = True
NON = False


def test_criterion_01_threshold_tables():
    """Exact boolean reproduction of every family threshold."""
    failures = []

    # radial weight (1+|x|)^p: Big iff p >= -alpha
    radial_grids = [
        (2.0, (-3.0, -2.5, -2.0, -1.5, 0.0), (NON, NON, BIG, BIG, BIG)),
        (1.5, (-2.0, -1.6, -1.5, -1.4, 0.0), (NON, NON, BIG, BIG, BIG)),
    ]
    for alpha, ps, expect in radial_grids:
        got = tuple(classify(PowerWeight(p), alpha, 3).is_big for p in ps)
        if got != expect:
            failures.append(f"radial alpha={alpha}: {got}")

    # boundary weight delta^(-r) on the unit ball: Big iff r >= alpha
    for alpha in (1.2, 1.5, 1.9):
        rs = (alpha - 0.2, alpha - 0.05, alpha, alpha + 0.05, alpha + 0.4)
        got = tuple(classify(BoundaryPower(r), alpha, 3).is_big for r in rs)
        if got != (NON, NON, BIG, BIG, BIG):
            failures.append(f"boundary alpha={alpha}: {got}")
    got = tuple(classify(BoundaryPower(r), 2.0, 3).is_big for r in (1.5, 1.9, 2.0, 2.1, 3.0))
    if got != (NON, NON, BIG, BIG, BIG):
        failures.append(f"boundary alpha=2: {got}")

    # annulus series at (alpha, r, d) = (1.5, 0, 3): Big iff q <= 1.5 p + 1,
    # frozen as a staircase over p rows {0.4..2.0} x q columns {1.2..3.6}
    ps = (0.4, 0.8, 1.2, 1.6, 2.0)
    qs = (1.2, 1.8, 2.4, 3.0, 3.6)
    expect_rows = (
        (BIG, NON, NON, NON, NON),
        (BIG, BIG, NON, NON, NON),
        (BIG, BIG, BIG, NON, NON),
        (BIG, BIG, BIG, BIG, NON),
        (BIG, BIG, BIG, BIG, BIG),
    )
    for p, expect in zip(ps, expect_rows):
        got = tuple(
            classify(AnnulusSeries.parametric(p=p, q=q, r=0.0), 1.5, 3).is_big for q in qs
        )
        if got != expect:
            failures.append(f"annulus p={p}: {got}")

    # sphere series r = 1, alpha = 1.5: Big iff p <= 1/(2 - alpha) = 2
    got = tuple(
        classify(SphereSeries.parametric(p=p, r=1.0), 1.5, 3).is_big
        for p in (1.6, 1.8, 2.0, 2.2, 2.4)
    )
    if got != (BIG, BIG, BIG, NON, NON):
        failures.append(f"sphere: {got}")

    ok = record_criterion(1, "threshold tables", not failures,
                          "60 grid points, boolean equality" if not failures else "; ".join(failures))
    assert ok


def test_criterion_02_newton_shell_oracle():
    """Shell average for alpha = 2, d = 3 equals 1/max(rho, s) exactly."""
    rng = np.random.default_rng(20260816)
    worst = 0.0
    count = 0
    while count < 100:
        rho, s = rng.uniform(0.05, 5.0, size=2)
        if abs(rho - s) <= 1e-3:
            continue
        got = radial_shell_average(float(rho), float(s), 2.0, 3)
        worst = max(worst, abs(got - 1.0 / max(rho, s)))
        count += 1
    ok = record_criterion(2, "Newton shell average", worst <= 1e-8,
                          f"worst abs error {worst:.2e} over 100 pairs")
    assert ok


def test_criterion_03_sphere_series_potential():
    """Potential at 0 of spheres at radii n with weight exponent 3."""
    # independent oracle: 4 pi sum n^(-2.5), 2e4 direct terms plus the
    # integral bracket int_N^inf x^(-2.5) dx for the tail (bracket width
    # ~ N^(-2.5) ~ 1e-11, far below the 1e-6 gate)
    n = np.arange(1, 20001, dtype=float)
    head = float(np.sum(n ** -2.5))
    lo = head + 20001.0 ** -1.5 / 1.5
    hi = head + 20000.0 ** -1.5 / 1.5
    oracle = 4.0 * math.pi * 0.5 * (lo + hi)

    mu = SphereSeries(radii=Seq.power(1.0), r=3.0)
    res = riesz_potential(mu, 0.0, KernelModel(1.5, 3))
    rel = abs(res.value - oracle) / oracle
    ok = record_criterion(3, "sphere series potential at the origin", rel <= 1e-6,
                          f"value {res.value:.9g}, oracle {oracle:.9g}, rel {rel:.2e}")
    assert ok


def test_criterion_04_far_field_decay():
    """U(x) |x|^(d-alpha) approaches the total mass; U decreases outward."""
    mass = 4.0 * math.pi / 3.0  # Lebesgue measure of the unit ball
    failures = []
    details = []
    for alpha in (1.5, 2.0):
        model = KernelModel(alpha, 3)
        vals = []
        for rho in (10.0, 20.0, 40.0, 80.0):
            u = riesz_potential(BoundaryPower(0.0), rho, model).value
            vals.append(u)
            rel = abs(u * rho ** (3.0 - alpha) / mass - 1.0)
            if rel > 0.02:
                failures.append(f"alpha={alpha} rho={rho}: off by {rel:.3%}")
            details.append(rel)
        if not all(b < a for a, b in zip(vals, vals[1:])):
            failures.append(f"alpha={alpha}: not strictly decreasing")
    ok = record_criterion(4, "far-field decay of the potential", not failures,
                          f"worst mass recovery error {max(details):.3%}"
                          if not failures else "; ".join(failures))
    assert ok


def test_criterion_05_integral_identity():
    """ghat(0) + C int |y|^(-1) ghat(y) mu(dy) = 1 for mu = 0.1 on the ball."""
    mu = BoundaryPower(0.0)
    coupling = 0.1

    # generator-normalization self-check: sampled E A_T against the exact
    # expectation of the discretized functional, dt * sum_k E w(X_{t_k})
    oracle = expected_pcaf_oracle(mu, 20.0, 0.01, coupling=coupling)
    samples, _ = gauge_checkpoint_samples(0.0, mu, Brownian(3), [20.0], 3000, 600501,
                                          0.01, coupling=coupling)
    a = -np.log(samples[:, 0])
    se_a = float(a.std(ddof=1)) / math.sqrt(len(a))
    z_self = (float(a.mean()) - oracle) / se_a
    self_ok = abs(z_self) <= 3.0

    res = verify_integral_identity(0.0, mu, Brownian(3), KernelModel(2.0, 3),
                                   10_000, 800.0, 600502, 0.01, coupling=coupling)
    identity_ok = abs(res["z"]) <= 3.0
    ok = record_criterion(
        5, "gauge integral identity", self_ok and identity_ok,
        f"self-check z {z_self:+.2f}, lhs {res['lhs']:.5f} vs 1, z {res['z']:+.2f}")
    assert self_ok, f"normalization self-check off: z = {z_self:+.2f}"
    assert ok


@pytest.mark.slow
def test_criterion_06_big_vs_nonbig_curves():
    """MC gauge curves land on the right side for both generators."""
    failures = []

    # (a) Brownian, radial weights
    # ghat and stderr do not depend on the thread count (criterion 08)
    flat = estimate_gauge(0.0, PowerWeight(0.0), Brownian(3), [100.0], 10_000, 600101, 0.05, threads=2)
    if not flat.ghat[0] < 0.02:
        failures.append(f"p=0: ghat(0,100) = {flat.ghat[0]:.3g} >= 0.02")

    mu4 = PowerWeight(-4.0)
    ea4 = green_constant(2.0, 3) * riesz_potential(mu4, 0.0, KernelModel(2.0, 3)).value
    floor4 = math.exp(-ea4)
    tame = estimate_gauge(0.0, mu4, Brownian(3), [200.0], 10_000, 600102, 0.02, threads=2)
    if not tame.ghat[0] >= floor4 - 3.0 * tame.stderr[0]:
        failures.append(f"p=-4: ghat {tame.ghat[0]:.4f} under floor {floor4:.4f}")

    # (b) stable alpha = 1.5, sphere series r = 1: p = 1.5 Big, p = 3 NonBig
    proc = IsotropicStable(1.5, 3)
    model = KernelModel(1.5, 3)
    horizons = [50.0, 100.0, 200.0]
    big_mu = SphereSeries.parametric(p=1.5, r=1.0)
    nb_mu = SphereSeries.parametric(p=3.0, r=1.0)
    floor_nb = math.exp(-green_constant(1.5, 3) * riesz_potential(nb_mu, 0.0, model).value)

    curves = {}
    for key, mu, eps, seed in [("big_e", big_mu, 0.05, 600301), ("big_h", big_mu, 0.025, 600302),
                               ("nb_e", nb_mu, 0.05, 600303), ("nb_h", nb_mu, 0.025, 600304)]:
        curves[key] = estimate_gauge(0.0, mu, proc, horizons, 10_000, seed, 0.01,
                                     smoothing_eps=eps, threads=2)

    big, nb = curves["big_e"], curves["nb_e"]
    if not all(b < a for a, b in zip(big.ghat, big.ghat[1:])):
        failures.append(f"big curve not decreasing: {big.ghat}")
    if not big.ghat[-1] <= 0.75 * big.ghat[0]:
        failures.append(f"big curve not trending down: {big.ghat}")
    if not nb.ghat[-1] >= floor_nb - 3.0 * nb.stderr[-1]:
        failures.append(f"nonbig ghat {nb.ghat[-1]:.4f} under floor {floor_nb:.4f}")
    sep = nb.ghat[-1] - big.ghat[-1]
    sep_se = math.hypot(nb.stderr[-1], big.stderr[-1])
    if not sep >= 3.0 * sep_se:
        failures.append(f"separation {sep:.4f} below 3 se {3 * sep_se:.4f}")
    for fam in ("big", "nb"):
        a, b = curves[f"{fam}_e"], curves[f"{fam}_h"]
        d = abs(a.ghat[-1] - b.ghat[-1])
        if not d <= 3.0 * math.hypot(a.stderr[-1], b.stderr[-1]):
            failures.append(f"{fam}: eps vs eps/2 differ by {d:.4f}")

    ok = record_criterion(
        6, "Big vs NonBig gauge curves", not failures,
        f"big {big.ghat[-1]:.3f} vs nonbig {nb.ghat[-1]:.3f} at T=200, "
        f"separation {sep / sep_se:.0f} se" if not failures else "; ".join(failures))
    assert ok


def test_criterion_07_boundary_threshold_sanity():
    """Absorbed-path functional blows up under refinement at r = 3, not r = 1.

    The stated >= 10x median growth per fourfold dt refinement is beyond this
    discretization: near an absorbing wall the occupation density is
    proportional to the distance, so the discretized functional at r = 3
    scales like dt^(-1/2), a factor ~2 per refinement. Measured and recorded
    in the ledger; asserted in the stated form regardless, so this test is
    expected to fail until the criterion or the scheme changes.
    """
    proc = AbsorbingBrownianBall(3, 1.0)
    grid = (4e-4, 1e-4, 2.5e-5)
    med = {}
    for r in (1.0, 3.0):
        for dt in grid:
            vals, _ = absorbed_pcaf_sample(BoundaryPower(r), proc, 500, 600701, dt,
                                           t_cap=40.0)
            med[(r, dt)] = float(np.median(vals))
    ratios = [med[(3.0, b)] / med[(3.0, a)] for a, b in zip(grid, grid[1:])]
    r1 = [med[(1.0, dt)] for dt in grid]
    stable_ok = max(r1) <= 1.2 * min(r1)
    growth_ok = all(rt >= 10.0 for rt in ratios)
    ok = record_criterion(
        7, "boundary blow-up under dt refinement", growth_ok and stable_ok,
        f"r=3 median ratios {ratios[0]:.2f}, {ratios[1]:.2f} (need >= 10); "
        f"r=1 span {max(r1) / min(r1):.2f} (need <= 1.2)")
    assert ok


def test_criterion_08_determinism(tmp_path):
    """Identical (config, seed) gives byte-identical CSV at 1 and 8 threads."""
    cfg = {
        "task": "simulate",
        "alpha": 2.0,
        "dim": 3,
        "measure": {"family": "power_weight", "p": -2.0},
        "seed": 600801,
        "n_paths": 400,
        "dt": 0.02,
        "horizons": [1.0, 5.0],
        "x": [0.5, 0.0, 0.0],
        "out": str(tmp_path / "a.csv"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc1 = run_cli(["simulate", "--config", str(path), "--threads", "1"])
    rc8 = run_cli(["simulate", "--config", str(path), "--threads", "8",
                   "--out", str(tmp_path / "b.csv")])
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    ok = record_criterion(8, "thread-count determinism", rc1 == 0 and rc8 == 0 and a == b,
                          f"{len(a)} bytes, identical" if a == b else "outputs differ")
    assert ok


def test_criterion_09_stable_increment_law():
    """Empirical characteristic function of the unit-time increment."""
    rng = np.random.default_rng(20260816)
    draws = sample_increment(IsotropicStable(1.5, 3), 1.0, rng, n=1_000_000)
    worst = 0.0
    for xi in (0.5, 1.0, 2.0):
        c = np.cos(xi * draws[:, 0])
        target = math.exp(-xi ** 1.5)
        se = float(c.std(ddof=1)) / math.sqrt(len(c))
        z = (float(c.mean()) - target) / se
        worst = max(worst, abs(z))
    ok = record_criterion(9, "stable increment characteristic function", worst <= 3.0,
                          f"worst |z| {worst:.2f} over xi in (0.5, 1, 2), 1e6 draws")
    assert ok


def test_criterion_10_rotation_invariance():
    """ghat(x) vs ghat(Qx) for a seeded random orthogonal Q."""
    rng = np.random.default_rng(20260816)
    q, rr = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(rr)))
    x = np.array([1.0, 0.5, -0.25])
    proc = IsotropicStable(1.5, 3)
    res_a = rotation_invariance_check(AnnulusSeries.parametric(p=1.0, q=2.0, r=0.0),
                                      proc, x, q, 20.0, 2000, 601001, 0.01)
    res_s = rotation_invariance_check(SphereSeries.parametric(p=2.0, r=1.0),
                                      proc, x, q, 20.0, 2000, 601002, 0.01,
                                      smoothing_eps=0.05)
    ok = record_criterion(
        10, "rotation invariance of the gauge", res_a["passed"] and res_s["passed"],
        f"annulus diff {res_a['diff']:.4f} ({abs(res_a['diff']) / res_a['combined_stderr']:.1f} se), "
        f"sphere diff {res_s['diff']:.4f} ({abs(res_s['diff']) / res_s['combined_stderr']:.1f} se)")
    assert ok
