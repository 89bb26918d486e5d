import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, special

from bigmeasure.errors import NotOrthogonal, SingularMeasure
from bigmeasure.kernels import KernelModel, green_constant
from bigmeasure.measures import (
    BoundaryPower,
    PowerWeight,
    SphereSeries,
    Seq,
    radial_weight_fn,
)
from bigmeasure.potentials import riesz_potential
from bigmeasure.simulate import (
    _philox,
    _rekey,
    _row_norm,
    AbsorbingBrownianBall,
    Brownian,
    IsotropicStable,
    PathConfig,
    absorbed_pcaf_sample,
    estimate_gauge,
    expected_pcaf_oracle,
    gauge_checkpoint_samples,
    positive_stable_sample,
    rotation_invariance_check,
    sample_increment,
    verify_integral_identity,
)

M23 = KernelModel(2.0, 3)


def _norm_ball_prob(u):
    # P(|Z| <= u) for a standard 3d Gaussian Z
    return special.erf(u / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * u * math.exp(
        -0.5 * u * u
    )


def test_positive_stable_laplace_transform():
    # E exp(-S) = exp(-1) for every index
    rng = np.random.default_rng(11)
    for beta in (0.5, 0.75, 0.9):
        s = positive_stable_sample(beta, 200_000, rng)
        assert np.all(s > 0)
        lt = np.exp(-s)
        se = lt.std(ddof=1) / math.sqrt(lt.size)
        assert abs(lt.mean() - math.exp(-1.0)) <= 3.0 * se
    with pytest.raises(ValueError):
        positive_stable_sample(1.0, 10, rng)


class _FixedDraws:
    """Stands in for a generator: the uniforms and exponentials given."""

    def __init__(self, u, e):
        self.u, self.e = np.array(u, dtype=float), np.array(e, dtype=float)

    def random(self, n):
        return self.u.copy()

    def standard_exponential(self, n):
        return self.e.copy()


# (beta, u, E, S): Kanter's S = (a(u)/E)^((1-beta)/beta) in 40-digit mpmath
# at the angles the sampler forms in floats (pi u clipped to [1e-6, 1-1e-6],
# then times beta and 1 - beta).  Rows at beta >= 0.99 with u near 0 or 1,
# and at beta = 0.9995 off the centre, have a sine power below the smallest
# normal float.
KANTER_MPMATH = [
    (0.75, 1e-09, 1.0, 0.47247039371116034),
    (0.75, 2e-05, 0.5, 0.5952753947818314),
    (0.75, 0.05, 2.0, 0.3761596741686307),
    (0.75, 0.5, 1.0, 0.6707518813152888),
    (0.75, 0.93, 0.03, 17.423455450084973),
    (0.75, 0.9999998, 3.0, 9493084.149851484),
    (0.98, 1e-09, 1.0, 0.9048013053291144),
    (0.98, 2e-05, 0.5, 0.9176914548895143),
    (0.98, 0.05, 2.0, 0.8923126530463367),
    (0.98, 0.5, 1.0, 0.9313518471982396),
    (0.98, 0.93, 0.03, 1.317098974337562),
    (0.98, 0.9999998, 3.0, 23922.05960632182),
    (0.99, 1e-09, 1.0, 0.9450029720952623),
    (0.99, 2e-05, 0.5, 0.9516426143885094),
    (0.99, 0.05, 2.0, 0.9385255911064426),
    (0.99, 0.5, 1.0, 0.9587938222839579),
    (0.99, 0.93, 0.03, 1.1474724480306104),
    (0.99, 0.9999998, 3.0, 10853.141011866443),
    (0.995, 1e-09, 1.0, 0.9688579694318469),
    (0.995, 2e-05, 0.5, 0.972238532776572),
    (0.995, 0.05, 2.0, 0.9655488001054637),
    (0.995, 0.5, 1.0, 0.9759085994561171),
    (0.995, 0.93, 0.03, 1.0695521869765257),
    (0.995, 0.9999998, 3.0, 5190.732592736474),
    (0.9995, 1e-09, 1.0, 0.9957067649486221),
    (0.9995, 2e-05, 0.5, 0.9960520831126982),
    (0.9995, 0.05, 2.0, 0.9953677148430498),
    (0.9995, 0.5, 1.0, 0.9964296323964942),
    (0.9995, 0.93, 0.03, 1.0057795707593922),
    (0.9995, 0.9999998, 3.0, 502.28313116532877),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta,u,e,want", KANTER_MPMATH)
def test_positive_stable_draws_match_mpmath(beta, u, e, want):
    got = positive_stable_sample(beta, 1, _FixedDraws([u], [e]))[0]
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1.99, 1.999])
def test_stable_increment_law_near_alpha_two(alpha):
    # criterion 09's check where the sine powers of Kanter's a(u) underflow
    rng = np.random.default_rng(20260816)
    draws = sample_increment(IsotropicStable(alpha, 3), 1.0, rng, n=1_000_000)
    assert np.all(np.isfinite(draws))
    for xi in (0.5, 1.0, 2.0):
        c = np.cos(xi * draws[:, 0])
        se = float(c.std(ddof=1)) / math.sqrt(len(c))
        assert abs(float(c.mean()) - math.exp(-xi**alpha)) <= 3.0 * se, xi


def test_rekeyed_generator_replays_a_new_one():
    # the previous path left a half-used output buffer and a buffered 32-bit
    # half behind; the rekeyed generator must not see either
    seed = 2**64 - 5
    pool = _philox()
    for i in (0, 7, 2**40):
        pool.standard_normal(5)
        while pool.bit_generator.state["has_uint32"] != 1:
            pool.integers(0, 1000, dtype=np.uint32)
        assert pool.bit_generator.state["buffer_pos"] < 4
        _rekey(pool, seed, i)
        new = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        state, fresh = pool.bit_generator.state, new.bit_generator.state
        for part in ("counter", "key"):
            assert np.array_equal(state["state"][part], fresh["state"][part])
        for field in ("buffer", "buffer_pos", "has_uint32", "uinteger"):
            assert np.array_equal(state[field], fresh[field])
        for draw in (
            lambda g: g.standard_normal(7),
            lambda g: g.random(5),
            lambda g: g.standard_exponential(6),
            lambda g: g.integers(0, 2**31, size=3, dtype=np.uint32),
            lambda g: g.standard_normal((4, 3)),
        ):
            assert np.array_equal(draw(pool), draw(new))


def test_brownian_increment_covariance():
    rng = np.random.default_rng(12)
    inc = sample_increment(Brownian(3), 0.25, rng, 200_000)
    cov = inc.T @ inc / inc.shape[0]
    se = math.sqrt(2.0 / inc.shape[0]) * 0.5
    assert np.allclose(np.diag(cov), 0.5, atol=3.0 * se)
    off = cov[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 3.0 * 0.5 / math.sqrt(inc.shape[0]))


def test_stable_increment_characteristic_function():
    # one-step CF exp(-dt |xi|^alpha) at alpha = 1.5, dt = 1
    rng = np.random.default_rng(13)
    inc = sample_increment(IsotropicStable(1.5, 3), 1.0, rng, 300_000)
    for xi, target in ((1.0, math.exp(-1.0)), (2.0, math.exp(-(2.0**1.5)))):
        c = np.cos(xi * inc[:, 0])
        se = c.std(ddof=1) / math.sqrt(c.size)
        assert abs(c.mean() - target) <= 3.0 * se
    # alpha = 2 falls back to the Gaussian branch
    inc2 = sample_increment(IsotropicStable(2.0, 2), 0.5, rng, 1000)
    assert inc2.shape == (1000, 2)
    one = sample_increment(Brownian(3), 0.1, rng)
    assert one.shape == (3,)


def test_constant_weight_checkpoints_are_exact():
    # A_T of the unit weight counts the steps: exp(-c dt k) at checkpoint k
    dt = 0.1
    k = np.array([1, 5, 20])
    samples, realized = gauge_checkpoint_samples(
        0.0, PowerWeight(0.0), Brownian(3), dt * k, 6, 3, dt
    )
    np.testing.assert_allclose(realized, dt * k, rtol=1e-15)
    np.testing.assert_array_equal(samples, np.broadcast_to(np.exp(-dt * k), samples.shape))

    # the exponent is linear in the coupling
    quarter, _ = gauge_checkpoint_samples(
        0.0, PowerWeight(0.0), Brownian(3), dt * k, 6, 3, dt, coupling=0.25
    )
    np.testing.assert_allclose(np.log(quarter), 0.25 * np.log(samples), rtol=1e-14)


def test_path_far_from_the_support_accumulates_nothing():
    samples, _ = gauge_checkpoint_samples(
        [50.0, 0.0, 0.0], BoundaryPower(0.0, 1.0), Brownian(3), [1.0], 20, 5, 0.1
    )
    assert np.all(samples == 1.0)


def test_absorbed_unit_weight_counts_steps_to_exit():
    dt, t_cap = 0.01, 0.5
    vals, exited = absorbed_pcaf_sample(
        PowerWeight(0.0), AbsorbingBrownianBall(3, 1.0), 100, 13, dt, t_cap=t_cap
    )
    steps = vals / dt
    np.testing.assert_allclose(steps, np.round(steps), rtol=0.0, atol=1e-9)
    assert np.all(steps >= 1.0)
    assert np.all(vals <= t_cap * (1.0 + 1e-12))
    # a censored path ran all the way to the cap
    assert exited.any() and not exited.all()
    np.testing.assert_allclose(vals[~exited], t_cap, rtol=1e-12)


def test_sphere_series_walk_needs_smoothing():
    mu = SphereSeries(radii=Seq.table([1.0]), r=0.0)
    with pytest.raises(SingularMeasure):
        gauge_checkpoint_samples(0.0, mu, Brownian(3), [1.0], 2, 1, 0.1)


def test_constant_weight_gauge_curve():
    curve = estimate_gauge(0.0, PowerWeight(0.0), Brownian(3), [1.0, 5.0], 40, 7, 0.1)
    assert curve.ghat[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert curve.ghat[1] == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert curve.stderr[0] == pytest.approx(0.0, abs=1e-15)
    rows = curve.rows()
    assert rows[0][0] == 1.0 and rows[0][3] == 40

    # zero measure: ghat identically 1
    trivial = estimate_gauge(0.0, None, Brownian(3), [2.0], 20, 7, 0.1)
    assert float(trivial.ghat[0]) == 1.0


def test_checkpoints_nonincreasing_per_path():
    samples, realized = gauge_checkpoint_samples(
        0.5, PowerWeight(-2.0), Brownian(3), [1.0, 2.0, 4.0, 8.0], 300, 21, 0.02
    )
    assert samples.shape == (300, 4)
    assert np.all(np.diff(samples, axis=1) <= 0.0)
    assert np.allclose(realized, [1.0, 2.0, 4.0, 8.0])


def test_thread_count_does_not_change_results():
    args = (0.5, PowerWeight(-4.0), Brownian(3), [5.0, 10.0], 400, 99, 0.01)
    c1 = estimate_gauge(*args, threads=1)
    c3 = estimate_gauge(*args, threads=3)
    assert np.array_equal(c1.ghat, c3.ghat)
    assert np.array_equal(c1.stderr, c3.stderr)


@pytest.mark.parametrize("d", range(1, 10))
def test_row_norm_is_the_reduce_norm_bit_for_bit(d):
    # positions of a walk: rows of comparable entries, where the order of
    # the additions shows in the last bit
    rng = np.random.default_rng(40 + d)
    for k in (1, 2, 7, 8, 9, 300, 5000):
        x = np.cumsum(rng.standard_normal((k, d)), axis=0) * 10.0 ** rng.uniform(-3.0, 3.0)
        want = np.empty(k)
        np.sqrt(np.add.reduce(x * x, axis=1, out=want), out=want)
        got = np.empty(k)
        _row_norm(x, got)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # a batch of rows (3, k, d), shifted by one start point per row, into
        # a strided (3, k) view: row by row the norm of the positions
        rows = np.stack([x, -x[::-1], 0.5 * x])
        start = rng.standard_normal((3, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        out = np.empty((3, k + 1))
        _row_norm(rows, out[:, 1:], start)
        for i, row in enumerate(rows):
            pos = row + start[i]
            np.sqrt(np.add.reduce(pos * pos, axis=1, out=want), out=want)
            assert np.array_equal(out[i, 1:].view(np.int64), want.view(np.int64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_path_config_rejects_a_start_whose_square_overflows():
    # 1.3e154 squares to 1.69e308, inside the float range; 1e200 and a
    # radius of 1.41e154 do not
    for start in ((1e200, 0.0, 0.0), (1e154, 1e154, 0.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(ValueError, match="too far out"):
            PathConfig(Brownian(3), 0.1, (1.0,), start, 1, 10)
        with pytest.raises(ValueError, match="too far out"):
            gauge_checkpoint_samples(start, PowerWeight(-4.0), Brownian(3), [1.0], 2, 1, 0.1)
    samples, _ = gauge_checkpoint_samples([1.3e154, 0.0, 0.0], PowerWeight(-4.0), Brownian(3), [1.0], 2, 1, 0.1)
    assert np.all(samples == 1.0)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(Brownian(3), 0.0, (1.0,), (0.0, 0.0, 0.0), 1, 10)
    with pytest.raises(ValueError):
        PathConfig(Brownian(3), 0.1, (), (0.0, 0.0, 0.0), 1, 10)
    with pytest.raises(ValueError):
        PathConfig(Brownian(3), 0.1, (2.0, 1.0), (0.0, 0.0, 0.0), 1, 10)
    with pytest.raises(ValueError):
        PathConfig(Brownian(3), 0.5, (0.1,), (0.0, 0.0, 0.0), 1, 10)
    with pytest.raises(ValueError):
        PathConfig(Brownian(3), 0.1, (1.0,), (0.0, 0.0, 0.0), 1, 0)
    with pytest.raises(ValueError):
        PathConfig(Brownian(3), 0.1, (1.0,), (0.0, 0.0, 0.0), -1, 10)
    with pytest.raises(ValueError):
        estimate_gauge(0.0, None, AbsorbingBrownianBall(3, 1.0), [1.0], 10, 1, 0.1)


def test_normalization_chain():
    # Green constant times the kernel integral gives the expected lifetime
    # functional: 1/2 for the flat unit ball, 1/6 for (1 + s)^-4
    half = green_constant(2.0, 3) * riesz_potential(BoundaryPower(0.0, 1.0), 0.0, M23).value
    assert half == pytest.approx(0.5, rel=1e-10)
    sixth = green_constant(2.0, 3) * riesz_potential(PowerWeight(-4.0), 0.0, M23).value
    assert sixth == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_expected_pcaf_oracle_brute_force():
    # five steps, compared against the erf closed form summed by hand
    dt, t = 0.01, 0.05
    want = 1.0  # k = 0 term: the path starts inside the ball
    for k in range(1, 5):
        want += _norm_ball_prob(1.0 / math.sqrt(2.0 * k * dt))
    want *= dt
    got = expected_pcaf_oracle(BoundaryPower(0.0, 1.0), t, dt)
    assert got == pytest.approx(want, rel=1e-9)

    # left-endpoint sums sit above the continuum value by about dt/2
    cont, _ = integrate.quad(
        lambda s: _norm_ball_prob(1.0 / math.sqrt(2.0 * s)), 0.0, 20.0, limit=200
    )
    oracle = expected_pcaf_oracle(BoundaryPower(0.0, 1.0), 20.0, 0.01)
    assert oracle == pytest.approx(cont + 0.005, abs=5e-4)

    with pytest.raises(ValueError):
        expected_pcaf_oracle(BoundaryPower(0.5, 1.0), 1.0, 0.1)


def test_mc_pcaf_mean_matches_oracle():
    samples, _ = gauge_checkpoint_samples(
        0.0, BoundaryPower(0.0, 1.0), Brownian(3), [10.0], 1500, 123, 0.02
    )
    a = -np.log(samples[:, 0])
    se = a.std(ddof=1) / math.sqrt(a.size)
    oracle = expected_pcaf_oracle(BoundaryPower(0.0, 1.0), 10.0, 0.02)
    assert abs(a.mean() - oracle) <= 3.0 * se


def test_dt_halving_consistency():
    base = estimate_gauge(0.0, PowerWeight(-4.0), Brownian(3), [10.0], 1500, 31, 0.02)
    fine = estimate_gauge(0.0, PowerWeight(-4.0), Brownian(3), [10.0], 1500, 32, 0.01)
    se = math.hypot(float(base.stderr[0]), float(fine.stderr[0]))
    assert abs(float(base.ghat[0]) - float(fine.ghat[0])) <= 3.0 * se


def test_absorbed_pcaf_samples():
    proc = AbsorbingBrownianBall(3, 1.0)
    vals, exited = absorbed_pcaf_sample(BoundaryPower(1.0, 1.0), proc, 200, 2024, 4e-4, t_cap=40.0)
    assert exited.all()
    assert np.all(vals > 0)
    assert 0.2 < np.median(vals) < 1.0

    # zero measure: the functional vanishes identically
    zeros, exited = absorbed_pcaf_sample(None, proc, 50, 9, 1e-3)
    assert np.all(zeros == 0.0) and exited.all()

    with pytest.raises(ValueError):
        absorbed_pcaf_sample(None, proc, 10, 1, 1e-3, start=[2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        absorbed_pcaf_sample(None, Brownian(3), 10, 1, 1e-3)


def test_rotation_invariance_check():
    mu = BoundaryPower(0.0, 1.0)
    with pytest.raises(NotOrthogonal):
        rotation_invariance_check(mu, Brownian(3), [1.0, 0, 0], np.eye(3) * 2.0, 5.0, 10, 1, 0.1)

    same = rotation_invariance_check(
        mu, Brownian(3), [1.0, 0, 0], np.eye(3), 5.0, 200, 5, 0.02, independent_seeds=False
    )
    assert same["diff"] == 0.0 and same["passed"]

    q90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    res = rotation_invariance_check(mu, Brownian(3), [1.0, 0, 0], q90, 10.0, 800, 5, 0.02)
    assert res["passed"]


def test_verify_identity_input_validation():
    with pytest.raises(ValueError):
        verify_integral_identity(0.0, PowerWeight(-4.0), Brownian(3), M23, 10, 1.0, 1, 0.1)
    with pytest.raises(ValueError):
        verify_integral_identity(0.0, BoundaryPower(1.5, 1.0), Brownian(3), M23, 10, 1.0, 1, 0.1)
    with pytest.raises(ValueError):
        verify_integral_identity(
            0.0, BoundaryPower(0.0, 1.0), Brownian(3), KernelModel(1.5, 3), 10, 1.0, 1, 0.1
        )
    with pytest.raises(ValueError):
        verify_integral_identity(
            0.0, BoundaryPower(0.0, 1.0), IsotropicStable(1.5, 3), M23, 10, 1.0, 1, 0.1
        )


def test_verify_identity_strong_coupling():
    # full-strength measure on the ball (coupling 1), reduced path budget;
    # the acceptance suite runs the weak-coupling version at full scale
    res = verify_integral_identity(
        0.0, BoundaryPower(0.0, 1.0), Brownian(3), M23, 3000, 400.0, 600511, 0.02,
        coupling=1.0
    )
    assert abs(res["z"]) <= 3.0
    assert res["ghat"] + res["potential_term"] == res["lhs"]


def test_absorbed_walk_bytes_are_frozen():
    # sha256 of (values, exited) recorded before the walk became one lazy
    # block kernel: two logical blocks with censored paths, an off-centre
    # start, and the criterion-07 boundary exponent
    ball = AbsorbingBrownianBall(3, 1.0)
    cases = [
        (1.0, 2.5e-5, 0.2, None, "41b9677d955f69b85ae4f21ea96b6d4f217631c8b5ec5847ed033918e60427db"),
        (0.5, 1e-3, 0.3, [0.3, -0.2, 0.1],
         "bc76fa7d1cc5e6f7b8f1049b3872af2edeedd68c3f5077300bf42d22a98a5210"),
        (3.0, 4e-4, 40.0, None, "beac3b5a49cb12d2707f35139e86c9b5a22058edadb514de0bd2c65e926d4242"),
    ]
    for r, dt, t_cap, start, digest in cases:
        vals, exited = absorbed_pcaf_sample(
            BoundaryPower(r, 1.0), ball, 40, 20260907, dt, t_cap=t_cap, start=start
        )
        assert hashlib.sha256(vals.tobytes() + exited.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the excursion skip (Brownian in d = 3, measure supported in a ball)


def test_excursion_skip_matches_the_discrete_oracle():
    horizons = [10.0, 40.0]
    for dt, radius, seed in ((0.04, 1.0, 901), (0.01, 0.5, 902)):
        mu = BoundaryPower(0.0, radius)
        samples, _ = gauge_checkpoint_samples(0.0, mu, Brownian(3), horizons, 20_000, seed, dt)
        a = -np.log(samples)
        for j, t in enumerate(horizons):
            se = a[:, j].std(ddof=1) / math.sqrt(a.shape[0])
            z = (a[:, j].mean() - expected_pcaf_oracle(mu, t, dt)) / se
            assert abs(z) <= 3.0, (dt, t, z)


def _plain_walk_pcaf(x, mu, horizons, n_paths, seed, dt):
    """A_T at each horizon from the plain left-endpoint walk, no skip."""
    rng = np.random.default_rng(seed)
    weight = radial_weight_fn(mu)
    steps = [int(round(t / dt)) for t in horizons]
    pos = np.tile(np.asarray(x, dtype=float), (n_paths, 1))
    acc = np.zeros(n_paths)
    out = np.empty((n_paths, len(steps)))
    for k in range(1, steps[-1] + 1):
        acc += dt * weight(np.linalg.norm(pos, axis=1))
        pos += math.sqrt(2.0 * dt) * rng.standard_normal(pos.shape)
        if k in steps:
            out[:, steps.index(k)] = acc
    return out


@pytest.mark.parametrize("x0", [1.5, 3.0])
def test_excursion_skip_matches_the_plain_walk(x0):
    # x0 = 1.5 starts between R and 2R, x0 = 3 beyond 2R
    mu = BoundaryPower(0.0, 1.0)
    horizons, dt, n = [2.0, 8.0], 0.05, 10_000
    samples, _ = gauge_checkpoint_samples([x0, 0.0, 0.0], mu, Brownian(3), horizons, n, 911, dt)
    skip = -np.log(samples)
    plain = _plain_walk_pcaf([x0, 0.0, 0.0], mu, horizons, n, 912, dt)
    assert np.all(np.diff(skip, axis=1) >= 0.0)
    for j in range(len(horizons)):
        se = math.hypot(skip[:, j].std(ddof=1), plain[:, j].std(ddof=1)) / math.sqrt(n)
        z = (skip[:, j].mean() - plain[:, j].mean()) / se
        assert abs(z) <= 3.0, (x0, horizons[j], z)
