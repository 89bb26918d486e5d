"""Monte Carlo engine for the process, its additive functional, and the gauge.

The processes are the constant-coefficient representatives: Brownian motion
normalized so its generator is the full Laplacian (increment covariance
2 dt I, hence Green kernel (4 pi |x - y|)^-1 in dimension 3), the isotropic
stable process with one-step characteristic function exp(-dt |xi|^alpha)
sampled by subordination, and Brownian motion absorbed at the boundary of a
ball.

The additive functional of an absolutely continuous measure w dx along a
sampled path is the left-endpoint Riemann sum sum_k w(X_{t_k}) dt.  Gauge
estimates ghat(x, T) = mean exp(-A_T) use common paths across horizons, so
every estimated curve is nonincreasing in T path by path.

Both walkers run on one block-walk kernel: cumulative increments, norms,
weights at the left endpoints, and an optional stop at the first grid point
with |X| >= a given radius.

Excursion skip.  For Brownian motion in d = 3 and a BoundaryPower measure
of radius R (weight 0 for |x| >= R), the gauge walker stops every time the
path reaches |X| >= 2R and jumps over the excursion.  With probability
1 - R/|X| the path never returns to the ball, so A is final at every later
checkpoint.  Otherwise it first hits the sphere |x| = R at the time
tau = (|X| - R)^2 / (2 Z^2), Z standard normal, which is the law
P(tau <= t) = (R/r) erfc((r - R)/sqrt(4t)) for the generator Delta
conditioned on a return.  The walk resumes at the first grid time after
tau, at R e + sqrt(2 gap) N, with e a random unit vector, N a standard
normal vector and gap the time from tau to that grid time.  The grid points
skipped in between lie outside the ball and add exactly 0.  By the strong
Markov property and rotation invariance the sampled A_T has exactly the law
of the plain left-endpoint sum at every checkpoint, so
``expected_pcaf_oracle`` stays its exact target; only the draws differ,
and a path costs a few hundred steps instead of T/dt.  Stable processes and
Brownian motion in d != 3 keep the plain walk: their hitting-time laws are
not elementary.

Reproducibility: path i draws from Philox keyed by (seed, i), so results are
bit-identical for a fixed seed no matter how many worker threads fill the
per-path table, and independent runs derive fresh seeds through SeedSequence.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import NotOrthogonal
from .kernels import KernelModel, green_constant
from .measures import BoundaryPower, MeasureSpec, PowerWeight, radial_weight_fn
from .potentials import RadialTable, gauge_weighted_potential, riesz_potential

__all__ = [
    "Brownian",
    "IsotropicStable",
    "AbsorbingBrownianBall",
    "ProcessSpec",
    "PathConfig",
    "GaugeCurve",
    "positive_stable_sample",
    "sample_increment",
    "gauge_checkpoint_samples",
    "estimate_gauge",
    "expected_pcaf_oracle",
    "verify_integral_identity",
    "rotation_invariance_check",
    "absorbed_pcaf_sample",
]

_SEED_CAP = 2**64


# ---------------------------------------------------------------------------
# process and config records


@dataclass(frozen=True)
class Brownian:
    """Free Brownian motion with generator Delta (covariance 2 dt I)."""

    dim: int = 3


@dataclass(frozen=True)
class IsotropicStable:
    """Isotropic stable process, one-step CF exp(-dt |xi|^alpha)."""

    alpha: float
    dim: int = 3

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")


@dataclass(frozen=True)
class AbsorbingBrownianBall:
    """Brownian motion killed on first exit from the centered ball."""

    dim: int = 3
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")


ProcessSpec = Union[Brownian, IsotropicStable, AbsorbingBrownianBall]


@dataclass(frozen=True)
class PathConfig:
    """One simulation request: process, grid, start point, seed, path count."""

    process: ProcessSpec
    dt: float
    horizons: tuple
    start: tuple
    seed: int
    n_paths: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        hs = tuple(float(t) for t in self.horizons)
        if not hs or any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError("horizons must be nonempty and increasing")
        if self.dt > hs[0]:
            raise ValueError("dt must not exceed the first horizon")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.seed < _SEED_CAP:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "horizons", hs)
        object.__setattr__(self, "start", tuple(float(v) for v in self.start))


@dataclass(frozen=True)
class GaugeCurve:
    """Estimated ghat(x, T) across horizons, one row per checkpoint."""

    horizons: np.ndarray
    ghat: np.ndarray
    stderr: np.ndarray
    n_paths: int
    start: tuple
    measure: str

    def rows(self):
        """(T, ghat, stderr, n_paths) tuples, one per horizon."""
        return [
            (float(t), float(g), float(s), self.n_paths)
            for t, g, s in zip(self.horizons, self.ghat, self.stderr)
        ]


# ---------------------------------------------------------------------------
# increments


def positive_stable_sample(beta: float, n: int, rng) -> np.ndarray:
    """One-sided stable draws S >= 0 with E exp(-lam S) = exp(-lam^beta).

    Kanter's representation: S = (a(U)/E)^((1-beta)/beta) with U uniform on
    (0, 1), E standard exponential, and

        a(u) = sin((1-beta) pi u) sin(beta pi u)^(beta/(1-beta))
               / sin(pi u)^(1/(1-beta)).

    U is clipped away from {0, 1} to keep the sine powers inside double
    range; the clip probability is 2e-6 per draw and the clipped draws
    still land on the correct extreme scale.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    u = np.clip(rng.random(n), 1e-6, 1.0 - 1e-6)
    e = rng.standard_exponential(n)
    pu = math.pi * u
    ratio = (
        np.sin((1.0 - beta) * pu)
        * np.sin(beta * pu) ** (beta / (1.0 - beta))
        / np.sin(pu) ** (1.0 / (1.0 - beta))
    )
    s = (ratio / e) ** ((1.0 - beta) / beta)
    return np.where(np.isfinite(s), s, 1e300)


def sample_increment(process: ProcessSpec, dt: float, rng, n: Optional[int] = None):
    """n independent one-step increments, shape (n, dim); a vector if n is None.

    Brownian (and the absorbed ball before exit): N(0, 2 dt I).  Stable:
    subordination — a positive (alpha/2)-stable increment S with Laplace
    transform exp(-dt lam^(alpha/2)), then sqrt(2 S) times a standard
    Gaussian vector, which has CF exp(-dt |xi|^alpha).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    size = 1 if n is None else int(n)
    d = process.dim
    if isinstance(process, IsotropicStable) and process.alpha < 2.0:
        beta = 0.5 * process.alpha
        sub = dt ** (1.0 / beta) * positive_stable_sample(beta, size, rng)
        out = np.sqrt(2.0 * sub)[:, None] * rng.standard_normal((size, d))
    else:
        out = math.sqrt(2.0 * dt) * rng.standard_normal((size, d))
    return out[0] if n is None else out


def _path_rng(seed: int, index: int):
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _derive_seed(seed: int, tag: int) -> int:
    """Fresh 64-bit seed for an auxiliary run, deterministic in (seed, tag)."""
    ss = np.random.SeedSequence((int(seed), int(tag)))
    return int(ss.generate_state(1, np.uint64)[0])


def _as_start(x, dim: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.size == 1 and dim > 1:
        out = np.zeros(dim)
        out[0] = v[0]
        return out
    if v.shape != (dim,):
        raise ValueError(f"start point has shape {v.shape}, expected ({dim},)")
    return v.copy()


# ---------------------------------------------------------------------------
# the block walk

# Absorbed paths sum their weights per logical block of this many steps.
_ABSORBED_BLOCK = 4096
# A walk that may stop early draws its first sub-block at this size.
_FIRST_SUB_BLOCK = 256


def _walk_block(process, dt, rng, pos, m, weight, stop_radius=math.inf):
    """Walk one logical block of at most m steps from pos.

    Returns (w, end, stopped).  w[k] is the weight at the k-th grid point
    of the block (w[0] at pos), one per step taken; the walk stops after
    the first step that lands at |X| >= stop_radius, and end is the last
    position reached.

    With a finite stop radius the increments are drawn lazily, in
    sub-blocks of 256, 512, ... steps.  The running partial sum enters the
    first increment of each sub-block before the cumsum, so the positions
    and weights equal those of one m-step draw wherever the draws do not
    interleave (Brownian increments).  Without a stop radius the block is
    one draw.
    """
    lazy = stop_radius < math.inf
    size = min(_FIRST_SUB_BLOCK, m) if lazy else m
    radii = np.empty(m + 1)  # |X| at the grid points of the block
    radii[0] = np.linalg.norm(pos)
    carry = None
    done = 0
    while True:
        k = min(size, m - done)
        inc = sample_increment(process, dt, rng, k)
        if carry is not None:
            inc[0] += carry
        np.cumsum(inc, axis=0, out=inc)
        carry = inc[-1].copy()
        inc += pos
        right = radii[done + 1 : done + k + 1]
        # np.linalg.norm(inc, axis=1), written straight into the buffer
        np.sqrt(np.add.reduce(inc * inc, axis=1, out=right), out=right)
        hit = np.flatnonzero(right >= stop_radius) if lazy else ()
        if len(hit):
            j = int(hit[0])
            return weight(radii[: done + j + 1]), inc[j], True
        done += k
        if done == m:
            return weight(radii[:m]), inc[-1], False
        size *= 2


def _excursion_skip_walk(process, dt, rng, start, steps_at, weight, radius):
    """Left-endpoint weight sums at the checkpoints steps_at of one 3-d path.

    The weight vanishes outside the ball of the given radius.  The path is
    walked until |X| >= 2 radius; from there it either never comes back to
    the ball (probability 1 - radius/|X|), or it hits the sphere at the time
    (|X| - radius)^2 / (2 Z^2), Z standard normal, and restarts at the
    first grid time after it, radius e + sqrt(2 gap) N away from the
    centre.  The grid points skipped in between add exactly 0.
    """
    n_steps = int(steps_at[-1])
    sums = np.empty(len(steps_at))
    pos, g, total, c = start, 0, 0.0, 0
    while g < n_steps:
        r = float(np.linalg.norm(pos))
        if r < 2.0 * radius:
            w, pos, stopped = _walk_block(process, dt, rng, pos, n_steps - g, weight, 2.0 * radius)
            w[0] += total
            np.cumsum(w, out=w)
            end = g + w.size
            hi = np.searchsorted(steps_at, end, side="right")
            sums[c:hi] = w[steps_at[c:hi] - 1 - g]
            total, g, c = float(w[-1]), end, hi
            if not stopped:
                break
            continue
        if rng.random() >= radius / r:
            break
        z = rng.standard_normal()
        if (r - radius) ** 2 >= 2.0 * z * z * dt * (n_steps - 1 - g):
            break  # the path is back only after the last grid point
        steps_to_hit = (r - radius) ** 2 / (2.0 * z * z) / dt
        jump = int(steps_to_hit) + 1
        gap = (jump - steps_to_hit) * dt
        v = rng.standard_normal(6)
        pos = radius * v[:3] / np.linalg.norm(v[:3]) + math.sqrt(2.0 * gap) * v[3:]
        g += jump
        hi = np.searchsorted(steps_at, g, side="right")
        sums[c:hi] = total
        c = hi
    sums[c:] = total
    return sums


# ---------------------------------------------------------------------------
# gauge estimation


def _require_full_space(process: ProcessSpec, op: str) -> None:
    if isinstance(process, AbsorbingBrownianBall):
        raise ValueError(f"{op} needs a full-space process; use absorbed_pcaf_sample")


def _fill_by_path(run_one, n_paths: int, threads: int) -> None:
    if threads <= 1:
        for i in range(n_paths):
            run_one(i)
        return

    chunk = max(1, n_paths // (4 * threads))

    def run_range(lo):
        for i in range(lo, min(lo + chunk, n_paths)):
            run_one(i)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_range, range(0, n_paths, chunk)))


def gauge_checkpoint_samples(
    x,
    mu: Optional[MeasureSpec],
    process: ProcessSpec,
    horizons: Sequence[float],
    n_paths: int,
    seed: int,
    dt: float,
    smoothing_eps: Optional[float] = None,
    coupling: float = 1.0,
    threads: int = 1,
):
    """Per-path exp(-A_T) at each horizon: array (n_paths, len(horizons)).

    Horizons snap to whole numbers of steps; the realized times are returned
    alongside the samples.  Path i is driven by Philox key (seed, i), so the
    output is independent of the thread count.  Brownian paths in d = 3
    under a ball-supported BoundaryPower measure jump over their excursions
    beyond twice the ball radius (see the module docstring); every other
    path is one plain walk over the whole horizon.
    """
    _require_full_space(process, "gauge_checkpoint_samples")
    cfg = PathConfig(process, dt, tuple(horizons), tuple(_as_start(x, process.dim)), seed, n_paths)
    steps_at = np.array([max(1, int(round(t / dt))) for t in cfg.horizons])
    if np.any(np.diff(steps_at) < 1):
        raise ValueError("horizons closer than one time step")
    n_steps = int(steps_at[-1])
    start = np.asarray(cfg.start)
    weight = radial_weight_fn(mu, smoothing_eps)
    skip = isinstance(process, Brownian) and process.dim == 3 and isinstance(mu, BoundaryPower)
    out = np.empty((n_paths, len(steps_at)))

    def run_one(i):
        rng = _path_rng(seed, i)
        if skip:
            sums = _excursion_skip_walk(process, dt, rng, start, steps_at, weight, mu.radius)
        else:
            sums, _, _ = _walk_block(process, dt, rng, start, n_steps, weight)
            np.cumsum(sums, out=sums)
            sums = sums[steps_at - 1]
        out[i] = np.exp(-coupling * dt * sums)

    _fill_by_path(run_one, n_paths, threads)
    return out, steps_at * dt


def estimate_gauge(
    x,
    mu: Optional[MeasureSpec],
    process: ProcessSpec,
    horizons: Sequence[float],
    n_paths: int,
    seed: int,
    dt: float,
    smoothing_eps: Optional[float] = None,
    coupling: float = 1.0,
    threads: int = 1,
) -> GaugeCurve:
    """Common-path estimate of ghat(x, T) = mean exp(-A_T) over the horizons."""
    samples, realized = gauge_checkpoint_samples(
        x, mu, process, horizons, n_paths, seed, dt,
        smoothing_eps=smoothing_eps, coupling=coupling, threads=threads,
    )
    ghat = samples.mean(axis=0)
    if n_paths > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        stderr = np.full(ghat.shape, np.nan)
    return GaugeCurve(
        horizons=realized,
        ghat=ghat,
        stderr=stderr,
        n_paths=n_paths,
        start=tuple(_as_start(x, process.dim)),
        measure="zero" if mu is None else repr(mu),
    )


# ---------------------------------------------------------------------------
# discrete-time expectation oracle (Brownian from the origin)


def expected_pcaf_oracle(
    mu: MeasureSpec, horizon: float, dt: float, coupling: float = 1.0
) -> float:
    """Exact E[sum_k w(X_{t_k}) dt] for Brownian motion (d = 3) from 0.

    This is the expectation of the *discretized* functional, the right
    target for validating the sampler at finite dt: by Fubini it equals
    dt sum_k E w(X_{t_k}) with |X_t| distributed as sqrt(2 t) chi_3.  The
    radial integral is evaluated on Gauss-Legendre panels; supported for
    the smooth radial weight and the plain ball indicator (boundary
    exponent 0), which cover the normalization checks.
    """
    if isinstance(mu, PowerWeight):
        edges = [0.0, 0.5, 2.0, 7.0 * math.sqrt(4.0 * horizon) + 10.0]
    elif isinstance(mu, BoundaryPower) and mu.r == 0.0:
        edges = [0.0, mu.radius]
    else:
        raise ValueError("oracle supports PowerWeight and flat BoundaryPower only")
    weight = radial_weight_fn(mu)
    nodes, wts = np.polynomial.legendre.leggauss(400)
    s_grid, s_wts = [], []
    for a, b in zip(edges, edges[1:]):
        half = 0.5 * (b - a)
        s_grid.append(a + half * (nodes + 1.0))
        s_wts.append(half * wts)
    s = np.concatenate(s_grid)
    sw = np.concatenate(s_wts) * weight(s) * 4.0 * math.pi * s * s
    n_steps = max(1, int(round(horizon / dt)))
    t_k = dt * np.arange(1, n_steps)
    total = weight(np.array([0.0]))[0]
    for lo in range(0, t_k.size, 2048):
        t = t_k[lo : lo + 2048, None]
        dens = (4.0 * math.pi * t) ** -1.5 * np.exp(-(s * s) / (4.0 * t))
        total += float((dens @ sw).sum())
    return coupling * dt * total


# ---------------------------------------------------------------------------
# integral identity


def verify_integral_identity(
    x,
    mu: BoundaryPower,
    process: Brownian,
    model: KernelModel,
    n_paths: int,
    horizon: float,
    seed: int,
    dt: float,
    coupling: float = 1.0,
    table_radii=None,
    table_paths: Optional[int] = None,
    threads: int = 1,
    tol: float = 1e-8,
) -> dict:
    """Check ghat(x) + C int |x-y|^(alpha-d) ghat(y) mu(dy) = 1 by MC.

    Needs a compactly supported measure with finite potential along paths
    (flat or mildly singular ball weight, exponent < 1) and the Brownian
    normalization, where C = green_constant ties the kernel to the process.
    Each gauge estimate carries the finite-horizon tail correction
    g ~ ghat(T) - (ghat(T/2) - ghat(T)) / (sqrt(2) - 1), justified because
    the truncation gap of a transient path decays like T^(-1/2); the
    corrected per-path combination enters the stderr directly.
    """
    if not isinstance(mu, BoundaryPower) or mu.r >= 1.0:
        raise ValueError("identity check needs a ball weight with exponent < 1")
    if not isinstance(process, Brownian) or process.dim != 3:
        raise ValueError("identity check is wired for Brownian motion in d = 3")
    if model.alpha != 2.0 or model.dim != process.dim:
        raise ValueError("kernel model must match the process (alpha=2, dim=3)")

    c_rich = 1.0 / (math.sqrt(2.0) - 1.0)

    def corrected(start, n, run_seed):
        samples, _ = gauge_checkpoint_samples(
            start, mu, process, [0.5 * horizon, horizon], n, run_seed, dt,
            coupling=coupling, threads=threads,
        )
        v = (1.0 + c_rich) * samples[:, 1] - c_rich * samples[:, 0]
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(n))

    if table_radii is None:
        table_radii = np.linspace(0.0, mu.radius, 9)
    table_radii = np.asarray(table_radii, dtype=float)
    if table_paths is None:
        table_paths = max(n_paths // 10, 500)

    ghat_x, se_x = corrected(x, n_paths, _derive_seed(seed, 0))
    vals = np.empty(table_radii.size)
    errs = np.empty(table_radii.size)
    for j, r in enumerate(table_radii):
        vals[j], errs[j] = corrected(r, table_paths, _derive_seed(seed, j + 1))
    table = RadialTable(table_radii, np.clip(vals, 0.0, 1.0))

    const = coupling * green_constant(model.alpha, model.dim)
    pot = gauge_weighted_potential(mu, table, x, model, tol=tol)
    bare = riesz_potential(mu, x, model, tol=tol)
    term = const * pot.value
    se_pot = const * (bare.value * float(errs.max()) + pot.abs_error)
    lhs = ghat_x + term
    combined = math.hypot(se_x, se_pot)
    return {
        "lhs": lhs,
        "rhs": 1.0,
        "ghat": ghat_x,
        "ghat_stderr": se_x,
        "potential_term": term,
        "combined_stderr": combined,
        "z": (lhs - 1.0) / combined,
        "table_radii": table_radii,
        "table_values": vals,
        "table_stderr": errs,
    }


# ---------------------------------------------------------------------------
# rotation invariance


def rotation_invariance_check(
    mu: MeasureSpec,
    process: ProcessSpec,
    x,
    q_matrix,
    horizon: float,
    n_paths: int,
    seed: int,
    dt: float,
    smoothing_eps: Optional[float] = None,
    threads: int = 1,
    independent_seeds: bool = True,
) -> dict:
    """Compare ghat(x, T) against ghat(Qx, T) for an orthogonal Q.

    With independent_seeds the two runs are independent and the difference
    is judged at 3 combined stderr; with a shared seed and Q = I the runs
    are bit-identical (same increments, same start).
    """
    d = process.dim
    q = np.asarray(q_matrix, dtype=float)
    if q.shape != (d, d) or not np.allclose(q.T @ q, np.eye(d), atol=1e-12, rtol=0.0):
        raise NotOrthogonal("q_matrix is not orthogonal within 1e-12")
    start = _as_start(x, d)
    seed_a = _derive_seed(seed, 11) if independent_seeds else seed
    seed_b = _derive_seed(seed, 22) if independent_seeds else seed
    curve_a = estimate_gauge(
        start, mu, process, [horizon], n_paths, seed_a, dt,
        smoothing_eps=smoothing_eps, threads=threads,
    )
    curve_b = estimate_gauge(
        q @ start, mu, process, [horizon], n_paths, seed_b, dt,
        smoothing_eps=smoothing_eps, threads=threads,
    )
    ga, gb = float(curve_a.ghat[-1]), float(curve_b.ghat[-1])
    se = math.hypot(float(curve_a.stderr[-1]), float(curve_b.stderr[-1]))
    return {
        "ghat_x": ga,
        "ghat_qx": gb,
        "diff": ga - gb,
        "combined_stderr": se,
        "passed": abs(ga - gb) <= 3.0 * se,
    }


# ---------------------------------------------------------------------------
# absorbed paths


def absorbed_pcaf_sample(
    mu: MeasureSpec,
    process: AbsorbingBrownianBall,
    n_paths: int,
    seed: int,
    dt: float,
    t_cap: float = 50.0,
    start=None,
    threads: int = 1,
):
    """A at the exit time for each absorbed path: (values, exited flags).

    Paths are advanced in blocks until the first sampled position leaves
    the ball; exit detection is a per-step position check, with the usual
    O(sqrt(dt)) one-sided bias since excursions between grid points are
    invisible.  Paths still inside at t_cap report their accumulated value
    with exited=False.
    """
    if not isinstance(process, AbsorbingBrownianBall):
        raise ValueError("absorbed_pcaf_sample needs the absorbing ball process")
    d = process.dim
    radius = process.radius
    x0 = np.zeros(d) if start is None else _as_start(start, d)
    if float(np.linalg.norm(x0)) >= radius:
        raise ValueError("start point must lie inside the ball")
    weight = radial_weight_fn(mu)
    n_cap = max(1, int(round(t_cap / dt)))
    values = np.empty(n_paths)
    exited = np.zeros(n_paths, dtype=bool)

    def run_one(i):
        rng = _path_rng(seed, i)
        pos = x0
        acc = 0.0
        done = 0
        while done < n_cap:
            m = min(_ABSORBED_BLOCK, n_cap - done)
            w, pos, stopped = _walk_block(process, dt, rng, pos, m, weight, radius)
            acc += dt * float(np.sum(w))
            if stopped:
                exited[i] = True
                break
            done += m
        values[i] = acc

    _fill_by_path(run_one, n_paths, threads)
    return values, exited
