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
with |X| >= a given radius.  The kernel walks a batch of paths as one
(rows, steps, dim) array; gauge paths walk it one row at a time through
one walker, _gauge_walk, and absorbed paths 32 rows at a time.

Cost of a stable step.  At alpha = 1.5, d = 3, under a sphere-series
weight (p = 1.5, r = 1, eps = 0.05) on 2e4-step paths, medians of six
alternating runs on a shared 2-vCPU Xeon host, before -> after the in-place
rewrite: Philox draws (a uniform, an exponential, three normals) 95 -> 92 ns,
fixed by the bytes; Kanter's a(u) with its three sines 105 -> 73 ns; the
sampler's scaling 31 -> 15 ns; the row norm 28 -> 5 ns; the shell weight
89 -> 54 ns per radius; the whole step 423 -> 318 ns.  The sampler evaluates
the same operations in the same order on arrays it owns, the norm sums
columns in the order add.reduce adds a short row in, and the shell weight
tests only the radii whose index interval can hold a shell; every output
byte is unchanged.  Later the shell weight took one bin-table lookup per
radius (see measures) in place of the two index inversions: 26-29 -> 6-12
ns per radius on the radii of such walks (p = 1.5 and 3, eps = 0.05 and
0.025; in-process medians on the same kind of host), with the same bytes.

Absorbed step cost by stage.  On the absorbed functionals of the unit_ball
bench (BoundaryPower r = 1 and 3 on the unit ball in d = 3, dt = 4e-4,
1e-4 and 2.5e-5, t_cap = 40, 3000 and 1000 paths: 36.3 M steps inside
the ball per pass) a used step went from 170 to 131 ns (medians of ten
alternating bench runs per side on a shared 2-vCPU Xeon host) when paths
started to walk 32 to a batch.  By stage, in ns per used step with timing
wrappers on (medians of three alternating runs, before -> after): the
Philox draws through sample_increment, steps drawn past an exit included,
77 -> 82, which the bytes fix; new or rekeyed generators 10.3 -> 4.2; the
cumsum 20.5 -> 14.5; the row norm 26 -> 13; the weight 11.8 -> 9.7;
everything else (Python, copies, stop tests, start radii, block sums)
41 -> 29.  The floor is the three normals of a step, about 60 ns.

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
Brownian motion in d != 3 keep the plain walk, an infinite skip radius:
their hitting-time laws are not elementary.

Reproducibility: path i draws from Philox keyed by (seed, i), so results are
bit-identical for a fixed seed no matter how many worker threads fill the
per-path table, and independent runs derive fresh seeds through SeedSequence.
Each worker keeps its own Philox generators and rekeys one to (seed, i) for
path i, which gives the same stream as a new generator.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import NotOrthogonal
from .kernels import KernelModel, green_constant
from .measures import BoundaryPower, MeasureSpec, PowerWeight, point_radius, radial_weight_fn
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


def _start_problem(x) -> Optional[str]:
    """Why x cannot start a path, or None: the walk squares its coordinates,
    so the squared radius must stay inside the float range."""
    r = point_radius(x)
    if math.isfinite(r * r):
        return None
    return f"start radius {r:g} is too far out: its square leaves the float range"


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
        problem = _start_problem(self.start)
        if problem:
            raise ValueError(problem)
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

# the smallest normal float: a sine power below it has lost digits
_TINY = np.finfo(float).tiny


def positive_stable_sample(beta: float, n: int, rng) -> np.ndarray:
    """One-sided stable draws S >= 0 with E exp(-lam S) = exp(-lam^beta).

    Kanter's representation: S = (a(U)/E)^((1-beta)/beta) with U uniform on
    (0, 1), E standard exponential, and

        a(u) = sin((1-beta) pi u) sin(beta pi u)^(beta/(1-beta))
               / sin(pi u)^(1/(1-beta)).

    U is clipped away from {0, 1} to keep the sine powers inside double
    range; the clip probability is 2e-6 per draw and the clipped draws
    still land on the correct extreme scale.

    Near beta = 1 (alpha = 2 after subordination) the sine powers can
    underflow: from alpha of about 1.965 on, some draws have one below the
    smallest normal float, and some lose S altogether.  Those draws, and any
    draw whose S is not finite, are evaluated again in logs; every other
    draw keeps the bits of the direct formula.  A draw whose S itself lies
    beyond the float range stays infinite.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        # the formula above, evaluated in place: the same operations in the
        # same order on the same constants, so every draw keeps its bits
        pu = rng.random(n)
        np.clip(pu, 1e-6, 1.0 - 1e-6, out=pu)
        e = rng.standard_exponential(n)
        pu *= math.pi
        s = np.multiply(pu, 1.0 - beta)
        np.sin(s, out=s)
        b = np.multiply(pu, beta)
        np.sin(b, out=b)
        b **= beta / (1.0 - beta)
        s *= b
        q = np.sin(pu)
        q **= 1.0 / (1.0 - beta)
        s /= q
        s /= e
        s **= (1.0 - beta) / beta
        np.minimum(b, q, out=b)
        bad = np.flatnonzero((b < _TINY) | ~np.isfinite(s))
        if bad.size:
            s[bad] = _kanter_in_logs(pu[bad], e[bad], beta)
    return s


def _kanter_in_logs(pu, e, beta):
    """Kanter's S at the angles pu = pi u and exponentials e, taken in logs."""
    log_a = (
        np.log(np.sin(pu * (1.0 - beta)))
        + beta / (1.0 - beta) * np.log(np.sin(pu * beta))
        - np.log(np.sin(pu)) / (1.0 - beta)
    )
    return np.exp((1.0 - beta) / beta * (log_a - np.log(e)))


def sample_increment(process: ProcessSpec, dt: float, rng, n: Optional[int] = None, out=None):
    """n independent one-step increments, shape (n, dim); a vector if n is None.

    Brownian (and the absorbed ball before exit): N(0, 2 dt I).  Stable:
    subordination — a positive (alpha/2)-stable increment S with Laplace
    transform exp(-dt lam^(alpha/2)), then sqrt(2 S) times a standard
    Gaussian vector, which has CF exp(-dt |xi|^alpha).

    With out, a C-contiguous float array of shape (n, dim), the increments
    are written there and out is returned; the draws are the same.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    size = 1 if n is None else int(n)
    d = process.dim
    if out is None:
        out = np.empty((size, d))
    elif n is None or out.shape != (size, d):
        raise ValueError(f"out has shape {out.shape}, expected ({size}, {d})")
    if isinstance(process, IsotropicStable) and process.alpha < 2.0:
        beta = 0.5 * process.alpha
        scale = positive_stable_sample(beta, size, rng)
        scale *= dt ** (1.0 / beta)
        scale *= 2.0
        np.sqrt(scale, out=scale)
        rng.standard_normal(out=out)
        for j in range(d):  # cheaper than the broadcast product, same bits
            out[:, j] *= scale
    else:
        rng.standard_normal(out=out)
        out *= math.sqrt(2.0 * dt)
    return out[0] if n is None else out


def _snap_steps(t: float, dt: float) -> int:
    """Number of whole time steps a horizon t snaps to: max(1, round(t / dt))."""
    return max(1, int(round(t / dt)))


def _philox():
    """A Generator over Philox for _rekey to point at one path's stream."""
    return np.random.Generator(np.random.Philox(key=0))


def _rekey(rng, seed: int, index: int):
    """Point rng at path index's stream.

    The state written is the one Philox(key=(seed, index)) starts from:
    counter 0, an empty output buffer and no buffered 32-bit half, so
    nothing of the previous path's draws carries over.  Philox is counter
    based, so this gives the same stream as a new generator at a fifth of
    the cost; a Generator keeps no state of its own.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, index], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


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
# Absorbed paths walk in batches of this many rows; the batch's weight rows
# then hold 2^17 doubles (1 MB).
_ABSORBED_ROWS = (1 << 17) // _ABSORBED_BLOCK
# A full absorbed batch draws sub-blocks of at most this many steps per row,
# and fewer rows share the same buffers in longer sub-blocks.  Brownian
# positions do not depend on how the draws are split, so this bounds only
# the steps drawn past an exit and the size of the buffers.
_ABSORBED_SUB_BLOCK = 512


# numpy's add.reduce sums a row of fewer than 8 entries left to right (from 8
# on it keeps 8 partial sums), so the column sum below gives the same bits
_SEQUENTIAL_ROW = 7


def _row_norm(x, out, start=None):
    """np.linalg.norm(start[:, None] + x, axis=-1) written into out, bit for bit.

    start holds one point per row of x, or is None for no shift.  Up to
    _SEQUENTIAL_ROW columns, each column of the sum is formed and squared
    in out's shape and the squares are summed column by column, the order
    add.reduce adds a short row in; x is left as it is and no (..., d)
    temporary is made.  Wider rows go through add.reduce itself.
    """
    if x.shape[-1] > _SEQUENTIAL_ROW:
        pos = x if start is None else x + start[:, None]
        np.add.reduce(pos * pos, axis=-1, out=out)
    else:
        sq = np.empty_like(out)
        for j in range(x.shape[-1]):
            col = out if j == 0 else sq
            if start is None:
                np.multiply(x[..., j], x[..., j], out=col)
            else:
                np.add(x[..., j], start[:, j, None], out=col)
                col *= col
            if j:
                out += col
    np.sqrt(out, out=out)


class _Rows:
    """Buffers of a block walk, reused from path to path by one worker.

    w[i] receives the weights of row i of a walk over at most `rows` paths
    in logical blocks of at most m steps.  A sub-block of n rows and k steps
    views the flat buffers as contiguous (n, k, dim) increments and (n, k)
    radii, and n k may not exceed `steps`.
    """

    def __init__(self, rows: int, m: int, steps: int, dim: int):
        self.steps, self.dim = steps, dim
        self.w = np.empty((rows, m))
        self._inc = np.empty(steps * dim)
        self._right = np.empty(steps)
        self._left = np.empty(steps)

    def sub_block(self, n: int, k: int):
        """Increments, radii at the right and at the left endpoints of k steps of n rows."""
        return (
            self._inc[: n * k * self.dim].reshape(n, k, self.dim),
            self._right[: n * k].reshape(n, k),
            self._left[: n * k].reshape(n, k),
        )


def _walk_block(process, dt, rngs, pos, m, weight, ws, stop_radius=math.inf):
    """Walk one logical block of at most m steps from each row of pos.

    Row i starts at pos[i] and draws from rngs[i].  A row stops after the
    first step that lands at |X| >= stop_radius.  Returns (steps, stopped,
    ends) per row: the steps taken, whether the row stopped, and the last
    position reached.  ws.w[i, :steps[i]] then holds the weights at row i's
    grid points, w[i, 0] at pos[i]; entries past steps[i] are scratch.

    With a finite stop radius the increments are drawn lazily, in
    sub-blocks of 256, 512, ... steps, as far as the rows still walking fit
    in ws.  The running partial sum enters the first increment of each
    sub-block before the cumsum, so a row's positions and weights equal
    those of one m-step draw from its stream wherever the draws do not
    interleave (Brownian increments).  Without a stop radius the block is
    one draw.  The weight sees only grid points a row reached, and the
    radius at a row's start is np.linalg.norm, as a single-path walk takes it.
    """
    lazy = stop_radius < math.inf
    steps = np.full(len(pos), m)
    stopped = np.zeros(len(pos), dtype=bool)
    ends = np.empty_like(pos)
    live = np.arange(len(pos))
    start = pos
    prev = np.array([np.linalg.norm(p) for p in pos])
    size = min(_FIRST_SUB_BLOCK, ws.steps // len(pos)) if lazy else m
    carry = None
    done = 0
    while True:
        n, k = live.size, min(size, m - done)
        x, right, left = ws.sub_block(n, k)
        for s, i in enumerate(live):
            sample_increment(process, dt, rngs[i], k, x[s])
        if carry is not None:
            x[:, 0] += carry
        np.cumsum(x, axis=1, out=x)
        carry = x[:, -1].copy()
        _row_norm(x, right, start)  # the positions are start + x
        left[:, 0] = prev
        left[:, 1:] = right[:, :-1]
        hit = right >= stop_radius if lazy else None
        out = np.flatnonzero(hit.any(axis=1)) if lazy else ()
        if len(out):
            # one weight call over the grid points each stopping row reached:
            # up to its last left endpoint, c steps into the sub-block
            j = hit[out].argmax(axis=1) + 1
            w = weight(np.concatenate([left[s, :c] for s, c in zip(out, j)]))
            at = 0
            for s, c in zip(out, j):
                i = live[s]
                ws.w[i, done : done + c] = w[at : at + c]
                steps[i], stopped[i], ends[i] = done + c, True, start[s] + x[s, c - 1]
                at += c
            if len(out) == n:
                return steps, stopped, ends
            keep = np.ones(n, dtype=bool)
            keep[out] = False
            live, carry, start, left = live[keep], carry[keep], start[keep], left[keep]
            last, prev = x[keep, -1], right[keep, -1]
        else:
            last, prev = x[:, -1], right[:, -1].copy()
        ws.w[live, done : done + k] = weight(left.reshape(-1)).reshape(live.size, k)
        done += k
        if done == m:
            ends[live] = start + last
            return steps, stopped, ends
        size = min(2 * size, ws.steps // live.size)


def _gauge_walk(process, dt, rng, start, steps_at, weight, radius, ws):
    """Left-endpoint weight sums at the checkpoints steps_at of one path.

    A finite radius is the excursion skip of a 3-d Brownian path under a
    weight that is 0 outside the ball of that radius.  The path is
    walked until |X| >= 2 radius; from there it either never comes back to
    the ball (probability 1 - radius/|X|), or it hits the sphere at the time
    (|X| - radius)^2 / (2 Z^2), Z standard normal, and restarts at the
    first grid time after it, radius e + sqrt(2 gap) N away from the
    centre.  The grid points skipped in between add exactly 0.  With
    radius = inf the path is one block over the whole horizon.
    """
    n_steps = int(steps_at[-1])
    sums = np.empty(len(steps_at))
    pos, g, total, c = start, 0, 0.0, 0
    while g < n_steps:
        r = float(np.linalg.norm(pos))
        if r < 2.0 * radius:
            steps, stopped, ends = _walk_block(
                process, dt, [rng], pos[None], n_steps - g, weight, ws, 2.0 * radius
            )
            w = ws.w[0, : steps[0]]
            pos = ends[0]
            w[0] += total
            np.cumsum(w, out=w)
            end = g + w.size
            hi = np.searchsorted(steps_at, end, side="right")
            sums[c:hi] = w[steps_at[c:hi] - 1 - g]
            total, g, c = float(w[-1]), end, hi
            if not stopped[0]:
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


def _fill_by_path(make_worker, n_paths: int, threads: int, rows: int = 1) -> None:
    """Run every batch [lo, lo + rows) of the paths [0, n_paths) through a worker.

    make_worker() builds a callable run(lo, hi) that owns its generators and
    buffers; each thread builds one and takes whole batches.  A path's
    result depends only on its index, never on its batch or thread.
    """
    starts = range(0, n_paths, rows)
    if threads <= 1:
        run = make_worker()
        for lo in starts:
            run(lo, min(lo + rows, n_paths))
        return

    chunk = max(1, len(starts) // (4 * threads))
    local = threading.local()

    def run_chunk(c):
        if not hasattr(local, "run"):
            local.run = make_worker()
        for lo in starts[c : c + chunk]:
            local.run(lo, min(lo + rows, n_paths))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_chunk, range(0, len(starts), chunk)))


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
    path takes an infinite skip radius: one plain walk over the horizon.
    """
    _require_full_space(process, "gauge_checkpoint_samples")
    cfg = PathConfig(process, dt, tuple(horizons), tuple(_as_start(x, process.dim)), seed, n_paths)
    steps_at = np.array([_snap_steps(t, dt) for t in cfg.horizons])
    if np.any(np.diff(steps_at) < 1):
        raise ValueError("horizons closer than one time step")
    n_steps = int(steps_at[-1])
    start = np.asarray(cfg.start)
    weight = radial_weight_fn(mu, smoothing_eps)
    skip = isinstance(process, Brownian) and process.dim == 3 and isinstance(mu, BoundaryPower)
    radius = mu.radius if skip else math.inf
    out = np.empty((n_paths, len(steps_at)))

    def worker():
        rng, ws = _philox(), _Rows(1, n_steps, n_steps, process.dim)

        def run(i, _):  # batches of one path
            _rekey(rng, seed, i)
            sums = _gauge_walk(process, dt, rng, start, steps_at, weight, radius, ws)
            out[i] = np.exp(-coupling * dt * sums)

        return run

    _fill_by_path(worker, n_paths, threads)
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
    n_steps = _snap_steps(horizon, dt)
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
    n_cap = _snap_steps(t_cap, dt)
    values = np.zeros(n_paths)
    exited = np.zeros(n_paths, dtype=bool)

    def worker():
        rngs = [_philox() for _ in range(_ABSORBED_ROWS)]
        ws = _Rows(_ABSORBED_ROWS, min(_ABSORBED_BLOCK, n_cap), _ABSORBED_ROWS * _ABSORBED_SUB_BLOCK, d)

        def run(lo, hi):
            for i in range(lo, hi):
                _rekey(rngs[i - lo], seed, i)
            live = np.arange(lo, hi)
            pos = np.tile(x0, (hi - lo, 1))
            done = 0
            while done < n_cap and live.size:
                m = min(_ABSORBED_BLOCK, n_cap - done)
                steps, stopped, pos = _walk_block(
                    process, dt, [rngs[i - lo] for i in live], pos, m, weight, ws, radius
                )
                for s, i in enumerate(live):
                    values[i] += dt * float(np.sum(ws.w[s, : steps[s]]))
                exited[live[stopped]] = True
                live, pos = live[~stopped], pos[~stopped]
                done += m

        return run

    _fill_by_path(worker, n_paths, threads, _ABSORBED_ROWS)
    return values, exited
