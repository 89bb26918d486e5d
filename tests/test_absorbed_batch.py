"""The row-batched absorbed walk against the walk that took one path at a time.

``_reference_absorbed`` is absorbed_pcaf_sample as it was before paths were
batched: a new Philox generator per path, and the single-path block kernel
drawing sub-blocks of 256, 512, ... steps.  The batched walk must give the
same bits for every path.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigmeasure import simulate
from bigmeasure.measures import BoundaryPower, radial_weight_fn
from bigmeasure.simulate import AbsorbingBrownianBall, absorbed_pcaf_sample, sample_increment

BATCH = simulate._ABSORBED_ROWS


def _reference_walk_block(process, dt, rng, pos, m, weight, stop_radius):
    radii = np.empty(m + 1)
    radii[0] = np.linalg.norm(pos)
    size = min(256, m)
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
        np.sqrt(np.add.reduce(inc * inc, axis=1), out=right)
        hit = np.flatnonzero(right >= stop_radius)
        if len(hit):
            j = int(hit[0])
            return weight(radii[: done + j + 1]), inc[j], True
        done += k
        if done == m:
            return weight(radii[:m]), inc[-1], False
        size *= 2


def _reference_absorbed(mu, process, n_paths, seed, dt, t_cap, start, weight):
    d = process.dim
    x0 = np.zeros(d) if start is None else np.asarray(start, dtype=float)
    n_cap = max(1, int(round(t_cap / dt)))
    values = np.empty(n_paths)
    exited = np.zeros(n_paths, dtype=bool)
    for i in range(n_paths):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        pos, acc, done = x0, 0.0, 0
        while done < n_cap:
            m = min(4096, n_cap - done)
            w, pos, stopped = _reference_walk_block(process, dt, rng, pos, m, weight, process.radius)
            acc += dt * float(np.sum(w))
            if stopped:
                exited[i] = True
                break
            done += m
        values[i] = acc
    return values, exited


class _Seen:
    """A radial weight that records every radius it is asked for."""

    def __init__(self, mu):
        self.weight = radial_weight_fn(mu)
        self.radii = []

    def __call__(self, s):
        self.radii.append(np.array(s, copy=True))
        return self.weight(s)

    def all(self):
        return np.concatenate(self.radii) if self.radii else np.empty(0)


def _both(mu, process, n_paths, seed, dt, t_cap, start=None):
    """(batched, reference) outputs, and the radii each handed to the weight."""
    batched_seen, reference_seen = _Seen(mu), _Seen(mu)
    with mock.patch.object(simulate, "radial_weight_fn", lambda m: batched_seen):
        got = absorbed_pcaf_sample(mu, process, n_paths, seed, dt, t_cap=t_cap, start=start)
    want = _reference_absorbed(mu, process, n_paths, seed, dt, t_cap, start, reference_seen)
    return got, want, batched_seen.all(), reference_seen.all()


def _assert_same_bits(got, want):
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3, 5, 8]),
    r=st.sampled_from([None, 0.0, 0.5, 1.0, 3.0]),
    n_paths=st.sampled_from([1, BATCH - 1, BATCH, BATCH + 1]),
    dt=st.sampled_from([1e-3, 1e-4, 2e-5]),
    t_cap=st.sampled_from([0.01, 0.1, 0.3, 50.0]),
    off=st.sampled_from([0.0, 0.5, 0.95]),
    seed=st.integers(0, 2**64 - 1),
)
def test_batched_walk_gives_the_bits_of_one_path_at_a_time(d, r, n_paths, dt, t_cap, off, seed):
    mu = None if r is None else BoundaryPower(r, 1.0)
    direction = np.array([(-1.0) ** k for k in range(d)]) / math.sqrt(d)
    start = None if off == 0.0 else off * direction
    got, want, seen, seen_ref = _both(mu, AbsorbingBrownianBall(d, 1.0), n_paths, seed, dt, t_cap, start)
    _assert_same_bits(got, want)
    # the weight sees exactly the grid points the paths reached: no padding
    # past a stop, no scratch, nothing twice
    assert seen.size == seen_ref.size
    assert np.all(seen < 1.0)
    assert np.array_equal(np.sort(seen), np.sort(seen_ref))


@pytest.mark.parametrize("d,dt,seed,path,steps", [
    (1, 1.2e-4, 24, 33, 4096),
    (1, 1.2e-4, 139, 38, 8192),
    (3, 4e-5, 302, 38, 4096),
])
def test_exit_on_the_last_step_of_a_logical_block(d, dt, seed, path, steps):
    # under the flat weight a path's value is dt times its steps; these paths
    # leave the ball on the last step of their first or second block
    flat = BoundaryPower(0.0, 1.0)
    got, want, _, _ = _both(flat, AbsorbingBrownianBall(d, 1.0), 40, seed, dt, 50.0)
    _assert_same_bits(got, want)
    assert want[1][path]
    assert want[0][path] == dt * float(steps)


def test_absorbed_bytes_do_not_depend_on_the_thread_count():
    ball = AbsorbingBrownianBall(3, 1.0)
    for mu, dt in ((BoundaryPower(1.0), 4e-4), (BoundaryPower(3.0), 1e-4)):
        one = absorbed_pcaf_sample(mu, ball, 3 * BATCH + 5, 2026, dt, t_cap=40.0, threads=1)
        two = absorbed_pcaf_sample(mu, ball, 3 * BATCH + 5, 2026, dt, t_cap=40.0, threads=2)
        _assert_same_bits(two, one)
