"""The benchmark's workloads: what each op runs and how its output is checked.

An op is one CLI-shaped task config run in-process through ``cli.run_cli``,
or, where the CLI has no task for the job (the discretized-functional
self-check and the absorbed-path functional), one library call.  Every op
carries its own oracle.  ``build`` returns the op list of a workload; the
Monte Carlo seeds in it derive from the run seed and the op key, so the same
seed gives the same inputs.

Oracles, all independent of the code under test:

* verdicts: the closed-form rules of the README table;
* potentials: closed forms where they exist (Newton's theorem for alpha=2,
  d=3: power weight p=-4, 2 pi/3 at 0; the flat unit ball; the r=0.5 ball,
  16 pi/3 at 0 and 64 pi/(15 rho) outside; spheres at radii n with weight
  n^-3 at 0, 4 pi zeta(5/2); spheres at n^3 with weight n^-3 at 0,
  4 pi zeta(3/2)), and everywhere finiteness with divergence matching the
  Big verdict, which is the potential-divergence route for these
  free-space families at alpha=1.5;
* NonBig gauge curves: ghat(T) >= exp(-E A_inf) - 3 se (Jensen), with
  E A_inf = G(alpha, d) U(0) from the closed-form U(0);
* Big gauge curves: strictly decreasing in T;
* verify-identity: |z| <= 3 (the task's own pass rule);
* absorbed functionals: finite, and the r=1 medians within 1.2x of each
  other across the dt grid (acceptance criterion 07's stability half).
"""

import csv
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("analytic", "gauge_curves", "unit_ball")

DT_GRID_ABSORBED = (4e-4, 1e-4, 2.5e-5)
ZETA_1_5 = 2.612375348685488343348567567924071630570800652  # zeta(3/2)
ZETA_2_5 = 1.341487257250917179756769702940976163559838921  # zeta(5/2)


@dataclass
class Checked:
    """What the oracle found in one op's output."""

    problems: list
    verdicts: int = 0
    probes: int = 0
    stderr: Optional[float] = None   # gauge stderr at the last horizon


@dataclass
class Op:
    key: str
    kind: str                       # "verdict", "potential", "gauge" or "library"
    check: Callable                 # (text) -> Checked
    command: Optional[str] = None   # CLI subcommand; None for a library op
    config: Optional[dict] = None
    call: Optional[Callable] = None  # library op: (threads) -> output text
    repeat: int = 1                 # runs per pass


# The classify and potential ops of the Monte Carlo workloads take a few ms
# each; five runs per pass give their per-op medians enough samples to ride
# out the preemptions of a shared host.
CHEAP_REPEATS = 5


def mc_seed(run_seed: int, key: str) -> int:
    """63-bit Monte Carlo seed for one op, derived from the run seed."""
    digest = hashlib.sha256(f"{run_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def green_constant(alpha: float, dim: int) -> float:
    """G(x, y) = C |x - y|^(alpha - d) for generator -(-Delta)^(alpha/2).

    Written out here rather than taken from bigmeasure.kernels, so the
    Jensen floors do not rest on the code they check.
    """
    return math.gamma((dim - alpha) / 2.0) / (
        2.0 ** alpha * math.pi ** (dim / 2.0) * math.gamma(alpha / 2.0)
    )


def newton_power_m4(rho: float) -> float:
    """U(rho) of the density (1+|y|)^-4 for alpha=2, d=3 (Newton's theorem)."""
    a = 1.0 / (1.0 + rho)
    outer = a * a / 2.0 - a ** 3 / 3.0
    if rho == 0.0:
        return 4.0 * math.pi * outer
    inner = (1.0 / 3.0 - a + a * a - a ** 3 / 3.0) / rho
    return 4.0 * math.pi * (inner + outer)


def newton_flat_ball(rho: float) -> float:
    """U(rho) of the unit-ball indicator for alpha=2, d=3."""
    return 2.0 * math.pi * (1.0 - rho * rho / 3.0) if rho <= 1.0 else 4.0 * math.pi / (3.0 * rho)


# ---------------------------------------------------------------------------
# closed-form verdict rules (README table)


def expected_big(spec: dict, alpha: float) -> bool:
    family = spec["family"]
    if family == "power_weight":
        return spec["p"] >= -alpha
    if family == "annulus_series":
        if spec["r"] > alpha:
            return False
        return spec["q"] <= spec["p"] * (alpha - spec["r"]) + 1.0
    if family == "sphere_series":
        if spec["r"] <= alpha - 1.0:
            return True
        return spec["p"] <= 1.0 / (spec["r"] - alpha + 1.0)
    if family == "boundary_power":
        return alpha <= 1.0 or spec["r"] >= alpha
    raise ValueError(f"no rule for family {family!r}")


# ---------------------------------------------------------------------------
# output parsing


def csv_rows(text: str) -> list:
    """Rows of the first CSV block in a task's output, as dicts."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("#")), len(lines))
    return list(csv.DictReader(lines[start:end]))


def num(field: str) -> float:
    """A float field of the task output.

    Under numpy >= 2 the CLI writes numpy scalars as "np.float64(x)" instead
    of the plain shortest round-trip form the README documents; the value
    inside is still exact, so the oracles read it from there.
    """
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


def report_items(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line and not line.startswith("#"))


def _verdict_problem(spec: dict, alpha: float, conclusion: str, where: str) -> list:
    want = "Big" if expected_big(spec, alpha) else "NonBig"
    return [] if conclusion == want else [f"{where}: verdict {conclusion}, rule says {want}"]


def check_sweep(cfg):
    names = list(cfg["grid"])
    want_rows = math.prod(len(v) for v in cfg["grid"].values())

    def check(text):
        rows = csv_rows(text)
        probs = [] if len(rows) == want_rows else [f"expected {want_rows} rows, got {len(rows)}"]
        errs = []
        for row in rows:
            spec = dict(cfg["measure"])
            spec.update({n: float(row[n]) for n in names if n != "alpha"})
            where = "sweep " + ",".join(f"{n}={row[n]}" for n in names)
            probs += _verdict_problem(spec, float(row["alpha"]), row["conclusion"], where)
            if cfg.get("simulate"):
                g, s = float(row["ghat"]), float(row["ghat_stderr"])
                if not (0.0 <= g <= 1.0 and math.isfinite(s) and s >= 0.0):
                    probs.append(f"{where}: ghat {g}, stderr {s}")
                errs.append(s)
        stderr = math.sqrt(sum(s * s for s in errs) / len(errs)) if errs else None
        return Checked(probs, verdicts=len(rows), stderr=stderr)
    return check


def check_potential(cfg, exact=None, rel=1e-6):
    """Finite, divergent iff Big, and equal to exact(rho) (within rel) when given."""
    divergent_expected = expected_big(cfg["measure"], cfg["alpha"])
    if cfg["measure"]["family"] == "boundary_power":
        divergent_expected = cfg["measure"]["r"] >= 1.0

    def check(text):
        probs = []
        rows = csv_rows(text)
        for row in rows:
            value, err = num(row["value"]), num(row["abs_error"])
            divergent = row["divergent"] == "True"
            where = f"U({row['x']})"
            if divergent != divergent_expected:
                probs.append(f"{where}: divergent={divergent}, expected {divergent_expected}")
            elif not divergent and not (math.isfinite(value) and value > 0.0 and math.isfinite(err)):
                probs.append(f"{where}: value {value}, abs_error {err}")
            elif exact is not None:
                want = exact(float(row["x"]))
                if abs(value - want) > rel * want:
                    probs.append(f"{where}: {value!r} vs closed form {want!r}")
        return Checked(probs, probes=len(rows))
    return check


def check_gauge(cfg, u0=None):
    """Big: ghat strictly decreasing in T.  NonBig: above the Jensen floor."""
    big = expected_big(cfg["measure"], cfg["alpha"])
    # With the constant weight of p=0, A_T = T on every path: the estimate
    # carries no Monte Carlo error, so it does not enter stderr2_x_s.
    deterministic = cfg["measure"] == {"family": "power_weight", "p": 0.0}

    def check(text):
        rows = csv_rows(text)
        g = [float(r["ghat"]) for r in rows]
        se = [float(r["stderr"]) for r in rows]
        probs = []
        if len(rows) != len(cfg["horizons"]) or not all(0.0 <= v <= 1.0 for v in g):
            probs.append(f"bad curve {g}")
        elif big and not all(b < a for a, b in zip(g, g[1:])):
            probs.append(f"Big curve not decreasing: {g}")
        elif not big:
            floor = math.exp(-cfg.get("coupling", 1.0) * green_constant(cfg["alpha"], cfg["dim"]) * u0)
            if g[-1] < floor - 3.0 * se[-1]:
                probs.append(f"NonBig ghat {g[-1]!r} under floor {floor!r} - 3 se")
        return Checked(probs, stderr=se[-1] if se and not deterministic else None)
    return check


def check_identity(text):
    items = report_items(text)
    z = num(items.get("z", "nan"))
    probs = []
    if items.get("result") != "PASS" or not abs(z) <= 3.0:
        probs.append(f"identity result={items.get('result')} z={z}")
    return Checked(probs, stderr=num(items.get("ghat_stderr", "nan")))


def check_library(text):
    """Library ops put their own oracle verdict in a 'problem=' line."""
    return Checked([line[len("problem="):] for line in text.splitlines() if line.startswith("problem=")])


# ---------------------------------------------------------------------------
# library ops (no CLI task exists for these)


def selfcheck_op(seed, n_paths):
    """Sampled E A_T vs the exact expectation of the discretized functional."""
    def call(threads):
        import numpy as np
        from bigmeasure import measures, simulate

        mu = measures.BoundaryPower(0.0)
        samples, _ = simulate.gauge_checkpoint_samples(
            0.0, mu, simulate.Brownian(3), [20.0], n_paths, seed, 0.01,
            coupling=0.1, threads=threads)
        a = -np.log(samples[:, 0])
        mean = float(a.mean())
        se = float(a.std(ddof=1)) / math.sqrt(a.size)
        oracle = simulate.expected_pcaf_oracle(mu, 20.0, 0.01, coupling=0.1)
        z = (mean - oracle) / se
        lines = [f"mean_A={mean!r}", f"se={se!r}", f"oracle={oracle!r}", f"z={z!r}"]
        if not abs(z) <= 3.0:
            lines.append(f"problem=self-check z={z:+.2f}")
        return "\n".join(lines) + "\n"
    return call


def absorbed_op(r, seed, n_paths):
    """Criterion-07 shape: A at exit from the unit ball over a dt grid."""
    def call(threads):
        import numpy as np
        from bigmeasure import measures, simulate

        lines, medians = [], []
        for dt in DT_GRID_ABSORBED:
            values, exited = simulate.absorbed_pcaf_sample(
                measures.BoundaryPower(r), simulate.AbsorbingBrownianBall(3, 1.0),
                n_paths, seed, dt, t_cap=40.0, threads=threads)
            med = float(np.median(values))
            medians.append(med)
            lines.append(f"dt={dt!r} median={med!r} exited={int(exited.sum())}")
            if not np.isfinite(values).all():
                lines.append(f"problem=non-finite absorbed value at r={r} dt={dt}")
        if r == 1.0 and max(medians) > 1.2 * min(medians):
            lines.append(f"problem=r=1 medians span {max(medians) / min(medians):.3f} > 1.2")
        return "\n".join(lines) + "\n"
    return call


# ---------------------------------------------------------------------------
# workloads


def _cli(key, kind, command, cfg, check, repeat=1):
    return Op(key=key, kind=kind, check=check, command=command, config=cfg, repeat=repeat)


def _steps(lo, hi, step):
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


def analytic(seed, tiny=False):
    """Classifier sweeps over every threshold, and potential probe grids."""
    ops = []
    sweeps = {
        # annulus (p, q) at r=0, alpha=1.5: Big iff q <= 1.5 p + 1
        "annulus_pq": ({"family": "annulus_series", "p": 1.0, "q": 2.0, "r": 0.0}, 1.5,
                       {"p": _steps(0.5, 2.0, 0.25), "q": _steps(1.25, 4.0, 0.25)}),
        # annulus across r = alpha at p=1, q=2
        "annulus_r": ({"family": "annulus_series", "p": 1.0, "q": 2.0, "r": 0.0}, 1.5,
                      {"r": _steps(0.0, 2.0, 0.25)}),
        # power weight across p = -alpha
        "power": ({"family": "power_weight", "p": -1.0}, 1.5,
                  {"alpha": [1.25, 1.5, 1.75, 2.0], "p": _steps(-2.5, -0.5, 0.25)}),
        # sphere series across p = 1/(r - alpha + 1)
        "sphere": ({"family": "sphere_series", "p": 2.0, "r": 1.0}, 1.5,
                   {"r": [0.75, 1.0, 1.25], "p": _steps(1.0, 4.5, 0.25)}),
        # boundary power across r = alpha (alpha <= 1: always Big)
        "boundary": ({"family": "boundary_power", "r": 1.0}, 1.5,
                     {"alpha": [0.75, 1.25, 1.5, 2.0], "r": _steps(0.5, 3.0, 0.25)}),
    }
    for name, (measure, alpha, grid) in sweeps.items():
        if tiny:
            grid = {k: v[::4] for k, v in grid.items()}
        cfg = {"task": "sweep", "alpha": alpha, "dim": 3, "measure": measure, "grid": grid}
        ops.append(_cli(f"sweep.{name}", "verdict", "sweep", cfg, check_sweep(cfg)))

    oracles = [
        ("potential.oracle.power_p-4", {"family": "power_weight", "p": -4.0}, 2.0, newton_power_m4),
        ("potential.oracle.sphere_n_r3", {"family": "sphere_series", "p": 1.0, "r": 3.0}, 1.5,
         lambda rho: 4.0 * math.pi * ZETA_2_5),
    ]
    for key, measure, alpha, exact in oracles:
        cfg = {"task": "potential", "alpha": alpha, "dim": 3, "measure": measure, "x": 0.0}
        ops.append(_cli(key, "potential", "potential", cfg, check_potential(cfg, exact)))

    probes = {
        "power_weight": {"family": "power_weight", "p": -4.0},
        "annulus_series": {"family": "annulus_series", "p": 1.0, "q": 3.0, "r": 0.0},
        "sphere_series": {"family": "sphere_series", "p": 3.0, "r": 1.0},
        "boundary_power": {"family": "boundary_power", "r": 0.5},
    }
    # A 0.5 grid keeps two passes inside a 20 s run; it holds all three
    # window-edge radii (6, 7, 8) where the d=5 annulus probes fail today.
    radii = [6.0, 7.0] if tiny else _steps(0.5, 8.0, 0.5)
    for dim in (3, 5):
        for family, measure in probes.items():
            for rho in radii:
                cfg = {"task": "potential", "alpha": 1.5, "dim": dim, "measure": measure, "x": rho}
                ops.append(_cli(f"potential.{family}.d{dim}.x{rho:.2f}", "potential", "potential",
                                cfg, check_potential(cfg)))
    return ops, None


def gauge_curves(seed, tiny=False):
    """Criterion-06-shaped gauge curves, Brownian and stable alpha=1.5."""
    n = 16 if tiny else 400
    horizons = [5.0, 10.0, 20.0] if tiny else [50.0, 100.0, 200.0]
    radii = _steps(0.25, 2.0, 0.25)
    ops = []
    # the verdicts across each simulated family's threshold decide which
    # curve check applies; the potentials give the NonBig Jensen floors
    for name, measure, alpha, grid in (
        ("power", {"family": "power_weight", "p": -4.0}, 2.0,
         {"alpha": [1.5, 1.75, 2.0], "p": _steps(-4.0, 0.0, 0.25)}),
        ("sphere", {"family": "sphere_series", "p": 3.0, "r": 1.0}, 1.5,
         {"r": [0.75, 1.0, 1.25], "p": _steps(1.0, 3.5, 0.25)}),
    ):
        cfg = {"task": "sweep", "alpha": alpha, "dim": 3, "measure": measure, "grid": grid}
        ops.append(_cli(f"sweep.{name}", "verdict", "sweep", cfg, check_sweep(cfg), CHEAP_REPEATS))
    power_m4 = {"family": "power_weight", "p": -4.0}
    sphere_p3 = {"family": "sphere_series", "p": 3.0, "r": 1.0}
    for key, measure, alpha, probe, exact in (
        ("potential.power_p-4.x0", power_m4, 2.0, {"x": 0.0}, newton_power_m4),
        ("potential.power_p-4.radii", power_m4, 2.0, {"radii": radii}, newton_power_m4),
        ("potential.sphere_p3.x0", sphere_p3, 1.5, {"x": 0.0}, lambda rho: 4.0 * math.pi * ZETA_1_5),
        ("potential.sphere_p3.radii", sphere_p3, 1.5, {"radii": [0.5, 1.5, 2.5]}, None),
    ):
        cfg = {"task": "potential", "alpha": alpha, "dim": 3, "measure": measure, **probe}
        ops.append(_cli(key, "potential", "potential", cfg, check_potential(cfg, exact),
                        CHEAP_REPEATS))
    runs = [
        ("power_p0", {"family": "power_weight", "p": 0.0}, 2.0, 0.05, None, None),
        ("power_p-4", power_m4, 2.0, 0.02, None, newton_power_m4(0.0)),
        ("sphere_p1.5", {"family": "sphere_series", "p": 1.5, "r": 1.0}, 1.5, 0.01, 0.05, None),
        ("sphere_p1.5", {"family": "sphere_series", "p": 1.5, "r": 1.0}, 1.5, 0.01, 0.025, None),
        ("sphere_p3", sphere_p3, 1.5, 0.01, 0.05, 4.0 * math.pi * ZETA_1_5),
        ("sphere_p3", sphere_p3, 1.5, 0.01, 0.025, 4.0 * math.pi * ZETA_1_5),
    ]
    for name, measure, alpha, dt, eps, u0 in runs:
        key = f"simulate.{name}" + ("" if eps is None else f".eps{eps}")
        cfg = {"task": "simulate", "alpha": alpha, "dim": 3, "measure": measure,
               "x": [0.0, 0.0, 0.0], "horizons": horizons, "n_paths": n, "dt": dt,
               "seed": mc_seed(seed, key)}
        if eps is not None:
            cfg["smoothing_eps"] = eps
        ops.append(_cli(key, "gauge", "simulate", cfg, check_gauge(cfg, u0)))
    cfg = {"task": "sweep", "alpha": 1.5, "dim": 3, "measure": sphere_p3,
           "grid": {"p": [1.5, 2.0, 2.5, 3.0]}, "simulate": True, "x": [0.0, 0.0, 0.0],
           "horizon": horizons[1], "n_paths": n // 2, "dt": 0.01, "smoothing_eps": 0.05,
           "seed": mc_seed(seed, "sweep.sphere_mc")}
    ops.append(_cli("sweep.sphere_mc", "gauge", "sweep", cfg, check_sweep(cfg)))
    return ops, "simulate.sphere_p3.eps0.05"


def unit_ball(seed, tiny=False):
    """Integral identity and absorbed paths on the unit ball, Brownian."""
    n = 16 if tiny else 300
    horizon = 20.0 if tiny else 800.0
    ops = []
    cfg = {"task": "sweep", "alpha": 2.0, "dim": 3, "measure": {"family": "boundary_power", "r": 0.0},
           "grid": {"alpha": [1.25, 1.5, 1.75, 2.0], "r": _steps(0.0, 3.0, 0.125)}}
    ops.append(_cli("sweep.boundary", "verdict", "sweep", cfg, check_sweep(cfg), CHEAP_REPEATS))
    flat = {"family": "boundary_power", "r": 0.0}
    half = {"family": "boundary_power", "r": 0.5}
    for key, measure, probe, exact in (
        ("potential.r0.0.x0", flat, {"x": 0.0}, newton_flat_ball),
        ("potential.r0.0.radii", flat, {"radii": _steps(0.125, 3.0, 0.125)}, newton_flat_ball),
        # 16 pi/3 at the centre; outside the ball, the mass 64 pi/15 over rho
        ("potential.r0.5.x0", half, {"x": 0.0}, lambda rho: 16.0 * math.pi / 3.0),
        ("potential.r0.5.radii", half, {"radii": _steps(1.0, 3.0, 0.25)}, lambda rho: 64.0 * math.pi / (15.0 * rho)),
    ):
        cfg = {"task": "potential", "alpha": 2.0, "dim": 3, "measure": measure, **probe}
        ops.append(_cli(key, "potential", "potential", cfg, check_potential(cfg, exact),
                        CHEAP_REPEATS))
    ops.append(Op(key="selfcheck", kind="library", check=check_library,
                  call=selfcheck_op(mc_seed(seed, "selfcheck"), 100 if tiny else 1000)))
    for measure in (flat, half):
        key = f"verify.r{measure['r']}"
        cfg = {"task": "verify-identity", "alpha": 2.0, "dim": 3, "measure": measure, "coupling": 0.1,
               "x": [0.0, 0.0, 0.0], "horizon": horizon, "n_paths": n, "dt": 0.01,
               "table_paths": max(2, n // 10), "seed": mc_seed(seed, key)}
        ops.append(_cli(key, "gauge", "verify", cfg, check_identity))
    # r=1 drifts ~1.13x across the dt grid; 3000 paths keep the noise on
    # that span well under the 1.2 limit, so a failure means a real change.
    for r, paths in ((1.0, 3000), (3.0, 1000)):
        key = f"absorbed.r{r}"
        ops.append(Op(key=key, kind="library", check=check_library,
                      call=absorbed_op(r, mc_seed(seed, key), 50 if tiny else paths)))
    return ops, "verify.r0.0"


def build(workload: str, seed: int, tiny: bool = False):
    """(ops, key of the op rerun at 2 threads for the determinism check or None)."""
    return {"analytic": analytic, "gauge_curves": gauge_curves, "unit_ball": unit_ball}[workload](seed, tiny)
