"""Experiment orchestration: JSON configs, runners, CSV and report emission.

One config file describes one task.  Loading validates everything at once and
reports the complete list of problems, not just the first.  Every emitted
file embeds the tool version, a sha256 over the config (excluding the output
path), and the seed in '#' comment lines, so a row can be traced back to the
exact run that produced it; rerunning the same config with the same seed
reproduces the output byte for byte regardless of the thread count.
"""

import csv
import hashlib
import io
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .classifier import classify
from .errors import HypothesisViolated, ParseError, ValidationError
from .kernels import KernelModel
from .measures import FAMILIES, default_smoothing_eps, describe, point_radius
from .potentials import potential_decay_check, riesz_potential
from .simulate import (
    Brownian,
    IsotropicStable,
    _derive_seed,
    _snap_steps,
    _start_problem,
    estimate_gauge,
    rotation_invariance_check,
    verify_integral_identity,
)

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "read_config",
    "load_config",
    "validate_config",
    "config_digest",
    "measure_id",
    "run_task",
    "run_classify",
    "run_potential",
    "run_simulate",
    "run_sweep",
    "run_verify",
]

TOOL = f"bigmeasure {__version__}"

TASKS = (
    "classify",
    "potential",
    "simulate",
    "sweep",
    "verify-identity",
    "rotation-check",
    "decay-check",
)

_COMMON_KEYS = {"task", "alpha", "dim", "measure", "out"}
# tasks whose 'x' starts Monte Carlo paths (and sweep, with its MC column)
_WALK_TASKS = ("simulate", "verify-identity", "rotation-check")
_ALLOWED = {
    "classify": set(),
    "potential": {"x", "radii", "tol"},
    "decay-check": {"radii", "decay_fraction", "tol"},
    "simulate": {"seed", "n_paths", "dt", "horizons", "x", "coupling", "smoothing_eps"},
    "sweep": {"grid", "simulate", "seed", "n_paths", "dt", "horizon", "x", "coupling", "smoothing_eps"},
    "verify-identity": {"seed", "n_paths", "dt", "horizon", "x", "coupling", "table_radii", "table_paths", "tol"},
    "rotation-check": {"seed", "n_paths", "dt", "horizon", "x", "q_matrix", "smoothing_eps"},
}
_REQUIRED = {
    "classify": set(),
    "potential": set(),  # x XOR radii, checked separately
    "decay-check": set(),
    "simulate": {"seed", "n_paths", "dt", "horizons", "x"},
    "sweep": {"grid"},
    "verify-identity": {"seed", "n_paths", "dt", "horizon", "x"},
    "rotation-check": {"seed", "n_paths", "dt", "horizon", "x", "q_matrix"},
}

GAUGE_COLUMNS = ("measure_id", "family_params", "x", "T", "ghat", "stderr", "n_paths", "seed", "dt")
CLASSIFY_COLUMNS = ("measure_id", "family", "params", "alpha", "dim", "conclusion", "rule", "witness")
POTENTIAL_COLUMNS = ("measure_id", "x", "value", "abs_error", "divergent", "compact_part", "terms_used")


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    alpha: float
    dim: int
    measure_spec: dict
    seed: Optional[int] = None
    n_paths: Optional[int] = None
    dt: Optional[float] = None
    horizons: Optional[tuple] = None
    x: Optional[tuple] = None
    coupling: float = 1.0
    smoothing_eps: Optional[float] = None
    tol: float = 1e-9
    grid: Optional[tuple] = None
    simulate_mc: bool = False
    q_matrix: Optional[tuple] = None
    radii: Optional[tuple] = None
    decay_fraction: float = 0.5
    table_radii: Optional[tuple] = None
    table_paths: Optional[int] = None
    out: Optional[str] = None
    raw: dict = field(default_factory=dict, repr=False)
    digest: str = ""

    @property
    def measure(self):
        return _measure_from_spec(self.measure_spec)


@dataclass(frozen=True)
class RunResult:
    """Primary output text, pass/fail, and an optional companion report."""

    text: str
    ok: bool
    report: Optional[str] = None


# ---------------------------------------------------------------------------
# loading and validation


def config_digest(raw: dict) -> str:
    """sha256 over the canonical config, output path excluded."""
    clean = {k: v for k, v in raw.items() if k != "out"}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def measure_id(mu) -> str:
    family, params = describe(mu)
    h = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:8]
    return f"{family}-{h}"


def read_config(path) -> dict:
    """Parse the JSON at path; syntax errors carry the line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError([f"{path}: line {e.lineno} column {e.colno}: {e.msg}"])


def load_config(path) -> ExperimentConfig:
    return validate_config(read_config(path))


def _measure_from_spec(spec: dict):
    """Build the measure from a validated spec dict."""
    return FAMILIES[spec["family"]].from_spec(spec)


def _validate_measure(obj, errors):
    if not isinstance(obj, dict):
        errors.append("measure must be an object with a 'family' key")
        return
    family = obj.get("family")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        errors.append(f"measure.family must be one of {', '.join(FAMILIES)}; got {family!r}")
        return
    allowed, need = cls.spec_keys(obj)
    allowed = allowed | {"family"}
    for k in sorted(set(obj) - allowed):
        errors.append(f"measure: unknown key '{k}' for family {family}")
    for k in sorted(need - set(obj)):
        errors.append(f"measure: missing key '{k}' for family {family}")
    if set(obj) - allowed or need - set(obj):
        return
    try:
        cls.from_spec(obj).require_admissible()
    except (TypeError, ValueError) as e:
        errors.append(f"measure: {e}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A JSON number inside the float range (json accepts NaN and Infinity)."""
    if not _is_number(v):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _num(raw, key, errors, kind=float, cond=None, what=""):
    if key not in raw:
        return None
    v = raw[key]
    if not _is_number(v):
        errors.append(f"'{key}' must be a number")
        return None
    if not _is_finite(v) and not (kind is int and isinstance(v, int)):
        errors.append(f"'{key}' must be a finite number, got {v}")
        return None
    if kind is int and v != int(v):
        errors.append(f"'{key}' must be an integer, got {v}")
        return None
    v = kind(v)
    if cond is not None and not cond(v):
        errors.append(f"'{key}' {what}, got {raw[key]}")
        return None
    return v


def _point(raw, key, dim, errors):
    if key not in raw:
        return None
    v = raw[key]
    if _is_finite(v):
        return (float(v),)
    if isinstance(v, list) and len(v) == dim and all(_is_finite(c) for c in v):
        return tuple(float(c) for c in v)
    errors.append(f"'{key}' must be a number (radius) or a list of {dim} coordinates")
    return None


def validate_config(raw) -> ExperimentConfig:
    """Validate a parsed config, collecting the full list of problems."""
    if not isinstance(raw, dict):
        raise ValidationError(["top level must be a JSON object"])
    errors = []
    task = raw.get("task")
    if task not in TASKS:
        raise ValidationError([f"'task' must be one of {', '.join(TASKS)}; got {task!r}"])

    allowed = _COMMON_KEYS | _ALLOWED[task]
    for k in sorted(set(raw) - allowed):
        errors.append(f"unknown key '{k}' for task {task}")
    required = {"alpha", "dim", "measure"} | _REQUIRED[task]
    if task == "sweep" and raw.get("simulate"):
        required |= {"seed", "n_paths", "dt", "horizon", "x"}
    for k in sorted(required - set(raw)):
        errors.append(f"missing required key '{k}' for task {task}")

    alpha = _num(raw, "alpha", errors, float, lambda v: 0 < v <= 2, "must be in (0, 2]")
    dim = _num(raw, "dim", errors, int, lambda v: v >= 1, "must be a positive integer")
    if "measure" in raw:
        _validate_measure(raw["measure"], errors)

    seed = _num(raw, "seed", errors, int, lambda v: 0 <= v < 2**64, "must fit in 64 bits")
    min_paths = 2 if task in ("verify-identity", "rotation-check") else 1
    what = "must be >= 1" if min_paths == 1 else f"must be >= 2 for task {task}, which needs a standard error"
    n_paths = _num(raw, "n_paths", errors, int, lambda v: v >= min_paths, what)
    dt = _num(raw, "dt", errors, float, lambda v: v > 0, "must be positive")
    coupling = _num(raw, "coupling", errors, float, lambda v: v >= 0, "must be nonnegative")
    if task == "verify-identity" and coupling == 0.0:
        errors.append("'coupling' must be positive for task verify-identity, which needs a standard error")
    smoothing_eps = _num(raw, "smoothing_eps", errors, float, lambda v: v > 0, "must be positive")
    tol = _num(raw, "tol", errors, float, lambda v: v > 0, "must be positive")
    decay_fraction = _num(raw, "decay_fraction", errors, float, lambda v: 0 < v < 1, "must be in (0, 1)")
    table_paths = _num(raw, "table_paths", errors, int, lambda v: v >= 2, "must be >= 2")

    horizons = None
    if "horizons" in raw:
        hs = raw["horizons"]
        if not isinstance(hs, list) or not hs or not all(_is_finite(t) for t in hs):
            errors.append("'horizons' must be a nonempty list of numbers")
        elif any(b <= a for a, b in zip(hs, hs[1:])) or hs[0] <= 0:
            errors.append("'horizons' must be positive and strictly increasing")
        else:
            horizons = tuple(float(t) for t in hs)
    if "horizon" in raw:
        t = _num(raw, "horizon", errors, float, lambda v: v > 0, "must be positive")
        if t is not None:
            horizons = (t,)
    if dt is not None and horizons and dt > horizons[0]:
        errors.append("'dt' must not exceed the first horizon")
    elif dt is not None and horizons and task == "verify-identity" and dt > horizons[0] / 2:
        errors.append("'dt' must not exceed horizon/2 for task verify-identity (its first checkpoint is T/2)")
    elif dt is not None and horizons:
        steps = [_snap_steps(t, dt) for t in horizons]
        for a, b, na, nb in zip(horizons, horizons[1:], steps, steps[1:]):
            if nb <= na:
                errors.append(f"'horizons' {a} and {b} snap to the same time step at dt={dt}")

    dim_for_point = dim if dim is not None else 3
    x = _point(raw, "x", dim_for_point, errors)
    if x is not None and (task in _WALK_TASKS or (task == "sweep" and raw.get("simulate"))):
        problem = _start_problem(x)
        if problem:
            errors.append(f"'x': {problem}")

    radii = None
    if "radii" in raw:
        rs = raw["radii"]
        if not isinstance(rs, list) or any(not _is_finite(v) or v <= 0 for v in rs):
            errors.append("'radii' must be a list of positive numbers")
        elif any(b <= a for a, b in zip(rs, rs[1:])):
            errors.append("'radii' must be strictly increasing")
        elif task == "decay-check" and len(rs) < 2:
            errors.append("'radii' needs at least two probe points")
        else:
            radii = tuple(float(v) for v in rs)
    if task == "potential":
        if ("x" in raw) == ("radii" in raw):
            errors.append("task potential needs exactly one of 'x' or 'radii'")

    table_radii = None
    if "table_radii" in raw:
        tr = raw["table_radii"]
        if not isinstance(tr, list) or len(tr) < 2 or any(not _is_finite(v) or v < 0 for v in tr):
            errors.append("'table_radii' must be a list (>= 2 entries) of nonnegative numbers")
        elif any(b <= a for a, b in zip(tr, tr[1:])):
            errors.append("'table_radii' must be strictly increasing")
        else:
            table_radii = tuple(float(v) for v in tr)

    grid = None
    if "grid" in raw:
        g = raw["grid"]
        family = raw["measure"].get("family") if isinstance(raw.get("measure"), dict) else None
        cls = FAMILIES.get(family) if isinstance(family, str) else None
        legal = cls.grid_params if cls else {"p", "q", "r", "alpha"}
        if not isinstance(g, dict) or not 1 <= len(g) <= 2:
            errors.append("'grid' must map one or two parameter names to value lists")
        else:
            entries = []
            for name, vals in g.items():
                if name not in legal:
                    errors.append(f"grid parameter '{name}' does not apply to family {family}")
                elif not isinstance(vals, list) or not vals or not all(_is_finite(v) for v in vals):
                    errors.append(f"grid values for '{name}' must be a nonempty list of finite numbers")
                elif name == "alpha" and any(not 0 < v <= 2 for v in vals):
                    errors.append("grid values for 'alpha' must be in (0, 2]")
                else:
                    entries.append((name, tuple(float(v) for v in vals)))
            if entries and len(entries) == len(g):
                grid = tuple(entries)
            if isinstance(raw.get("measure"), dict) and any(n in ("p", "q") for n in g):
                m = raw["measure"]
                if "growth" in m or "gap" in m or "radii" in m:
                    errors.append("grids over p or q need a parametric measure")
        if raw.get("simulate") is not None and not isinstance(raw.get("simulate"), bool):
            errors.append("'simulate' must be a boolean")
        if raw.get("simulate") and family == "boundary_power":
            errors.append("sweep MC column supports full-space families only")

    if "q_matrix" in raw:
        qm = raw["q_matrix"]
        d = dim_for_point
        bad = (
            not isinstance(qm, list)
            or len(qm) != d
            or any(not isinstance(row, list) or len(row) != d for row in qm)
            or any(not _is_finite(v) for row in qm for v in row)
        )
        if bad:
            errors.append(f"'q_matrix' must be a {d} x {d} numeric matrix")

    if task == "verify-identity" and not errors:
        if alpha != 2.0 or dim != 3:
            errors.append("verify-identity runs on Brownian normalization: alpha = 2, dim = 3")
        m = raw["measure"]
        if m.get("family") != "boundary_power" or float(m.get("r", 0.0)) >= 1.0:
            errors.append("verify-identity needs a boundary_power measure with r < 1")

    if "out" in raw and not isinstance(raw["out"], str):
        errors.append("'out' must be a string path")

    if errors:
        raise ValidationError(errors)

    return ExperimentConfig(
        task=task,
        alpha=alpha,
        dim=dim,
        measure_spec=raw["measure"],
        seed=seed,
        n_paths=n_paths,
        dt=dt,
        horizons=horizons,
        x=x,
        coupling=1.0 if coupling is None else coupling,
        smoothing_eps=smoothing_eps,
        tol=1e-9 if tol is None else tol,
        grid=grid,
        simulate_mc=bool(raw.get("simulate", False)),
        q_matrix=tuple(tuple(float(v) for v in row) for row in raw["q_matrix"]) if "q_matrix" in raw else None,
        radii=radii,
        decay_fraction=0.5 if decay_fraction is None else decay_fraction,
        table_radii=table_radii,
        table_paths=table_paths,
        out=raw.get("out"),
        raw=raw,
        digest=config_digest(raw),
    )


# ---------------------------------------------------------------------------
# emission helpers


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        # float() first: numpy >= 2 reprs np.float64 as "np.float64(x)"
        return repr(float(v))
    return str(v)


def _fmt_point(x) -> str:
    if x is None:
        return ""
    return ";".join(repr(float(c)) for c in x)


def _header(cfg: ExperimentConfig, extra=()) -> list:
    lines = [f"# tool={TOOL}", f"# config_sha256={cfg.digest}"]
    if cfg.seed is not None:
        lines.append(f"# seed={cfg.seed}")
    lines.extend(extra)
    return lines


def _csv_text(header, columns, rows) -> str:
    buf = io.StringIO()
    for line in header:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _free_process(alpha: float, dim: int):
    """The process alpha and dim fix: Brownian at alpha = 2, isotropic stable otherwise."""
    return Brownian(dim) if alpha == 2.0 else IsotropicStable(alpha, dim)


def _auto_eps(cfg: ExperimentConfig, mu) -> Optional[float]:
    if not mu.singular:
        return None
    if cfg.smoothing_eps is not None:
        return cfg.smoothing_eps
    start = 0.0 if cfg.x is None else point_radius(cfg.x)
    t_max = cfg.horizons[-1] if cfg.horizons else 1.0
    reach = start + 8.0 * (2.0 * t_max) ** (1.0 / cfg.alpha) + 10.0
    return default_smoothing_eps(mu, reach)


# ---------------------------------------------------------------------------
# runners


def run_classify(cfg: ExperimentConfig) -> RunResult:
    mu = cfg.measure
    v = classify(mu, cfg.alpha, cfg.dim)
    row = v.to_row()
    rows = [[measure_id(mu), row["family"], row["params"], row["alpha"], row["dim"], row["conclusion"], row["rule"], row["witness"]]]
    return RunResult(_csv_text(_header(cfg), CLASSIFY_COLUMNS, rows), True)


def run_potential(cfg: ExperimentConfig) -> RunResult:
    mu = cfg.measure
    model = KernelModel(cfg.alpha, cfg.dim)
    mid = measure_id(mu)
    probes = cfg.radii if cfg.radii is not None else [cfg.x if len(cfg.x) > 1 else cfg.x[0]]
    rows = []
    for x in probes:
        res = riesz_potential(mu, x, model, tol=cfg.tol)
        rows.append([
            mid,
            _fmt_point(x if isinstance(x, tuple) else (float(x),)),
            res.value,
            res.abs_error,
            res.divergent,
            res.compact_part,
            res.terms_used,
        ])
    return RunResult(_csv_text(_header(cfg), POTENTIAL_COLUMNS, rows), True)


def run_simulate(cfg: ExperimentConfig, threads: int = 1) -> RunResult:
    mu = cfg.measure
    curve = estimate_gauge(
        np.array(cfg.x) if len(cfg.x) > 1 else cfg.x[0],
        mu,
        _free_process(cfg.alpha, cfg.dim),
        cfg.horizons,
        cfg.n_paths,
        cfg.seed,
        cfg.dt,
        smoothing_eps=_auto_eps(cfg, mu),
        coupling=cfg.coupling,
        threads=threads,
    )
    family, params = describe(mu)
    fp = json.dumps(params, sort_keys=True)
    mid = measure_id(mu)
    rows = [
        [mid, fp, _fmt_point(cfg.x), t, g, s, n, cfg.seed, cfg.dt]
        for t, g, s, n in curve.rows()
    ]
    return RunResult(_csv_text(_header(cfg), GAUGE_COLUMNS, rows), True)


def _grid_points(grid):
    names = [name for name, _ in grid]
    lists = [vals for _, vals in grid]
    return names, list(itertools.product(*lists))


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> RunResult:
    names, points = _grid_points(cfg.grid)
    verdicts = []
    measures = []
    for pt in points:
        spec = dict(cfg.measure_spec)
        alpha = cfg.alpha
        for name, val in zip(names, pt):
            if name == "alpha":
                alpha = val
            else:
                spec[name] = val
        mu = _measure_from_spec(spec)
        measures.append((mu, alpha))
        verdicts.append(classify(mu, alpha, cfg.dim))

    mc = [None] * len(points)
    if cfg.simulate_mc:
        def one(idx):
            mu, alpha = measures[idx]
            curve = estimate_gauge(
                np.array(cfg.x) if len(cfg.x) > 1 else cfg.x[0],
                mu, _free_process(alpha, cfg.dim), cfg.horizons, cfg.n_paths,
                _derive_seed(cfg.seed, idx), cfg.dt,
                smoothing_eps=_auto_eps(cfg, mu), coupling=cfg.coupling,
            )
            return float(curve.ghat[-1]), float(curve.stderr[-1])

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                mc = list(pool.map(one, range(len(points))))
        else:
            mc = [one(i) for i in range(len(points))]

    columns = list(names) + ["alpha", "dim", "conclusion", "rule", "measure_id"]
    if cfg.simulate_mc:
        columns += ["ghat", "ghat_stderr", "T", "n_paths"]
    rows = []
    for pt, (mu, alpha), v, m in zip(points, measures, verdicts, mc):
        row = list(pt) + [alpha, cfg.dim, v.conclusion.value, v.rule, measure_id(mu)]
        if cfg.simulate_mc:
            row += [m[0], m[1], cfg.horizons[-1], cfg.n_paths]
        rows.append(row)

    report = _header(cfg, (f"# task=sweep over {', '.join(names)}",))
    inner = names[-1]
    for i in range(1, len(points)):
        same_outer = points[i][:-1] == points[i - 1][:-1]
        if same_outer and verdicts[i].conclusion != verdicts[i - 1].conclusion:
            ctx = ""
            if len(names) == 2:
                ctx = f" at {names[0]}={_fmt(points[i][0])}"
            report.append(
                f"threshold{ctx}: {verdicts[i - 1].conclusion} -> {verdicts[i].conclusion} "
                f"between {inner}={_fmt(points[i - 1][-1])} and {inner}={_fmt(points[i][-1])}"
            )
    report.append(f"rows={len(points)}")
    return RunResult(_csv_text(_header(cfg), columns, rows), True, "\n".join(report) + "\n")


def run_verify(cfg: ExperimentConfig, threads: int = 1) -> RunResult:
    if cfg.task == "decay-check":
        return _run_decay_check(cfg)
    if cfg.task == "rotation-check":
        return _run_rotation_check(cfg, threads)
    return _run_identity(cfg, threads)


def _report(cfg: ExperimentConfig, task: str, items, passed: bool) -> str:
    lines = _header(cfg, (f"# task={task}",))
    lines += [f"{k}={_fmt(v)}" for k, v in items]
    lines.append(f"result={'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _run_identity(cfg: ExperimentConfig, threads: int) -> RunResult:
    res = verify_integral_identity(
        np.array(cfg.x) if len(cfg.x) > 1 else cfg.x[0],
        cfg.measure,
        Brownian(cfg.dim),
        KernelModel(cfg.alpha, cfg.dim),
        cfg.n_paths,
        cfg.horizons[0],
        cfg.seed,
        cfg.dt,
        coupling=cfg.coupling,
        table_radii=None if cfg.table_radii is None else np.array(cfg.table_radii),
        table_paths=cfg.table_paths,
        threads=threads,
        tol=cfg.tol,
    )
    passed = abs(res["z"]) <= 3.0
    items = [
        ("lhs", res["lhs"]),
        ("rhs", res["rhs"]),
        ("ghat", res["ghat"]),
        ("ghat_stderr", res["ghat_stderr"]),
        ("potential_term", res["potential_term"]),
        ("combined_stderr", res["combined_stderr"]),
        ("z", res["z"]),
        ("tolerance", "3 combined stderr"),
        ("table_radii", ";".join(repr(float(v)) for v in res["table_radii"])),
        ("table_values", ";".join(repr(float(v)) for v in res["table_values"])),
    ]
    return RunResult(_report(cfg, "verify-identity", items, passed), passed)


def _run_rotation_check(cfg: ExperimentConfig, threads: int) -> RunResult:
    mu = cfg.measure
    res = rotation_invariance_check(
        mu,
        _free_process(cfg.alpha, cfg.dim),
        np.array(cfg.x) if len(cfg.x) > 1 else cfg.x[0],
        np.array(cfg.q_matrix),
        cfg.horizons[0],
        cfg.n_paths,
        cfg.seed,
        cfg.dt,
        smoothing_eps=_auto_eps(cfg, mu),
        threads=threads,
    )
    items = [
        ("ghat_x", res["ghat_x"]),
        ("ghat_qx", res["ghat_qx"]),
        ("diff", res["diff"]),
        ("combined_stderr", res["combined_stderr"]),
        ("tolerance", "3 combined stderr"),
    ]
    return RunResult(_report(cfg, "rotation-check", items, res["passed"]), res["passed"])


def _run_decay_check(cfg: ExperimentConfig) -> RunResult:
    model = KernelModel(cfg.alpha, cfg.dim)
    try:
        chk = potential_decay_check(
            cfg.measure, model,
            radii=None if cfg.radii is None else np.array(cfg.radii),
            decay_fraction=cfg.decay_fraction,
            tol=cfg.tol,
        )
    except HypothesisViolated as e:
        items = [("hypothesis_violated", str(e))]
        return RunResult(_report(cfg, "decay-check", items, False), False)
    items = [
        ("radii", ";".join(repr(float(v)) for v in chk.radii)),
        ("values", ";".join(repr(float(v)) for v in chk.values)),
        ("decay_fraction", chk.decay_fraction),
        ("decreasing_from", chk.decreasing_from),
    ]
    return RunResult(_report(cfg, "decay-check", items, chk.passed), chk.passed)


def run_task(cfg: ExperimentConfig, threads: int = 1) -> RunResult:
    """Dispatch a validated config to its runner."""
    if cfg.task == "classify":
        return run_classify(cfg)
    if cfg.task == "potential":
        return run_potential(cfg)
    if cfg.task == "simulate":
        return run_simulate(cfg, threads)
    if cfg.task == "sweep":
        return run_sweep(cfg, threads)
    return run_verify(cfg, threads)
