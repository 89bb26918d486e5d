"""Config validation, runners, CSV schemas, and CLI exit codes."""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigmeasure.cli import run_cli
from bigmeasure.errors import ConfigError, ParseError, ValidationError
from bigmeasure.experiments import (
    _COMMON_KEYS,
    TASK_TABLE,
    TASKS,
    GAUGE_COLUMNS,
    config_digest,
    load_config,
    measure_id,
    run_task,
    validate_config,
)
from bigmeasure.measures import FAMILIES, PowerWeight


def _rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _sim_config(**over):
    cfg = {
        "task": "simulate",
        "alpha": 2.0,
        "dim": 3,
        "measure": {"family": "power_weight", "p": -4.0},
        "seed": 91,
        "n_paths": 200,
        "dt": 0.05,
        "horizons": [2.0, 5.0],
        "x": [0.0, 0.0, 0.0],
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# validation


def test_validation_collects_every_problem():
    bad = {
        "task": "simulate",
        "alpha": 3.0,
        "dim": 3,
        "measure": {"family": "sphere_series", "radii": [1.0, 0.5], "r": 1.0},
        "dt": -0.1,
        "bogus": 1,
    }
    with pytest.raises(ValidationError) as exc:
        validate_config(bad)
    text = str(exc.value)
    assert "unknown key 'bogus'" in text
    assert "missing required key 'seed'" in text
    assert "missing required key 'n_paths'" in text
    assert "missing required key 'horizons'" in text
    assert "'alpha' must be in (0, 2]" in text
    assert "strictly increasing" in text
    assert "'dt' must be positive" in text


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"task": "classify",,}')
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert "line 1 column 21" in str(exc.value)


def test_top_level_and_task_checks():
    with pytest.raises(ValidationError):
        validate_config([1, 2, 3])
    with pytest.raises(ValidationError) as exc:
        validate_config({"task": "frobnicate"})
    assert "'task' must be one of" in str(exc.value)


def test_potential_needs_x_xor_radii():
    base = {"task": "potential", "alpha": 2.0, "dim": 3,
            "measure": {"family": "power_weight", "p": -4.0}}
    with pytest.raises(ValidationError, match="exactly one of 'x' or 'radii'"):
        validate_config(base)
    with pytest.raises(ValidationError, match="exactly one of 'x' or 'radii'"):
        validate_config({**base, "x": 1.0, "radii": [1.0, 2.0]})
    validate_config({**base, "x": 1.0})
    validate_config({**base, "radii": [1.0, 2.0]})


def test_verify_identity_prerequisites():
    cfg = {
        "task": "verify-identity",
        "alpha": 1.5,
        "dim": 3,
        "measure": {"family": "power_weight", "p": -4.0},
        "seed": 1,
        "n_paths": 10,
        "dt": 0.01,
        "horizon": 1.0,
        "x": [0.0, 0.0, 0.0],
    }
    with pytest.raises(ValidationError) as exc:
        validate_config(cfg)
    text = str(exc.value)
    assert "alpha = 2" in text
    assert "boundary_power" in text
    ok = {**cfg, "alpha": 2.0, "measure": {"family": "boundary_power", "r": 0.5}}
    validate_config(ok)


_IDENTITY = {"task": "verify-identity", "alpha": 2.0, "dim": 3,
             "measure": {"family": "boundary_power", "r": 0.5}, "coupling": 0.1,
             "seed": 1, "n_paths": 10, "dt": 0.01, "horizon": 1.0, "x": [0.0, 0.0, 0.0]}
_ROTATION = {"task": "rotation-check", "alpha": 2.0, "dim": 3,
             "measure": {"family": "power_weight", "p": -2.0},
             "seed": 7, "n_paths": 10, "dt": 0.05, "horizon": 1.0, "x": [1.0, 0.0, 0.0],
             "q_matrix": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}


@pytest.mark.parametrize("cfg", [_IDENTITY, _ROTATION], ids=["verify-identity", "rotation-check"])
def test_stderr_checks_need_two_paths(tmp_path, capsys, cfg):
    # one path has no standard error: a collected error and exit 2, not z=nan and exit 1
    with pytest.raises(ValidationError, match=f"'n_paths' must be >= 2 for task {cfg['task']}"):
        validate_config({**cfg, "n_paths": 1})
    path = _write(tmp_path, "v.json", {**cfg, "n_paths": 1})
    assert run_cli(["verify", "--config", path]) == 2
    assert "'n_paths' must be >= 2" in capsys.readouterr().err
    validate_config({**cfg, "n_paths": 2})


def test_verify_identity_needs_positive_coupling():
    # with coupling 0 every sample is exactly 1, so the combined stderr is 0 and z is 0/0
    with pytest.raises(ValidationError, match="'coupling' must be positive for task verify-identity"):
        validate_config({**_IDENTITY, "coupling": 0.0})


def test_verify_identity_dt_must_fit_the_half_horizon(tmp_path, capsys):
    # the identity runs checkpoints at T/2 and T; dt above T/2 failed only at run time
    with pytest.raises(ValidationError, match="'dt' must not exceed horizon/2 for task verify-identity"):
        validate_config({**_IDENTITY, "dt": 0.6})
    path = _write(tmp_path, "v.json", {**_IDENTITY, "dt": 0.6})
    assert run_cli(["verify", "--config", path]) == 2
    assert "horizon/2" in capsys.readouterr().err
    validate_config({**_IDENTITY, "dt": 0.5})


def test_horizons_snapping_to_one_step_are_collected(tmp_path, capsys):
    # 0.5 and 0.52 both snap to step 5 at dt = 0.1; this failed only at run time
    bad = _sim_config(horizons=[0.5, 0.52], dt=0.1)
    with pytest.raises(ValidationError, match="'horizons' 0.5 and 0.52 snap to the same time step at dt=0.1"):
        validate_config(bad)
    assert run_cli(["simulate", "--config", _write(tmp_path, "s.json", bad)]) == 2
    assert "snap to the same time step" in capsys.readouterr().err
    validate_config(_sim_config(horizons=[0.5, 0.6], dt=0.1))


def test_grid_parameter_rules():
    base = {"task": "sweep", "alpha": 1.5, "dim": 3,
            "measure": {"family": "sphere_series", "p": 2.0, "r": 1.0}}
    with pytest.raises(ValidationError, match="does not apply to family"):
        validate_config({**base, "grid": {"q": [1.0, 2.0]}})
    with pytest.raises(ValidationError, match="must be in \\(0, 2\\]"):
        validate_config({**base, "grid": {"alpha": [1.5, 2.5]}})
    tabulated = {**base, "measure": {"family": "sphere_series",
                                     "radii": [1.0, 2.0, 4.0], "tail_exponent": 1.0,
                                     "r": 1.0}}
    with pytest.raises(ValidationError, match="parametric"):
        validate_config({**tabulated, "grid": {"p": [1.0, 2.0]}})
    with pytest.raises(ValidationError, match="one or two parameter"):
        validate_config({**base, "grid": {}})


def test_process_key_is_rejected(tmp_path, capsys):
    # alpha and dim fix the process; a 'process' key is an unknown key
    for task, cfg in (
        ("simulate", _sim_config(process={"kind": "brownian", "alpha": "x"})),
        ("sweep", {"task": "sweep", "alpha": 1.5, "dim": 3, "grid": {"p": [-2.0, -1.0]},
                   "measure": {"family": "power_weight", "p": -1.0},
                   "process": {"kind": "stable", "alpha": "x"}}),
        ("rotation-check", {"task": "rotation-check", "alpha": 1.5, "dim": 3,
                            "measure": {"family": "power_weight", "p": -4.0}, "seed": 1,
                            "n_paths": 10, "dt": 0.1, "horizon": 1.0, "x": 1.0,
                            "q_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            "process": {"kind": "stable", "alpha": 1.5, "dim": 3}}),
    ):
        with pytest.raises(ValidationError, match=f"unknown key 'process' for task {task}"):
            validate_config(cfg)
    path = _write(tmp_path, "sim.json", _sim_config(process={"kind": "brownian", "alpha": "x"}))
    assert run_cli(["simulate", "--config", path]) == 2
    assert "unknown key 'process' for task simulate" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["seed", "n_paths", "dim", "table_paths"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_integer_keys_are_collected(key, value):
    cfg = {"task": "verify-identity", "alpha": 2.0, "dim": 3,
           "measure": {"family": "boundary_power", "r": 0.5}, "seed": 1, "n_paths": 10,
           "dt": 0.01, "horizon": 1.0, "x": 0.0, "table_paths": 4, key: value}
    with pytest.raises(ValidationError, match=f"'{key}' must be a finite number"):
        validate_config(cfg)


def test_integer_keys_reject_fractions_but_take_integral_floats():
    with pytest.raises(ValidationError, match="'dim' must be an integer, got 2.5"):
        validate_config(_sim_config(dim=2.5, x=0.0))
    with pytest.raises(ValidationError, match="'n_paths' must be an integer, got 10.9"):
        validate_config(_sim_config(n_paths=10.9))
    cfg = validate_config(_sim_config(dim=3.0, n_paths=200.0, seed=91.0))
    assert (cfg.dim, cfg.n_paths, cfg.seed) == (3, 200, 91)
    assert all(type(v) is int for v in (cfg.dim, cfg.n_paths, cfg.seed))


def test_nonfinite_numbers_in_lists_and_measures_are_collected():
    for over, msg in (
        ({"x": [1.0, 2.0, math.nan]}, "'x' must be a number"),
        ({"horizons": [1.0, math.inf]}, "'horizons' must be a nonempty list"),
        ({"measure": {"family": "power_weight", "p": math.nan}}, "must be finite"),
        ({"measure": {"family": "power_weight", "p": 10**400}}, "must be finite"),
        ({"alpha": math.nan}, "'alpha' must be a finite number"),
    ):
        with pytest.raises(ValidationError, match=msg):
            validate_config(_sim_config(**over))


def test_grid_with_unhashable_family_is_collected():
    cfg = {"task": "sweep", "alpha": 1.5, "dim": 3, "measure": {"family": {}},
           "grid": {"p": [1.0, 2.0]}}
    with pytest.raises(ValidationError, match="measure.family must be one of"):
        validate_config(cfg)


_FAMILIES = ["power_weight", "annulus_series", "sphere_series", "boundary_power"]
_MEASURE_KEYS = ["family", "p", "q", "r", "radius", "growth", "gap", "radii",
                 "tail_exponent", "exponent", "table"]
_CONFIG_KEYS = sorted(_COMMON_KEYS.union(*(t.allowed for t in TASK_TABLE.values())))
_json_leaf = (
    st.none() | st.booleans() | st.integers(-(10**20), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4) | st.sampled_from(_FAMILIES + list(TASKS))
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_MEASURE_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_measure = st.fixed_dictionaries(
    {"family": st.sampled_from(_FAMILIES) | _json},
    optional={k: _json for k in _MEASURE_KEYS if k != "family"},
)
_config = st.fixed_dictionaries(
    {"task": st.sampled_from(TASKS) | _json},
    optional={k: (_measure if k == "measure" else _json) for k in _CONFIG_KEYS if k != "task"},
)


@settings(max_examples=200, deadline=None)
@given(raw=_config | _json)
def test_validate_config_raises_only_config_errors(raw):
    try:
        validate_config(raw)
    except ConfigError:
        pass


_SMALL = st.floats(-3.0, 3.0, allow_nan=False)
_MEASURES = {
    "power_weight": st.fixed_dictionaries({"p": _SMALL}),
    "annulus_series": st.fixed_dictionaries(
        {"p": st.floats(0.25, 3.0), "q": st.floats(0.5, 5.0), "r": st.floats(0.0, 3.0)}),
    "sphere_series": st.fixed_dictionaries({"p": st.floats(0.25, 4.0), "r": _SMALL}),
    "boundary_power": st.fixed_dictionaries(
        {"r": st.floats(0.0, 3.0)}, optional={"radius": st.floats(0.25, 2.0)}),
}
_GRID_VALUES = {"p": _SMALL, "q": st.floats(0.5, 5.0), "r": st.floats(0.0, 3.0),
                "alpha": st.floats(0.1, 2.0)}


@st.composite
def _runnable_config(draw):
    """A small config of any task: n_paths <= 8, horizons <= 1, dt >= 0.05."""
    task = draw(st.sampled_from(TASKS))
    dim = draw(st.integers(1, 5))
    family = draw(st.sampled_from(sorted(_MEASURES)))
    cfg = {"task": task, "alpha": draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]) | st.floats(0.1, 2.0)),
           "dim": dim, "measure": {"family": family, **draw(_MEASURES[family])}}
    coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    point = st.floats(0.0, 3.0) | coords
    dt = draw(st.floats(0.05, 0.5))
    horizons = sorted(draw(st.sets(st.floats(dt, 1.0), min_size=1, max_size=2)))
    mc = {"seed": draw(st.integers(0, 2**63)), "n_paths": draw(st.integers(1, 8)), "dt": dt,
          "x": draw(point)}
    if family == "sphere_series" or draw(st.booleans()):
        mc["smoothing_eps"] = draw(st.floats(0.01, 0.5))
    if task == "potential":
        cfg.update({"x": draw(point)} if draw(st.booleans())
                   else {"radii": sorted(draw(st.sets(st.floats(0.1, 8.0), min_size=1, max_size=3)))})
    elif task == "decay-check" and draw(st.booleans()):
        cfg["radii"] = sorted(draw(st.sets(st.floats(0.5, 64.0), min_size=2, max_size=4)))
    elif task == "simulate":
        cfg.update(mc, horizons=horizons, coupling=draw(st.floats(0.0, 2.0)))
    elif task == "sweep":
        legal = sorted(FAMILIES[family].grid_params)
        names = draw(st.lists(st.sampled_from(legal), min_size=1, max_size=2, unique=True))
        cfg["grid"] = {n: draw(st.lists(_GRID_VALUES[n], min_size=1, max_size=3)) for n in names}
        if draw(st.booleans()):
            cfg.update(mc, simulate=True, horizon=horizons[-1])
    elif task == "verify-identity":
        cfg.update(alpha=2.0, dim=3, measure={"family": "boundary_power", "r": draw(st.floats(0.0, 0.9))})
        mc.pop("smoothing_eps", None)
        mc["x"] = draw(st.floats(0.0, 0.9))
        cfg.update(mc, horizon=horizons[-1], table_paths=draw(st.integers(2, 4)),
                   coupling=draw(st.floats(0.0, 1.0)))
    elif task == "rotation-check":
        perm = draw(st.permutations(range(dim)))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
        cfg.update(mc, horizon=horizons[-1],
                   q_matrix=[[signs[i] if j == perm[i] else 0.0 for j in range(dim)] for i in range(dim)])
    return cfg


@settings(max_examples=60, deadline=None)
@given(cfg=_runnable_config())
def test_run_cli_on_valid_configs_never_crashes(cfg, tmp_path_factory):
    try:
        validate_config(cfg)
    except ValidationError:
        assume(False)
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([TASK_TABLE[cfg["task"]].commands[0], "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_digest_ignores_output_path():
    raw = _sim_config()
    assert config_digest(raw) == config_digest({**raw, "out": "elsewhere.csv"})
    assert config_digest(raw) != config_digest(_sim_config(seed=92))


def test_measure_id_tracks_params():
    assert measure_id(PowerWeight(-4.0)) == measure_id(PowerWeight(-4.0))
    assert measure_id(PowerWeight(-4.0)) != measure_id(PowerWeight(-3.0))
    assert measure_id(PowerWeight(-4.0)).startswith("power_weight-")


# ---------------------------------------------------------------------------
# runners


def test_classify_runner_row():
    cfg = validate_config({"task": "classify", "alpha": 1.5, "dim": 3,
                           "measure": {"family": "sphere_series", "p": 2.0, "r": 1.0}})
    res = run_task(cfg)
    assert res.ok
    assert res.text.startswith("# tool=bigmeasure")
    (row,) = _rows(res.text)
    assert row["conclusion"] == "Big"
    assert row["rule"] == "sphere-mass-series"
    assert json.loads(row["params"])["radii"] == {"power": 2.0}


def test_sweep_sphere_threshold():
    # r = 1, alpha = 1.5: mass exponent p(alpha - 1 - r) >= -1 iff p <= 2
    cfg = validate_config({"task": "sweep", "alpha": 1.5, "dim": 3,
                           "measure": {"family": "sphere_series", "p": 1.6, "r": 1.0},
                           "grid": {"p": [1.6, 1.8, 2.0, 2.2, 2.4]}})
    res = run_task(cfg)
    got = [row["conclusion"] for row in _rows(res.text)]
    assert got == ["Big", "Big", "Big", "NonBig", "NonBig"]
    assert "threshold: Big -> NonBig between p=2.0 and p=2.2" in res.report


def test_sweep_radial_threshold():
    cfg = validate_config({"task": "sweep", "alpha": 2.0, "dim": 3,
                           "measure": {"family": "power_weight", "p": 0.0},
                           "grid": {"p": [-3.0, -2.0, -1.0, 0.0]}})
    res = run_task(cfg)
    got = [row["conclusion"] for row in _rows(res.text)]
    assert got == ["NonBig", "Big", "Big", "Big"]


def test_sweep_two_axes_annulus():
    cfg = validate_config({"task": "sweep", "alpha": 1.5, "dim": 3,
                           "measure": {"family": "annulus_series", "p": 1.0, "q": 2.0, "r": 0.0},
                           "grid": {"p": [0.5, 1.0], "q": [2.0, 2.5, 3.0]}})
    res = run_task(cfg)
    rows = _rows(res.text)
    assert [r["conclusion"] for r in rows] == ["NonBig", "NonBig", "NonBig", "Big", "Big", "NonBig"]
    assert "threshold at p=1.0: Big -> NonBig between q=2.5 and q=3.0" in res.report


def test_simulate_schema_and_thread_independence():
    cfg = validate_config(_sim_config())
    r1 = run_task(cfg, threads=1)
    r3 = run_task(cfg, threads=3)
    assert r1.text == r3.text
    lines = r1.text.splitlines()
    assert lines[0] == "# tool=bigmeasure 0.1.0"
    assert lines[1].startswith("# config_sha256=")
    assert lines[2] == "# seed=91"
    assert lines[3] == ",".join(GAUGE_COLUMNS)
    rows = _rows(r1.text)
    assert [row["T"] for row in rows] == ["2.0", "5.0"]
    for row in rows:
        assert row["n_paths"] == "200"
        assert row["seed"] == "91"
        assert 0.0 < float(row["ghat"]) <= 1.0


def test_boundary_power_simulate_bytes_do_not_depend_on_threads(tmp_path):
    # Brownian in d = 3 on a ball measure takes the excursion skip
    cfg = _sim_config(measure={"family": "boundary_power", "r": 0.5}, x=[1.5, 0.0, 0.0],
                      horizons=[5.0, 50.0], n_paths=300, dt=0.02)
    path = _write(tmp_path, "b.json", cfg)
    for threads in ("1", "2"):
        out = str(tmp_path / f"t{threads}.csv")
        assert run_cli(["simulate", "--config", path, "--threads", threads, "--out", out]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_sweep_mc_column_deterministic():
    raw = {"task": "sweep", "alpha": 2.0, "dim": 3,
           "measure": {"family": "power_weight", "p": 0.0},
           "grid": {"p": [-3.0, -1.0]},
           "simulate": True, "seed": 5, "n_paths": 80, "dt": 0.05,
           "horizon": 3.0, "x": [0.0, 0.0, 0.0]}
    cfg = validate_config(raw)
    r1 = run_task(cfg, threads=1)
    r3 = run_task(cfg, threads=3)
    assert r1.text == r3.text
    rows = _rows(r1.text)
    # NonBig point should sit well above the Big one at T = 3
    assert float(rows[0]["ghat"]) > float(rows[1]["ghat"])


def test_rotation_check_runner():
    cfg = validate_config({"task": "rotation-check", "alpha": 2.0, "dim": 3,
                           "measure": {"family": "power_weight", "p": -2.0},
                           "seed": 7, "n_paths": 300, "dt": 0.05, "horizon": 2.0,
                           "x": [1.0, 0.0, 0.0],
                           "q_matrix": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]})
    res = run_task(cfg)
    assert res.ok
    assert "result=PASS" in res.text


def test_decay_check_runner_outcomes():
    passing = validate_config({"task": "decay-check", "alpha": 2.0, "dim": 3,
                               "measure": {"family": "power_weight", "p": -4.0}})
    res = run_task(passing)
    assert res.ok and "result=PASS" in res.text
    # alpha <= 1 breaks the hypothesis; reported as a failed check, not a crash
    broken = validate_config({"task": "decay-check", "alpha": 0.9, "dim": 3,
                              "measure": {"family": "power_weight", "p": -4.0}})
    res = run_task(broken)
    assert not res.ok
    assert "hypothesis_violated" in res.text


# ---------------------------------------------------------------------------
# CLI


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_classify_ok(tmp_path, capsys):
    path = _write(tmp_path, "c.json", {"task": "classify", "alpha": 2.0, "dim": 3,
                                       "measure": {"family": "power_weight", "p": -1.0}})
    assert run_cli(["classify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "Big" in out


def test_cli_exit_two_on_bad_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run_cli(["classify", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_exit_two_on_command_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "sim.json", _sim_config())
    assert run_cli(["sweep", "--config", path]) == 2
    assert "does not belong" in capsys.readouterr().err


# one small config per task in the table
_TASK_CONFIGS = {
    "classify": {"task": "classify", "alpha": 2.0, "dim": 3,
                 "measure": {"family": "power_weight", "p": -4.0}},
    "potential": {"task": "potential", "alpha": 2.0, "dim": 3,
                  "measure": {"family": "power_weight", "p": -4.0}, "radii": [1.0]},
    "simulate": _sim_config(n_paths=4, dt=0.1, horizons=[1.0]),
    "sweep": {"task": "sweep", "alpha": 2.0, "dim": 3, "measure": {"family": "power_weight", "p": 0.0},
              "grid": {"p": [-3.0, -1.0]}},
    "verify-identity": {**_IDENTITY, "n_paths": 4, "table_paths": 2},
    "rotation-check": {**_ROTATION, "n_paths": 4},
    "decay-check": {"task": "decay-check", "alpha": 2.0, "dim": 3,
                    "measure": {"family": "power_weight", "p": -4.0}},
}
_COMMANDS = list(dict.fromkeys(c for t in TASK_TABLE.values() for c in t.commands))


def test_task_table_maps_commands_to_tasks():
    assert list(_TASK_CONFIGS) == list(TASK_TABLE) == list(TASKS)
    assert _COMMANDS == ["classify", "potential", "simulate", "sweep", "verify", "decay-check"]
    assert {task: spec.commands for task, spec in TASK_TABLE.items()} == {
        "classify": ("classify",), "potential": ("potential",), "simulate": ("simulate",),
        "sweep": ("sweep",), "verify-identity": ("verify",), "rotation-check": ("verify",),
        "decay-check": ("verify", "decay-check"),
    }


@pytest.mark.parametrize("command", _COMMANDS)
def test_cli_command_runs_exactly_its_own_tasks(tmp_path, capsys, command):
    for task, cfg in _TASK_CONFIGS.items():
        path = _write(tmp_path, f"{task}.json", cfg)
        code = run_cli([command, "--config", path])
        captured = capsys.readouterr()
        if command in TASK_TABLE[task].commands:
            res = run_task(validate_config(cfg))
            assert code == (0 if res.ok else 1), (task, captured.err)
            assert captured.out == res.text + (res.report or "")
        else:
            assert code == 2
            assert captured.out == ""
            assert captured.err == (
                f"error: config task '{task}' does not belong to command '{command}'\n")


def test_cli_parser_errors_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "c.json", _TASK_CONFIGS["classify"])
    for argv in (["nope", "--config", path], ["classify"], []):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert "the following arguments are required: --config" in err


def test_cli_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in _COMMANDS:
        assert command in out
    assert "verify       verify-identity, rotation-check, decay-check" in out


def test_cli_options_may_come_before_the_command(tmp_path, capsys):
    path = _write(tmp_path, "c.json", _TASK_CONFIGS["classify"])
    assert run_cli(["--config", path, "classify"]) == 0
    before = capsys.readouterr().out
    assert run_cli(["classify", "--config", path]) == 0
    assert capsys.readouterr().out == before


def test_cli_seed_override_on_a_malformed_task_is_a_validation_error(tmp_path, capsys):
    path = _write(tmp_path, "t.json", {"task": [1], "alpha": 2.0})
    assert run_cli(["classify", "--config", path, "--seed", "3"]) == 2
    assert "'task' must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("asked, passed", [("0", 1), ("1", 1), ("-3", 1), ("1000000", None)])
def test_cli_threads_are_capped_at_the_cpu_count(tmp_path, capsys, monkeypatch, asked, passed):
    # run_task is replaced, so no thread starts whatever the request
    import os

    import bigmeasure.cli as cli_mod

    seen = []

    def record(cfg, threads=1):
        seen.append(threads)
        raise ValueError("recorded")

    monkeypatch.setattr(cli_mod, "run_task", record)
    path = _write(tmp_path, "s.json", _TASK_CONFIGS["simulate"])
    assert run_cli(["simulate", "--config", path, "--threads", asked]) == 2
    assert seen == [(os.cpu_count() or 1) if passed is None else passed]


def test_cli_far_probe_is_a_clean_error(tmp_path, capsys):
    # |x| = 1e200 squares past the float range; the probe radius must not
    # (the suite turns numpy's overflow warning into an error)
    path = _write(tmp_path, "p.json", {"task": "potential", "alpha": 2.0, "dim": 3,
                                       "measure": {"family": "power_weight", "p": -4.0},
                                       "radii": [1e200]})
    assert run_cli(["potential", "--config", path]) == 2
    assert "probe radius 1e+200 is too far out" in capsys.readouterr().err


_SWEEP_MC = {"task": "sweep", "alpha": 1.5, "dim": 3, "measure": {"family": "power_weight", "p": -4.0},
             "grid": {"p": [-4.0, -3.0]}, "simulate": True, "seed": 3, "n_paths": 4, "dt": 0.1,
             "horizon": 1.0, "x": [0.0, 0.0, 0.0]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg", [_sim_config(), _SWEEP_MC, _ROTATION, _IDENTITY],
                         ids=["simulate", "sweep-mc", "rotation-check", "verify-identity"])
def test_cli_far_start_is_a_clean_error(tmp_path, capsys, cfg):
    # |x| = 1e200 squares past the float range: a collected validation error
    # before any path is walked, never an overflow warning and a gauge of 1
    command = TASK_TABLE[cfg["task"]].commands[0]
    for x in ([1e200, 0.0, 0.0], 1e200):
        path = _write(tmp_path, "far.json", {**cfg, "x": x})
        assert run_cli([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "'x': start radius 1e+200 is too far out" in err
        assert "Warning" not in err
    # a sweep without its MC column walks no path, so its 'x' is not checked
    if cfg["task"] == "sweep":
        validate_config({**cfg, "simulate": False, "x": 1e200})


def test_cli_unresolvable_shells_stop_before_any_path(tmp_path, capsys, monkeypatch):
    # radii n^0.01 within reach of 1000 time units: the shell gaps fall below
    # float resolution, so no default smoothing eps exists
    import bigmeasure.experiments as experiments_mod

    def walked(*args, **kwargs):
        raise AssertionError("a path was walked")

    monkeypatch.setattr(experiments_mod, "estimate_gauge", walked)
    cfg = _sim_config(measure={"family": "sphere_series", "p": 0.01, "r": 1.0}, alpha=1.5,
                      horizons=[1000.0], dt=1.0, n_paths=200)
    assert run_cli(["simulate", "--config", _write(tmp_path, "s.json", cfg)]) == 2
    assert "below float resolution" in capsys.readouterr().err


def test_cli_exit_one_on_failed_check(tmp_path, capsys):
    # p close to the divergence edge decays too slowly for the default fraction
    path = _write(tmp_path, "d.json", {"task": "decay-check", "alpha": 2.0, "dim": 3,
                                       "measure": {"family": "power_weight", "p": -2.1}})
    assert run_cli(["decay-check", "--config", path]) == 1
    assert "result=FAIL" in capsys.readouterr().out


def test_cli_writes_files_and_overrides_seed(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    cfg = _sim_config(n_paths=60, horizons=[1.0], out=str(out_a))
    path = _write(tmp_path, "sim.json", cfg)
    assert run_cli(["simulate", "--config", path, "--threads", "2"]) == 0
    capsys.readouterr()
    out_b = tmp_path / "b.csv"
    assert run_cli(["simulate", "--config", path, "--seed", "17",
                    "--out", str(out_b)]) == 0
    capsys.readouterr()
    text_a = out_a.read_text()
    text_b = out_b.read_text()
    assert "# seed=91" in text_a
    assert "# seed=17" in text_b
    assert _rows(text_a)[0]["ghat"] != _rows(text_b)[0]["ghat"]


def test_cli_verify_command_accepts_decay_task(tmp_path, capsys):
    path = _write(tmp_path, "d.json", {"task": "decay-check", "alpha": 2.0, "dim": 3,
                                       "measure": {"family": "power_weight", "p": -4.0}})
    assert run_cli(["verify", "--config", path]) == 0
    assert "result=PASS" in capsys.readouterr().out


def test_cli_sweep_writes_report(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    path = _write(tmp_path, "s.json",
                  {"task": "sweep", "alpha": 1.5, "dim": 3,
                   "measure": {"family": "sphere_series", "p": 1.6, "r": 1.0},
                   "grid": {"p": [1.6, 2.4]}, "out": str(out)})
    assert run_cli(["sweep", "--config", path]) == 0
    capsys.readouterr()
    assert out.exists()
    report = tmp_path / "sweep.csv.report.txt"
    assert "threshold" in report.read_text()


def test_cli_overlapping_parametric_windows_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "c.json", {"task": "classify", "alpha": 1.5, "dim": 3,
                                       "measure": {"family": "annulus_series",
                                                   "p": 1, "q": 0.5, "r": 0}})
    assert run_cli(["classify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "annulus windows overlap (first violation at n=2, mode=analytic)" in err


def test_cli_malformed_sequence_exit_two(tmp_path, capsys):
    measure = {"family": "annulus_series", "growth": {"exponent": "x"},
               "gap": {"table": [0.5, "y"]}, "r": 0.0}
    path = _write(tmp_path, "c.json", {"task": "classify", "alpha": 1.5, "dim": 3,
                                       "measure": measure})
    assert run_cli(["classify", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "measure: growth:" in err and "gap:" in err


def test_numbers_are_written_as_plain_floats():
    # numpy scalars must print as their shortest round-trip float, not np.float64(x)
    pot = run_task(validate_config({"task": "potential", "alpha": 2.0, "dim": 3,
                                    "measure": {"family": "power_weight", "p": -4.0},
                                    "radii": [0.5, 1.0]}))
    fields = [row[k] for row in _rows(pot.text) for k in ("x", "value", "abs_error", "compact_part")]
    ver = run_task(validate_config({"task": "verify-identity", "alpha": 2.0, "dim": 3,
                                    "measure": {"family": "boundary_power", "r": 0.5},
                                    "coupling": 0.1, "x": [0.0, 0.0, 0.0], "horizon": 1.0,
                                    "n_paths": 8, "dt": 0.05, "table_paths": 2, "seed": 3}))
    items = dict(line.split("=", 1) for line in ver.text.splitlines() if not line.startswith("#"))
    for key in ("lhs", "rhs", "ghat", "ghat_stderr", "potential_term", "combined_stderr", "z"):
        fields.append(items[key])
    fields += items["table_radii"].split(";") + items["table_values"].split(";")
    for field in fields:
        float(field)


@pytest.mark.parametrize("x", [6.0, 7.0, 8.0])
def test_cli_d5_annulus_probe_at_window_edge(tmp_path, capsys, x):
    # these radii sit a hair inside a window; the shell average there is
    # near-coincident and must come out finite, not as a quadrature failure
    path = _write(tmp_path, "p.json", {"task": "potential", "alpha": 1.5, "dim": 5,
                                       "measure": {"family": "annulus_series",
                                                   "p": 1.0, "q": 3.0, "r": 0.0},
                                       "x": x})
    assert run_cli(["potential", "--config", path]) == 0
    row = _rows(capsys.readouterr().out)[0]
    assert row["divergent"] == "False"
    assert 0.0 < float(row["value"]) < float("inf")


def test_cli_crash_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    import bigmeasure.cli as cli_mod

    def crash(cfg, threads=1):
        raise ZeroDivisionError("0.0 cannot be raised to a negative power")

    monkeypatch.setattr(cli_mod, "run_task", crash)
    path = _write(tmp_path, "c.json", {"task": "classify", "alpha": 2.0, "dim": 3,
                                       "measure": {"family": "power_weight", "p": -1.0}})
    assert run_cli(["classify", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: ZeroDivisionError: 0.0 cannot be raised to a negative power\n"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("radii, conclusion", [
    ({"exponent": 2.0}, "Big"),
    ({"exponent": 4.0}, "NonBig"),
    ({"table": [1.0, 4.0, 9.0, 16.0], "tail_exponent": 2.0}, "Big"),
    ({"table": [1.0, 4.0, 9.0, 16.0]}, "Inconclusive"),
    ([1.0, 4.0, 9.0, 16.0], "Inconclusive"),
])
def test_cli_sphere_radii_forms(tmp_path, capsys, radii, conclusion):
    # p_bound = 1 / (r - alpha + 1) = 2 at r = 1, alpha = 1.5
    path = _write(tmp_path, "c.json", {"task": "classify", "alpha": 1.5, "dim": 3,
                                       "measure": {"family": "sphere_series",
                                                   "radii": radii, "r": 1.0}})
    assert run_cli(["classify", "--config", path]) == 0
    assert _rows(capsys.readouterr().out)[0]["conclusion"] == conclusion


def test_sphere_radii_object_matches_parametric():
    spec = {"task": "classify", "alpha": 1.5, "dim": 3,
            "measure": {"family": "sphere_series", "radii": {"exponent": 2.0}, "r": 1.0}}
    as_object = validate_config(spec).measure
    spec["measure"] = {"family": "sphere_series", "p": 2.0, "r": 1.0}
    assert as_object == validate_config(spec).measure


def test_sphere_radii_object_form_errors_are_collected():
    for radii, msg in (({"exponent": "x"}, "measure: radii:"),
                       ({"table": [1.0, 2.0], "bogus": 1}, "measure: radii: keys must be")):
        with pytest.raises(ValidationError) as exc:
            validate_config({"task": "classify", "alpha": 1.5, "dim": 3,
                             "measure": {"family": "sphere_series", "radii": radii, "r": 1.0}})
        assert msg in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        validate_config({"task": "classify", "alpha": 1.5, "dim": 3,
                         "measure": {"family": "sphere_series", "radii": {"exponent": 2.0},
                                     "tail_exponent": 1.0, "r": 1.0}})
    assert "unknown key 'tail_exponent'" in str(exc.value)
