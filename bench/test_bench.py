"""Tests of the benchmark itself: names, tiny runs, failure accounting, tracer."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_declared_names_are_well_formed_and_unique():
    names = _names("end_to_end") + _names("per_layer") + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in _names("end_to_end")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"]
    if workload != "analytic":
        assert result["failed"] == 0
        assert all(v["value"] != 0 for v in result["metrics"].values() if not trace)


def test_quadrature_failure_is_counted_not_raised(monkeypatch, tmp_path):
    from bigmeasure import experiments
    from bigmeasure.errors import NonConvergedQuadrature

    def fail(*args, **kwargs):
        raise NonConvergedQuadrature("shell average error estimate exceeds tolerance")

    monkeypatch.setattr(experiments, "riesz_potential", fail)
    ops, _ = workloads.build("analytic", 1, tiny=True)
    op = next(o for o in ops if o.kind == "potential")
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.config))
    outcome = run.run_op(op, path, 1)
    ledger = run.Ledger([op])
    verdict = ledger.record("pass0", op, outcome)
    assert outcome.code == 2
    assert verdict.failed and not verdict.incorrect
    assert "tolerance" in verdict.reason
    assert (ledger.attempted, ledger.failed, ledger.incorrect) == (1, 1, 0)


def test_oracles_reject_wrong_output():
    cfg = {"task": "sweep", "alpha": 1.5, "dim": 3, "measure": {"family": "sphere_series", "p": 2.0, "r": 1.0},
           "grid": {"p": [2.0]}}
    text = "# tool=x\np,alpha,dim,conclusion,rule,measure_id\n2.0,1.5,3,NonBig,r,m\n"
    assert workloads.check_sweep(cfg)(text).problems
    assert not workloads.check_sweep(cfg)(text.replace("NonBig", "Big")).problems
    cfg = {"task": "potential", "alpha": 2.0, "dim": 3, "measure": {"family": "power_weight", "p": -4.0}, "x": 0.0}
    text = "measure_id,x,value,abs_error,divergent,compact_part,terms_used\nm,0.0,np.float64(2.1),1e-12,False,1,1\n"
    assert workloads.check_potential(cfg, workloads.newton_power_m4)(text).problems
    text = text.replace("np.float64(2.1)", repr(workloads.newton_power_m4(0.0)))
    assert not workloads.check_potential(cfg, workloads.newton_power_m4)(text).problems


def test_tracer_records_spans_and_restores_names():
    import bigmeasure.experiments as experiments
    import bigmeasure.classifier as classifier
    from bigmeasure import PowerWeight

    original = classifier.classify
    tracer = Tracer()
    with tracer:
        assert experiments.classify is not original
        experiments.classify(PowerWeight(-1.0), 1.5, 3)
    assert experiments.classify is original and classifier.classify is original
    st = tracer.stats[("classifier.classify", "power_weight")]
    assert st.calls == 1 and st.seconds >= st.self_seconds >= 0.0
    name, tag, start, end, parent = tracer.spans[0]
    assert (name, parent) == ("classifier.classify", -1) and end >= start
