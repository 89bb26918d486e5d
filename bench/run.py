"""Benchmark runner for bigmeasure.

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Runs one workload (see bench/README.md) from the checkout's ``src/`` in one
process.  Set-up time is the median over fresh processes that import the
package and validate the workload's configs.  Then the op list runs in
passes, at one thread, until ``--seconds`` have gone by; every op's output
is checked by its oracle and must repeat byte for byte in every pass.  With
``--trace 1`` untraced and traced passes alternate and the per-layer table
is reported instead of the end-to-end metrics.  Monte Carlo workloads rerun
one op at two threads and require identical bytes.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A record with provenance, every failure and the per-layer
table goes to ``.bench_out/``.  Exit code 0 means the run completed, even
when ops failed; 2 means the benchmark could not run at all.
"""

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# One BLAS/OpenMP thread, so the process uses at most the two threads it asks
# for; set before numpy loads, inherited by the set-up processes.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROCESSES = 7
FAMILIES = ("power_weight", "annulus_series", "sphere_series", "boundary_power")
DIMS = ("d3", "d5")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, set-up failed)."""


# ---------------------------------------------------------------------------
# set-up: fresh-process import plus config validation


def setup_child(workdir: Path) -> None:
    """Entry point of one set-up process: time the import and the validation."""
    sys.path.insert(0, str(SRC))
    paths = sorted(workdir.glob("*.json"))
    t0 = time.perf_counter()
    import bigmeasure.cli  # noqa: F401
    from bigmeasure import experiments
    t1 = time.perf_counter()
    for path in paths:
        experiments.validate_config(experiments.read_config(path))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "validate_s": t2 - t1, "configs": len(paths)}))


def measure_setup(workdir: Path, processes: int) -> list:
    runs = []
    for _ in range(processes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def import_package():
    sys.path.insert(0, str(SRC))
    import bigmeasure
    if Path(bigmeasure.__file__).resolve().parent != (SRC / "bigmeasure").resolve():
        raise BenchError(f"bigmeasure imported from {bigmeasure.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# running and judging ops


@dataclass
class OpRun:
    seconds: float
    code: object      # exit code, or None when the op raised
    text: str
    error: str


@dataclass
class Judged:
    failed: bool
    incorrect: bool
    reason: str
    checked: object


def run_op(op, config_path, threads: int) -> OpRun:
    from bigmeasure import cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if op.command is not None:
                code = cli.run_cli([op.command, "--config", str(config_path), "--threads", str(threads)])
            else:
                out.write(op.call(threads))
                code = 0
        except Exception as e:  # a crash is one failed op, never the end of the run
            error = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
    if code == 2:
        error = err.getvalue().strip().splitlines()[-1] if err.getvalue().strip() else "exit 2"
    return OpRun(seconds, code, out.getvalue(), error)


def judge(op, run: OpRun) -> Judged:
    """Failed: exception, exit 2, exit 1, or oracle miss.  Incorrect: the last two."""
    if run.code is None or run.code == 2:
        return Judged(True, False, run.error, None)
    try:
        checked = op.check(run.text)
    except (ValueError, KeyError, IndexError, StopIteration) as e:
        return Judged(True, True, f"unparsable output: {type(e).__name__}: {e}", None)
    if run.code == 1:
        return Judged(True, True, "unexpected exit 1: " + "; ".join(checked.problems), checked)
    if checked.problems:
        return Judged(True, True, "; ".join(checked.problems[:3]), checked)
    return Judged(False, False, "", checked)


class Ledger:
    """Every op run of this process, with its verdict."""

    def __init__(self, ops):
        self.ops = ops
        self.first = {}        # key -> (OpRun, Judged) of the first pass
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures = []

    def record(self, label, op, run: OpRun) -> Judged:
        first = self.first.get(op.key)
        if first is None:
            verdict = judge(op, run)
            self.first[op.key] = (run, verdict)
        elif (run.code, run.text, run.error) == (first[0].code, first[0].text, first[0].error):
            verdict = first[1]
        else:
            verdict = Judged(True, True, "output differs from the first 1-thread pass", None)
        self.attempted += 1
        if verdict.failed:
            self.failed += 1
            self.incorrect += verdict.incorrect
            self.failures.append({"pass": label, "op": op.key, "reason": verdict.reason})
        return verdict

    def run_pass(self, label, paths, times):
        """Run every op (op.repeat times) at one thread; append each run's seconds to times[key]."""
        for op in self.ops:
            for _ in range(op.repeat):
                gc.collect()  # every run starts from the same heap state, outside its timing
                run = run_op(op, paths.get(op.key), 1)
                self.record(label, op, run)
                times[op.key].append(run.seconds)

    def checked(self, op):
        """The oracle's findings for op, or None when its first run failed."""
        verdict = self.first[op.key][1]
        return None if verdict.failed else verdict.checked


# ---------------------------------------------------------------------------
# metrics


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def median_seconds(times):
    return {key: statistics.median(ts) for key, ts in times.items()}


def end_to_end(setup, ledger, times):
    """Op times are per-op medians over the untraced passes, then summed."""
    med = median_seconds(times)

    def rate(kind, attr):
        ops = [op for op in ledger.ops if op.kind == kind]
        done = sum(getattr(ledger.checked(op), attr) for op in ops if ledger.checked(op))
        return _rate(done, sum(med[op.key] for op in ops))

    return {
        "setup_s": (statistics.median(r["import_s"] + r["validate_s"] for r in setup), "s"),
        "wall_s": (sum(med.values()), "s"),
        "verdicts_per_s": (rate("verdict", "verdicts"), "1/s"),
        "potentials_per_s": (rate("potential", "probes"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def merge_stats(per_pass):
    """Sum the per-(name, tag) totals of several traced passes."""
    from spans import Stat

    total = {}
    for stats in per_pass:
        for key, st in stats.items():
            acc = total.setdefault(key, Stat())
            for field in Stat.__slots__:
                setattr(acc, field, getattr(acc, field) + getattr(st, field))
    return total


def per_layer(setup, ledger, untraced, traced, stats, first, speedup):
    """The per-layer table: times from ``stats`` (all traced passes summed),
    counts from ``first`` (the first traced pass)."""
    from spans import Stat

    empty = Stat()

    def tagged(name, source=stats):
        return {tag: st for (n, tag), st in source.items() if n == name}

    def one(name, tag="", source=stats):
        return source.get((name, tag), empty)

    def total(name, attr, source=stats):
        return sum(getattr(st, attr) for st in tagged(name, source).values())

    def mean_ms(st):
        return 1e3 * st.seconds / st.calls if st.calls else 0.0

    m = {
        "cli.import_s": (statistics.median(r["import_s"] for r in setup), "s"),
        "experiments.validate_ms": (1e3 * statistics.median(r["validate_s"] for r in setup), "ms"),
    }
    run_task = one("experiments.run_task")
    m["experiments.run_task.self_ms"] = (1e3 * run_task.layer_self / run_task.calls if run_task.calls else 0.0, "ms")
    for fam in FAMILIES:
        m[f"classifier.classify_ms.{fam}"] = (mean_ms(one("classifier.classify", fam)), "ms")
    m["measures.admissibility_ms"] = (mean_ms(one("measures.admissibility_check")), "ms")
    for fam in FAMILIES:
        st = one("measures.weight", fam)
        m[f"measures.weight_ns_per_radius.{fam}"] = (1e9 * st.seconds / st.count if st.count else 0.0, "ns")
    for d in DIMS:
        st = one("kernels.shell_average_batch", d)
        m[f"kernels.shell_avg_us_per_eval.{d}"] = (1e6 * st.seconds / st.count if st.count else 0.0, "us")
        m[f"kernels.shell_avg_evals.{d}"] = (one("kernels.shell_average_batch", d, first).count, "count")
    for fam in FAMILIES:
        for d in DIMS:
            m[f"potentials.riesz_ms.{fam}.{d}"] = (mean_ms(one("potentials.riesz_potential", f"{fam}.{d}")), "ms")
    for d in DIMS:
        failed = sum(one("potentials.riesz_potential", f"{fam}.{d}", first).failed for fam in FAMILIES)
        m[f"potentials.failed.{d}"] = (failed, "count")
    m["potentials.gauge_weighted_ms"] = (mean_ms(one("potentials.gauge_weighted_potential")), "ms")

    samples = tagged("simulate.sample_increment")
    for kind in ("brownian", "stable"):
        st = samples.get(kind, empty)
        m[f"simulate.sample_ns_per_step.{kind}"] = (1e9 * st.seconds / st.count if st.count else 0.0, "ns")
    walks = [one("simulate.gauge_checkpoint_samples"), one("simulate.absorbed_pcaf_sample")]
    steps = total("simulate.sample_increment", "count")
    walk_self = sum(st.self_seconds for st in walks)
    walk_time = sum(st.seconds for st in walks)
    m["simulate.walk_ns_per_step"] = (1e9 * walk_self / steps if steps else 0.0, "ns")
    m["simulate.path_steps_per_s"] = (_rate(steps, walk_time), "1/s")
    m["simulate.paths"] = (one("simulate.gauge_checkpoint_samples", "", first).count
                           + one("simulate.absorbed_pcaf_sample", "", first).count, "count")
    m["simulate.path_steps"] = (total("simulate.sample_increment", "count", first), "count")
    radii = total("measures.weight", "aux")
    m["simulate.useful_step_frac"] = (total("measures.weight", "extra") / radii if radii else 0.0, "frac")
    gauge = one("simulate.gauge_checkpoint_samples")
    m["simulate.underflow_frac"] = (gauge.extra / gauge.aux if gauge.aux else 0.0, "frac")
    absorbed = one("simulate.absorbed_pcaf_sample")
    m["simulate.absorbed_exit_frac"] = (absorbed.extra / absorbed.count if absorbed.count else 0.0, "frac")
    m["simulate.thread_speedup_2t"] = (speedup, "ratio")

    m["failed_frac"] = (ledger.failed / ledger.attempted, "frac")
    med = median_seconds(untraced)
    terms = []
    for op in ledger.ops:
        checked = ledger.checked(op)
        if op.kind == "gauge" and checked and checked.stderr is not None and checked.stderr > 0.0:
            terms.append(checked.stderr ** 2 * med[op.key])
    m["stderr2_x_s"] = (math.exp(statistics.fmean(math.log(v) for v in terms)) if terms else 0.0, "s")
    m["trace.overhead_frac"] = (sum(median_seconds(traced).values()) / sum(med.values()) - 1.0, "frac")
    return m


# ---------------------------------------------------------------------------
# provenance and records


def provenance(seed, workload):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": "ops run at 1 thread; thread scaling is measured at 1 and 2 threads only",
    }


def layer_table(stats):
    rows = []
    for (name, tag), st in sorted(stats.items()):
        rows.append({"span": name, "tag": tag, "calls": st.calls, "seconds": st.seconds,
                     "self_seconds": st.self_seconds, "layer_self_seconds": st.layer_self,
                     "count": st.count, "extra": st.extra, "aux": st.aux, "failed": st.failed})
    return rows


# ---------------------------------------------------------------------------
# main


def run(args):
    ops, det_key = workloads.build(args.workload, args.seed, tiny=args.tiny)
    if not (SRC / "bigmeasure" / "__init__.py").is_file():
        raise BenchError(f"no bigmeasure sources under {SRC}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for i, op in enumerate(ops):
            if op.config is not None:
                paths[op.key] = workdir / f"{i:04d}.json"
                paths[op.key].write_text(json.dumps(op.config), encoding="utf-8")
        setup = measure_setup(workdir, 2 if args.tiny else SETUP_PROCESSES)
        import_package()
        from spans import Tracer

        ledger = Ledger(ops)
        tracer = Tracer()
        untraced = {op.key: [] for op in ops}
        traced = {op.key: [] for op in ops}
        stats_per_pass, spans = [], []
        n_untraced = n_traced = 0
        start = time.perf_counter()
        while not n_untraced or (args.trace and not n_traced) or time.perf_counter() - start < args.seconds:
            if args.trace and n_untraced > n_traced:
                tracer.reset()
                with tracer:
                    ledger.run_pass(f"traced{n_traced}", paths, traced)
                stats_per_pass.append(tracer.stats)
                if not spans:
                    spans = tracer.spans
                n_traced += 1
            else:
                ledger.run_pass(f"pass{n_untraced}", paths, untraced)
                n_untraced += 1

        speedup = 0.0
        if det_key is not None:
            op = next(o for o in ops if o.key == det_key)
            rerun = run_op(op, paths.get(op.key), 2)
            ledger.record("threads2", op, rerun)
            speedup = untraced[det_key][0] / rerun.seconds

        if args.trace:
            stats = merge_stats(stats_per_pass)
            metrics = per_layer(setup, ledger, untraced, traced, stats, stats_per_pass[0], speedup)
        else:
            metrics = end_to_end(setup, ledger, untraced)

        record = {
            "provenance": provenance(args.seed, args.workload),
            "passes": {"untraced": n_untraced, "traced": n_traced},
            "op_seconds": {"untraced": untraced, "traced": traced},
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "failures": ledger.failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        if args.trace:
            record["layer_table"] = layer_table(stats)
            record["spans_first_traced_pass"] = {
                "fields": ["name", "tag", "start", "end", "parent"],
                "rows": [list(s) for s in spans],
            }
        outdir.mkdir(exist_ok=True)
        out_path = outdir / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
        out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        for line in report_lines(record):
            print(line, file=sys.stderr)
        return {
            "correct": ledger.incorrect == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": record["metrics"],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def report_lines(record):
    prov = record["provenance"]
    yield "# " + ", ".join(f"{k}={v}" for k, v in prov.items())
    yield (f"# passes: {record['passes']['untraced']} untraced, {record['passes']['traced']} traced; "
           f"ops attempted {record['attempted']}, failed {record['failed']}")
    for f in record["failures"][:10]:
        yield f"# failed [{f['pass']}] {f['op']}: {f['reason']}"
    if len(record["failures"]) > 10:
        yield f"# ... {len(record['failures']) - 10} more failures in the record file"
    width = max(len(k) for k in record["metrics"])
    for k, v in record["metrics"].items():
        yield f"{k:<{width}}  {v['value']:>14.6g} {v['unit']}"


def main(argv=None):
    os.environ.update(THREAD_ENV)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the benchmark's own tests")
    parser.add_argument("--setup-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child is not None:
        setup_child(args.setup_child)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
