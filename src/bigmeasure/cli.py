"""Command line entry point.

Each command takes a JSON config file and runs it if the config's task is
one of the command's tasks in ``experiments.TASK_TABLE``; options may come
before or after the command.  Exit code 0 means the run finished and any
built-in check passed, 1 means a check failed, 2 means the config or the
run itself was invalid.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import BigMeasureError
from .experiments import TASK_TABLE, read_config, run_task, validate_config

# command -> the config tasks it runs, both in table order
_RUNS = {
    command: [task for task, spec in TASK_TABLE.items() if command in spec.commands]
    for spec in TASK_TABLE.values()
    for command in spec.commands
}

_PARSER = argparse.ArgumentParser(
    prog="bigmeasure",
    description="Classify potential measures and cross-check the verdicts by simulation.",
    epilog="commands and the config tasks they run:\n"
    + "\n".join(f"  {command:<12} {', '.join(tasks)}" for command, tasks in _RUNS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
_PARSER.add_argument("command", choices=list(_RUNS), help="what to run; see the list below")
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", help="output path (overrides 'out' in the config)")
_PARSER.add_argument("--seed", type=int, help="seed override for Monte Carlo tasks")
_PARSER.add_argument("--threads", type=int, default=1,
                     help="worker threads, at most the CPU count; never changes the numbers, only the wall time")


def run_cli(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _run(args, min(max(1, args.threads), os.cpu_count() or 1))
    except (BigMeasureError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
    except Exception as e:
        # last resort: a crash is a runtime error (2), never a failed check (1)
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return 2


def _run(args, threads: int) -> int:
    raw = read_config(args.config)
    task = raw.get("task") if isinstance(raw, dict) else None
    spec = TASK_TABLE.get(task) if isinstance(task, str) else None
    if args.seed is not None and spec is not None and "seed" in spec.allowed:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    cfg = validate_config(raw)
    if cfg.task not in _RUNS[args.command]:
        print(
            f"error: config task '{cfg.task}' does not belong to command '{args.command}'",
            file=sys.stderr,
        )
        return 2
    result = run_task(cfg, threads=threads)

    if cfg.out:
        out = Path(cfg.out)
        out.write_text(result.text, encoding="utf-8")
        written = [str(out)]
        if result.report is not None:
            side = out.with_suffix(out.suffix + ".report.txt")
            side.write_text(result.report, encoding="utf-8")
            written.append(str(side))
        print("wrote " + ", ".join(written))
    else:
        sys.stdout.write(result.text)
        if result.report is not None:
            sys.stdout.write(result.report)
    return 0 if result.ok else 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
