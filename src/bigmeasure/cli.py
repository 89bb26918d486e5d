"""Command line entry point.

Each subcommand takes a JSON config file and runs one task.  Exit code 0
means the run finished and any built-in check passed, 1 means a check
failed, 2 means the config or the run itself was invalid.
"""

import argparse
import sys
from pathlib import Path

from .errors import BigMeasureError
from .experiments import _ALLOWED, read_config, run_task, validate_config

_COMMAND_TASKS = {
    "classify": ("classify",),
    "potential": ("potential",),
    "simulate": ("simulate",),
    "sweep": ("sweep",),
    "verify": ("verify-identity", "rotation-check", "decay-check"),
    "decay-check": ("decay-check",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigmeasure",
        description="Classify potential measures and cross-check the verdicts by simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "classify": "decide Big / NonBig for one measure",
        "potential": "evaluate the kernel integral of a measure",
        "simulate": "Monte Carlo gauge curve for one measure",
        "sweep": "classify over a parameter grid, optionally with an MC column",
        "verify": "run a verify-identity, rotation-check, or decay-check config",
        "decay-check": "screen the potential for decay at infinity",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", help="output path (overrides 'out' in the config)")
        sp.add_argument("--seed", type=int, help="seed override for Monte Carlo tasks")
        sp.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker threads; never changes the numbers, only the wall time",
        )
    return parser


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (BigMeasureError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
    except Exception as e:
        # last resort: a crash is a runtime error (2), never a failed check (1)
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return 2


def _run(args) -> int:
    raw = read_config(args.config)
    task = raw.get("task") if isinstance(raw, dict) else None
    if args.seed is not None and task in _ALLOWED and "seed" in _ALLOWED[task]:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    cfg = validate_config(raw)
    if cfg.task not in _COMMAND_TASKS[args.command]:
        print(
            f"error: config task '{cfg.task}' does not belong to command '{args.command}'",
            file=sys.stderr,
        )
        return 2
    result = run_task(cfg, threads=max(1, args.threads))

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
