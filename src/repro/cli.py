"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro list
    python -m repro fig1
    python -m repro table2
    python -m repro headline --invocations 60
    python -m repro fault-study --export-dir out
    python -m repro all

Every artifact is a :class:`repro.experiments.study.Study` record; this
module only iterates :func:`repro.experiments.study.registry`.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import sys
from typing import Dict, List, Optional

from repro.experiments.study import Study, registry

#: Run option -> the flag that sets it, for the options a study may not
#: honour.  ``--no-cache`` is accepted everywhere: with nothing cached
#: it has nothing to do.
FLAGS = {
    "jobs": "--jobs",
    "trace_path": "--trace",
    "shards": "--shards",
    "streaming": "--streaming",
}


def _honouring(studies: Dict[str, Study], option: str) -> List[str]:
    return [name for name, s in studies.items() if s.honours(option)]


def _tabled(studies: Dict[str, Study]) -> List[str]:
    return [name for name, s in studies.items() if s.tables is not None]


def _given(parser: argparse.ArgumentParser, args, flag: str) -> bool:
    """Whether ``flag`` was set to anything but its parser default."""
    dest = flag[2:].replace("-", "_")
    return getattr(args, dest) != parser.get_default(dest)


def build_parser() -> argparse.ArgumentParser:
    studies = registry()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MicroFaaS (DATE 2022) reproduction harness",
    )
    parser.add_argument(
        "artifact",
        choices=list(studies) + ["all", "list"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--invocations",
        type=int,
        default=30,
        help="invocations per function for simulation-backed artifacts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep-shaped artifacts "
        f"(0 = one per CPU core) — {', '.join(_honouring(studies, 'jobs'))} "
        "only",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point instead of reusing cached results",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write per-invocation span trees to PATH (Chrome trace-event "
        "JSON; JSONL if PATH ends in .jsonl) — "
        f"{', '.join(_honouring(studies, 'trace_path'))} only",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split each simulation across N shard processes — "
        f"{', '.join(_honouring(studies, 'shards'))} only",
    )
    parser.add_argument(
        "--streaming",
        choices=["auto", "on", "off"],
        default="auto",
        help="bounded-RSS replay fast path: chunked arrival generation + "
        "autocompacting power traces (auto = on for large runs) — "
        f"{', '.join(_honouring(studies, 'streaming'))} only",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each artifact under cProfile and write "
        "profile_<artifact>.pstats into --export-dir (default artifacts)",
    )
    parser.add_argument(
        "--export-dir",
        metavar="DIR",
        default=None,
        help="write each artifact's CSV tables (and --profile pstats) "
        f"into DIR — CSVs from {', '.join(_tabled(studies))} only",
    )
    return parser


def _run_study(study: Study, args, options: dict) -> None:
    """Run, print and export one study, optionally under cProfile."""
    profiler = cProfile.Profile() if args.profile else None
    if profiler is not None:
        profiler.enable()
    try:
        result = study.run(args.invocations, **options)
        text = study.render(result)
    finally:
        if profiler is not None:
            profiler.disable()
    print(text)
    print()
    if options["trace_path"] is not None:
        print(f"trace written to {options['trace_path']}", file=sys.stderr)
    if args.export_dir is not None and study.tables is not None:
        os.makedirs(args.export_dir, exist_ok=True)
        for table in study.tables(result):
            print(f"wrote {table.write(args.export_dir)}", file=sys.stderr)
    if profiler is not None:
        directory = args.export_dir or "artifacts"
        os.makedirs(directory, exist_ok=True)
        stats_path = os.path.join(
            directory, f"profile_{study.name.replace('-', '_')}.pstats"
        )
        profiler.dump_stats(stats_path)
        print(f"profile written to {stats_path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    studies = registry()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.invocations < 1:
        print("error: --invocations must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print("error: --jobs must be >= 0", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.artifact == "list":
        width = max(len(name) for name in studies)
        for name, study in studies.items():
            print(f"{name:{width}s} {study.description}")
        return 0
    selected = list(studies) if args.artifact == "all" else [args.artifact]
    # A flag is refused when no selected study would act on it; ``all``
    # runs it on the studies that honour it.
    checks = [
        (flag, _given(parser, args, flag), _honouring(studies, option))
        for option, flag in FLAGS.items()
    ]
    checks.append(
        (
            "--export-dir",
            args.export_dir is not None and not args.profile,
            _tabled(studies),
        )
    )
    for flag, given, honouring in checks:
        if given and not set(selected) & set(honouring):
            print(
                f"error: {flag} applies to {', '.join(honouring)} only",
                file=sys.stderr,
            )
            return 2
    if args.trace is not None and len(selected) > 1:
        # Every traceable study would overwrite the one PATH.
        print("error: --trace names one file; give one study", file=sys.stderr)
        return 2
    if args.trace is not None:
        os.makedirs(os.path.dirname(args.trace) or ".", exist_ok=True)
    options = {
        "jobs": args.jobs if args.jobs > 0 else None,  # None -> cpu_count
        "cache": not args.no_cache,
        "trace_path": args.trace,
        "shards": args.shards,
        "streaming": {"auto": None, "on": True, "off": False}[args.streaming],
    }
    for name in selected:
        _run_study(studies[name], args, options)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
