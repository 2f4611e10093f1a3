"""Command-line entry point for the experiment drivers.

Usage::

    python -m repro.experiments.run tables
    python -m repro.experiments.run fig4  [--scale 0.25] [--nodes 40 100 200]
    python -m repro.experiments.run fig5  [--scale 0.25] [--nodes 55]
    python -m repro.experiments.run table4
    python -m repro.experiments.run hod
    python -m repro.experiments.run ablations [--which replication ...]

Each subcommand regenerates the corresponding paper table/figure and
prints it.  Scale < 1 shrinks the 88-job workload proportionally.
"""

from __future__ import annotations

import argparse
import sys

from ..metrics.report import format_table
from . import ablations, fig4, fig5, tables


def _cmd_tables(_args) -> None:
    print(tables.render_table1())
    print()
    print(tables.render_table2())
    print()
    print(tables.render_table3())


def _cmd_fig4(args) -> None:
    result = fig4.run_fig4(node_counts=tuple(args.nodes),
                           runs_per_point=args.runs, scale=args.scale,
                           seed=args.seed)
    print(result.to_table())


def _cmd_fig5(args) -> None:
    result = fig5.run_fig5(target_nodes=args.nodes[0], scale=args.scale)
    for run in result.runs:
        times, values = run.series
        print(f"run {run.label} ({'stable' if run.stable else 'unstable'}): "
              f"response={run.response_time:.0f}s area={run.area:.0f} "
              f"mean_nodes={run.mean_nodes:.1f}")
    print()
    print(result.table4())


def _cmd_table4(args) -> None:
    result = fig5.run_fig5(target_nodes=args.nodes[0], scale=args.scale)
    print(result.table4())


def _cmd_hod(args) -> None:
    print(ablations.compare_hod(n_nodes=args.nodes[0],
                                scale=min(args.scale, 0.25)).to_table())


def _data_local_share(r) -> str:
    total = sum(r.locality.values()) or 1
    return f"{100 * r.locality['data_local'] / total:.0f}%"


#: ``--which`` name → (driver, title, arm column, counter column, cells),
#: where ``cells(key, result)`` renders the arm and its counter.
_ABLATION_TABLES = {
    "replication": (ablations.ablate_replication,
                    "Ablation: replication factor", "replication", "failed",
                    lambda k, r: (k, r.failed_jobs)),
    "detection": (ablations.ablate_failure_detection,
                  "Ablation: failure detection", "timeout", "trackers lost",
                  lambda t, r: (f"{t:.0f}s",
                                r.counters.get("trackers_lost", 0))),
    "site": (ablations.ablate_site_awareness, "Ablation: site awareness",
             "awareness", "data-local maps",
             lambda k, r: (k, r.locality["data_local"])),
    "zombie": (ablations.ablate_zombie_fix, "Ablation: zombie fix", "fix",
               "attempts failed",
               lambda k, r: (k, r.counters.get("attempts_failed", 0))),
    "copies": (ablations.ablate_speculative_copies,
               "Ablation: N-copy execution (§VI)", "max copies", "backups",
               lambda k, r: (k, r.counters.get("speculative_attempts", 0))),
    "schedulers": (ablations.compare_schedulers, "Scheduler comparison",
                   "scheduler", "data-local",
                   lambda k, r: (k, _data_local_share(r))),
}


def _cmd_ablations(args) -> None:
    scale = min(args.scale, 0.25)
    which = args.which or list(_ABLATION_TABLES)
    for name, (driver, title, arm_col, counter_col, cells) in \
            _ABLATION_TABLES.items():
        if name not in which:
            continue
        rows = []
        for key, r in driver(scale=scale).items():
            arm, counter = cells(key, r)
            rows.append([arm, f"{r.response_time:.0f}", counter])
        print(format_table([arm_col, "response (s)", counter_col], rows,
                           title=title))


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="repro.experiments.run",
                                     description=__doc__)
    parser.add_argument("command",
                        choices=["tables", "fig4", "fig5", "table4", "hod",
                                 "ablations"])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--nodes", type=int, nargs="+",
                        default=[40, 55, 100, 160, 200])
    parser.add_argument("--which", nargs="*", default=None,
                        help="subset of ablations to run")
    args = parser.parse_args(argv)
    {"tables": _cmd_tables, "fig4": _cmd_fig4, "fig5": _cmd_fig5,
     "table4": _cmd_table4, "hod": _cmd_hod,
     "ablations": _cmd_ablations}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
