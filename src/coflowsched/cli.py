"""Command line front end.

Every command reads and writes the JSON instance format, exits 0 on
success, and on failure writes one JSON error line to stderr and exits
nonzero. Outputs carry no timestamps, so a rerun with the same arguments
produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import experiments, metrics, model, workload
from .oracle import enumerate_best, trivial_lower_bound
from .ordering import order_coflow_level, order_flow_level
from .scheduling import GRANULARITIES, ScheduleResult


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coflowsched",
        description="Order, place, and simulate coflows on parallel network cores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance as JSON")
    p.add_argument("--coflows", type=int, default=25)
    p.add_argument("--ports", type=int, default=10)
    p.add_argument("--cores", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--density",
        choices=workload.DENSITY_MODES,
        help="use the density generator instead of the default template mix",
    )
    p.add_argument("--release-max", type=int, default=0)
    p.add_argument("--out", type=Path, help="directory for instance.json (default: stdout)")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("order", help="compute the processing order and its dual bound")
    p.add_argument("instance", type=Path)
    _common_flags(p)
    p.add_argument("--emit-trace", action="store_true", help="also write the dual trace JSONL")
    p.set_defaults(handler=cmd_order)

    p = sub.add_parser("schedule", help="order, place, and simulate one instance")
    p.add_argument("instance", type=Path)
    _common_flags(p)
    p.add_argument("--emit-timeline", action="store_true", help="also write the timeline CSV")
    p.set_defaults(handler=cmd_schedule)

    p = sub.add_parser("trace-import", help="convert a shuffle trace to instance JSON")
    p.add_argument("trace", type=Path)
    p.add_argument("--ports", type=int, default=150)
    p.add_argument("--cores", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="seed for the drawn coflow weights")
    p.add_argument("--threshold", type=int, help="drop coflows with fewer flows")
    p.add_argument("--out", type=Path)
    p.set_defaults(handler=cmd_trace_import)

    p = sub.add_parser("experiment", help="run a batch experiment into CSV/JSON files")
    p.add_argument("kind", choices=experiments.KINDS)
    p.add_argument("--granularity", choices=GRANULARITIES, default="flow")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cores", type=int, nargs="+")
    p.add_argument("--ports", type=int)
    p.add_argument("--coflows", type=int, nargs="+")
    p.add_argument("--instances", type=int)
    p.add_argument("--density", choices=workload.DENSITY_MODES)
    p.add_argument("--threshold", dest="thresholds", metavar="THRESHOLD", type=int, nargs="+")
    p.add_argument(
        "--trace", dest="trace_path", metavar="TRACE", help="trace file for trace-threshold runs"
    )
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("oracle-check", help="compare bounds on an enumerable instance")
    p.add_argument("instance", type=Path)
    p.add_argument("--kappa", type=float, default=0.5)
    p.set_defaults(handler=cmd_oracle_check)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--granularity", choices=GRANULARITIES, default="flow")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--out", type=Path, help="output directory (default: stdout)")


def _emit(args, name: str, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / name).write_text(text)


def _load(path: Path) -> model.Instance:
    with open(path) as fp:
        return model.load_instance(fp)


def cmd_generate(args) -> int:
    if args.density is None:
        instance = workload.gen_mix(
            args.coflows, args.ports, args.seed,
            cores=args.cores, release_max=args.release_max,
        )
    else:
        instance = workload.gen_density(
            args.coflows, args.ports, args.density, args.seed,
            cores=args.cores, release_max=args.release_max,
        )
    _emit(args, "instance.json", model.dumps_instance(instance))
    return 0


def cmd_order(args) -> int:
    instance = _load(args.instance)
    order_fn = order_flow_level if args.granularity == "flow" else order_coflow_level
    perm = order_fn(instance, args.kappa)
    doc = {
        "granularity": args.granularity,
        "kappa": args.kappa,
        "order": perm.order,
        "dual_cost": perm.dual_cost,
    }
    if args.emit_trace:
        if args.out is None:
            raise ValueError("--emit-trace needs --out")
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / f"dual_trace_{args.granularity}.jsonl"
        with open(trace_path, "w") as fp:
            for rec in perm.trace.record_dicts():
                fp.write(json.dumps(rec) + "\n")
    _emit(args, f"order_{args.granularity}.json", json.dumps(doc, indent=2) + "\n")
    return 0


def _result_dict(result: ScheduleResult) -> dict:
    return {
        "objective": result.objective,
        "coflow_completion": {str(k): t for k, t in sorted(result.coflow_completion.items())},
        "flow_completion": [
            {"i": key.i, "j": key.j, "k": key.k, "t": t}
            for key, t in sorted(result.flow_completion.items())
        ],
    }


def cmd_schedule(args) -> int:
    instance = _load(args.instance)
    out = experiments.run_pipeline(
        instance, args.granularity, args.kappa, emit_timeline=args.emit_timeline
    )
    result = out.result
    doc = {
        "granularity": args.granularity,
        "kappa": args.kappa,
        "order": out.perm.order,
        "dual_cost": out.dual_cost,
        "ratio": out.ratio,
        **_result_dict(result),
    }
    if args.emit_timeline:
        if args.out is None:
            raise ValueError("--emit-timeline needs --out")
        args.out.mkdir(parents=True, exist_ok=True)
        # The rows are written from the timeline columns, without building
        # the Segment view.
        start, end, row, core = result.columns
        keys = instance.table.keys
        with open(args.out / f"timeline_{args.granularity}.csv", "w", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["start", "end", "i", "j", "k", "core"])
            writer.writerows(
                (repr(s), repr(e), *keys[r], h)
                for s, e, r, h in zip(start.tolist(), end.tolist(), row.tolist(), core.tolist())
            )
    _emit(args, f"schedule_{args.granularity}.json", json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_trace_import(args) -> int:
    with open(args.trace) as fp:
        instance = workload.parse_trace(fp, args.ports, weight_seed=args.seed, cores=args.cores)
    if args.threshold is not None:
        instance = workload.filter_min_flows(instance, args.threshold)
    _emit(args, "instance.json", model.dumps_instance(instance))
    return 0


def cmd_experiment(args) -> int:
    # The flags are named after the config fields; one left unset keeps its kind's default.
    fields = experiments.ExperimentConfig.__dataclass_fields__
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in fields and value is not None
    }
    report = experiments.run_experiment(experiments.default_config(**overrides), out_dir=args.out)
    json.dump(metrics.aggregates_dict(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_oracle_check(args) -> int:
    instance = _load(args.instance)
    fdls = experiments.run_pipeline(instance, "flow", args.kappa)
    cdls = experiments.run_pipeline(instance, "coflow", args.kappa)
    best_flow = enumerate_best(instance, "flow")
    best_coflow = enumerate_best(instance, "coflow")
    bound = trivial_lower_bound(instance)
    tol = 1e-9
    checks = {
        "dual_flow_below_best_flow": fdls.dual_cost <= best_flow.best_cost + tol,
        "dual_coflow_below_best_coflow": cdls.dual_cost <= best_coflow.best_cost + tol,
        "trivial_bound_below_best_flow": bound <= best_flow.best_cost + tol,
        "best_flow_below_fdls": best_flow.best_cost <= fdls.objective + tol,
        "best_coflow_below_cdls": best_coflow.best_cost <= cdls.objective + tol,
    }
    doc = {
        "kappa": args.kappa,
        "dual_cost_flow": fdls.dual_cost,
        "dual_cost_coflow": cdls.dual_cost,
        "trivial_lower_bound": bound,
        "best_cost_flow": best_flow.best_cost,
        "best_cost_coflow": best_coflow.best_cost,
        "best_order_flow": best_flow.best_order,
        "best_order_coflow": best_coflow.best_order,
        "schedules_examined": best_flow.schedules_examined
        + best_coflow.schedules_examined,
        "fdls_objective": fdls.objective,
        "cdls_objective": cdls.objective,
        "checks": checks,
        "ok": all(checks.values()),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
