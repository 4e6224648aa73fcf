"""Coflow ordering and scheduling on identical parallel network cores.

The pipeline: build or load an :class:`Instance`, order its coflows with
:func:`order_flow_level` or :func:`order_coflow_level` (each returns a dual
lower bound alongside the permutation), place flows on cores with
:func:`assign_fdls` or :func:`assign_cdls`, and :func:`simulate` the
resulting list schedule. Every stage reads ``Instance.table``, the flow
table compiled and validated once per instance; ``experiments.run_pipeline``
runs all three stages at one granularity. ``metrics`` turns results into
ratios against the dual bound; ``oracle`` brute-forces small instances for
ground truth.
"""

from .metrics import (
    ExperimentReport,
    ExperimentRow,
    ratio,
    summarize,
)
from .model import (
    Coflow,
    FlowKey,
    FlowTable,
    Instance,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    validate,
)
from .oracle import OracleResult, enumerate_best, trivial_lower_bound
from .ordering import (
    DualTrace,
    IterationRecord,
    Permutation,
    order_coflow_level,
    order_flow_level,
)
from .scheduling import (
    Assignment,
    ScheduleResult,
    Segment,
    assign_cdls,
    assign_fdls,
    audit_schedule,
    simulate,
)
from .workload import (
    CoflowTemplate,
    filter_min_flows,
    gen_density,
    gen_mix,
    mix_templates,
    parse_trace,
)
from .experiments import ExperimentConfig, default_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Coflow",
    "CoflowTemplate",
    "DualTrace",
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentRow",
    "FlowKey",
    "FlowTable",
    "Instance",
    "IterationRecord",
    "OracleResult",
    "Permutation",
    "ScheduleResult",
    "Segment",
    "assign_cdls",
    "assign_fdls",
    "audit_schedule",
    "default_config",
    "dumps_instance",
    "enumerate_best",
    "filter_min_flows",
    "gen_density",
    "gen_mix",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "loads_instance",
    "mix_templates",
    "order_coflow_level",
    "order_flow_level",
    "parse_trace",
    "ratio",
    "run_experiment",
    "simulate",
    "summarize",
    "trivial_lower_bound",
    "validate",
]
