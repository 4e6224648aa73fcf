"""The shuffle-trace format, end to end on an inline example.

A trace is a header "<machines> <coflows>" followed by one line per coflow:
id, arrival in milliseconds, mapper count, mapper racks, reducer count, and
rack:MB pairs. Each (mapper rack, reducer rack) pair becomes one flow; the
reducer's megabytes split equally over the mappers (rounded up to >= 1 MB),
and arrivals convert at 128 time units per second. Run:
python3 demos/trace_format.py

To run the full benchmark pipeline, point COFLOWSCHED_TRACE (or the CLI's
trace-import) at the 526-coflow, 150-rack cluster trace; this demo sticks
to a handmade miniature so it runs anywhere.
"""

from coflowsched.experiments import run_pipeline
from coflowsched.workload import filter_min_flows, parse_trace

TRACE = """\
30 4
1 0 1 5 1 7:128
2 1000 2 1 2 1 3:100
3 2500 3 2 4 6 2 1:30 8:90
4 4000 1 9 1 9:1
"""

print("trace text:")
for line in TRACE.splitlines():
    print("   ", line)
print()

inst = parse_trace(TRACE, rack_count=10, weight_seed=0)
print(f"parsed: {inst.n} coflows on {inst.ports} ports")
for c in inst.coflows:
    flows = ", ".join(f"({i}->{j}: {d} MB)" for (i, j), d in sorted(c.demands.items()))
    print(f"  coflow {c.id}: release t={c.release}, weight {c.weight}, {flows}")
print()
print("checks worth noticing:")
print("  coflow 2: 100 MB over 2 mappers -> two 50 MB flows, arrival 1000 ms -> t=128")
print("  coflow 3: 30 MB over 3 mappers -> 10 MB each; 90 MB -> 30 MB each")
print("  coflow 4: 1 MB over 1 mapper rounds up to the 1 MB minimum")
print()

# Benchmark figures filter out tiny coflows before scheduling.
for threshold in (1, 2, 4):
    kept = filter_min_flows(inst, threshold)
    print(f"threshold {threshold}: {kept.n} coflows remain")
print()

out = run_pipeline(inst, granularity="flow", kappa=0.5)
print(f"flow-level pipeline on the miniature: objective {out.objective:g}, "
      f"dual bound {out.dual_cost:.2f}, ratio {out.ratio:.3f}")
