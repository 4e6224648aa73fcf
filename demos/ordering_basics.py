"""Walk through the primal-dual ordering on a five-coflow instance.

The permutation is built from the back: each step finds the most loaded
input and output port over the coflows not yet placed, then either places
the latest-released coflow (alpha step, when its release outweighs the
bottleneck load) or raises the price of the bottleneck port until one
coflow's budget runs out (beta step). The summed increments are a feasible
dual objective, hence a lower bound on the best possible total weighted
completion time. Run: python3 demos/ordering_basics.py
"""

from coflowsched.model import Coflow, Instance
from coflowsched.ordering import order_coflow_level, order_flow_level

instance = Instance(
    cores=2,
    ports=3,
    coflows=(
        Coflow(id=1, release=0, weight=4, demands={(1, 1): 6, (1, 2): 2}),
        Coflow(id=2, release=0, weight=1, demands={(2, 2): 3}),
        Coflow(id=3, release=0, weight=5, demands={(1, 3): 4, (2, 1): 4}),
        Coflow(id=4, release=30, weight=2, demands={(3, 3): 5}),
        Coflow(id=5, release=0, weight=3, demands={(3, 1): 7, (1, 1): 1}),
    ),
)

print("instance: 5 coflows, 3 ports, 2 cores; coflow 4 arrives at t=30")
print()

perm = order_flow_level(instance, kappa=0.5)
print("flow-level ordering (increments priced on individual flow sizes)")
print(f"  processing order: {perm.order}")
print(f"  dual lower bound: {perm.dual_cost:.4f}")
print()
print("  iteration log, last position first:")
for rec in perm.trace.records:
    extra = (
        f"release {instance.coflows[rec.coflow - 1].release} dominates"
        if rec.branch == "alpha"
        else f"budget/load ratio {rec.value:.4f} at {rec.side} port {rec.port}"
    )
    print(
        f"    position {rec.r}: coflow {rec.coflow} via {rec.branch:5s} "
        f"({extra}), dual += {rec.increment:.4f}"
    )
print()

# The coflow-level variant prices aggregated per-coflow port loads instead
# of per-flow sizes. The permutation comes out the same; only the bound
# changes.
cperm = order_coflow_level(instance, kappa=0.5)
print("coflow-level ordering (increments priced on per-coflow port loads)")
print(f"  processing order: {cperm.order}")
print(f"  dual lower bound: {cperm.dual_cost:.4f}")
print()
assert cperm.order == perm.order

print("dual variables delta_k at the end of each run:")
for k in sorted(perm.trace.delta):
    print(
        f"  coflow {k}: flow-level {perm.trace.delta[k]:.4f}, "
        f"coflow-level {cperm.trace.delta[k]:.4f}, weight {instance.coflows[k - 1].weight}"
    )
