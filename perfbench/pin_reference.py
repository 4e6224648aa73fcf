"""Pin the per-operation digests of the reference seed to reference.json.

    python3 perfbench/pin_reference.py

Each workload runs one pass on ``run.REFERENCE_SEED`` and every operation's
digest (order, dual cost, objective and per-coflow completions) is stored.
Re-pin only when a change to the program's outputs is intended, and say why
in CHANGES.md: every benchmark run compares its warm-up pass to these.
"""

import json
import sys

import run


def main() -> int:
    run.load_program()
    from tracer import NullTracer
    from workloads import WORKLOADS

    pinned = {}
    for name, wl in WORKLOADS.items():
        gate = run.Gate()
        _, ops = gate.run_pass(wl, wl.setup(run.REFERENCE_SEED), NullTracer(), None)
        if gate.failed:
            print(f"{name}: {gate.notes}", file=sys.stderr)
            return 1
        pinned[name] = [op.digest for op in ops]
    doc = {"seed": run.REFERENCE_SEED, "workloads": pinned}
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
