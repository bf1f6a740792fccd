"""Fresh-interpreter measures of one workload.

    python3 verdictbench/fresh.py WORKLOAD SEED first-call|end

Prints one JSON object: the monotonic clock at the first backend call (the
parent subtracts its own clock at spawn to get the set-up time) and, with
`end`, the peak RSS after one full pass.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import checkout


def main(workload: str, seed: int, until: str) -> None:
    checkout.import_checkout()
    import workloads
    from asp_testkit import solver

    first_call: list[float] = []

    def stamped(original):
        def run(self, *args, **kwargs):
            if not first_call:
                first_call.append(time.monotonic())
                if until == "first-call":
                    print(json.dumps({"first_call": first_call[0]}), flush=True)
                    os._exit(0)
            return original(self, *args, **kwargs)
        return run

    for backend in (solver.InternalBackend, solver.ExternalBackend):
        backend.run = stamped(backend.run)
    workloads.run_pass(workloads.build(workload, seed))
    print(json.dumps({"first_call": first_call[0],
                      "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
