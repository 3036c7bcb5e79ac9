#!/usr/bin/env python3
"""One workload in one process: set up, run operations, print the record.

Started by run.py, which times the set-up from process start to the
``ready`` line; the worker times its own part of the set-up under a
Stopwatch, so run.py can scale that delay to the reference host speed.
``--setup-only`` exits after set-up.  Otherwise the worker repeats the
workload's operation until ``--seconds`` have passed (at least once), or
with ``--trace 1`` runs it once untraced and once traced, and prints
``result <json>`` as its last line.
"""

import time

from stopwatch import Stopwatch

# set-up is timed under the same speed calibration as the operations
SETUP_WATCH = Stopwatch().__enter__()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

common.pin_threads()

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    inp = workloads.prepare(w)
    SETUP_WATCH.__exit__(None, None, None)
    print(
        f"ready {time.monotonic()!r} {SETUP_WATCH.wall!r} {SETUP_WATCH.norm!r}", flush=True
    )
    if args.setup_only:
        return 0

    op = workloads.OPS[w.kind]
    record = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "layers": None,
    }
    if args.trace:
        untraced = op(inp, args.seed)
        tracer = Tracer(workloads.traced_modules())
        traced = op(inp, args.seed, tracer)
        os.makedirs(common.OUT, exist_ok=True)
        tracer.dump(os.path.join(common.OUT, f"trace-{w.name}-seed{args.seed}.json"))
        record["layers"] = workloads.layer_metrics(tracer, traced, untraced)
        ops = [untraced, traced]
    else:
        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < args.seconds:
            ops.append(op(inp, args.seed))
    record["ops"] = [dataclasses.asdict(r) for r in ops]
    print("result " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
