#!/usr/bin/env python3
"""senqse benchmark: one workload per invocation, metrics on stdout.

    python3 perfbench/run.py --workload pt-scan --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads (NOTES.md says why each):
``pt-scan``, ``vo-opt`` and ``shot-study``; ``h2-*`` variants run the same
paths on H2 for the self-test.  The harness starts one process at a time:
a few set-up probes, then one worker that runs the workload in a closed
loop with one caller.  Every process runs with one BLAS/OpenMP thread.

Output: an ``env`` line, one ``metric <name> <value> <unit>`` line per
metric, a ``fault`` line per tripped correctness gate, and as the last line
one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the per-layer ones, from a traced operation, plus the
tracing overhead (traced minus untraced operation time).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

SETUP_PROBES = 4
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
E2E_UNITS = {"setup_s": "s", "scan_norm_s": "s", "peak_rss_mb": "MB", "max_error_mha": "mHa"}


def child_env() -> dict:
    env = dict(os.environ, **common.THREAD_ENV)
    env["PYTHONPATH"] = common.SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args, *extra) -> list:
    return [
        sys.executable,
        os.path.join(common.HERE, "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]


def ready_delay(stdout: str, spawned: float) -> tuple:
    """Set-up time from spawn to the worker's ``ready`` line: (wall, normalised).

    The worker reports the monotonic time of ``ready`` and the wall and
    normalised times of its own set-up; the interpreter start before the
    worker's first statement is scaled by the same ratio.
    """
    for line in stdout.splitlines():
        if line.startswith("ready "):
            ready, wall, norm = map(float, line.split()[1:])
            return ready - spawned, (ready - spawned) * norm / wall
    raise RuntimeError("worker never reported ready")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (may be absent)."""
    git = os.path.join(common.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(cmd, env, deadline) -> tuple:
    """Run a child to completion; returns (stdout, spawn time). Kills it at the deadline."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, cwd=common.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the time limit") from None
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out, spawned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [
        p
        for p in (os.path.join(common.SRC, "senqse"), common.FIXTURES, common.DATA)
        if not os.path.isdir(p)
    ]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2

    env = child_env()
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                out, spawned = run_child(worker_cmd(args, "--setup-only"), env, deadline)
                setups.append(ready_delay(out, spawned))
        cmd = worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
        out, spawned = run_child(cmd, env, deadline)
        setups.append(ready_delay(out, spawned))
        record = json.loads(out.splitlines()[-1].removeprefix("result "))
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    ops = record["ops"]
    measured = ops[:1] if args.trace else ops  # the untraced operation
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    faults = [f for o in ops for f in o["faults"]]
    errors = [o["error_ha"] for o in ops if o["error_ha"] is not None]

    print(
        "env "
        + json.dumps(
            {
                "nproc": os.cpu_count(),
                "processes_at_once": 1,
                "threads": common.THREAD_ENV,
                "commit": git_commit(),
                **record["versions"],
            },
            sort_keys=True,
        )
    )
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} operations {len(ops)}"
    )
    e2e = {
        "setup_s": statistics.median(n for _, n in setups) if setups else None,
        "scan_norm_s": statistics.median(o["norm_seconds"] for o in measured),
        "peak_rss_mb": peak_rss_mb,
        "max_error_mha": 1e3 * max(errors) if errors else None,
    }
    extras = {
        "scan_s": (statistics.median(o["seconds"] for o in measured), "s"),
        "setup_wall_s": (statistics.median(w for w, _ in setups), "s"),
        "failed_fraction": (failed / attempted if attempted else 1.0, "fraction"),
    }
    for name in measured[-1]["extras"]:
        values = [o["extras"][name][0] for o in measured]
        extras[name] = (statistics.median(values), measured[-1]["extras"][name][1])
    shown = {n: (v, E2E_UNITS[n]) for n, v in e2e.items() if v is not None}
    for name, (value, unit) in {**shown, **extras, **(record["layers"] or {})}.items():
        print(f"metric {name} {value!r} {unit}")
    for fault in faults:
        print(f"fault {fault}")

    if args.trace:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in record["layers"].items()}
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()}
    result = {
        "correct": not faults and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
