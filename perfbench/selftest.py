#!/usr/bin/env python3
"""Fast self-test of the benchmark on the H2 fixtures (well under a minute).

1. Runs run.py on each ``h2-*`` workload with tracing off and on, and
   checks the output: the last line holds exactly the result keys and every
   metric BENCHMARK.json names, with its unit; the ``metric`` lines show the
   workload's other end-to-end figures with units; an ``env`` line is there.
2. Feeds every correctness gate a corrupted result and checks it trips,
   both on the gate functions and through the workload operations.

Run from the repository root:  python3 perfbench/selftest.py
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# end-to-end figures each workload prints besides the result line
PRINTED = {
    "h2-pt-scan": {"scan_s": "s", "failed_fraction": "fraction", "cost_metric": "Ha2.shots"},
    "h2-vo-opt": {"scan_s": "s", "failed_fraction": "fraction"},
    "h2-shot-study": {
        "scan_s": "s",
        "failed_fraction": "fraction",
        "cost_metric": "Ha2.shots",
        "sampler_build_s": "s",
        "draws_per_s": "1/s",
        "sampled_rmse_mha": "mHa",
        "sampled_to_predicted_mse": "ratio",
        "avg_term_ratio": "ratio",
        "avg_norm_ratio": "ratio",
    },
}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_output(bench: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload, printed in PRINTED.items():
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(common.HERE, "run.py"), "--workload",
                   workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                                  timeout=170)
            tag = f"{workload} trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit code 0 ({proc.stderr[-500:]})")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            check(set(result) == RESULT_KEYS, f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{tag}: correct, no failures")
            check(result["attempted"] >= 1, f"{tag}: attempted >= 1")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            check(units == expected[trace], f"{tag}: every metric with its unit")
            check(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{tag}: numeric values",
            )
            shown = {
                parts[1]: parts[3]
                for parts in (ln.split() for ln in lines)
                if parts and parts[0] == "metric"
            }
            want = {**printed, **expected[trace]}
            check(
                all(shown.get(n) == u for n, u in want.items()),
                f"{tag}: a metric line with its unit for each of {len(want)} metrics",
            )
            check(any(ln.startswith("env {") for ln in lines), f"{tag}: env line")


def check_gates() -> None:
    common.pin_threads()
    import numpy as np

    import workloads as wl

    e = -1.0
    check(not wl.geometry_faults("g", e + 1e-4, e, e), "scan gate passes a good result")
    check(wl.geometry_faults("g", e - 1e-6, e, e), "scan gate trips below FCI")
    check(wl.geometry_faults("g", e + 2e-3, e, e), "scan gate trips outside chemical accuracy")
    check(wl.geometry_faults("g", e, e, e + 1e-6), "scan gate trips on an oracle mismatch")
    check(wl.geometry_faults("g", float("nan"), e, e), "scan gate trips on a non-finite energy")

    h = np.array([[e, 0.1], [0.1, 0.5]])
    means = {(0, 0): e, (0, 1): 0.1}
    check(not wl.sampler_faults(e, e, means, h, h, h.copy()), "sampler gate passes a good result")
    check(wl.sampler_faults(e + 1e-6, e, means, h, h, h), "sampler gate trips on the skeleton")
    check(
        wl.sampler_faults(e, e, {**means, (0, 1): 0.1 + 1e-6}, h, h, h),
        "sampler gate trips on a biased fragment estimator",
    )
    check(wl.sampler_faults(e, e, means, h, h, h + 1e-12), "sampler gate trips on irreproducible draws")

    for name in ("h2-pt-scan", "h2-vo-opt", "h2-shot-study"):
        w = wl.WORKLOADS[name]
        inp = wl.prepare(w)
        good = wl.OPS[w.kind](inp, 5)
        check(not good.faults and good.failed == 0, f"{name}: operation passes its gates")
        # a reference energy above the computed one: the oracle disagrees and
        # the energy reads as below FCI
        inp.e_ref = {k: v + 1e-3 for k, v in inp.e_ref.items()}
        bad = wl.OPS[w.kind](inp, 5)
        check(bool(bad.faults), f"{name}: corrupted reference trips a gate")
        if w.kind != "shot-study":  # draws, not geometries, are its operations
            check(bad.failed == len(w.labels), f"{name}: each corrupted geometry counts failed")


def main() -> int:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_output(bench)
    check_gates()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
