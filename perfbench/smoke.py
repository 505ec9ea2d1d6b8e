#!/usr/bin/env python3
"""Smoke test of the benchmark harness: every workload at tiny size, traced and untraced.

    python3 perfbench/smoke.py

Also checks the last-line JSON of the command line, that its metric names
and units match BENCHMARK.json, and that the benchmark refuses to run
without the package sources.  Exits 0 when every check holds; takes a few
seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}")


def tiny_workloads(workloads):
    """Each workload with a block of two or three ops; exact_hard keeps one set that fails today."""
    W = workloads.WORKLOADS
    tiny_blocks = {
        "exact_random": lambda rng: [
            workloads.Op(workloads.affine_pairs(rng, workloads.unit_hull_pairs(rng, n, 0.05)), f"n={n}")
            for n in (2, 3, 5)],
        "exact_hard": lambda rng: [
            workloads.canonical_op(math.pi, 4), workloads.canonical_op(0.3, 4),
            workloads.Op(workloads.unit_hull_pairs(rng, 16, 0.5 / 31), "narrow n=16")],
        "bounds_sandwich": lambda rng: [
            workloads.Op(workloads.unit_hull_pairs(rng, n, 0.05), f"n={n}") for n in (2, 3)],
    }
    return {name: dataclasses.replace(W[name], block=blk, pool_blocks=1) for name, blk in tiny_blocks.items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_spec = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e_spec == run.E2E_UNITS, "end-to-end names and units match BENCHMARK.json")
    check(set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOAD_NAMES),
          "BENCHMARK.json names only known workloads")

    run.SETUP_REPS = 1
    run.PERN_REPS = 1
    logcap = run.load_logcap()
    import workloads

    original = logcap.capacity
    for name, w in tiny_workloads(workloads).items():
        for trace in (False, True):
            res = run.run_workload(logcap, w, 1, 0.0, trace)
            tag = f"{name} trace={int(trace)}"
            for s in [res["summary"]] + ([res["traced_summary"]] if trace else []):
                size = 2 if name == "bounds_sandwich" else 3
                check(s["ops"] == s["attempted"] == size, f"{tag}: one round of the tiny pool")
                ok = round(s["ok_share"] * s["ops"])
                check(ok + s["failed"] + s["wrong"] == s["ops"], f"{tag}: every op accounted for")
                check(sum(s["exceptions"].values()) == s["failed"], f"{tag}: exceptions counted by type")
            check(res["correct"] == (res["failed"] == 0 and res["summary"]["wrong"] == 0
                                     and res.get("traced_summary", {}).get("wrong", 0) == 0),
                  f"{tag}: correct flag follows the checks")
            if name != "exact_hard":
                check(res["correct"], f"{tag}: outputs correct")
            if not trace:
                check(set(res["metrics"]) == set(e2e_spec), f"{tag}: every end-to-end metric reported")
                check(all(v is not None and v > 0 for k, (v, _) in res["metrics"].items()
                          if k != "op_ms_p90"), f"{tag}: end-to-end metrics positive")
            else:
                units = {k: u for k, (_, u) in res["metrics"].items()}
                check(units == layer_spec, f"{tag}: per-layer names and units match BENCHMARK.json")
                check(not res["missing_hooks"], f"{tag}: every hook found")
                check((run.ROOT / res["spans"]).is_file(), f"{tag}: spans written")
                check(logcap.capacity is original and not hasattr(logcap.bounds.partition_lower, "__wrapped__"),
                      f"{tag}: wrappers removed")
                m = {k: v for k, (v, _) in res["metrics"].items()}
                if name == "exact_random":
                    check(m["kernels.gap_moment_sums.calls"] > 0 and m["exact.akhiezer_capacity.ms"] > 0,
                          f"{tag}: moment kernel and theta route traced")
                if name == "bounds_sandwich":
                    check(m["bounds.solynin_lower_max.evals"] > 0 and m["bounds.closed_form.ms"] > 0,
                          f"{tag}: optimizer evaluations traced")

    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "exact_random",
           "--seed", "3", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=run.ROOT)
    check(proc.returncode == 0, "command line exits 0")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, "last line has exactly the four keys")
    check(set(last["metrics"]) == set(e2e_spec), "last line carries every end-to-end metric")

    bare = run.OUT / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_random", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=120, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without src/")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke: FAIL" if failures else "smoke: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
