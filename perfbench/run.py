#!/usr/bin/env python3
"""Benchmark of logcap through its public Python API.

    python3 perfbench/run.py --workload exact_random --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Runs from the root of a checkout and imports the package from ``src/``.
One process, one thread (BLAS pinned to 1).  Each workload draws a pool
of ops from ``--seed`` (see ``workloads.py``) and times it round after
round for ``--seconds``; each op keeps its best time.  Every output is
checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the same
untraced pass, then one traced round over the pool, and prints the
per-layer metrics of that round, the tracing overhead, and a per-n table
of ``widom_capacity`` and ``all_bounds``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Full results (environment, digests, exceptions by type) and
the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread; must precede the first import of numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("exact_random", "exact_hard", "bounds_sandwich")
SETUP_REPS = 7
PERN_WIDOM = (2, 4, 8, 20)
PERN_BOUNDS = (2, 3, 4, 6, 8)
PERN_REPS = 3

# Machine-speed yardstick.  On a shared 2-vCPU VM (Intel Xeon, 2.0 GHz) the
# same code ran up to twice as slow for tens of seconds at a time.  Each op
# time is scaled by REF_MS over the fastest of the last REF_WINDOW
# reference_loop samples (one every REF_EVERY_S), so times read as on a
# machine where that takes REF_MS; 0.7 ms makes scaled and raw times agree
# on that VM when it runs fast.
REF_MS = 0.7
REF_EVERY_S = 0.1
REF_WINDOW = 10

# metrics in the final JSON line; every other figure is printed above it
E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}

# A fresh process through `import logcap` and one warm-up call; then, untimed,
# it runs the yardstick and prints how long that took and its best time.
WARMUP_PAIRS = ((-1.0, -0.4), (-0.1, 0.3), (0.6, 1.0))
SETUP_CODE = f"""
import sys
sys.path.insert(0, sys.argv[1])
import logcap
e = logcap.make_interval_union({WARMUP_PAIRS!r})
logcap.capacity(e)
if sys.argv[2] == "bounds_sandwich":
    logcap.all_bounds(e)
import time
start = time.perf_counter()
sys.path.insert(0, sys.argv[3])
from run import reference_loop
best = []
for _ in range(5):
    t0 = time.perf_counter()
    reference_loop()
    best.append(time.perf_counter() - t0)
print(time.perf_counter() - start, min(best))
"""


def load_logcap():
    """Import logcap from this checkout's src/, never from an installed copy."""
    if not (SRC / "logcap" / "__init__.py").is_file():
        raise SystemExit(f"error: no logcap package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import logcap

    if Path(logcap.__file__).resolve().parent != SRC / "logcap":
        raise SystemExit(f"error: imported logcap from {logcap.__file__}, not from {SRC}")
    return logcap


def setup_once(workload: str) -> tuple[float, float]:
    """Set-up time of a fresh process, scaled by the yardstick run in that process, and raw."""
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), workload, str(HERE)],
                          check=True, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    yard_elapsed, yard_best = map(float, proc.stdout.split())
    raw = wall - yard_elapsed
    return raw * REF_MS / (1e3 * yard_best), raw


def reference_loop() -> float:
    """Fixed pure-Python and small-numpy work that does not touch logcap."""
    x = 0.0
    for i in range(4000):
        x += math.sin(i * 1e-3) * 1.0001
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(120):
        a = np.sqrt(a * a + 1.0) * 0.5
    return x + float(a.sum())


def nearest_rank(sorted_vals, q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def check_output(w, op, out, examples) -> bool:
    try:
        ok = w.check(op, out)
    except Exception as exc:  # a check that crashes counts the output as wrong
        examples.setdefault("check " + type(exc).__name__, f"{op.label}: {exc}")
        return False
    if not ok:
        examples.setdefault("wrong", f"{op.label}: {out[1]}")
    return ok


def run_pass(w, seed: int, seconds: float, tracer=None, idle=None) -> dict:
    """Time the seeded pool round after round until `seconds` pass (at least one round).

    An op's time is the lower quartile of its scaled times over the rounds
    (the best of up to four); its raw time is its best unscaled time.
    Outputs of the first round are checked; later rounds must reproduce
    them exactly.  ``idle(elapsed)`` runs between ops, outside the timed
    region.
    """
    import workloads  # imports logcap, so only after load_logcap()

    rng = random.Random(seed)
    pool = [op for _ in range(w.pool_blocks) for op in w.block(rng)]
    n = len(pool)
    best = [math.inf] * n
    scaled = [array("d") for _ in range(n)]  # compact, so peak RSS hardly grows with rounds
    first = [None] * n
    raised = [False] * n
    wrong = [False] * n
    exc_types, examples = Counter(), {}
    refs = []
    executions = failed = 0
    busy = 0.0
    clock = time.perf_counter
    start = last_ref = clock()
    while executions < n or clock() - start < seconds:
        if not refs or clock() - last_ref >= REF_EVERY_S:
            last_ref = clock()
            reference_loop()
            refs.append(clock() - last_ref)
        scale = REF_MS / (1e3 * min(refs[-REF_WINDOW:]))
        if idle:
            idle(clock() - start)
        i = executions % n
        op = pool[i]
        close = tracer.root(executions) if tracer else None
        t0 = clock()
        try:
            out = w.run(op)
        except Exception as exc:  # a failed op is data: counted by type
            out = exc
        dt = clock() - t0
        if close:
            close()
        busy += dt * scale
        best[i] = min(best[i], dt)
        scaled[i].append(dt * scale)
        rec = workloads.output_record(out)
        if isinstance(out, Exception):
            failed += 1
            raised[i] = True
            exc_types[type(out).__name__] += 1
            examples.setdefault(type(out).__name__, f"{op.label}: {out}")
        if executions < n:
            first[i] = rec
            if not raised[i] and not check_output(w, op, out, examples):
                wrong[i] = True
        elif rec != first[i]:
            wrong[i] = True
            examples.setdefault("changed", f"{op.label}: a later round gave {rec}, the first {first[i]}")
        executions += 1

    returned = n - sum(raised)
    summary = {
        "ops": n,
        "rounds": executions / n,
        "attempted": executions,
        "failed": failed,
        "wrong": sum(wrong),
        "exceptions": dict(exc_types),
        "examples": examples,
        "fail_share": sum(raised) / n,
        "ok_share": sum(1 for r, x in zip(raised, wrong) if not (r or x)) / n,
        "mean_ops_per_s": executions / busy,
        "ref_ms_median": 1e3 * statistics.median(refs),
        "digest": {
            "inputs": hashlib.sha256(repr([op.pairs for op in pool]).encode()).hexdigest(),
            "outputs": hashlib.sha256(repr(first).encode()).hexdigest(),
        },
    }
    # the lower quartile, not the minimum, so that many rounds cannot pick
    # out the samples where the yardstick happened to run slow
    quartile = [sorted(ts)[(len(ts) - 1) // 4] for ts in scaled]
    for prefix, times in (("", quartile), ("raw_", best)):
        # a failed op misses any latency limit
        lat = sorted(math.inf if r else t * 1e3 for t, r in zip(times, raised))
        summary[prefix + "ops_per_s"] = returned / sum(times)
        summary[prefix + "op_ms_p50"] = nearest_rank(lat, 0.5)
        # p90 needs ten samples beyond it
        summary[prefix + "op_ms_p90"] = nearest_rank(lat, 0.9) if n >= 100 else None
    return summary


def pern_table(logcap, tracer, seed: int) -> dict:
    """Traced per-n timings: widom_capacity, and all_bounds with its solynin share."""
    from workloads import unit_hull_pairs

    END, NAME, PARENT, START = tracing.END, tracing.NAME, tracing.PARENT, tracing.START

    rng = random.Random(f"pern-{seed}")
    spans = tracer.spans
    out = {}

    def call(fn, n):
        e = logcap.make_interval_union(unit_hull_pairs(rng, n, 0.05))
        idx = len(spans)
        fn(e)
        return idx

    for n in PERN_WIDOM:
        idx = [call(logcap.exact.widom_capacity, n) for _ in range(PERN_REPS)]
        ms = statistics.median(1e3 * (spans[i][END] - spans[i][START]) for i in idx)
        out[f"pern.widom_capacity.n{n}.ms"] = (ms, "ms")
    for n in PERN_BOUNDS:
        idx = [call(logcap.all_bounds, n) for _ in range(PERN_REPS)]
        durs = [spans[i][END] - spans[i][START] for i in idx]
        top = set(idx)
        sol = sum(s[END] - s[START] for s in spans[min(idx):]
                  if s[NAME] == "bounds.solynin_lower_max" and s[PARENT] in top)
        out[f"pern.all_bounds.n{n}.ms"] = (1e3 * statistics.median(durs), "ms")
        out[f"pern.all_bounds.n{n}.solynin_share"] = (sol / sum(durs), "share")
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(logcap, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(logcap, "kernel_backend", "n/a"),
        "commit": git_commit(),
        "seed": seed,
    }


def finite(x):
    return x if x is not None and math.isfinite(x) else None


def run_workload(logcap, w, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    result = {"workload": w.name, "seconds": seconds, "trace": int(trace)}
    w.run(workloads.Op(WARMUP_PAIRS, "warm-up"))  # untimed
    setups = []

    def spaced_setups(elapsed):
        # spread over the run, so that one slow spell cannot set their median
        if not trace and len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
            setups.append(setup_once(w.name))

    plain = run_pass(w, seed, seconds, idle=spaced_setups)
    while not trace and len(setups) < SETUP_REPS:
        spaced_setups(math.inf)
    if not trace:
        plain.update(setup_s=statistics.median(x for x, _ in setups),
                     raw_setup_s=statistics.median(r for _, r in setups),
                     peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result.update(summary=plain, correct=plain["wrong"] == 0 and plain["failed"] == 0,
                      attempted=plain["attempted"], failed=plain["failed"])
        result["metrics"] = {k: (finite(plain[k]), u) for k, u in E2E_UNITS.items()}
        return result

    # one traced round over the same pool
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run_pass(w, seed, 0.0, tr)
        pern = pern_table(logcap, tr, seed)
    finally:
        tr.uninstall()
    metrics = tracing.layer_metrics(tr)
    metrics.update(pern)
    metrics["trace.untraced_ops_per_s"] = (plain["mean_ops_per_s"], "1/s")
    metrics["trace.traced_ops_per_s"] = (traced["mean_ops_per_s"], "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced["mean_ops_per_s"] / plain["mean_ops_per_s"], "share")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}-seed{seed}.jsonl.gz"
    tr.write(spans_path)
    failed = plain["failed"] + traced["failed"]
    wrong = plain["wrong"] + traced["wrong"]
    result.update(summary=plain, traced_summary=traced, spans=str(spans_path.relative_to(ROOT)),
                  missing_hooks=sorted(tr.missing), correct=wrong == 0 and failed == 0,
                  attempted=plain["attempted"] + traced["attempted"], failed=failed,
                  metrics={k: (finite(v), u) for k, (v, u) in metrics.items()})
    return result


def print_result(res: dict) -> None:
    s = res["summary"]
    print(f"== {res['workload']}  seed {res['env']['seed']}  seconds {res['seconds']}  trace {res['trace']}")
    rows = [("ops", s["ops"], "ops"), ("rounds", s["rounds"], "rounds"),
            ("attempted", s["attempted"], "calls"), ("failed", s["failed"], "calls"),
            ("wrong", s["wrong"], "ops"), ("fail_share", s["fail_share"], "share"),
            ("ok_share", s["ok_share"], "share"), ("ops_per_s", s["ops_per_s"], "1/s"),
            ("op_ms_p50", s["op_ms_p50"], "ms"), ("op_ms_p90", s["op_ms_p90"], "ms"),
            ("reference_loop median", s["ref_ms_median"], "ms"),
            ("raw_ops_per_s", s["raw_ops_per_s"], "1/s"), ("raw_op_ms_p50", s["raw_op_ms_p50"], "ms"),
            ("raw_op_ms_p90", s["raw_op_ms_p90"], "ms")]
    if "setup_s" in s:
        rows += [("setup_s", s["setup_s"], "s"), ("raw_setup_s", s["raw_setup_s"], "s"),
                 ("peak_rss_mb", s["peak_rss_mb"], "MB")]
    if res["trace"]:
        rows += [(k, v, u) for k, (v, u) in res["metrics"].items()]
    for name, value, unit in rows:
        shown = "absent" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
        print(f"  {name:<40} {shown:>14} {unit}")
    print(f"  exceptions: {s['exceptions'] or 'none'}")
    for key, text in s["examples"].items():
        print(f"    {key}: {text}")
    d = s["digest"]
    print(f"  digest of the {s['ops']} ops: inputs {d['inputs'][:16]} outputs {d['outputs'][:16]}")
    print(f"  env: {json.dumps(res['env'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    logcap = load_logcap()
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(logcap, workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        res["env"] = environment(logcap, args.seed)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1, default=str) + "\n")
        print_result(res)
        results.append(res)

    def metrics_of(res, prefix=""):
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {k: v for r in results for k, v in metrics_of(r, r["workload"] + ".").items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
