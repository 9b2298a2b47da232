"""Benchmark entry point.

    python3 perfbench/run.py --workload {search,exact,train,all} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout.  Each workload runs in a fresh
child process (perfbench/workloads.py) whose environment pins BLAS and
OpenMP to one thread and puts `src/` on the import path; no machine
setting is changed.  The child writes its result to perfbench/out/;
this process adds the machine description, prints every metric by name
with its unit, the check results and the fingerprint, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from a traced run.  `--workload all` runs the three
workloads one after another and prefixes each metric with its workload.

Exits 2 without a result when the checkout holds no `src/jetclust`, and
1 when a child fails or outlives its time limit (`--seconds` plus
CHILD_ALLOWANCE_S).
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("search", "exact", "train")
# A child gets --seconds plus this for its set-up, the rounds it must
# complete beyond --seconds, and the checks.
CHILD_ALLOWANCE_S = 140
ONE_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ONE_THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result_path = OUT_DIR / f"result_{workload}_{seed}_trace{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result_path)]
    timeout = seconds + CHILD_ALLOWANCE_S
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload}: no result within {timeout:g} s")
    if code != 0:
        raise RuntimeError(f"{workload}: child exited with code {code}")
    result = json.loads(result_path.read_text())
    result.update(machine())
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict) -> None:
    w = result["workload"]
    print(f"[{w}] seed {result['seed']}, trace {result['trace']}, python {result['python']}, "
          f"numpy {result['numpy']}, nproc {result['nproc']}, cpu {result['cpu']}")
    for name, m in result["metrics"].items():
        print(f"[{w}] {name:28s} {m['value']:.6g} {m['unit']}")
    if "wall" in result:
        wall = result["wall"]
        print(f"[{w}] unscaled: events_per_s {wall['events_per_s']:.6g} 1/s, event_ms_p50 "
              f"{wall['event_ms_p50']:.6g} ms; the machine ran at {wall['speed']:.3f}x the "
              f"reference speed ({result['reference_us']:.1f} us of reference work)")
    if "mean_ll" in result:
        print(f"[{w}] mean_ll {result['mean_ll']:.6f} over {result['deterministic_samples']} events; "
              f"tail is p{result['tail_percentile']} of {result['samples']} events in "
              f"{result['rounds']} rounds")
    print(f"[{w}] fingerprint {result['fingerprint']}")
    print(f"[{w}] checks: {result['attempted'] - result['failed']} of {result['attempted']} passed")
    for problem in result["problems"][:20]:
        print(f"[{w}]   FAILED {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="jetclust benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "jetclust" / "__init__.py").is_file():
        print(f"no jetclust sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_child(name, args.seed, args.seconds, args.trace))
            report(results[-1])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = m
    finite = True
    for m in metrics.values():
        if not math.isfinite(m["value"]):  # keep the line valid JSON; the run is not correct
            m["value"] = 0.0
            finite = False
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
