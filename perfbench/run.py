"""rdslab benchmark: time to verdict on the lab, ensemble and clt workloads.

Run from the root of an rdslab checkout:

    python3 perfbench/run.py --workload lab --seed 42 --seconds 30 --trace 0

Each run measures set-up time with fresh interpreters, then runs the workload
in one fresh process (see workload.py) and prints a table of metrics followed,
as the last stdout line, by one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.  Times are in reference seconds, scaled by
the machine speed sampled while they were measured (see speed.py); the table
also prints the raw times and the speed.  The exit code is 0 only when every
subcommand run passed its verdict and determinism checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 3      # timed set-up probes per run, besides the workload process itself
RUN_LIMIT_S = 170.0   # a run must end well within 180 s
CHILD_ENV = {
    # numpy's OpenBLAS otherwise starts one thread per core at import
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def machine_info(seed: int) -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": "unknown", "seed": seed}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level, key in ((2, "l2"), (3, "l3")):
        for index in range(8):
            base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
            try:
                with open(f"{base}/level") as fh:
                    if int(fh.read()) != level:
                        continue
                with open(f"{base}/size") as fh:
                    info[key] = fh.read().strip()
                break
            except OSError:
                break
    info["git_commit"] = git_commit()
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
    except OSError:
        return "none (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(".git", ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args: list, deadline: float) -> dict:
    """Start workload.py with `args` in a fresh interpreter and return its JSON line."""
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.path.abspath("src")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--spawned-at", repr(t0), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process exceeded the run limit: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def measure(args) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--seed", str(args.seed)] + (["--shrink"] if args.shrink else [])
    spawn(["--probe", *common], deadline)  # warm-up: bytecode and file caches
    setups = [spawn(["--probe", *common], deadline) for _ in range(SETUP_PROBES)]
    res = spawn(["--workload", args.workload, "--seconds", str(args.seconds),
                 "--trace", str(args.trace), *common], deadline)
    setups.append(res)
    return setups, res


def end_to_end(setups: list, res: dict) -> dict:
    return {
        "wall_s": statistics.median(s["wall_s"] for s in res["sets"]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "cpu_s": statistics.median(s["cpu_s"] for s in res["sets"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def raw_times(setups: list, res: dict) -> dict:
    """Times as measured, and the machine speed they were scaled by."""
    sets = res["sets"] + res["traced_sets"]
    return {
        "raw_wall_s": statistics.median(s["raw_wall_s"] for s in res["sets"]),
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "raw_cpu_s": statistics.median(s["raw_cpu_s"] for s in res["sets"]),
        "speed": statistics.median(s["speed"] for s in sets),
        "setup_speed": statistics.median(s["setup_speed"] for s in setups),
    }


def per_layer(res: dict) -> dict:
    layers = res["layers"]
    out = {name: statistics.median(m[name] for m in layers)
           for name, _ in LAYER_METRICS if name != "trace.overhead_frac"}
    untraced = statistics.median(s["wall_s"] for s in res["sets"])
    traced = statistics.median(s["wall_s"] for s in res["traced_sets"])
    out["trace.overhead_frac"] = traced / untraced - 1.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rdslab time-to-verdict benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42, help="becomes statistics.seed")
    p.add_argument("--seconds", type=int, default=30, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shrink", action="store_true",
                   help="shrunken config, for selftest.py only")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rdslab", "cli.py")):
        print("error: run from the root of an rdslab checkout (src/rdslab/cli.py not found)",
              file=sys.stderr)
        return 2
    try:
        setups, res = measure(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    info = machine_info(args.seed)
    info.update(res["versions"], src_sha256=res["src_sha256"],
                threads_at_end=res["threads_at_end"],
                workload=args.workload, trace=args.trace, seconds=args.seconds,
                sets=len(res["sets"]), traced_sets=len(res["traced_sets"]))
    if args.trace:
        metrics, units = per_layer(res), dict(LAYER_METRICS)
    else:
        metrics, units = end_to_end(setups, res), dict(END_TO_END)
    fail_rate = res["failed"] / res["attempted"]
    print("machine " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    raw = raw_times(setups, res)
    for name, value in raw.items():
        unit = "s" if name.endswith("_s") else "ratio"
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'fail_rate':40s} {fail_rate:>16.6g} ratio "
          f"({res['failed']} of {res['attempted']} subcommand runs)")
    for message in res["failures"] + res["errors"]:
        print(f"FAIL {message}", file=sys.stderr)

    record = dict(info, metrics=metrics, raw=raw, attempted=res["attempted"],
                  failed=res["failed"], failures=res["failures"], errors=res["errors"],
                  time=time.time(), setup_samples=[
                      {k: s[k] for k in ("setup_s", "raw_setup_s", "setup_speed")}
                      for s in setups],
                  sets=res["sets"], traced_sets=res["traced_sets"])
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    correct = res["failed"] == 0 and not res["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
