"""Self-test of the benchmark on a shrunken config.

Run from the root of an rdslab checkout:

    python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced with --shrink (the
measured workloads never shrink) and checks that the last line carries exactly
the metrics BENCHMARK.json names, with their units, that the table printed
above it names each of them with its unit, and that every run passed,
including the tracer's coverage check and the determinism gate between the two
runs at one seed, and that the speed probe reported a plausible speed.  It
then corrupts one stored reference result and checks that the gate fails and
names the field, and checks that the benchmark refuses to run in a directory
holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED = 3


def run(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", "--trace", str(trace), "--shrink"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def check_output(proc, expected: dict, label: str) -> list:
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} missing or extra, "
                      f"or units differ")
    table = {tuple(line.split()[::2][:2]) for line in lines[:-1] if len(line.split()) >= 3}
    for name, unit in expected.items():
        if (name, unit) not in table:
            errors.append(f"{label}: table line for {name} [{unit}] not printed")
    # the speed probe sampled and scaled: a speed far from 1 means a broken probe
    speeds = {line.split()[0]: float(line.split()[1]) for line in lines[:-1]
              if line.split()[:1] in (["speed"], ["setup_speed"])}
    if set(speeds) != {"speed", "setup_speed"} or not all(0.2 < v < 5 for v in speeds.values()):
        errors.append(f"{label}: speed lines {speeds}")
    return errors


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for stale in glob.glob(os.path.join(".bench_out", "refs", f"*-{SEED}-*.json")):
        os.remove(stale)
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in (0, 1):
            errors += check_output(run(w, trace), expected[trace], f"{w} trace={trace}")

    # the determinism gate must catch a result that differs from the first run
    refs = glob.glob(os.path.join(".bench_out", "refs", f"ensemble-{SEED}-*.json"))
    if len(refs) == 1:
        with open(refs[0]) as fh:
            ref = json.load(fh)
        ref["results.encoding"]["difference"] += 1.0
        with open(refs[0], "w") as fh:
            json.dump(ref, fh)
        proc = run("ensemble", 0)
        os.remove(refs[0])
        if proc.returncode == 0 or "field difference" not in proc.stderr:
            errors.append("determinism gate did not name the corrupted field")
    else:
        errors.append(f"expected one ensemble reference, found {refs}")

    # without the program the benchmark exits non-zero and prints no result
    bare = os.path.join(".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload", "lab",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("benchmark ran without the program")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
