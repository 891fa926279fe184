"""Run one benchmark workload in a fresh interpreter and print its raw figures.

Started by run.py from the root of an rdslab checkout, with `src` on
PYTHONPATH and OpenBLAS pinned to one thread.  With --probe it only imports
`rdslab.cli`, resolves the config and reports when that finished, which is how
set-up time is measured.  Otherwise it runs the workload's subcommands in a
closed loop with one client (each starts after the previous report is
written), checks every verdict and the determinism of `results`, and, with
--trace 1, repeats the loop with the layer tracer installed.  A speed probe
(speed.py) samples the machine's speed throughout, and every time is reported
both as measured and in reference seconds.  The last stdout line is one JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

from speed import SpeedProbe

WORKLOADS = {
    "lab": ("thermo", "gap", "bounds", "assumption6"),
    "ensemble": ("encoding", "condition-h"),
    "clt": ("clt",),
}

SETUP_PROBE_PERIOD_S = 0.04  # the import takes about a second: some 30 samples
SET_PROBE_PERIOD_S = 0.1     # 1-2% of the set's time goes to sampling

# Shrunken config for the self-test only; the measured workloads never use it.
SHRINK = {
    "numerics.n_points": 128,
    "numerics.pullback_depth": 24,
    "statistics.trials": 200,
    "statistics.n": 1000,
    "statistics.n_base_samples": 200,
    "statistics.m_max": 16,
    "experiment.gap.n_x": 3,
    "experiment.bounds.uniform_n_x": 10,
    "experiment.assumption6.r_draws": 2,
    "experiment.condition_h.k_list": [0, 1, 2, 3],
}


def resolve(cli, seed: int, shrink: bool) -> dict:
    sets = [f"statistics.seed={int(seed)}"]
    if shrink:
        sets += [f"{k}={json.dumps(v)}" for k, v in SHRINK.items()]
    return cli.apply_overrides(cli.load_config(None), sets)


def py_digest(*dirs: str) -> str:
    """sha256 over the .py files of the given directories."""
    h = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Workload:
    """Closed-loop runner for one workload with its verdict and determinism gate."""

    def __init__(self, cli, name: str, config: dict, out_root: str, ref_path: str,
                 probe: SpeedProbe):
        self.cli = cli
        self.probe = probe
        self.subcommands = WORKLOADS[name]
        self.config = config
        self.out_root = out_root
        self.ref_path = ref_path
        self.reference = {}
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                self.reference = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.failures = []  # first messages of failed subcommand runs
        self.errors = []    # benchmark checks that failed: tracer coverage, work counters

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def run_set(self) -> dict:
        """One pass over the subcommands; returns its times, raw and in reference seconds."""
        cli = self.cli
        outcomes = []
        window = self.probe.window()
        c0 = time.process_time()
        t0 = time.perf_counter()
        for sub in self.subcommands:
            try:
                report, artifacts = cli.build_report(sub, self.config, threads=1)
                cli.write_report(report, artifacts, self.out_root)
                outcomes.append((sub, report, None))
            except Exception as e:  # a raising subcommand is a failed run, not a crash
                outcomes.append((sub, None, f"{type(e).__name__}: {e}"))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        for sub, report, error in outcomes:
            self.attempted += 1
            self.check(sub, report, error)
        return {"wall_s": window.scale(wall), "cpu_s": window.scale(cpu),
                "raw_wall_s": wall, "raw_cpu_s": cpu, "speed": window.speed()}

    def check(self, sub: str, report, error):
        if error is not None:
            self.fail(f"{sub}: raised {error}")
            return
        if not report["contract_ok"]:
            self.fail(f"{sub}: contract_ok is false")
            return
        results = json.loads(json.dumps(report["results"]))
        key = f"results.{sub}"
        if key not in self.reference:
            self.reference[key] = results
            return
        diff = self.cli._first_difference(self.reference[key], results)
        if diff:
            self.fail(f"{sub}: results differ from the first run at this seed, field {diff}")

    def check_counters(self, counters: dict, label: str):
        if "counters" not in self.reference:
            self.reference["counters"] = counters
            return
        diff = self.cli._first_difference(self.reference["counters"], counters)
        if diff:
            self.errors.append(f"{label}: work counter {diff} differs from the first run "
                               "at this seed")

    def save_reference(self):
        tmp = self.ref_path + f".{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.reference, fh)
        os.replace(tmp, self.ref_path)

    def loop(self, seconds: float, sets: list, run_set=None):
        """Run sets until `seconds` would be exceeded; always at least one."""
        run_set = run_set or self.run_set
        t_start = time.perf_counter()
        while True:
            sets.append(run_set())
            elapsed = time.perf_counter() - t_start
            typical = statistics.median(s["raw_wall_s"] for s in sets[-4:])
            if elapsed + typical > seconds:
                return


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shrink", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    with SpeedProbe(SETUP_PROBE_PERIOD_S) as probe:
        window = probe.window()
        import rdslab.cli as cli

        config = resolve(cli, args.seed, args.shrink)
        raw_setup_s = time.monotonic() - args.spawned_at
    setup = {"setup_s": window.scale(raw_setup_s), "raw_setup_s": raw_setup_s,
             "setup_speed": window.speed()}
    src = os.path.join(root, "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"rdslab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(setup))
        return 0

    import numpy
    import scipy

    bench_dir = os.path.join(root, ".bench_out")
    pkg = os.path.join(src, "rdslab")
    # results and counters are compared only between runs of the same code and config
    digest = hashlib.sha256((py_digest(pkg, os.path.dirname(os.path.abspath(__file__)))
                             + json.dumps(config, sort_keys=True)).encode())
    ref_dir = os.path.join(bench_dir, "refs")
    os.makedirs(ref_dir, exist_ok=True)
    ref_path = os.path.join(ref_dir, f"{args.workload}-{args.seed}-{digest.hexdigest()[:16]}.json")
    untraced, traced, layers = [], [], []
    with SpeedProbe(SET_PROBE_PERIOD_S) as probe:
        runner = Workload(cli, args.workload, config, os.path.join(bench_dir, "reports"),
                          ref_path, probe)
        if args.trace:
            from tracer import LAYER_METRICS, WORK_COUNTERS, Tracer

            timed = [name for name, unit in LAYER_METRICS if unit in ("s", "us", "ns")]
            runner.loop(args.seconds / 2, untraced)
            tracer = Tracer()
            tracer.install()

            def traced_set():
                tracer.reset()
                times = runner.run_set()
                m = tracer.metrics(times["raw_wall_s"])
                runner.check_counters({k: m[k] for k in WORK_COUNTERS},
                                      f"traced set {len(layers) + 1}")
                m.update((k, m[k] * times["speed"]) for k in timed if k in m)
                layers.append(m)
                for name in tracer.coverage_gaps(args.workload):
                    runner.errors.append(f"tracer coverage: {name} recorded no call on "
                                         f"{args.workload}")
                return times

            runner.loop(args.seconds / 2, traced, traced_set)
        else:
            runner.loop(args.seconds, untraced)
    runner.save_reference()

    print(json.dumps({
        **setup,
        "sets": untraced,
        "traced_sets": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "errors": runner.errors,
        "threads_at_end": thread_count(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "src_sha256": py_digest(pkg),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
