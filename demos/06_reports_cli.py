#!/usr/bin/env python3
"""The reporting front end, driven programmatically.

Equivalent shell usage:

    rdslab run clt --seed 42 --threads 4 --out reports
    rdslab replay reports/clt-42-<hash>/report.json --threads 8
"""

import json
import os
import tempfile

import rdslab.cli as cli

out = tempfile.mkdtemp(prefix="rdslab-demo-")
sets = [
    "numerics.n_points=256", "numerics.pullback_depth=16", "numerics.sample_depth=10",
    "statistics.trials=200", "statistics.n=500", "statistics.n_base_samples=100",
    "statistics.m=5",
]

code = cli.run("clt", out_dir=out, seed=42, threads=2, sets=sets)
print(f"run exit code: {code}")

report_dir = next(p for p in os.listdir(out) if p.startswith("clt-"))
path = os.path.join(out, report_dir, "report.json")
report = json.load(open(path))
print(f"report: {path}")
print(f"  config hash: {report['config_hash'][:16]}...")
print(f"  sigma^2 = {report['results']['sigma2_used']:.4f}, "
      f"KS p = {report['results']['p_value']:.3f}")
print(f"  untested claims recorded: {report['untested_theoretical_claims']}")

print("\nreplaying at a different thread count (must be byte-identical):")
code = cli.replay(path, threads=8)
print(f"replay exit code: {code}")
