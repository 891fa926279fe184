"""Replay identity of `rdslab run all` on the small test config, against a committed record.

A change that moves one bit of any result or artifact fails here, naming the
first differing field.  A change that alters the arithmetic on purpose
rewrites the record with

    PYTHONPATH=src python tests/test_replay_golden.py

and lists each moved field, with its old and new value, in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy

import rdslab.cli as cli
from test_cli import small_config

GOLDEN = Path(__file__).resolve().parent / "golden" / "all_small_seed42.json"


def versions() -> dict:
    # the pinned bits hold for one numpy/scipy build
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def build(threads: int) -> dict:
    report, _ = cli.build_report("all", small_config(), threads=threads)
    # through JSON, as a written report is read back by replay
    return json.loads(json.dumps({k: report[k] for k in ("results", "artifact_hashes")}))


@pytest.mark.parametrize("threads", [1, 2])
def test_all_report_replays_the_golden_record(threads):
    golden = json.loads(GOLDEN.read_text())
    diff = cli._first_difference({k: golden[k] for k in ("results", "artifact_hashes")},
                                 build(threads))
    if diff:
        note = ""
        if golden["versions"] != versions():
            note = f"; recorded with {golden['versions']}, running {versions()}"
        pytest.fail(f"'all' at --threads {threads} differs from {GOLDEN.name} "
                    f"at field {diff}{note}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"versions": versions(), **build(1)}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
