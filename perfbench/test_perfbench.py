"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The stall test starts a real 1-CPU Ray session (about 40 s).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def bench(*args: str, cwd: str = REPO, timeout: float = 175):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_stalled_op_on_one_cpu_is_recorded_as_failed():
    """With one Ray CPU the extract actor pool reserves it and the read
    tasks never run: the op must be cut at its deadline and recorded,
    not hang."""
    deadline = 20
    p = bench("--workload", "kg_stream", "--seed", "42", "--seconds", "1",
              "--ray-cpus", "1", "--op-deadline", str(deadline))
    *_, report, record = p.stdout.strip().splitlines()
    record, report = json.loads(record), json.loads(report)["report"]
    assert p.returncode == 1
    assert record == {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
    assert report["error"] == "deadline missed after op_start warmup"
    assert deadline <= report["silent_s"] < deadline + 2


def test_without_the_package_it_fails_without_a_record():
    bare = os.path.join(REPO, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    try:
        p = bench("--workload", "kg_stream", "--seed", "1", "--seconds",
                  "1", cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert p.returncode != 0
    assert p.stdout == ""


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert set(pins) <= {w["name"] for w in spec["workloads"]}
