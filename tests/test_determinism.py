"""Partition-invariance of the flagship KG pipeline.

Round-2's one red driver cell: the greedy consistency pass ordered
near-dup fills by a raw float noisy-or product, whose value depends on
batch boundaries — so `num_cpus=8` and `num_cpus=32` produced different
provenance for one tied fill. The fix (consistency._comparator_order) rounds
the score key and tie-breaks on (raw_obj, doc_id, sent_idx).

This test reruns the full kg_triples query in FRESH processes at two
parallelism levels and requires byte-identical CSV output. It owns its
own Ray sessions (subprocesses), independent of the session fixture.
"""

import subprocess
import sys

REPO = "/root/repo"

_SCRIPT = r"""
import sys
sys.path.insert(0, "/root/repo")
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as E
for name in ("kg_triples", "events_asof_order", "event_sessions",
             "rolling_user_value", "approx_distinct_users",
             "heavy_hitter_tokens", "embedding_clusters"):
    res = E.queries()[name]("/root/testdata/sf0.001")
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    sys.stdout.write(f"== {name}\n" + df.to_csv(index=False))
ray.shutdown()
"""


def _run(ncpu: int) -> str:
    p = subprocess.run([sys.executable, "-c", _SCRIPT, str(ncpu)],
                       capture_output=True, text=True, timeout=420,
                       env={"PATH": "/usr/bin:/bin:/usr/local/bin",
                            "HOME": "/root",
                            "RAY_DISABLE_IMPORT_WARNING": "1"})
    assert p.returncode == 0, p.stderr[-2000:]
    return p.stdout


def test_kg_triples_partition_invariant():
    out_lo = _run(2)
    out_hi = _run(8)
    assert out_lo == out_hi
    assert out_lo.count("\n") > 100     # non-trivial output
