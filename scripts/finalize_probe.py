"""Time ``finalize_fills`` inside warm checkpointed ``run_kg`` calls.

In a local Ray session of 2 CPUs it trains ``train_lr(400, SEED)``, then
calls ``run_kg(N_DOCS, n_shards=2)`` with that model REPEATS + 1 times,
each into a fresh checkpoint, so every call extracts its shards and runs
finalize and the graph build. The first call warms the per-process
caches and is not timed. For each timed call it prints the wall of the
call and of its ``finalize_fills``; then the median of each, and the
row count and sha256 digest (first 16 hex digits, rows sorted) of the
consistent fills, which every call must agree on.

Usage, from the root of a checkout:
    PYTHONPATH=. python scripts/finalize_probe.py SEED [N_DOCS] [REPEATS]
"""
import hashlib
import os
import statistics
import sys
import tempfile
import time

import ray

seed = int(sys.argv[1])
n_docs = int(sys.argv[2]) if len(sys.argv) > 2 else 1600
repeats = int(sys.argv[3]) if len(sys.argv) > 3 else 12

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from stanford_relation_extractor_ray.pipelines import kg
from stanford_relation_extractor_ray.pipelines.train import train_lr
from stanford_relation_extractor_ray.runtime import collect_table
from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA

finalize = kg.finalize_fills
walls: list[float] = []


def timed_finalize(fills, **kw):
    t0 = time.perf_counter()
    out = finalize(fills, **kw)
    walls.append(time.perf_counter() - t0)
    return out


# run_kg folds finalize_fills' keyword defaults into the graph digest
timed_finalize.__kwdefaults__ = finalize.__kwdefaults__
kg.finalize_fills = timed_finalize

with tempfile.TemporaryDirectory() as d:
    model_ref = ray.put(train_lr(400, seed,
                                 cache_dir=os.path.join(d, "model")))
    calls, digests = [], set()
    for rep in range(repeats + 1):
        t0 = time.perf_counter()
        out = kg.run_kg(n_docs, seed=seed, model_ref=model_ref,
                        checkpoint_dir=os.path.join(d, f"ckpt-{rep}"),
                        n_shards=2)
        call = time.perf_counter() - t0
        fills = collect_table(out["fills"].materialize(), FILLS_SCHEMA)
        rows = sorted(repr(r) for r in fills.to_pylist())
        m = hashlib.sha256(repr(fills.column_names).encode())
        for r in rows:
            m.update(r.encode() + b"\n")
        digests.add((fills.num_rows, m.hexdigest()[:16]))
        if rep:
            calls.append(call)
            print(f"call {rep}: run_kg {call:.3f} s, "
                  f"finalize_fills {walls[-1]:.3f} s")
    assert len(digests) == 1, digests
    print(f"median over {repeats}: run_kg {statistics.median(calls):.3f} s,"
          f" finalize_fills {statistics.median(walls[1:]):.4f} s")
    (n, h), = digests
    print(f"consistent fills {n} {h}")
ray.shutdown()
