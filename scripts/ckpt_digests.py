"""sha256 digests (first 16 hex digits) of a checkpointed ``run_kg``
call, to compare two checkouts: each shard's committed partial fills
(in file order, as ``run_kg`` reads them), then the consistent fills,
nodes and edges (rows sorted). It runs pattern-only and with the
``train_lr(400, SEED)`` model, each into a fresh checkpoint, and checks
that the resume of each recomputes nothing and gives the same digests.
Each run also prints the consistent fills of ``finalize_fills`` over
the same partials with ``kg.SMALL_FILLS = 0`` (the distributed tier).

Usage, from the root of a checkout:
    PYTHONPATH=. python scripts/ckpt_digests.py SEED N_DOCS N_SHARDS
"""
import hashlib
import os
import sys
import tempfile

import pyarrow as pa
import ray

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from stanford_relation_extractor_ray.pipelines import kg
from stanford_relation_extractor_ray.pipelines.train import train_lr
from stanford_relation_extractor_ray.runtime import (collect_table,
                                                     table_dataset)
from stanford_relation_extractor_ray.schemas import (EDGES_SCHEMA,
                                                     FILLS_SCHEMA,
                                                     NODES_SCHEMA)
from stanford_relation_extractor_ray.stages import link
from stanford_relation_extractor_ray.stages.classify import PARTIAL_SCHEMA
from stanford_relation_extractor_ray.state.manifest import Manifest

seed, n_docs, n_shards = (int(a) for a in sys.argv[1:4])


def dig(table: pa.Table, ordered: bool) -> str:
    """Digest of the column names and rows (``repr`` of a float is
    exact). Not of the schema: a Parquet round trip renames a list's
    child field from ``item`` to ``element``."""
    rows = [repr(r) for r in table.to_pylist()]
    if not ordered:
        rows.sort()
    m = hashlib.sha256(repr(table.column_names).encode())
    for r in rows:
        m.update(r.encode() + b"\n")
    return m.hexdigest()[:16]


def distributed_finalize(ckpt: str) -> pa.Table:
    """``finalize_fills`` above the gate over every committed shard's
    partials, in shard order, as one block."""
    man = Manifest(ckpt, "fills")
    files = {}
    for part in sorted(man._rows):
        files.update(man.committed(part))
    partials = table_dataset(kg._driver_table(files, PARTIAL_SCHEMA))
    gate, kg.SMALL_FILLS = kg.SMALL_FILLS, 0
    try:
        out = kg.finalize_fills(partials, seed=seed,
                                aliases_ref=link.build_alias_ref(seed))
        return collect_table(out.materialize(), FILLS_SCHEMA)
    finally:
        kg.SMALL_FILLS = gate


def graph_digests(out) -> list:
    nodes = out["nodes"] if isinstance(out["nodes"], pa.Table) else \
        collect_table(out["nodes"].materialize(), NODES_SCHEMA)
    return [(name, t.num_rows, dig(t, ordered=False)) for name, t in (
        ("fills", collect_table(out["fills"].materialize(), FILLS_SCHEMA)),
        ("nodes", nodes),
        ("edges", collect_table(out["edges"].materialize(), EDGES_SCHEMA)))]


with tempfile.TemporaryDirectory() as d:
    model = train_lr(400, seed, cache_dir=os.path.join(d, "model"))
    for name, model_ref in (("pattern", None), ("trained", ray.put(model))):
        ckpt = os.path.join(d, name)
        run, dirs = [], []
        for _ in range(2):
            run.append(kg.run_kg(n_docs, seed=seed, model_ref=model_ref,
                                 checkpoint_dir=ckpt, n_shards=n_shards))
            man = Manifest(ckpt, "fills")
            dirs.append({p: os.stat(man.partition_dir(p)).st_ino
                         for p in man._rows})
        assert dirs[0] == dirs[1], "the resume recomputed a shard"
        for part in sorted(man._rows):
            t = kg._driver_table(man.committed(part), PARTIAL_SCHEMA)
            print(name, f"shard {part}", t.num_rows, dig(t, ordered=True))
        first, resumed = (graph_digests(out) for out in run)
        assert first == resumed, (first, resumed)
        for key, rows, h in first:
            print(name, key, rows, h)
        t = distributed_finalize(ckpt)
        print(name, "fills SMALL_FILLS=0", t.num_rows, dig(t, ordered=False))
ray.shutdown()
