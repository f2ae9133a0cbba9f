"""sha256 digests (first 16 hex digits) of the bucket-pair operators at
one seed, to compare two checkouts: MinHash LSH pairs, SimHash pairs
and the connected components of the MinHash pairs (driver union-find
and, with ``SMALL_CC_PAIRS`` at 0, label propagation) on perfbench's
``dedup_corpus(SEED, 2500)``; then the driver-tier and Dataset-tier
canonical maps of a ``finalize_fills`` output over 800 generated docs.
Rows are sorted before hashing, so only the row sets count.

Usage, from the root of a checkout:
    PYTHONPATH=. python scripts/pair_digests.py SEED
"""
import hashlib
import os
import sys

import ray

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "perfbench"))
import inputs

from stanford_relation_extractor_ray.corpus import documents_dataset
from stanford_relation_extractor_ray.pipelines.kg import (extract_fills,
                                                          finalize_fills)
from stanford_relation_extractor_ray.runtime import collect_table
from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
from stanford_relation_extractor_ray.stages import canonicalize, dedup

seed = int(sys.argv[1])


def dig(rows) -> str:
    rows = sorted(repr(r) for r in rows)
    m = hashlib.sha256()
    for r in rows:
        m.update(r.encode() + b"\n")
    return m.hexdigest()[:16]


def show(name, rows: list):
    print(name, len(rows), dig(rows))


def records(ds) -> list:
    return [tuple(r.values()) for r in ds.to_pandas().to_dict("records")]


docs, _ = inputs.dedup_corpus(seed, 2500)
docs_ds = ray.data.from_arrow([docs.slice(i, 625)
                               for i in range(0, docs.num_rows, 625)])
pairs = dedup.minhash_lsh_pairs(docs_ds, k=3, num_perm=128, bands=64,
                                threshold=0.5).materialize()
show("minhash_pairs", records(pairs))
show("simhash_pairs", records(dedup.simhash_pairs(docs_ds, radius=3)))
show("components_driver", [(r["id"], r["root"]) for r in
                           dedup.connected_components_ds(pairs)])
dedup.SMALL_CC_PAIRS = 0
show("components_propagation", [(r["id"], r["root"]) for r in
                                dedup.connected_components_ds(pairs)])

fills = finalize_fills(extract_fills(documents_dataset(800, seed),
                                     seed=seed), seed=seed).materialize()
surfaces = canonicalize.surface_weights(collect_table(fills, FILLS_SCHEMA))
show("canonical_map_driver", [tuple(r.values()) for r in
                              canonicalize.canonical_map(surfaces)
                              .to_pylist()])
show("canonical_map_dataset", records(canonicalize.canonical_map_ds(
    canonicalize._surface_table(fills))))
ray.shutdown()
