"""sha256 digests (first 16 hex digits) and row counts of the entity-
linking paths at one seed, to compare two checkouts:

- the linked candidates of N_DOCS generated docs (pattern-only pairing,
  ``EntityLinker`` per 4096-doc batch), restricted to the
  ``CANDIDATES_SCHEMA`` columns;
- ``link_objects`` over the merged partial fills of the same docs;
- ``kg.extract_alternate_names`` over the same docs;
- ``link_via_join`` of the unlinked candidates against
  ``alias_dataset(SEED)``.

Rows are sorted before hashing, so only the row sets count.

Usage, from the root of a checkout:
    PYTHONPATH=. python scripts/link_digests.py SEED [N_DOCS]
"""
import hashlib
import sys

import numpy as np
import pyarrow as pa
import ray

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from stanford_relation_extractor_ray.corpus import (_docs_batch,
                                                    documents_dataset)
from stanford_relation_extractor_ray.pipelines import kg
from stanford_relation_extractor_ray.runtime import collect_table
from stanford_relation_extractor_ray.schemas import (CANDIDATES_SCHEMA,
                                                     FILLS_SCHEMA)
from stanford_relation_extractor_ray.stages.classify import \
    merge_fills_table
from stanford_relation_extractor_ray.stages.link import (
    EntityLinker, alias_dataset, link_objects, link_via_join)
from stanford_relation_extractor_ray.stages.mentions import \
    pair_candidates_fused
from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator

seed = int(sys.argv[1])
n_docs = int(sys.argv[2]) if len(sys.argv) > 2 else 4096
BATCH = 4096


def show(name: str, table: pa.Table):
    rows = sorted(repr(tuple(r.values())) for r in table.to_pylist())
    m = hashlib.sha256()
    for r in rows:
        m.update(r.encode() + b"\n")
    print(name, len(rows), m.hexdigest()[:16])


nlp, linker = NLPAnnotator(seed), EntityLinker(None, seed)
raw, linked = [], []
for lo in range(0, n_docs, BATCH):
    docs = _docs_batch({"id": np.arange(lo, min(lo + BATCH, n_docs))},
                       seed)
    cands = pair_candidates_fused(nlp, docs).select(CANDIDATES_SCHEMA.names)
    raw.append(cands)
    linked.append(linker(cands).select(CANDIDATES_SCHEMA.names))
show("linked_candidates", pa.concat_tables(linked))

partials = collect_table(kg.extract_fills(documents_dataset(n_docs, seed),
                                          seed=seed).materialize(),
                        FILLS_SCHEMA)
show("link_objects", link_objects(merge_fills_table(partials),
                                  EntityLinker(None, seed)))
show("alternate_names", collect_table(kg.extract_alternate_names(
    documents_dataset(n_docs, seed), seed=seed).materialize(), FILLS_SCHEMA))
show("link_via_join", pa.Table.from_pylist(link_via_join(
    ray.data.from_arrow(raw), alias_dataset(seed)).take_all())
    .select(CANDIDATES_SCHEMA.names))
ray.shutdown()
