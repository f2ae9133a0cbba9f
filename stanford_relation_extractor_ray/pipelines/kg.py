"""End-to-end knowledge-graph construction pipeline.

The Ray-Data re-expression of the reference's slot-filling lifecycle
(SURVEY.md §3.1): documents → fused extraction (NLP annotate → mention
pairing → subject entity-linking → featurize → per-candidate scoring
with in-batch partial noisy-or, one stateless task per batch over
per-worker cached components, ``stages/extract_fused``) → per-triple
combine → object linking → per-entity greedy consistency → unary
rewrite/filter chain over glosses from the regenerated provenance
documents (one finalize kernel, ``_finalize_table``, in two tiers: once
on the driver below the fills gate, per subject partition behind one
shuffle above it, see ``finalize_fills``) → canonicalization (two tiers
sharing one set of kernels — a zero-execution driver tier below the
surface gate and a Dataset-only tier above it, see ``build_graph``) →
node/edge tables.

Two entry styles:
- ``extract_fills(docs)`` — the streaming lazy pipeline over a documents
  Dataset (``run_kg`` without a checkpoint).
- ``run_kg(...)`` — the resumable job: shards the doc-id range, extracts
  every stale shard in one Ray Data execution with one staged write and
  checkpoints each shard's fills to Parquet with a per-partition lineage
  manifest (state/manifest.py), then runs the global stages over the
  union of shard outputs (read on the driver when small) and
  checkpoints their answer — consistent fills, nodes, edges — as one
  more manifest stage, the graph boundary. Rerunning after a kill skips
  completed shards; a rerun that recomputes no shard reads the
  boundary back instead of re-running finalize and the graph build.

The per-row span-sequence invariant: the pipeline never mutates the
``documents`` dataset — media spans and span order flow to any document
re-emission unchanged (tests verify it with an identity stage).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..corpus import documents_dataset
from ..schemas import EDGES_SCHEMA, FILLS_SCHEMA, NODES_SCHEMA
from ..state.manifest import Manifest, digest
from ..stages import consistency, link, mentions, nlp
from ..stages.classify import PARTIAL_SCHEMA

# folded into every shard and graph-boundary checkpoint digest (with
# the fills schema): bump on any change to what extraction, finalize or
# the graph build write for the same inputs, so checkpoints written by
# older code recompute instead of being reused
PIPELINE_VERSION = 1


def extract_fills(documents, *, seed: int = 42, aliases_ref=None,
                  model_ref=None):
    """documents Dataset → raw (partial) fills Dataset (lazy, streaming).

    The fused fast path: per-candidate scoring with in-batch partial
    noisy-or aggregation (classify.CandidateScorer) — provably
    equivalent to the literal reference dataflow (nlp.annotate →
    mentions.pair → link → featurize → salted bags.assemble →
    classify.classify, all still registered stages) because noisy-or
    distributes over bag partitions, and one full shuffle cheaper.
    """
    from ..stages.extract_fused import extract
    return extract(documents, seed=seed, aliases_ref=aliases_ref,
                   model_ref=model_ref)


def document_sentences(batch: pa.Table) -> pa.Table:
    """documents → (doc_id, sent_idx, text) rows; sent_idx counts text
    spans positionally (media spans skipped), matching
    ``NLPAnnotator.iter_sentences``. Arrow list kernels, no per-span
    Python."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans).to_numpy()
    is_text = pc.fill_null(pc.equal(flat.field("kind"), "text"), False) \
        .to_numpy(zero_copy_only=False)
    # text spans before each span, minus those before its parent's
    # first span (a parent's spans are contiguous in the flattening)
    before = np.concatenate([[0], np.cumsum(is_text)])
    pos = np.arange(len(parent))
    first = np.ones(len(parent), bool)
    first[1:] = parent[1:] != parent[:-1]
    start = np.maximum.accumulate(np.where(first, pos, 0))
    keep = np.flatnonzero(is_text)
    return pa.Table.from_arrays(
        [batch.column("doc_id").take(parent[keep]),
         pa.array((before[keep] - before[start[keep]]).astype(np.int32)),
         flat.field("text").take(keep)],
        names=["doc_id", "sent_idx", "text"])


def sentences_from_documents(documents):
    """``document_sentences`` over a documents Dataset."""
    return documents.map_batches(document_sentences,
                                 batch_format="pyarrow")


# partial-fills row count up to which finalize runs on the driver (the
# partials bound the consistent fills)
SMALL_FILLS = 100_000


def _generator_sentences(doc_ids, seed: int) -> pa.Table:
    """(doc_id, sent_idx, text) of every generator-format document
    among ``doc_ids`` (``corpus.parse_doc_ids``; other ids are
    skipped), each regenerated once, in doc-number order."""
    from ..corpus import _docs_batch, parse_doc_ids
    ids = sorted(pc.unique(parse_doc_ids(doc_ids).drop_null()).to_pylist())
    return document_sentences(_docs_batch(
        {"id": np.asarray(ids, np.int64)}, seed))


def _finalize_table(partials: pa.Table, *, linker, engine, seed: int,
                    postprocess: bool) -> pa.Table:
    """The finalize kernel of both tiers: partials holding every partial
    of their subjects → consistent fills (``consistency.
    finalize_partition``); with ``postprocess``, those fills then run
    the unary chain, each with its gloss looked up among the sentences
    of its own provenance documents (regenerated from the seeded corpus
    generator; "" for any other doc id)."""
    from ..stages.postprocess import glosses, unary_chain
    from ..stages.worldknowledge import get_geography

    out = consistency.finalize_partition(partials, linker=linker,
                                         engine=engine)
    if not postprocess:
        return out
    sents = _generator_sentences(out.column("doc_id"), seed)
    out = out.append_column("gloss", glosses(out, sents))
    return unary_chain(out, geo=get_geography()).drop_columns(["gloss"])


def finalize_fills(fills, *, seed: int = 42, aliases_ref=None,
                   objective: str = "TOP",
                   mixing_time: int = 10, postprocess: bool = True):
    """raw (partial) fills → consistent, object-linked fills (global
    stages).

    Two size tiers run one kernel, ``_finalize_table``: the noisy-or
    merge → object linking → per-subject consistency engine
    (``consistency.finalize_partition``, equivalent to the three-stage
    chain classify.combine_fills → link.link → consistency.enforce),
    then with ``postprocess`` the unary rewrite/filter chain. The
    partials are materialized and gated on their row count: up to
    ``SMALL_FILLS`` the kernel runs once on the driver over one Arrow
    table — zero Ray Data executions on a materialized input; above it
    once per coarse ``hash(subj)`` partition behind ONE shuffle (a
    partition holds every partial of its subjects; the map side
    pre-merges each ~64k-row window, ``classify.local_combine``).
    ``objective`` selects the consistency engine (TOP greedy / SUM
    Gibbs restarts).

    ``postprocess=True`` (the default — the reference applies its
    unary rewrite/filter chain to EVERY fill,
    ``SlotfillPostProcessor.java:104-141``,
    ``SimpleSlotFiller.java:293-313``) glosses each fill from its
    regenerated provenance document. The chain is per row and a
    document regenerates the same way on its own, so the per-partition
    chain gives the driver tier's rows. Pipelines with their own
    sentences or chain options (official eval, virtual IR) pass
    ``postprocess=False`` and call ``stages.postprocess.apply_unary``.
    """
    from ..runtime import by_key, collect_table, materialized, table_dataset
    from ..stages.classify import local_combine
    from ..stages.link import EntityLinker, _cached_linker

    engine = consistency.make_engine(objective, mixing_time, seed)
    fills = materialized(fills)
    if fills.count() <= SMALL_FILLS:
        # a plain linker, not ``_cached_linker``: worker_cached would
        # retune this (client) process's GC thresholds
        return table_dataset(_finalize_table(
            collect_table(fills, FILLS_SCHEMA),
            linker=EntityLinker(aliases_ref, seed), engine=engine,
            seed=seed, postprocess=postprocess))

    def finalize(group: pa.Table) -> pa.Table:
        return _finalize_table(
            group, linker=_cached_linker(aliases_ref, seed), engine=engine,
            seed=seed, postprocess=postprocess)

    return by_key(fills.map_batches(local_combine, batch_format="pyarrow",
                                    batch_size=65536),
                  "subj", finalize)


def extract_alternate_names(documents, *, seed: int = 42,
                            aliases_ref=None, min_sentences: int = 2):
    """documents → per:/org:alternate_names fills from alias surfaces
    observed in ≥ min_sentences distinct sentences (the
    AlternateNamesExtractor path — stages/altnames.py)."""
    from ..stages.altnames import alternate_name_fills
    cands = mentions.pair(nlp.annotate(documents, seed=seed))
    return alternate_name_fills(
        link.link(cands, aliases_ref=aliases_ref, seed=seed),
        min_sentences=min_sentences)


def _model_fingerprint(model_ref) -> str:
    """Stable fingerprint of the scorer model for checkpoint lineage:
    a shard checkpointed under one model must not be reused for a rerun
    with different weights (the shard digest folds this in)."""
    if model_ref is None:
        return "pattern-only"
    import hashlib

    import ray
    d = ray.get(model_ref) if hasattr(model_ref, "hex") else model_ref
    if d is None:
        return "pattern-only"
    h = hashlib.sha256()
    for key in sorted(d):
        h.update(key.encode())
        h.update(np.ascontiguousarray(d[key]).tobytes())
    return h.hexdigest()[:16]


def _graph_on_driver(n_consistent: int) -> bool:
    """``build_graph``'s tier for ``n_consistent`` consistent fills, and
    so the type of the nodes a resume reads back: every fill
    contributes ≤2 surfaces, so ``2·count ≤ SMALL_SURFACES`` bounds the
    surface universe below the gate without computing it."""
    from ..stages.canonicalize import SMALL_SURFACES
    return 2 * n_consistent <= SMALL_SURFACES


def build_graph(consistent_fills):
    """→ (nodes, edges). Two size tiers that run the same
    canonicalization kernels (stages/canonicalize.py): a ZERO-execution
    driver tier when the consistent fills themselves are tiny
    (``_graph_on_driver``), where nodes is an Arrow table; and the
    Dataset tier above it — blocking, components, root join,
    representative pick, co-partition canonical rewrite — where nodes
    is a Dataset too (nothing entity-universe-bounded on the driver).
    """
    from ..runtime import materialized
    from ..stages.canonicalize import driver_graph, materialize_graph_ds
    consistent_fills = materialized(consistent_fills)
    if _graph_on_driver(consistent_fills.count()):
        return driver_graph(consistent_fills)
    return materialize_graph_ds(consistent_fills)


def _driver_table(files: dict[str, int], schema: pa.Schema) -> pa.Table:
    """Committed part files read with pyarrow on the driver, in order;
    ``schema``'s empty table when there are none."""
    tables = [pq.ParquetFile(f).read().replace_schema_metadata(None)
              for f in files]
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _read_parts(files: dict[str, int], schema: pa.Schema):
    """Committed part files → Dataset with every column they hold: while
    their committed rows fit ``SMALL_FILLS``, read on the driver and
    wrapped by ``runtime.table_dataset`` (materialized, so neither this
    nor a consumer's read of its blocks starts a Ray Data execution);
    above it a ``read_parquet`` one."""
    from ..runtime import table_dataset
    from ..storage import read_parquet_clean
    if sum(files.values()) > SMALL_FILLS:
        return read_parquet_clean(list(files))
    return table_dataset(_driver_table(files, schema))


def _commit_graph(graph: Manifest, graph_digest: str, consistent, nodes,
                  edges):
    """Write the graph boundary — ``fills/``, ``nodes/`` and ``edges/``
    under one partition — and commit it → (nodes, edges). The driver
    tier writes its tables with pyarrow; the Dataset tier materializes
    nodes and edges once, so writing them does not make the caller's
    read of them run the graph build again."""
    from ..runtime import collect_table
    if isinstance(nodes, pa.Table):
        tables = {"fills": collect_table(consistent, FILLS_SCHEMA),
                  "nodes": nodes,
                  "edges": collect_table(edges, EDGES_SCHEMA)}
    else:
        nodes, edges = nodes.materialize(), edges.materialize()
        tables = {"fills": consistent, "nodes": nodes, "edges": edges}
    tmp = graph.begin("0000")
    for name, t in tables.items():
        path = os.path.join(tmp, name)
        if isinstance(t, pa.Table):
            os.makedirs(path)
            pq.write_table(t, os.path.join(path, "0.parquet"))
        else:
            t.write_parquet(path)
    graph.commit("0000", graph_digest)
    return nodes, edges


def _read_graph(files: dict[str, int]):
    """The committed graph boundary → (consistent fills, nodes, edges)
    with ``build_graph``'s types: nodes an Arrow table in its driver
    tier, a Dataset above it."""
    by = {"fills": {}, "nodes": {}, "edges": {}}
    for path, rows in files.items():
        by[os.path.basename(os.path.dirname(path))][path] = rows
    if _graph_on_driver(sum(by["fills"].values())):
        nodes = _driver_table(by["nodes"], NODES_SCHEMA)
    else:
        nodes = _read_parts(by["nodes"], NODES_SCHEMA)
    return (_read_parts(by["fills"], FILLS_SCHEMA), nodes,
            _read_parts(by["edges"], EDGES_SCHEMA))


def _shards(n_docs: int, n_shards: int, seed: int,
            model_fp: str) -> list[tuple[str, str, int, int]]:
    """``(part, digest, lo, hi)`` of each non-empty doc-id shard."""
    per = (n_docs + n_shards - 1) // n_shards
    out = []
    for k in range(n_shards):
        lo, hi = k * per, min((k + 1) * per, n_docs)
        if lo < hi:
            out.append((f"{k:04d}", digest("fills", seed, lo, hi,
                                           PIPELINE_VERSION,
                                           str(FILLS_SCHEMA), model_fp),
                        lo, hi))
    return out


def _extract_chunk(batch: pa.Table, seed: int, aliases_ref,
                   model_ref) -> pa.Table:
    """One ``(part, lo, hi)`` chunk row → the partial fills of documents
    ``lo``…``hi - 1`` (one ``_extract_batch`` call, the batch
    ``extract_fills`` gives a shard of at most ``EXTRACT_BATCH``
    documents), each row tagged with the chunk's shard ``part``."""
    from ..corpus import _docs_batch
    from ..stages.extract_fused import _extract_batch
    lo, hi = batch["lo"][0].as_py(), batch["hi"][0].as_py()
    fills = _extract_batch(
        _docs_batch({"id": np.arange(lo, hi, dtype=np.int64)}, seed),
        seed, aliases_ref, model_ref)
    return fills.append_column("part",
                               pa.repeat(batch["part"][0], fills.num_rows))


def _extract_stale(man: Manifest, stale, *, seed: int, aliases_ref,
                   model_ref) -> None:
    """Extract every stale ``(part, digest, lo, hi)`` shard in ONE Ray
    Data execution, then commit each shard in order.

    The input holds one block per chunk of at most ``EXTRACT_BATCH``
    documents of a shard, so each chunk is one task; one hive-partitioned
    ``write_parquet`` stages every shard's fills under
    ``<stage>/_staging/part=<k>/``, and ``Manifest.begin`` adopts that
    dir as the shard's temp dir (an empty one when the shard has no
    fills). Shards must not run as concurrent executions from threads
    instead: two ``write_parquet`` calls in one driver race on Ray's
    ``HTTPFileSystem`` import."""
    import ray.data as rd

    from ..stages.extract_fused import EXTRACT_BATCH, unreserved
    chunks = [pa.table({"part": [part], "lo": [a],
                        "hi": [min(a + EXTRACT_BATCH, hi)]})
              for part, _, lo, hi in stale
              for a in range(lo, hi, EXTRACT_BATCH)]
    ds = unreserved(rd.from_blocks(chunks).map_batches(
        _extract_chunk,
        fn_kwargs={"seed": seed, "aliases_ref": aliases_ref,
                   "model_ref": model_ref},
        batch_format="pyarrow", batch_size=None))
    staging = man.staging_dir()
    ds.write_parquet(staging, partition_cols=["part"])
    for part, d, _, _ in stale:
        man.begin(part, staged=True)
        man.commit(part, d)
    shutil.rmtree(staging)


def run_kg(n_docs: int, *, seed: int = 42, model_ref=None,
           checkpoint_dir: str | None = None, n_shards: int = 8,
           out_dir: str | None = None):
    """The full resumable job. Returns dict with fills/nodes/edges.

    With ``checkpoint_dir``, the doc-id range is cut into ``n_shards``
    shards whose partial fills are checkpointed to
    ``<dir>/fills/part=<k>/`` under a lineage manifest. A call extracts
    every missing, stale or truncated shard in one Ray Data execution
    with one staged write, and commits each of them (``_extract_stale``);
    shards that are done are not recomputed. Shard files are read on the
    driver while their committed rows fit ``SMALL_FILLS``. The answer —
    consistent fills, nodes, edges — is then committed as the graph
    boundary ``<dir>/graph/part=0000/``, keyed by the ordered shard
    digests, ``seed``, ``PIPELINE_VERSION``, the fills schema and
    ``finalize_fills``' settings. A call that recomputed no shard and
    finds the boundary intact reads it back instead of re-running
    finalize and the graph build (no Ray Data execution below the
    gates).
    """
    from ..runtime import materialized, table_dataset

    if checkpoint_dir is not None and n_shards < 1:
        raise ValueError(f"run_kg: n_shards must be at least 1 with a "
                         f"checkpoint_dir, got {n_shards}")
    aliases_ref = link.build_alias_ref(seed)

    def global_stages(fills):
        consistent = finalize_fills(fills, seed=seed,
                                    aliases_ref=aliases_ref)
        # consistency/canonicalization consume the fills twice →
        # materialize the (small) consistent-fills table once, not the
        # whole corpus.
        consistent = materialized(consistent)
        return (consistent, *build_graph(consistent))

    if checkpoint_dir is None:
        docs = documents_dataset(n_docs, seed)
        consistent, nodes, edges = global_stages(extract_fills(
            docs, seed=seed, aliases_ref=aliases_ref,
            model_ref=model_ref))
    else:
        man = Manifest(checkpoint_dir, "fills")
        shards = _shards(n_docs, n_shards, seed,
                         _model_fingerprint(model_ref))
        stale = [s for s in shards if not man.is_done(*s[:2])]
        if stale:
            _extract_stale(man, stale, seed=seed, aliases_ref=aliases_ref,
                           model_ref=model_ref)
        graph = Manifest(checkpoint_dir, "graph")
        # run_kg finalizes with finalize_fills' keyword defaults
        graph_digest = digest("graph", [s[:2] for s in shards], seed,
                              PIPELINE_VERSION, str(FILLS_SCHEMA),
                              sorted(finalize_fills.__kwdefaults__
                                     .items()))
        if not stale and graph.is_done("0000", graph_digest):
            consistent, nodes, edges = _read_graph(graph.committed("0000"))
        else:
            files = {}
            for part, *_ in shards:
                files.update(man.committed(part))
            consistent, nodes, edges = global_stages(
                _read_parts(files, PARTIAL_SCHEMA))
            nodes, edges = _commit_graph(graph, graph_digest, consistent,
                                         nodes, edges)
    if out_dir is not None:
        from ..storage import write_table
        os.makedirs(out_dir, exist_ok=True)
        write_table(edges, os.path.join(out_dir, "edges"))
        nodes_ds = table_dataset(nodes) if isinstance(nodes, pa.Table) \
            else nodes
        write_table(nodes_ds, os.path.join(out_dir, "nodes"))
    return {"fills": consistent, "nodes": nodes, "edges": edges}
