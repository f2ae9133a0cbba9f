"""End-to-end knowledge-graph construction pipeline.

The Ray-Data re-expression of the reference's slot-filling lifecycle
(SURVEY.md §3.1): documents → fused extraction (NLP annotate → mention
pairing → subject entity-linking → featurize → per-candidate scoring
with in-batch partial noisy-or, one stateless task per batch over
per-worker cached components, ``stages/extract_fused``) → per-triple
combine → object linking → per-entity greedy consistency (one shuffle,
``consistency.combine_enforce``) → unary rewrite/filter chain →
canonicalization
(two tiers sharing one set of kernels — a zero-execution driver tier
below the surface gate and a Dataset-only tier above it, see
``build_graph``) → node/edge tables.

Two entry styles:
- ``extract_fills(docs)`` — the streaming lazy pipeline for one shard.
- ``run_kg(...)`` — the resumable job: shards the doc-id range, runs and
  checkpoints each shard's fills to Parquet with a per-partition lineage
  manifest (state/manifest.py), then runs the global stages over the
  union of shard outputs. Rerunning after a kill skips completed shards.

The per-row span-sequence invariant: the pipeline never mutates the
``documents`` dataset — media spans and span order flow to any document
re-emission unchanged (``passthrough_documents`` is the identity stage
tests verify against).
"""

from __future__ import annotations

import os

import pyarrow as pa

from ..corpus import documents_dataset
from ..state.manifest import Manifest, digest
from ..stages import consistency, link, mentions, nlp


def passthrough_documents(documents):
    """Identity re-emission of documents (span invariant surface)."""
    return documents.map_batches(lambda b: b, batch_format="pyarrow")


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


def provenance_sentences(fills_mat, seed: int = 42):
    """(doc_id, sent_idx, text) rows for exactly the provenance
    documents of a (small, materialized) fills table.

    The consistent-fills table is bounded by the entity universe, not
    the corpus, so its distinct provenance doc-id set is tiny; those
    documents are regenerated from the seeded corpus generator — NO
    pass over (or shuffle of) the full corpus. This is the gloss
    substrate for the unary rewrite chain and provenance recovery
    (``SimpleSlotFiller.java:484-676`` restructured per SURVEY §7.4).
    Returns None when no provenance doc id is recoverable (external
    corpora should pass their own sentences dataset instead).
    """
    import re

    import ray.data as rd

    from ..corpus import _docs_batch

    doc_ids = set(
        fills_mat.select_columns(["doc_id"]).to_pandas()["doc_id"])
    # only exact generator-format ids (d%09d): anything else (e.g. a
    # virtual-IR TSV's own ids) must NOT be "recovered" from the
    # generator — the join would attach a wrong document's gloss
    ids = sorted(int(m.group(1)) for d in doc_ids
                 if (m := re.fullmatch(r"d(\d{9})", d)))
    if not ids:
        return None

    def to_docs(batch):
        return _docs_batch(batch, seed)

    docs = rd.from_items([{"id": i} for i in ids]) \
        .map_batches(to_docs, batch_format="numpy", batch_size=2048)
    return sentences_from_documents(docs)


def sentences_from_documents(documents):
    """documents → (doc_id, sent_idx, text) rows; sent_idx counts text
    spans positionally (media spans skipped), matching
    ``NLPAnnotator.iter_sentences``. No NLP — pure span splitting."""
    def split(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        doc_col = batch.column("doc_id").to_pylist()
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        kinds = flat.field("kind").to_pylist()
        texts = flat.field("text").to_pylist()
        lengths = pc.list_value_length(spans).to_pylist()
        out_d, out_s, out_t = [], [], []
        pos = 0
        for doc_id, ln in zip(doc_col, lengths):
            sent_idx = 0
            for k in range(pos, pos + ln):
                if kinds[k] != "text":
                    continue
                out_d.append(doc_id)
                out_s.append(sent_idx)
                out_t.append(texts[k])
                sent_idx += 1
            pos += ln
        return pa.table({"doc_id": pa.array(out_d, pa.string()),
                         "sent_idx": pa.array(out_s, pa.int32()),
                         "text": pa.array(out_t, pa.string())})

    return documents.map_batches(split, batch_format="pyarrow")


# fills-table size below which the unary chain runs driver-side in one
# process (saves three fixed-latency Ray executions on tiny data); the
# distributed gloss join + apply_unary handles everything above it
SMALL_FILLS = 100_000


def _postprocess_driver_side(consistent_mat, seed: int,
                             known: dict | None):
    """Driver-side unary chain over a (small, materialized) fills
    table: glosses regenerated from the seeded corpus per provenance
    doc, the SAME ``unary_chain`` applied in one call. Returns None
    when the rows can't be collected (defensive; callers fall back to
    the distributed path)."""
    import re

    import ray.data as rd

    from ..corpus import doc_plan
    from ..schemas import FILLS_SCHEMA
    from ..stages.postprocess import unary_chain
    from ..stages.worldknowledge import get_geography
    from ..world import get_world

    # columnar collection: Ray's per-row take_all on pandas blocks
    # costs ~7 ms/row (profiled 37 s on a 5.6k-fill table) — to_pandas
    # is a vectorized block concat
    df = consistent_mat.to_pandas()
    if len(df) == 0:
        return consistent_mat
    world = get_world(seed)
    sent_cache: dict[int, list[str]] = {}

    def sentences_of(did: int) -> list[str]:
        hit = sent_cache.get(did)
        if hit is None:
            spans, _ = doc_plan(did, world)
            hit = sent_cache[did] = [s["text"] for s in spans
                                     if s["kind"] == "text"]
        return hit

    glosses = []
    for d, si in zip(df["doc_id"], df["sent_idx"]):
        m = re.fullmatch(r"d(\d{9})", d)
        gloss = ""
        if m is not None:
            sents = sentences_of(int(m.group(1)))
            if 0 <= si < len(sents):
                gloss = sents[si]
        glosses.append(gloss)
    batch = pa.Table.from_arrays(
        [pa.array([v.tolist() if hasattr(v, "tolist") else v
                   for v in df[name]], typ)
         for name, typ in zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
        schema=FILLS_SCHEMA) \
        .append_column("gloss", pa.array(glosses, pa.string()))
    out = unary_chain(batch, known=known, geo=get_geography()) \
        .drop_columns(["gloss"])
    return rd.from_arrow(out)


def finalize_fills(fills, *, seed: int = 42, aliases_ref=None,
                   objective: str = "TOP",
                   mixing_time: int = 10, postprocess: bool = True,
                   sentences="auto", known: dict | None = None,
                   repair: bool = False):
    """raw fills → consistent, object-linked fills (global stages).

    One fused shuffle (``consistency.combine_enforce``), equivalent to
    the three-stage chain classify.combine_fills → link.link →
    consistency.enforce. ``objective`` selects the consistency engine
    (TOP greedy / SUM Gibbs restarts).

    ``postprocess=True`` (the default — the reference applies its
    unary rewrite/filter chain to EVERY fill,
    ``SlotfillPostProcessor.java:104-141``,
    ``SimpleSlotFiller.java:293-313``) runs
    ``stages.postprocess.apply_unary`` over the consistent fills with
    sentence glosses attached. ``sentences`` is "auto" (regenerate the
    tiny provenance-doc set from the seeded corpus —
    ``provenance_sentences``), a (doc_id, sent_idx, text) Dataset, or
    None (chain without glosses). ``known`` feeds the
    FilterAlreadyKnownSlots anti-join. The official-eval pipeline
    passes ``postprocess=False`` and applies the chain itself with
    per-query ignored slots.
    """
    consistent = consistency.combine_enforce(
        fills, aliases_ref=aliases_ref, seed=seed,
        objective=objective, mixing_time=mixing_time)
    if not postprocess:
        return consistent
    from ..stages import postprocess as pp

    # consistent fills are tiny (entity-universe-bounded); materialize
    # once so the gloss join and the provenance doc-id read below do
    # not each re-run the combine/consistency shuffle
    consistent = consistent.materialize()
    if isinstance(sentences, str) and sentences == "auto":
        if consistent.count() <= SMALL_FILLS:
            # small-side gate (the canonical_map pattern): the chain
            # is 3 fixed-latency Ray executions on a table this size;
            # run the IDENTICAL unary_chain driver-side with glosses
            # regenerated from the seeded corpus. Above the gate the
            # distributed gloss join below takes over. Equality is
            # pinned by tests/test_pipeline_e2e.py.
            out = _postprocess_driver_side(consistent, seed, known)
            if repair and out is not None:
                # same None guard as the distributed branch below:
                # external corpora yield no recoverable provenance docs
                repair_sents = provenance_sentences(consistent, seed)
                if repair_sents is not None:
                    import ray

                    from ..world import get_world
                    alias_rows = ray.get(aliases_ref) \
                        if aliases_ref is not None \
                        else get_world(seed).alias_table()
                    out = pp.repair_provenance(
                        out, repair_sents, aliases=alias_rows)
            if out is not None:
                return out
        sentences = provenance_sentences(consistent, seed)
    out = pp.apply_unary(consistent, sentences, known=known,
                         with_geo=True)
    if repair and sentences is not None:
        # opt-in provenance-recovery pass (weak provenance → best
        # supporting sentence within the supplied sentences dataset)
        import ray

        from ..world import get_world
        alias_rows = ray.get(aliases_ref) if aliases_ref is not None \
            else get_world(seed).alias_table()
        out = pp.repair_provenance(out, sentences, aliases=alias_rows)
    return out


def extract_alternate_names(documents, *, seed: int = 42,
                            aliases_ref=None, min_sentences: int = 2):
    """documents → per:/org:alternate_names fills from alias surfaces
    observed in ≥ min_sentences distinct sentences (the
    AlternateNamesExtractor path — stages/altnames.py)."""
    from ..stages.altnames import alternate_name_fills
    from ..stages.link import _cached_linker
    sentences = nlp.annotate(documents, seed=seed)
    cands = mentions.pair(sentences)
    cands = cands.map_batches(
        lambda b: _cached_linker(aliases_ref, seed, keep_raw=True)(b),
        batch_format="pyarrow")
    return alternate_name_fills(cands, min_sentences=min_sentences)


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
        import numpy as np
        h.update(np.ascontiguousarray(d[key]).tobytes())
    return h.hexdigest()[:16]


def build_graph(consistent_fills):
    """→ (nodes, edges). Two size tiers that run the same
    canonicalization kernels (stages/canonicalize.py): a ZERO-execution
    driver tier when the consistent fills themselves are tiny (every
    fill contributes ≤2 surfaces, so ``2·count ≤ SMALL_SURFACES``
    bounds the surface universe below the gate without computing it),
    where nodes is an Arrow table; and the Dataset tier above it —
    blocking, components, root join, representative pick,
    co-partition canonical rewrite — where nodes is a Dataset too
    (nothing entity-universe-bounded on the driver).
    """
    from ..stages.canonicalize import (SMALL_SURFACES, driver_graph,
                                       materialize_graph_ds)
    consistent_fills = consistent_fills.materialize()
    if 2 * consistent_fills.count() <= SMALL_SURFACES:
        return driver_graph(consistent_fills)
    return materialize_graph_ds(consistent_fills)


def run_kg(n_docs: int, *, seed: int = 42, model_ref=None,
           checkpoint_dir: str | None = None, n_shards: int = 8,
           out_dir: str | None = None):
    """The full resumable job. Returns dict with fills/nodes/edges.

    With ``checkpoint_dir``, each doc-id shard's fills are materialized
    to ``<dir>/fills/part=<k>/`` guarded by a lineage manifest; a rerun
    recomputes only missing or stale shards.
    """
    import ray
    import ray.data as rd

    aliases_ref = link.build_alias_ref(seed)

    if checkpoint_dir is None:
        docs = documents_dataset(n_docs, seed)
        fills = extract_fills(docs, seed=seed, aliases_ref=aliases_ref,
                              model_ref=model_ref)
    else:
        man = Manifest(checkpoint_dir, "fills")
        per = (n_docs + n_shards - 1) // n_shards
        model_fp = _model_fingerprint(model_ref)
        for k in range(n_shards):
            lo, hi = k * per, min((k + 1) * per, n_docs)
            if lo >= hi:
                continue
            # the 4 is the retired bag-salt count: kept so the digests
            # of existing checkpoints stay valid
            d = digest("fills", seed, lo, hi, 4, model_fp)
            part = f"{k:04d}"
            if man.is_done(part, d):
                continue
            tmp = man.begin(part)
            docs = rd.range(hi - lo).map_batches(
                lambda b, lo=lo: {"id": b["id"] + lo},
                batch_format="numpy")
            from ..corpus import _docs_batch
            docs = docs.map_batches(
                lambda b: _docs_batch(b, seed), batch_format="numpy",
                batch_size=2048)
            shard_fills = extract_fills(
                docs, seed=seed, aliases_ref=aliases_ref,
                model_ref=model_ref)
            shard_fills.write_parquet(tmp)
            import pyarrow.dataset as pads
            rows = pads.dataset(tmp).count_rows()
            man.commit(part, d, rows)
        from ..storage import read_parquet_clean
        fills = read_parquet_clean(man.completed_files())

    consistent = finalize_fills(fills, seed=seed, aliases_ref=aliases_ref)
    # consistency/canonicalization consume the fills twice → materialize
    # the (small) consistent-fills table once, not the whole corpus.
    consistent = consistent.materialize()
    nodes, edges = build_graph(consistent)
    if out_dir is not None:
        import ray.data as rd

        from ..storage import write_table
        os.makedirs(out_dir, exist_ok=True)
        write_table(edges, os.path.join(out_dir, "edges"))
        nodes_ds = rd.from_arrow(nodes) if isinstance(nodes, pa.Table) \
            else nodes
        write_table(nodes_ds, os.path.join(out_dir, "nodes"))
    return {"fills": consistent, "nodes": nodes, "edges": edges}
