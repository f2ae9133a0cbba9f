"""Virtual-IR slot filling — the fork's main input path.

The reference fork replaces Lucene with a pre-retrieved
``candidate_sentences.txt`` (``SimpleSlotFiller.java:110-157``): per
query entity it dedups the retrieved sentence strings, caps them at
``index.test.sentences.per.entity`` (500,
``StanfordMIMLRE.properties:30``), annotates, and runs the per-entity
extraction chain (``:360-429``).

Ray-Data shape: the TSV streams through ``sources.
read_candidate_sentences``; per-entity dedup + cap is a coarse-pid
groupby with an in-partition pandas pass (never one Ray group per
entity); surviving sentences re-assemble into pseudo-documents
(one row per source doc, spans ordered by sentence index) that feed the
SAME fused extraction pipeline as the corpus scan — the virtual IR is
just another documents source.
"""

from __future__ import annotations

import pyarrow as pa

from ..corpus import DOCUMENTS_SCHEMA

SENT_LIMIT = 500


def virtual_ir_documents(cand_sentences, *, sent_limit: int = SENT_LIMIT):
    """candidate-sentences Dataset → documents Dataset.

    Per entity: distinct sentence TEXTS in (doc_id, sent_idx) order,
    capped at ``sent_limit`` (the reference's dedup + sentLimit
    counter); then sentences regroup by source document into
    ``(doc_id, spans)`` rows.
    """
    import pandas as pd

    from ..runtime import by_key

    def cap_per_entity(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["entity_id", "doc_id", "sent_idx"],
                            kind="mergesort")
        # distinct sentence strings per entity (reference dedups the
        # raw strings before annotation)
        df = df.drop_duplicates(["entity_id", "sentence"])
        df = df.groupby("entity_id", sort=False).head(sent_limit)
        return df[["doc_id", "sent_idx", "sentence"]]

    def to_documents(df: pd.DataFrame) -> pd.DataFrame:
        # one row per source document; spans ordered by sentence index
        # (two entities citing one sentence of one doc collapse)
        df = df.sort_values(["doc_id", "sent_idx"], kind="mergesort") \
            .drop_duplicates(["doc_id", "sent_idx"])
        rows = []
        for doc_id, grp in df.groupby("doc_id", sort=True):
            spans = [{"kind": "text", "text": s, "media_ref": "",
                      "offset": int(i)}
                     for i, s in zip(grp["sent_idx"], grp["sentence"])]
            rows.append({"doc_id": doc_id, "spans": spans})
        return pd.DataFrame(rows, columns=["doc_id", "spans"])

    capped = by_key(cand_sentences.select_columns(
        ["entity_id", "doc_id", "sent_idx", "sentence"]),
        "entity_id", cap_per_entity, batch_format="pandas")
    return by_key(capped, "doc_id", to_documents, batch_format="pandas") \
        .map_batches(_cast_documents, batch_format="pyarrow")


def _cast_documents(batch: pa.Table) -> pa.Table:
    """Rebuild the spans column field-by-field (Arrow struct casts do
    not reorder fields, and pandas emits them alphabetically)."""
    span_type = DOCUMENTS_SCHEMA.field("spans").type.value_type
    spans = [
        [{f.name: sp[f.name] for f in span_type}
         for sp in row]
        for row in batch.column("spans").to_pylist()]
    return pa.Table.from_arrays(
        [batch.column("doc_id").cast(pa.string()),
         pa.array(spans, pa.list_(span_type))],
        schema=DOCUMENTS_SCHEMA)


def fill_from_candidate_sentences(path: str, *, seed: int = 42,
                                  sent_limit: int = SENT_LIMIT,
                                  model_ref=None):
    """candidate_sentences TSV → consistent fills Dataset (the full
    virtual-IR slot-filling entry)."""
    from ..sources import read_candidate_sentences
    from ..stages import link, postprocess
    from . import kg

    docs = virtual_ir_documents(read_candidate_sentences(path),
                                sent_limit=sent_limit)
    aliases_ref = link.build_alias_ref(seed)
    fills = kg.extract_fills(docs, seed=seed, aliases_ref=aliases_ref,
                             model_ref=model_ref)
    # glosses come from the TSV's own sentences, not the seeded
    # corpus generator — these doc ids are foreign to it
    consistent = kg.finalize_fills(fills, seed=seed,
                                   aliases_ref=aliases_ref,
                                   postprocess=False)
    return postprocess.apply_unary(consistent,
                                   kg.sentences_from_documents(docs))
