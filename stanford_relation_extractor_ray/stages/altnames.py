"""Alternate-names extraction (SURVEY.md §2.2 / §2.6).

Ray-Data shape of the reference's ``AlternateNamesExtractor``
(``kbp/slotfilling/evaluate/AlternateNamesExtractor.java``): an alias
surface observed for a linked entity in at least ``min_sentences``
DISTINCT sentences yields a ``per:/org:alternate_names`` fill.

Evidence comes from the candidates table: a candidate whose raw subject
surface differs from its linked canonical subject is one (canonical,
alias) observation with its (doc_id, sent_idx) sentence key. The
distinct-sentence count is a pre-aggregated distributed count:
per-batch sets first, then a small ``groupby`` over (canonical, alias)
partials — the groupby input is one row per distinct pair per batch,
not one per observation.
"""

from __future__ import annotations

import pyarrow as pa

from ..schemas import FILLS_SCHEMA

ALT_SCORE = 0.9


def alternate_name_fills(candidates_with_surface, *,
                         min_sentences: int = 2):
    """Dataset with (subj, subj_type, raw_subj, doc_id, sent_idx) →
    alternate_names fills Dataset.

    ``raw_subj`` is the pre-linking surface; rows where it equals the
    canonical subject carry no alias evidence and are dropped in the
    first (vectorized) pass.

    Each fill ships REAL provenance — the minimum (doc_id, sent_idx)
    evidence sentence and the alias span within it — the reference's
    deterministic provenance backoff (``SimpleSlotFiller.java:484-676``
    recovers provenance for exactly these fills; carrying the best
    evidence row through the aggregation does it in zero extra passes).
    One coarse-pid shuffle: per-batch distinct evidence rows, then a
    pandas nunique+min per (canonical, alias) inside each partition.
    """
    from ..runtime import by_key

    def partial(batch: pa.Table) -> pa.Table:
        subj = batch.column("subj").to_pylist()
        styp = batch.column("subj_type").to_pylist()
        raw = batch.column("raw_subj").to_pylist()
        doc = batch.column("doc_id").to_pylist()
        sent = batch.column("sent_idx").to_pylist()
        if "subj_begin" in batch.column_names:
            sb = batch.column("subj_begin").to_pylist()
            se = batch.column("subj_end").to_pylist()
        else:
            sb = [0] * batch.num_rows
            se = [0] * batch.num_rows
        seen: dict[tuple, tuple] = {}
        for s, t, r, d, x, b, e in zip(subj, styp, raw, doc, sent,
                                       sb, se):
            if r and r != s:
                k = (s, t, r, d, x)
                prev = seen.get(k)
                if prev is None or (b, e) < prev:   # deterministic span
                    seen[k] = (b, e)
        ks = sorted(seen)
        return pa.table({
            "subj": pa.array([k[0] for k in ks], pa.string()),
            "subj_type": pa.array([k[1] for k in ks], pa.string()),
            "alias": pa.array([k[2] for k in ks], pa.string()),
            "doc_id": pa.array([k[3] for k in ks], pa.string()),
            "sent_idx": pa.array([k[4] for k in ks], pa.int32()),
            "begin": pa.array([seen[k][0] for k in ks], pa.int32()),
            "end": pa.array([seen[k][1] for k in ks], pa.int32())})

    def to_fills(group: pa.Table) -> pa.Table:
        df = group.to_pandas()
        if len(df) == 0:
            return FILLS_SCHEMA.empty_table()
        df = df.sort_values(["subj", "subj_type", "alias", "doc_id",
                             "sent_idx", "begin", "end"],
                            kind="mergesort") \
            .drop_duplicates(["subj", "subj_type", "alias", "doc_id",
                              "sent_idx"])
        g = df.groupby(["subj", "subj_type", "alias"], sort=True)
        agg = g.agg(n_sentences=("doc_id", "size"),
                    doc_id=("doc_id", "first"),
                    sent_idx=("sent_idx", "first"),
                    begin=("begin", "first"),
                    end=("end", "first")).reset_index()
        agg = agg[agg["n_sentences"] >= min_sentences]
        n = len(agg)
        styp = agg["subj_type"].tolist()
        pred = ["per:alternate_names" if t == "PERSON"
                else "org:alternate_names" for t in styp]
        spans = [[int(b), int(e)]
                 for b, e in zip(agg["begin"], agg["end"])]
        return pa.Table.from_arrays(
            [pa.array(agg["subj"].tolist(), pa.string()),
             pa.array(styp, pa.string()),
             pa.array(pred, pa.string()),
             pa.array(agg["alias"].tolist(), pa.string()),
             pa.array(styp, pa.string()),
             pa.array([ALT_SCORE] * n, pa.float64()),
             pa.array(agg["doc_id"].tolist(), pa.string()),
             pa.array([int(x) for x in agg["sent_idx"]], pa.int32()),
             pa.array(spans, pa.list_(pa.int32())),
             pa.array(spans, pa.list_(pa.int32()))],
            schema=FILLS_SCHEMA)

    return by_key(candidates_with_surface.map_batches(
        partial, batch_format="pyarrow"), ["subj", "alias"], to_fills)
