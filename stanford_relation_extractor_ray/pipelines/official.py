"""Query-driven official evaluation — the reference's main entry path
(``kbp/slotfilling/evaluate/KBPEvaluator.java:152-197``; SURVEY.md
§3.1): query entities → per-entity fills → unary rewrite/filter chain →
greedy consistency → threshold tuning (FIXED / GLOBAL / PER_RELATION,
``KBPEvaluator.java:224-279``) → NIL-bearing official output + scored
P/R vs the gold key (``CustomSFScore.scoreByRelationName`` semantics).

Ray-Data shape: the corpus scan + extraction is the standard streaming
pipeline; query filtering is a broadcast id-set inside ``map_batches``;
the rewrite chain runs distributed with the gloss join
(stages/postprocess.py); only the final (tiny, per-query) fills table
reaches the driver for threshold tuning and file output.
"""

from __future__ import annotations

import pyarrow as pa

from ..corpus import documents_dataset, gold_triple_set
from ..vocab import RELATION_NAMES, RELATIONS
from ..world import get_world
from . import kg
from .evaluate import Score, score_fills


def make_queries(seed: int = 42, n: int | None = None) -> list[dict]:
    """Deterministic query-entity list from the synthetic world — the
    stand-in for a TAC query XML (``sources.read_query_entities`` reads
    the real format). One query per canonical PERSON/ORGANIZATION."""
    world = get_world(seed)
    out = []
    for i, ent in enumerate(world.entities):
        if ent.type not in ("PERSON", "ORGANIZATION"):
            continue
        out.append({"query_id": f"SF_{i:03d}", "name": ent.canonical,
                    "type": ent.type, "doc_id": "",
                    "ignored_slots": []})
    out.sort(key=lambda q: q["query_id"])
    if n is not None:   # test.nqueries subset (KBPEvaluator.java:158-163)
        out = out[:n]
    return out


def tune_thresholds(fill_rows: list[dict], gold: set, mode: str,
                    fixed: float = 0.0) -> dict[str | None, float]:
    """→ {relation (or None for the global default): threshold}.

    FIXED: ``slot.threshold`` as-is. GLOBAL: one optimal-F1 threshold
    from the full sweep. PER_RELATION: an optimal-F1 threshold per
    relation from that relation's fills vs that relation's gold
    triples (``KBPEvaluator.java:224-279``)."""
    if mode == "FIXED":
        return {None: fixed}
    if mode == "GLOBAL":
        return {None: score_fills(fill_rows, gold).optimal_threshold}
    if mode != "PER_RELATION":
        raise ValueError(f"unknown threshold mode: {mode}")
    out: dict[str | None, float] = {None: fixed}
    by_rel: dict[str, list[dict]] = {}
    for r in fill_rows:
        by_rel.setdefault(r["pred"], []).append(r)
    for rel, rows in by_rel.items():
        g = {t for t in gold if t[1] == rel}
        out[rel] = score_fills(rows, g).optimal_threshold if g else fixed
    return out


def official_eval(n_docs: int, *, seed: int = 42, queries=None,
                  n_queries: int | None = None,
                  threshold_mode: str = "FIXED",
                  fixed_threshold: float = 0.0,
                  known: dict | None = None,
                  model_ref=None, out_dir: str | None = None,
                  run_id: str = "ray1") -> dict:
    """The full query-driven entry. Returns
    {fills, score, thresholds, queries, output_path, predictions_path}.
    """
    import os

    from ..stages import link, postprocess
    from ..sources import write_official_output, write_predictions_tab

    if queries is None:
        queries = make_queries(seed, n_queries)
    by_name = {q["name"]: q for q in queries}
    ignored = {q["name"]: set(q["ignored_slots"]) for q in queries
               if q["ignored_slots"]}

    aliases_ref = link.build_alias_ref(seed)
    docs = documents_dataset(n_docs, seed)
    fills = kg.extract_fills(docs, seed=seed, aliases_ref=aliases_ref,
                             model_ref=model_ref)
    # postprocess=False: this pipeline applies the unary chain itself
    # below, with the query XML's per-entity ignored slots
    consistent = kg.finalize_fills(fills, seed=seed,
                                   aliases_ref=aliases_ref,
                                   postprocess=False)

    # query filter: broadcast name set (queries are tiny)
    names = set(by_name)

    def only_queries(batch: pa.Table) -> pa.Table:
        mask = pa.array([s in names
                         for s in batch.column("subj").to_pylist()])
        return batch.filter(mask)

    consistent = consistent.map_batches(only_queries,
                                        batch_format="pyarrow")

    # unary rewrite/filter chain with the distributed gloss join (the
    # gloss needs only each sentence's text, no NLP)
    sentences = kg.sentences_from_documents(documents_dataset(n_docs, seed))
    processed = postprocess.apply_unary(
        consistent, sentences, known=known, ignored=ignored or None)

    rows = processed.take_all()          # per-query fills: tiny table
    # the rewrite chain normalizes dates to timex form; compare
    # against the same-normalized gold (reference scorer semantics)
    gold = {(s, p, o)
            for s, p, o in gold_triple_set(n_docs, timex_dates=True)
            if s in names}
    thr = tune_thresholds(rows, gold, threshold_mode, fixed_threshold)
    kept = [r for r in rows
            if r["score"] >= thr.get(r["pred"], thr[None])]

    out = {"fills": kept, "thresholds": thr, "queries": queries,
           "score": score_fills(kept, gold)}
    if out_dir is not None:
        import ray.data as rd
        os.makedirs(out_dir, exist_ok=True)
        ds = rd.from_arrow(pa.Table.from_pylist(
            kept, schema=processed.schema().base_schema)) if kept \
            else rd.from_arrow(processed.schema().base_schema
                               .empty_table())
        out["output_path"] = write_official_output(
            ds, os.path.join(out_dir, "official_output.tsv"),
            run_id=run_id, all_relations=[
                r for r in RELATION_NAMES
                if RELATIONS[r].entity_type in
                {q["type"] for q in queries}])
        out["predictions_path"] = write_predictions_tab(
            ds, os.path.join(out_dir, "predictions.tab"))
    return out
