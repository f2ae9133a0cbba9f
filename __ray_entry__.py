"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline on the sf0.001
deterministic corpus; ``queries()`` exposes one callable per implemented
operator family from SURVEY.md §2 (plus the large-scale data-pipeline
operators: dedup suite, similarity search, text analysis);
``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible query. Ray is initialised by the caller — nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden")


# --------------------------------------------------------------------------
# flagship
# --------------------------------------------------------------------------

def entry() -> Any:
    """KG construction over the deterministic interleaved corpus
    (documents → triples → consistency); returns the fills table."""
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import (
        extract_fills, finalize_fills)
    fills = extract_fills(documents_dataset(200))
    return finalize_fills(fills).materialize()


# --------------------------------------------------------------------------
# query helpers
# --------------------------------------------------------------------------

def _round_col(ds, col: str, digits: int):
    # half_towards_infinity = DuckDB ROUND's half-away-from-zero;
    # Arrow's default half-to-even diverges on exact binary ties
    # (e.g. 1/1024 at 9 digits), which ratio columns with raw-count
    # denominators can actually hit
    def f(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index(col)
        return batch.set_column(
            i, col, pc.round(batch.column(col), ndigits=digits,
                             round_mode="half_towards_infinity"))
    return ds.map_batches(f, batch_format="pyarrow")


def _docs_with_id_text(sf_dir: str):
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    return read_parquet_clean(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])


def _q_kg_triples(sf_dir: str):
    """Scaled KG run: n_docs keyed off the scale factor dir name."""
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import (
        extract_fills, finalize_fills)
    n = 2000 if "0.01" in sf_dir else (200 if "0.001" in sf_dir
                                       else 20000)
    fills = finalize_fills(extract_fills(documents_dataset(n)))
    return fills.sort(["subj", "pred", "obj"]) \
        .select_columns(["subj", "subj_type", "pred", "obj", "obj_type",
                         "doc_id", "sent_idx"])


def _kg_fills(sf_dir: str):
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import (
        extract_fills, finalize_fills)
    n = 2000 if "0.01" in sf_dir else 200
    return finalize_fills(extract_fills(documents_dataset(n)))


def _q_kg_symmetric(sf_dir: str):
    from stanford_relation_extractor_ray.stages import graph_infer
    ds = graph_infer.symmetric_inverse_rewrite(
        _kg_fills(sf_dir).materialize())
    return (ds.select_columns(["subj", "pred", "obj"])
            .sort(["subj", "pred", "obj"]))


def _q_kg_transitive(sf_dir: str):
    from stanford_relation_extractor_ray.stages import graph_infer
    ds = graph_infer.transitive_infer(_kg_fills(sf_dir).materialize())
    return (ds.select_columns(["subj", "pred", "obj"])
            .sort(["subj", "pred", "obj"]))


def _q_kg_eval(sf_dir: str):
    """Scoring harness over the KG run: P/R/F1/AUC + optimal threshold
    vs the deterministic gold triples (1-row result)."""
    import pandas as pd
    from stanford_relation_extractor_ray.corpus import gold_triple_set
    from stanford_relation_extractor_ray.pipelines.evaluate import \
        score_fills
    n = 2000 if "0.01" in sf_dir else 200
    rows = _kg_fills(sf_dir).take_all()
    s = score_fills(rows, gold_triple_set(n, timex_dates=True))
    return pd.DataFrame([{
        "precision": round(s.precision, 6),
        "recall": round(s.recall, 6), "f1": round(s.f1, 6),
        "auc": round(s.auc, 6), "n_fills": len(rows)}])


def _q_kg_official_eval(sf_dir: str):
    """Query-driven official evaluation (KBPEvaluator path): query
    entities → fills → rewrite/filter chain → PER_RELATION threshold
    tuning → P/R/F1/AUC vs the gold key (1-row result)."""
    import pandas as pd
    from stanford_relation_extractor_ray.pipelines.official import \
        official_eval
    n = 2000 if "0.01" in sf_dir else 200
    out = official_eval(n, threshold_mode="PER_RELATION")
    s = out["score"]
    return pd.DataFrame([{
        "precision": round(s.precision, 6),
        "recall": round(s.recall, 6), "f1": round(s.f1, 6),
        "n_fills": len(out["fills"]),
        "n_queries": len(out["queries"])}])


def _q_kg_probabilistic_edges(sf_dir: str):
    """Probabilistic graph inference (MLN/BLN path, SURVEY §2.10):
    weighted transitive rules grounded per query-entity neighborhood,
    seeded Gibbs MAP, inferred edges only. Deterministic end-to-end
    (content-derived seeds), pinned by a golden CSV."""
    from stanford_relation_extractor_ray.stages import mln
    fills = _kg_fills(sf_dir).materialize()
    subjects = sorted({r["subj"] for r in
                       fills.select_columns(["subj"]).take_all()})
    rules = [
        mln.Rule(2.0, (("org:parents", "x", "y"),
                       ("org:parents", "y", "z")),
                 ("org:parents", "x", "z")),
        mln.Rule(2.0, (("per:member_of", "x", "y"),
                       ("org:member_of", "y", "z")),
                 ("per:member_of", "x", "z")),
    ]
    out = mln.probabilistic_infer(fills, subjects, rules,
                                  max_dist=2, n_iters=400)
    return (out.select_columns(["subj", "pred", "obj"])
            .sort(["subj", "pred", "obj"]))


def _q_kg_open_triples(sf_dir: str):
    """ReVerb-style open IE over the corpus sentences (distinct
    triples with support counts)."""
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.stages import nlp, openie
    from ray.data.aggregate import Count
    n = 2000 if "0.01" in sf_dir else 200
    sents = nlp.annotate(documents_dataset(n))
    triples = openie.extract_open_triples(sents)
    return (triples.groupby(["subj", "rel", "obj"])
            .aggregate(Count(alias_name="n_support"))
            .sort(["subj", "rel", "obj"]))


def _media_items(sf_dir: str):
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.stages import media
    n = 2000 if "0.01" in sf_dir else 200
    return media.extract_media(documents_dataset(n))


def _q_kg_alternate_names(sf_dir: str):
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import \
        extract_alternate_names
    n = 2000 if "0.01" in sf_dir else 200
    return (extract_alternate_names(documents_dataset(n))
            .select_columns(["subj", "pred", "obj"])
            .sort(["subj", "pred", "obj"]))


def _q_media_decode(sf_dir: str):
    from stanford_relation_extractor_ray.stages import media
    return (media.decode(_media_items(sf_dir))
            .select_columns(["doc_id", "span_seq", "kind", "media_ref",
                             "width", "height", "channels",
                             "sample_rate", "n_rows", "n_cols"])
            .sort("media_ref"))


def _q_media_frames(sf_dir: str):
    from stanford_relation_extractor_ray.stages import media
    return media.sample_frames(
        media.decode(_media_items(sf_dir))).sort(
        ["media_ref", "frame_idx"])


def _q_kg_graph_nodes(sf_dir: str):
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import (
        build_graph, extract_fills, finalize_fills)
    n = 2000 if "0.01" in sf_dir else 200
    fills = finalize_fills(extract_fills(documents_dataset(n))) \
        .materialize()
    nodes, _edges = build_graph(fills)
    # aliases list → '|'-joined string so the result is flat-comparable
    aliases = pa.array(["|".join(a.as_py())
                        for a in nodes.column("aliases")], pa.string())
    i = nodes.column_names.index("aliases")
    return nodes.set_column(i, "aliases", aliases).sort_by(
        [("entity_id", "ascending")])


def _q_dedup_exact(sf_dir: str):
    from stanford_relation_extractor_ray.stages.dedup import exact_dedup
    return exact_dedup(_docs_with_id_text(sf_dir)).sort("doc_id")


def _q_dedup_minhash(sf_dir: str):
    from stanford_relation_extractor_ray.stages.dedup import \
        minhash_lsh_pairs
    pairs = minhash_lsh_pairs(_docs_with_id_text(sf_dir), k=3,
                              num_perm=128, bands=64, threshold=0.5)
    return _round_col(pairs, "jaccard", 6).sort(["id_a", "id_b"])


def _q_dedup_components(sf_dir: str):
    """Near-dup clusters: MinHash-LSH pairs → distributed min-label
    connected components (root = component min id)."""
    import pandas as pd
    from stanford_relation_extractor_ray.stages.dedup import (
        connected_components_ds, minhash_lsh_pairs)
    pairs = minhash_lsh_pairs(_docs_with_id_text(sf_dir), k=3,
                              num_perm=128, bands=64, threshold=0.5)
    rows = connected_components_ds(pairs)
    return pd.DataFrame(rows, columns=["id", "root"]) \
        .sort_values("id").reset_index(drop=True)


def _q_dedup_substring(sf_dir: str):
    """Repeated cross-document token 5-gram spans (exact-substring
    dedup family; see stages/dedup.substring_spans)."""
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.dedup import \
        substring_spans
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return substring_spans(docs, n=5, min_docs=2)


def _q_dedup_substring_scrub(sf_dir: str):
    """Exact-substring dedup removal half: detect flagged 5-grams,
    broadcast them, scrub every covered token (``scrub_spans``) —
    returns the full corpus with scrubbed text. Single-pass contract
    (see SpanScrubber docstring): the oracle rebuilds touched docs
    the same way."""
    from stanford_relation_extractor_ray.stages.dedup import (
        scrub_spans, substring_spans)
    grams = {r["gram"] for r in
             substring_spans(_docs_with_id_text(sf_dir),
                             n=5, min_docs=2).take_all()}
    return scrub_spans(_docs_with_id_text(sf_dir), grams,
                       n=5).sort("doc_id")


def _q_dedup_substring_ranges(sf_dir: str):
    """Maximal repeated-span ranges: adjacent/overlapping flagged
    5-gram windows coalesce to one (doc_id, span_start, span_end)
    row — Lee-et-al.-style variable-length span reporting."""
    from stanford_relation_extractor_ray.stages.dedup import (
        substring_span_ranges, substring_spans)
    grams = [r["gram"] for r in
             substring_spans(_docs_with_id_text(sf_dir),
                             n=5, min_docs=2).take_all()]
    return substring_span_ranges(_docs_with_id_text(sf_dir), grams,
                                 n=5).sort(["doc_id", "span_start"])


def _q_dedup_jaccard(sf_dir: str):
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.dedup import jaccard_pairs
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    pairs = jaccard_pairs(docs, block_cols=("lang",), k=3,
                          threshold=0.5)
    return _round_col(pairs, "jaccard", 6) \
        .select_columns(["id_a", "id_b", "jaccard"]) \
        .sort(["id_a", "id_b"])


def _q_dedup_simhash(sf_dir: str):
    from stanford_relation_extractor_ray.stages.dedup import simhash_pairs
    return simhash_pairs(_docs_with_id_text(sf_dir), radius=3) \
        .sort(["id_a", "id_b"])


def _q_dedup_embedding(sf_dir: str):
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.dedup import \
        embedding_dup_pairs
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    pairs = embedding_dup_pairs(emb, threshold=0.45)
    # ids only: cross-engine float cosines differ in the last ulp and a
    # value can sit exactly on a rounding boundary (observed at 1e-6);
    # pair membership is robust (min |cos-threshold| gap ≈ 5e-4)
    return pairs.select_columns(["id_a", "id_b"]).sort(["id_a", "id_b"])


def _query_vec(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    idx = pc.index(t.column("vec_id"), 0).as_py()
    return np.array(t.column("embedding")[idx].as_py(), dtype=np.float64)


def _q_similarity_topk(sf_dir: str):
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.similarity import \
        topk_cosine
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return topk_cosine(emb, _query_vec(sf_dir), k=10)


def _q_similarity_ivf(sf_dir: str):
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.similarity import (
        build_ivf, ivf_topk)
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    bucketed, cent = build_ivf(emb, n_centroids=8)
    return ivf_topk(bucketed, cent, _query_vec(sf_dir), k=10, n_probe=3)


def _q_embedding_clusters(sf_dir: str):
    import ray.data as rd

    from stanford_relation_extractor_ray.stages.clustering import \
        kmeans
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    assigned, _ = kmeans(emb, k=8, n_iter=5)
    return assigned.select_columns(["vec_id", "cluster"]) \
        .sort("vec_id")


def _q_text_tokens(sf_dir: str):
    from stanford_relation_extractor_ray.stages.textquality import \
        add_token_counts
    return (add_token_counts(_docs_with_id_text(sf_dir))
            .select_columns(["doc_id", "n_tokens", "n_bpe_tokens"])
            .sort("doc_id"))


def _q_text_quality(sf_dir: str):
    from stanford_relation_extractor_ray.stages.textquality import \
        add_quality
    ds = add_quality(_docs_with_id_text(sf_dir)) \
        .select_columns(["doc_id", "distinct_ratio", "mean_word_len",
                         "alpha_ratio"])
    ds = _round_col(ds, "distinct_ratio", 9)
    ds = _round_col(ds, "mean_word_len", 9)
    ds = _round_col(ds, "alpha_ratio", 9)
    return ds.sort("doc_id")


def _q_text_fingerprint(sf_dir: str):
    from stanford_relation_extractor_ray.stages.textquality import \
        add_fingerprint
    return (add_fingerprint(_docs_with_id_text(sf_dir))
            .select_columns(["doc_id", "md5"]).sort("doc_id"))


def _q_text_repetition(sf_dir: str):
    from stanford_relation_extractor_ray.stages.textquality import \
        add_repetition
    ds = add_repetition(_docs_with_id_text(sf_dir)) \
        .select_columns(["doc_id", "top_bigram_frac",
                         "dup_bigram_frac"])
    ds = _round_col(ds, "top_bigram_frac", 9)
    ds = _round_col(ds, "dup_bigram_frac", 9)
    return ds.sort("doc_id")


def _q_pii_scrub(sf_dir: str):
    import ray.data as rd

    from stanford_relation_extractor_ray.stages.scrub import \
        scrub_summary
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    ev = read_parquet_clean(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])
    return scrub_summary(ev, "props", "event_type",
                         patterns=("number",)).sort("event_type")


def _q_text_langid(sf_dir: str):
    from stanford_relation_extractor_ray.stages.textquality import \
        add_lang_id
    return (add_lang_id(_docs_with_id_text(sf_dir))
            .select_columns(["doc_id", "pred_lang"]).sort("doc_id"))


def _q_events_asof_order(sf_dir: str):
    from stanford_relation_extractor_ray.pipelines.temporal import \
        events_asof_order
    return events_asof_order(sf_dir)


def _q_purchase_attribution(sf_dir: str):
    from stanford_relation_extractor_ray.pipelines.temporal import \
        purchase_attribution
    return _cents(purchase_attribution(sf_dir),
                  [("sum_touch_value", 100)])


def _q_event_sessions(sf_dir: str):
    from stanford_relation_extractor_ray.pipelines.temporal import \
        event_sessions
    return _cents(event_sessions(sf_dir), [("sum_value", 100)])


def _q_event_sessions_salted(sf_dir: str):
    """The hot-key-salted sessionization path under the driver gate:
    shuffle key (user, 60-min chunk), per-chunk session summaries
    stitched across boundaries — must equal the unsalted result (and
    the same SQL oracle) exactly."""
    from stanford_relation_extractor_ray.pipelines.temporal import \
        event_sessions
    return _cents(event_sessions(sf_dir, salt_chunk_minutes=60),
                  [("sum_value", 100)])


def _q_rolling_user_value(sf_dir: str):
    from stanford_relation_extractor_ray.pipelines.temporal import \
        rolling_user_value
    return rolling_user_value(sf_dir)


def _q_approx_distinct_users(sf_dir: str):
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.sketches import \
        hll_distinct
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    return (hll_distinct(ds, "event_type", "user_id")
            .map_batches(lambda t: t.rename_columns(
                ["event_type", "approx_distinct"]),
                batch_format="pyarrow"))


def _q_heavy_hitter_tokens(sf_dir: str):
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.sketches import \
        phi_heavy_hitters
    from stanford_relation_extractor_ray.storage import \
        read_parquet_clean
    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                         columns=["text"])
    return phi_heavy_hitters(ds, "text", phi=1 / 32)


def queries() -> dict[str, Callable[[str], Any]]:
    from stanford_relation_extractor_ray.pipelines import relational as R
    return {
        # relational operator families (SURVEY.md §2.5-2.7)
        "pricing_summary": lambda sf: _cents(
            R.pricing_summary(sf),
            [("sum_qty", 1), ("sum_base_price", 100),
             ("sum_disc_price", 10000)]),
        "top_orders": R.top_orders,
        "revenue_by_nation": lambda sf: _cents(
            R.revenue_by_nation(sf), [("revenue", 100)]),
        "customers_without_urgent_orders":
            R.customers_without_urgent_orders,
        "latest_order_per_customer": R.latest_order_per_customer,
        "event_type_diversity": R.event_type_diversity,
        "hourly_event_value": lambda sf: _cents(
            R.hourly_event_value(sf), [("sum_value", 100)]),
        "nation_name_distances": R.nation_name_distances,
        "orders_per_year": R.orders_per_year,
        "high_value_repeat_customers": R.high_value_repeat_customers,
        "event_prop_stats": R.event_prop_stats,
        # temporal joins / windows (SURVEY.md §2.11 custom operators)
        "events_asof_order": _q_events_asof_order,
        "purchase_attribution": _q_purchase_attribution,
        "event_sessions": _q_event_sessions,
        "event_sessions_salted": _q_event_sessions_salted,
        "rolling_user_value": _q_rolling_user_value,
        # sketch operators (stages/sketches.py)
        "approx_distinct_users": _q_approx_distinct_users,
        "heavy_hitter_tokens": _q_heavy_hitter_tokens,
        # dedup suite
        "dedup_exact": _q_dedup_exact,
        "dedup_minhash_lsh": _q_dedup_minhash,
        "dedup_components": _q_dedup_components,
        "dedup_substring": _q_dedup_substring,
        "dedup_substring_scrub": _q_dedup_substring_scrub,
        "dedup_substring_ranges": _q_dedup_substring_ranges,
        "dedup_jaccard": _q_dedup_jaccard,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_embedding": _q_dedup_embedding,
        # similarity search
        "similarity_topk": _q_similarity_topk,
        "similarity_ivf": _q_similarity_ivf,
        "embedding_clusters": _q_embedding_clusters,
        # text analysis
        "text_tokens": _q_text_tokens,
        "text_quality": _q_text_quality,
        "text_fingerprint": _q_text_fingerprint,
        "text_langid": _q_text_langid,
        "text_repetition": _q_text_repetition,
        "pii_scrub": _q_pii_scrub,
        # knowledge-graph pipeline (non-SQL: rows-only check)
        "kg_triples": _q_kg_triples,
        "kg_nodes": _q_kg_graph_nodes,
        "kg_symmetric_edges": _q_kg_symmetric,
        "kg_transitive_edges": _q_kg_transitive,
        "kg_probabilistic_edges": _q_kg_probabilistic_edges,
        "kg_alternate_names": _q_kg_alternate_names,
        "kg_eval_score": _q_kg_eval,
        "kg_official_eval": _q_kg_official_eval,
        "kg_open_triples": _q_kg_open_triples,
        # multimodal stages (stubbed codecs; rows-only check)
        "media_decode": _q_media_decode,
        "media_frames": _q_media_frames,
    }


def _cents(ds, cols):
    """Fixed-point integerization of float sums: cross-engine float
    aggregation differs in last-ulp summation order, so comparable
    outputs are scaled to integers (inputs have fixed decimal width)."""
    def f(batch: pa.Table) -> pa.Table:
        for col, scale in cols:
            i = batch.column_names.index(col)
            v = pc.round(pc.multiply(batch.column(col),
                                     pa.scalar(float(scale))), ndigits=0,
                         round_mode="half_towards_infinity")
            batch = batch.set_column(i, col, pc.cast(v, pa.int64()))
        return batch
    return ds.map_batches(f, batch_format="pyarrow")


# --------------------------------------------------------------------------
# DuckDB oracles
# --------------------------------------------------------------------------

def oracle_sql() -> dict[str, str]:
    out = {
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(ROUND(SUM(l_quantity), 0) AS BIGINT) AS sum_qty,
                   CAST(ROUND(SUM(l_extendedprice) * 100, 0) AS BIGINT)
                       AS sum_base_price,
                   CAST(ROUND(SUM(l_extendedprice * (1 - l_discount))
                        * 10000, 0) AS BIGINT) AS sum_disc_price,
                   COUNT(*) AS count_order
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "top_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "revenue_by_nation": """
            SELECT n_name,
                   CAST(ROUND(SUM(o_totalprice) * 100, 0) AS BIGINT)
                       AS revenue
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name ORDER BY n_name
        """,
        "customers_without_urgent_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders
                WHERE o_orderpriority = '1-URGENT')
            ORDER BY c_custkey
        """,
        "latest_order_per_customer": """
            SELECT o_custkey, o_orderkey, o_orderdate FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY o_custkey
                    ORDER BY o_orderdate DESC, o_orderkey DESC) rn
                FROM orders) WHERE rn = 1
            ORDER BY o_custkey
        """,
        "event_type_diversity": """
            SELECT user_id, COUNT(DISTINCT event_type) AS n_event_types
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "hourly_event_value": """
            SELECT event_type, date_trunc('hour', ts) AS window_start,
                   CAST(ROUND(SUM(value) * 100, 0) AS BIGINT)
                       AS sum_value,
                   COUNT(*) AS n_events
            FROM events GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "nation_name_distances": """
            SELECT a.n_name AS name_a, b.n_name AS name_b,
                   levenshtein(a.n_name, b.n_name) AS dist
            FROM nation a JOIN nation b
              ON a.n_nationkey < b.n_nationkey
            WHERE levenshtein(a.n_name, b.n_name) <= 4
            ORDER BY name_a, name_b
        """,
        "orders_per_year": """
            SELECT SUBSTR(CAST(o_orderdate AS VARCHAR), 1, 4) AS year,
                   COUNT(*) AS n_orders
            FROM orders GROUP BY year ORDER BY year
        """,
        "high_value_repeat_customers": """
            SELECT c_custkey, c_acctbal FROM customer
            WHERE c_custkey IN (
                SELECT o_custkey FROM orders
                GROUP BY o_custkey HAVING COUNT(*) >= 15)
              AND c_acctbal > 0.0
            ORDER BY c_custkey
        """,
        "events_asof_order": """
            SELECT event_id, user_id, ts, asof_orderkey,
                   asof_orderdate
            FROM (
                SELECT e.event_id, e.user_id, e.ts,
                       o.o_orderkey AS asof_orderkey,
                       strftime(o.o_orderdate, '%Y-%m-%d')
                           AS asof_orderdate,
                       ROW_NUMBER() OVER (
                           PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC,
                                    o.o_orderkey DESC) rn
                FROM events e JOIN orders o
                  ON o.o_custkey = e.user_id
                 AND o.o_orderdate <= e.ts)
            WHERE rn = 1 ORDER BY event_id
        """,
        "purchase_attribution": """
            SELECT p.event_id AS purchase_id,
                   COUNT(*) AS n_touches,
                   CAST(ROUND(SUM(t.value) * 100, 0) AS BIGINT)
                       AS sum_touch_value
            FROM events p JOIN events t ON t.user_id = p.user_id
             AND p.event_type = 'purchase'
             AND t.event_type IN ('click', 'view')
             AND t.ts >= p.ts - INTERVAL 60 MINUTE AND t.ts < p.ts
            GROUP BY p.event_id ORDER BY purchase_id
        """,
        "event_sessions": """
            WITH flagged AS (
                SELECT user_id, event_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR ts - lag(ts) OVER w
                                 > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS brk
                FROM events
                WINDOW w AS (PARTITION BY user_id
                             ORDER BY ts, event_id)
            ), numbered AS (
                SELECT user_id, ts, value,
                       CAST(SUM(brk) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS BIGINT)
                           AS session_id
                FROM flagged)
            SELECT user_id, session_id,
                   MIN(ts) AS session_start, MAX(ts) AS session_end,
                   COUNT(*) AS n_events,
                   CAST(ROUND(SUM(value) * 100, 0) AS BIGINT)
                       AS sum_value
            FROM numbered GROUP BY user_id, session_id
            ORDER BY user_id, session_id
        """,
        "rolling_user_value": """
            SELECT event_id, user_id,
                   COUNT(*) OVER win AS w_count,
                   CAST(SUM(CAST(ROUND(value * 100, 0) AS BIGINT))
                       OVER win AS BIGINT) AS w_sum_cents
            FROM events
            WINDOW win AS (PARTITION BY user_id ORDER BY ts
                           RANGE BETWEEN INTERVAL 60 MINUTE PRECEDING
                                     AND CURRENT ROW)
            ORDER BY event_id
        """,
        "event_prop_stats": """
            WITH x AS (
                SELECT event_type,
                       CAST(json_extract_string(props, '$.k')
                            AS BIGINT) AS k
                FROM events)
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(k) AS BIGINT) AS sum_k,
                   MIN(k) AS min_k, MAX(k) AS max_k
            FROM x GROUP BY event_type ORDER BY event_type
        """,
        "heavy_hitter_tokens": """
            WITH t AS (
                SELECT UNNEST(string_split(text, ' ')) AS token
                FROM documents
            ), t2 AS (SELECT token FROM t WHERE token <> '')
            SELECT token, COUNT(*) AS cnt FROM t2 GROUP BY token
            HAVING COUNT(*) >= CEIL((SELECT COUNT(*) FROM t2) / 32.0)
            ORDER BY cnt DESC, token
        """,
        "dedup_exact": """
            SELECT MIN(doc_id) AS doc_id, text
            FROM documents GROUP BY text ORDER BY doc_id
        """,
        "dedup_minhash_lsh": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') w FROM documents),
            sh AS (
                SELECT doc_id, list_distinct(list_transform(
                    generate_series(1, len(w) - 2),
                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) s
                FROM toks)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   ROUND(len(list_intersect(a.s, b.s))::DOUBLE
                         / len(list_distinct(a.s || b.s)), 6) AS jaccard
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE len(list_intersect(a.s, b.s))::DOUBLE
                  / len(list_distinct(a.s || b.s)) >= 0.5
            ORDER BY id_a, id_b
        """,
        "dedup_components": """
            WITH RECURSIVE toks AS (
                SELECT doc_id, string_split(text, ' ') w FROM documents),
            sh AS (
                SELECT doc_id, list_distinct(list_transform(
                    generate_series(1, len(w) - 2),
                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) s
                FROM toks),
            prs AS (
                SELECT a.doc_id ia, b.doc_id ib
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id
                WHERE len(list_intersect(a.s, b.s))::DOUBLE
                      / len(list_distinct(a.s || b.s)) >= 0.5),
            edges AS (
                SELECT ia a, ib b FROM prs
                UNION ALL SELECT ib, ia FROM prs),
            reach(node, r) AS (
                SELECT a, a FROM edges
                UNION
                SELECT rc.node, e.b
                FROM reach rc JOIN edges e ON e.a = rc.r)
            SELECT node AS id, MIN(r) AS root
            FROM reach GROUP BY node ORDER BY id
        """,
        "dedup_substring": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') w
                FROM documents),
            g AS (
                SELECT doc_id, unnest(list_transform(
                    generate_series(1, greatest(len(w) - 4, 0)),
                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                         || ' ' || w[i+3] || ' ' || w[i+4])) AS gram
                FROM toks)
            SELECT gram, COUNT(DISTINCT doc_id) AS n_docs,
                   COUNT(*) AS n_occ
            FROM g GROUP BY gram
            HAVING COUNT(DISTINCT doc_id) >= 2
            ORDER BY gram
        """,
        "dedup_substring_scrub": """
            WITH toks AS (
                SELECT doc_id, text, string_split(text, ' ') w
                FROM documents),
            win AS (
                SELECT doc_id, w, unnest(generate_series(
                    1, greatest(len(w) - 4, 0))) AS i
                FROM toks),
            g AS (
                SELECT doc_id, i,
                       w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' '
                       || w[i+3] || ' ' || w[i+4] AS gram
                FROM win),
            flagged AS (
                SELECT gram FROM g GROUP BY gram
                HAVING COUNT(DISTINCT doc_id) >= 2),
            hits AS (
                SELECT doc_id, i FROM g
                WHERE gram IN (SELECT gram FROM flagged)),
            dpos AS (
                SELECT doc_id, unnest(generate_series(i, i + 4)) AS j
                FROM hits),
            drops AS (SELECT DISTINCT doc_id, j FROM dpos),
            tdocs AS (SELECT DISTINCT doc_id FROM drops),
            pos AS (
                SELECT t.doc_id, t.w,
                       unnest(generate_series(1, len(t.w))) AS j
                FROM toks t JOIN tdocs USING (doc_id)),
            kept AS (
                SELECT p.doc_id, p.j, p.w[p.j] AS tok
                FROM pos p ANTI JOIN drops d
                  ON d.doc_id = p.doc_id AND d.j = p.j),
            reb AS (
                SELECT doc_id,
                       string_agg(tok, ' ' ORDER BY j) AS scrubbed
                FROM kept GROUP BY doc_id)
            SELECT d.doc_id,
                   CASE WHEN td.doc_id IS NOT NULL
                        THEN COALESCE(r.scrubbed, '')
                        ELSE d.text END AS text
            FROM documents d
            LEFT JOIN tdocs td USING (doc_id)
            LEFT JOIN reb r USING (doc_id)
            ORDER BY d.doc_id
        """,
        "dedup_substring_ranges": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') w
                FROM documents),
            win AS (
                SELECT doc_id, w, unnest(generate_series(
                    1, greatest(len(w) - 4, 0))) AS i
                FROM toks),
            g AS (
                SELECT doc_id, i,
                       w[i] || ' ' || w[i+1] || ' ' || w[i+2] || ' '
                       || w[i+3] || ' ' || w[i+4] AS gram
                FROM win),
            flagged AS (
                SELECT gram FROM g GROUP BY gram
                HAVING COUNT(DISTINCT doc_id) >= 2),
            hits AS (
                SELECT doc_id, i FROM g
                WHERE gram IN (SELECT gram FROM flagged)),
            m AS (
                SELECT doc_id, i,
                       CASE WHEN lag(i) OVER w IS NULL
                              OR i > lag(i) OVER w + 5
                            THEN 1 ELSE 0 END AS brk
                FROM hits
                WINDOW w AS (PARTITION BY doc_id ORDER BY i)),
            s AS (
                SELECT doc_id, i,
                       SUM(brk) OVER (PARTITION BY doc_id ORDER BY i
                           ROWS UNBOUNDED PRECEDING) AS grp
                FROM m)
            SELECT doc_id, MIN(i) - 1 AS span_start,
                   MAX(i) + 4 AS span_end
            FROM s GROUP BY doc_id, grp
            ORDER BY doc_id, span_start
        """,
        "dedup_jaccard": """
            WITH toks AS (
                SELECT doc_id, lang, string_split(text, ' ') w
                FROM documents),
            sh AS (
                SELECT doc_id, lang, list_distinct(list_transform(
                    generate_series(1, len(w) - 2),
                    i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])) s
                FROM toks)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   ROUND(len(list_intersect(a.s, b.s))::DOUBLE
                         / len(list_distinct(a.s || b.s)), 6) AS jaccard
            FROM sh a JOIN sh b
              ON a.lang = b.lang AND a.doc_id < b.doc_id
            WHERE len(list_intersect(a.s, b.s))::DOUBLE
                  / len(list_distinct(a.s || b.s)) >= 0.5
            ORDER BY id_a, id_b
        """,
        "dedup_embedding": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.45
            ORDER BY id_a, id_b
        """,
        "similarity_topk": """
            WITH q AS (SELECT embedding::DOUBLE[] qv FROM embeddings
                       WHERE vec_id = 0)
            SELECT vec_id, ROUND(list_cosine_similarity(
                embedding::DOUBLE[], (SELECT qv FROM q)), 6) AS cosine
            FROM embeddings
            ORDER BY list_cosine_similarity(
                embedding::DOUBLE[], (SELECT qv FROM q)) DESC, vec_id
            LIMIT 10
        """,
        "text_tokens": """
            SELECT doc_id, len(string_split(text, ' ')) AS n_tokens,
                   len(regexp_extract_all(
                       text, '[A-Za-z]+|[0-9]+|[^ \tA-Za-z0-9]'))
                       AS n_bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "text_quality": """
            WITH t AS (SELECT doc_id, text, string_split(text, ' ') w
                       FROM documents)
            SELECT doc_id,
                   ROUND(len(list_distinct(w))::DOUBLE / len(w), 9)
                       AS distinct_ratio,
                   ROUND(list_aggregate(list_transform(
                       w, x -> length(x)), 'sum')::DOUBLE / len(w), 9)
                       AS mean_word_len,
                   ROUND(length(regexp_replace(
                       text, '[^A-Za-z]', '', 'g'))::DOUBLE
                       / length(text), 9) AS alpha_ratio
            FROM t ORDER BY doc_id
        """,
        "text_fingerprint": """
            SELECT doc_id, md5(text) AS md5 FROM documents
            ORDER BY doc_id
        """,
        "text_langid": """
            -- stopword-overlap argmax; ties -> alphabetically first
            -- language (matches LangId's strict-> scan)
            WITH t AS (SELECT doc_id,
                       list_distinct(string_split(lower(text), ' ')) w
                       FROM documents),
            c AS (SELECT doc_id,
                len(list_intersect(w, ['der','die','und','das','ein',
                    'eine','ist','für'])) AS de,
                len(list_intersect(w, ['the','and','of','a','to','in',
                    'is','for','on','with','value','table','row']))
                    AS en,
                len(list_intersect(w, ['el','la','y','de','un','una',
                    'es','para','con'])) AS es,
                len(list_intersect(w, ['le','la','et','de','un','une',
                    'en','est','pour'])) AS fr
                FROM t)
            SELECT doc_id, CASE
                WHEN greatest(de, en, es, fr) = 0 THEN 'und'
                WHEN de = greatest(de, en, es, fr) THEN 'de'
                WHEN en = greatest(de, en, es, fr) THEN 'en'
                WHEN es = greatest(de, en, es, fr) THEN 'es'
                ELSE 'fr' END AS pred_lang
            FROM c ORDER BY doc_id
        """,
        "text_repetition": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS l
                       FROM documents),
            e AS (SELECT doc_id, l,
                  unnest(generate_series(1, len(l) - 1)) AS i FROM w),
            b AS (SELECT doc_id, l[i] || ' ' || l[i + 1] AS bg FROM e),
            c AS (SELECT doc_id, bg, count(*) AS n
                  FROM b GROUP BY 1, 2),
            s AS (SELECT doc_id, max(n)::DOUBLE / sum(n) AS topf,
                  sum(CASE WHEN n > 1 THEN n ELSE 0 END)::DOUBLE
                      / sum(n) AS dupf
                  FROM c GROUP BY doc_id)
            SELECT d.doc_id,
                   ROUND(COALESCE(s.topf, 0.0), 9) AS top_bigram_frac,
                   ROUND(COALESCE(s.dupf, 0.0), 9) AS dup_bigram_frac
            FROM documents d LEFT JOIN s USING (doc_id)
            ORDER BY doc_id
        """,
        "pii_scrub": """
            SELECT event_type,
                   count(*)::BIGINT AS n_rows,
                   sum(len(regexp_extract_all(props, '[0-9]+')))
                       ::BIGINT AS total_redacted,
                   count(DISTINCT regexp_replace(
                       props, '[0-9]+', '<NUM>', 'g'))::BIGINT
                       AS distinct_forms
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # golden-file oracles (semantics SQL cannot reproduce —
        # simhash banding, IVF probing, the KG extractor; pins
        # generated by scripts/make_goldens.py from the deterministic
        # pipeline; driver gate runs at sf0.01)
        "dedup_simhash": f"""
            SELECT id_a, id_b, hamming FROM read_csv(
                '{_GOLDEN}/dedup_simhash_sf0_01.csv', header=true)
            ORDER BY id_a, id_b
        """,
        "embedding_clusters": f"""
            SELECT vec_id, cluster FROM read_csv(
                '{_GOLDEN}/embedding_clusters_sf0_01.csv',
                header=true)
            ORDER BY vec_id
        """,
        "approx_distinct_users": f"""
            SELECT event_type, approx_distinct FROM read_csv(
                '{_GOLDEN}/approx_distinct_users_sf0_01.csv',
                header=true)
            ORDER BY event_type
        """,
        "similarity_ivf": f"""
            SELECT vec_id, cosine FROM read_csv(
                '{_GOLDEN}/similarity_ivf_sf0_01.csv', header=true)
        """,
        "kg_triples": f"""
            SELECT subj, subj_type, pred, obj, obj_type, doc_id,
                   sent_idx
            FROM read_csv('{_GOLDEN}/kg_triples_sf0_01.csv',
                          header=true)
            ORDER BY subj, pred, obj
        """,
        "kg_nodes": f"""
            SELECT entity_id, name, type, COALESCE(aliases, '') AS
                   aliases
            FROM read_csv('{_GOLDEN}/kg_nodes_sf0_01.csv', header=true,
                          all_varchar=true)
            ORDER BY entity_id
        """,
        "kg_symmetric_edges": f"""
            SELECT subj, pred, obj FROM read_csv(
                '{_GOLDEN}/kg_symmetric_edges_sf0_01.csv', header=true)
            ORDER BY subj, pred, obj
        """,
        "kg_transitive_edges": f"""
            SELECT subj, pred, obj FROM read_csv(
                '{_GOLDEN}/kg_transitive_edges_sf0_01.csv', header=true)
            ORDER BY subj, pred, obj
        """,
        "kg_probabilistic_edges": f"""
            SELECT subj, pred, obj FROM read_csv(
                '{_GOLDEN}/kg_probabilistic_edges_sf0_01.csv',
                header=true)
            ORDER BY subj, pred, obj
        """,
        "kg_alternate_names": f"""
            SELECT subj, pred, obj FROM read_csv(
                '{_GOLDEN}/kg_alternate_names_sf0_01.csv', header=true)
            ORDER BY subj, pred, obj
        """,
        "kg_eval_score": f"""
            SELECT * FROM read_csv('{_GOLDEN}/kg_eval_score_sf0_01.csv',
                                   header=true)
        """,
        "kg_official_eval": f"""
            SELECT * FROM read_csv(
                '{_GOLDEN}/kg_official_eval_sf0_01.csv', header=true)
        """,
        "media_decode": f"""
            SELECT * FROM read_csv('{_GOLDEN}/media_decode_sf0_01.csv',
                                   header=true)
            ORDER BY media_ref
        """,
        "media_frames": f"""
            SELECT * FROM read_csv('{_GOLDEN}/media_frames_sf0_01.csv',
                                   header=true)
            ORDER BY media_ref, frame_idx
        """,
        "kg_open_triples": f"""
            SELECT * FROM read_csv(
                '{_GOLDEN}/kg_open_triples_sf0_01.csv', header=true)
            ORDER BY subj, rel, obj
        """,
    }
    # the salted session path is DEFINED to equal the unsalted one —
    # one oracle string, two queries, so a future sessionization-SQL
    # fix cannot silently diverge between them
    out["event_sessions_salted"] = out["event_sessions"]
    return out
