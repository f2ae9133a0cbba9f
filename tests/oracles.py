"""Reference implementations kept only as test oracles.

Each one is the former package kernel the vectorized Arrow kernel
replaced; the tests pin the package kernel against it.
"""

import re

import pyarrow as pa

from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
from stanford_relation_extractor_ray.stages.classify import TRIPLE_KEY
from stanford_relation_extractor_ray.stages.postprocess import (
    _BASE_URL, _INTEGER, _YEAR, _YEAR_MONTH, _YEAR_ONLY, DATE_RELATIONS,
    DIVISION_KEYWORDS, INVALID_ORG_ALT_NAMES, INVALID_TITLES,
    INVALID_TOP_EMPLOYEE_JUSTIFICATION, LOW_PROBABILITY_THRESHOLD, Fill,
    _between, _contains, _ngram_overlap, age_rewrite, born_in_rewrite,
    died_in_rewrite, employee_filter, expand_to_maximal_phrase,
    top_employee_to_founder)
from stanford_relation_extractor_ray.vocab import RELATIONS


def merge_fill_group(group: pa.Table) -> pa.Table:
    """Noisy-or merge of one triple's fills across partial batches,
    row by row."""
    scores = group.column("score").to_pylist()
    merged = 1.0
    for s in scores:
        merged *= (1.0 - s)
    merged = 1.0 - merged
    if "prov_score" in group.column_names:
        ps = group.column("prov_score").to_pylist()
    else:
        ps = scores
    docs = group.column("doc_id").to_pylist()
    sents = group.column("sent_idx").to_pylist()
    best = min(range(len(scores)),
               key=lambda i: (-ps[i], docs[i], sents[i]))
    row = group.slice(best, 1)
    arrays = []
    for name in FILLS_SCHEMA.names:
        if name == "score":
            arrays.append(pa.array([merged], pa.float64()))
        else:
            arrays.append(row.column(name))
    return pa.Table.from_arrays(arrays, schema=FILLS_SCHEMA)


def merge_fills_df(df, keep_cols: list):
    """Vectorized per-triple noisy-or merge of (partial) fills in one
    pandas frame; keeps best provenance (highest prov_score, then
    lowest doc_id/sent_idx)."""
    ps = df["prov_score"] if "prov_score" in df.columns else df["score"]
    df = df.assign(_om=1.0 - df["score"], _ps=ps)
    df = df.sort_values(TRIPLE_KEY + ["_ps", "doc_id", "sent_idx"],
                        ascending=[True] * len(TRIPLE_KEY)
                        + [False, True, True], kind="mergesort")
    merged = df.groupby(TRIPLE_KEY, sort=False)["_om"].prod()
    first = df.drop_duplicates(TRIPLE_KEY, keep="first") \
        .set_index(TRIPLE_KEY)
    first["score"] = 1.0 - merged
    first["prov_score"] = first["_ps"]
    return first.reset_index()[keep_cols]


def sentences_loop(batch: pa.Table) -> pa.Table:
    """documents → (doc_id, sent_idx, text) with a per-span Python loop:
    sent_idx counts text spans positionally, media spans skipped."""
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


def annotate_loop(ann, batch: pa.Table) -> pa.Table:
    """``NLPAnnotator.__call__`` with one tagger + parser run per
    sentence occurrence (no per-text memo)."""
    from stanford_relation_extractor_ray.schemas import SENTENCES_SCHEMA
    cols = [[] for _ in SENTENCES_SCHEMA]
    for doc_id, sent_idx, tokens, ments, _text in \
            ann.iter_sentences(batch):
        pos, edges = ann.analyze(tokens)
        for col, v in zip(cols, (
                doc_id, sent_idx, " ".join(tokens), len(tokens),
                [{"surface": s, "ner": t, "begin": b, "end": e,
                  "antecedent": a} for s, t, b, e, a in ments],
                pos, [{"head": h, "dep": d, "label": l}
                      for h, d, l in edges])):
            col.append(v)
    return pa.Table.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, SENTENCES_SCHEMA)],
        schema=SENTENCES_SCHEMA)


def lr_logits_loop(model, feat_lists: list[list[str]]):
    """``LRModel.logits`` row by row: hash each row's strings, then
    ``b + W[idx].sum(axis=0)``."""
    import numpy as np

    from stanford_relation_extractor_ray.stages.classify import \
        hash_features
    logits = np.tile(model.b, (len(feat_lists), 1))
    for i, feats in enumerate(feat_lists):
        logits[i] += model.W[hash_features(feats)].sum(axis=0)
    return logits


def bucket_lists_loop(feat_lists: list[list[str]]) -> list[list[int]]:
    """``classify.bucket_lists`` row by row: ``hash_features`` per row,
    ``int`` per bucket."""
    from stanford_relation_extractor_ray.stages.classify import \
        hash_features
    return [[int(h) for h in hash_features(f)] for f in feat_lists]


def linear_bag_scores_loop(W, sent_features: list[list[str]]):
    """``LinearBagModel._scores`` row by row: a float32
    ``W[idx].sum(axis=0)`` per sentence, stored into float64 zeros."""
    import numpy as np

    from stanford_relation_extractor_ray.stages.classify import \
        hash_features
    out = np.zeros((len(sent_features), W.shape[1]), dtype=np.float64)
    for i, feats in enumerate(sent_features):
        idx = hash_features(feats)
        if len(idx):
            out[i] = W[idx].sum(axis=0)
    return out


def supervised_bag_loop(model, sent_features: list[list[str]]) -> dict:
    """``SupervisedModel.classify_bag`` row by row: per sentence
    ``b + W[idx].sum(axis=0)``, a 1-D softmax, then the noisy-or of
    the confident non-NIL argmax labels."""
    import numpy as np

    from stanford_relation_extractor_ray.stages.classify import (
        NO_RELATION, hash_features)
    om: dict[str, float] = {}
    for feats in sent_features:
        idx = hash_features(feats)
        logits = model.b + (model.W[idx].sum(axis=0) if len(idx)
                            else 0.0)
        logits = logits - logits.max()
        p = np.exp(logits)
        p /= p.sum()
        zi = int(p.argmax())
        lab = model.labels[zi]
        if lab == NO_RELATION or p[zi] < 0.5:
            continue
        om[lab] = om.get(lab, 1.0) * (1.0 - float(p[zi]))
    return {rel: 1.0 - v for rel, v in om.items()}


def z_log_probs_loop(W, b, feat_idx: list[list[int]]):
    """MIML-RE's ``_z_log_probs`` row by row: float64 logits that start
    at ``b``, plus a float32 ``W[idx].sum(axis=0)`` per sentence, then
    a log-softmax."""
    import numpy as np
    logits = np.tile(b, (len(feat_idx), 1)).astype(np.float64)
    for i, idx in enumerate(feat_idx):
        if idx:
            logits[i] += W[idx].sum(axis=0)
    logits -= logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits - lse


def train_z_loop(feat_idx: list[list[int]], ys, n_lab: int, seed: int,
                 epochs: int = 8):
    """MIML-RE's former ``_train_z``, the copy of ``train.sgd_lr`` it
    replaced: float32 multinomial-LR SGD over per-row bucket lists."""
    import numpy as np

    from stanford_relation_extractor_ray.stages.classify import HASH_DIM
    rng = np.random.default_rng(seed)
    W = np.zeros((HASH_DIM, n_lab), dtype=np.float32)
    b = np.zeros(n_lab, dtype=np.float32)
    lr = 0.5
    n = len(feat_idx)
    for _ in range(epochs):
        for i in rng.permutation(n):
            idx = feat_idx[i]
            logits = b + (W[idx].sum(axis=0) if idx else 0.0)
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
            p[ys[i]] -= 1.0
            g = lr * p
            b -= g
            if idx:
                W[idx] -= g
        lr *= 0.8
    return W, b


def featurize_loop(batch: pa.Table, features=None) -> pa.Table:
    """``featurize_batch`` row by row: build each row's
    ``Featurizable``, run every provider, append its ``ctx_features``."""
    from stanford_relation_extractor_ray.schemas import FEATURIZED_SCHEMA
    from stanford_relation_extractor_ray.stages import featurize as fz
    providers = [fz.FEATURE_PROVIDERS[name]
                 for name in (features or fz.ACTIVE_FEATURES)]
    n = batch.num_rows
    col = {c: batch.column(c).to_pylist() for c in (
        "subj", "subj_type", "obj", "obj_type", "between", "subj_end",
        "obj_end")}
    ctx = batch.column("ctx_features").to_pylist() \
        if "ctx_features" in batch.column_names else [[]] * n
    feats = []
    for i in range(n):
        s1, o1, bw = col["subj_end"][i], col["obj_end"][i], \
            col["between"][i]
        row = fz.Featurizable(
            subj=col["subj"][i], subj_type=col["subj_type"][i],
            obj=col["obj"][i], obj_type=col["obj_type"][i], between=bw,
            between_tokens=bw.split(" ") if bw else [],
            subj_head=s1 - 1, obj_head=o1 - 1,
            distance=abs((s1 - 1) - (o1 - 1)), clusters=fz._clusters())
        f = []
        for p in providers:
            f.extend(p(row))
        f.extend(ctx[i])
        feats.append(f)
    names = [c for c in FEATURIZED_SCHEMA.names
             if c in batch.column_names and c != "features"]
    t = pa.Table.from_arrays([batch.column(c) for c in names], names=names)
    return t.append_column("features",
                           pa.array(feats, pa.list_(pa.string())))


def pair_mentions_loop(batch: pa.Table) -> pa.Table:
    """``mentions.pair_mentions`` row by row: mention dicts per sentence,
    the ALL_PAIRS loop per sentence with no text dedup, and twelve
    column appends per candidate."""
    from stanford_relation_extractor_ray.schemas import CANDIDATES_SCHEMA
    from stanford_relation_extractor_ray.stages.featurize import \
        context_features
    from stanford_relation_extractor_ray.stages.mentions import (
        MAX_DISTANCE, _token_layers, slots_for_subject)

    doc_ids = batch.column("doc_id").to_pylist()
    sent_idxs = batch.column("sent_idx").to_pylist()
    texts = batch.column("text").to_pylist()
    mentions_col = batch.column("mentions").to_pylist()
    pos_col = batch.column("pos").to_pylist()
    deps_col = batch.column("dep_edges").to_pylist()

    cols: dict[str, list] = {n: [] for n in CANDIDATES_SCHEMA.names}
    for row_i, (doc_id, sent_idx, text, mentions) in enumerate(zip(
            doc_ids, sent_idxs, texts, mentions_col)):
        if not mentions or len(mentions) < 2:
            continue
        tokens = text.split(" ")
        pos = pos_col[row_i]
        edges = [(d["head"], d["dep"], d["label"]) for d in deps_col[row_i]]
        ment_spans = [(m["begin"], m["end"], m["ner"]) for m in mentions]
        ment_tuples = [(m["surface"], m["ner"], m["begin"], m["end"],
                        m["antecedent"]) for m in mentions]
        layers = _token_layers(len(tokens), ment_tuples)
        best: dict[tuple, tuple] = {}
        for em in mentions:
            if em["ner"] not in ("PERSON", "ORGANIZATION"):
                continue
            subj_surface = em["antecedent"] or em["surface"]
            for s_surf, s_ner, s_b, s_e, s_a in slots_for_subject(
                    tokens, pos, ment_tuples, subj_surface,
                    layers=layers):
                if s_a:
                    continue                  # slot can't be a pronoun
                if em["end"] <= s_b:
                    gap = s_b - em["end"]
                elif s_e <= em["begin"]:
                    gap = em["begin"] - s_e
                else:
                    continue                  # overlapping spans
                if gap > MAX_DISTANCE:
                    continue
                key = (subj_surface, s_surf)
                prev = best.get(key)
                if prev is not None and prev[0] <= gap:
                    continue
                lo, hi = ((em["end"], s_b) if em["end"] <= s_b
                          else (s_e, em["begin"]))
                between = " ".join(tokens[lo:hi])
                best[key] = (gap, em, (s_surf, s_ner, s_b, s_e),
                             subj_surface, between)
        for gap, em, sm, subj_surface, between in best.values():
            cols["subj"].append(subj_surface)
            cols["subj_type"].append(em["ner"])
            cols["obj"].append(sm[0])
            cols["obj_type"].append(sm[1])
            cols["doc_id"].append(doc_id)
            cols["sent_idx"].append(sent_idx)
            cols["subj_begin"].append(em["begin"])
            cols["subj_end"].append(em["end"])
            cols["obj_begin"].append(sm[2])
            cols["obj_end"].append(sm[3])
            cols["between"].append(between)
            cols["ctx_features"].append(
                context_features(tokens, pos, edges, ment_spans,
                                 (em["begin"], em["end"]),
                                 (sm[2], sm[3])))
    return pa.Table.from_arrays(
        [pa.array(cols[n], t) for n, t in
         zip(CANDIDATES_SCHEMA.names, CANDIDATES_SCHEMA.types)],
        schema=CANDIDATES_SCHEMA)


def checkpoint_shards_serial(n_docs: int, ckpt: str, *, seed: int = 42,
                             model_ref=None, n_shards: int = 8) -> None:
    """``run_kg``'s former shard loop: each stale shard is its own Ray
    Data execution (a doc-id range → documents in batches of 2048 →
    ``extract_fills``), written and committed before the next one
    starts. It writes the checkpoint layout and digests ``run_kg``
    reads, so ``run_kg`` over the same directory resumes from it."""
    import ray.data as rd

    from stanford_relation_extractor_ray.corpus import _docs_batch
    from stanford_relation_extractor_ray.pipelines import kg
    from stanford_relation_extractor_ray.stages import link
    from stanford_relation_extractor_ray.state.manifest import Manifest

    aliases_ref = link.build_alias_ref(seed)
    man = Manifest(ckpt, "fills")
    for part, d, lo, hi in kg._shards(n_docs, n_shards, seed,
                                      kg._model_fingerprint(model_ref)):
        if man.is_done(part, d):
            continue
        tmp = man.begin(part)
        docs = rd.range(hi - lo).map_batches(
            lambda b, lo=lo: {"id": b["id"] + lo}, batch_format="numpy")
        docs = docs.map_batches(
            lambda b: _docs_batch(b, seed), batch_format="numpy",
            batch_size=2048)
        kg.extract_fills(docs, seed=seed, aliases_ref=aliases_ref,
                         model_ref=model_ref).write_parquet(tmp)
        man.commit(part, d)


def lsh_pairs_loop(group: pa.Table) -> set:
    """MinHash LSH's former in-partition pair loop: sort by bucket,
    scan the runs, every two distinct ids of a run → {(id_a, id_b)}."""
    import numpy as np

    ids = group.column("id").to_numpy()
    buckets = group.column("bucket").to_numpy()
    order = np.lexsort((ids, buckets))
    ids, buckets = ids[order], buckets[order]
    seen: set[tuple[int, int]] = set()
    run_start = 0
    for i in range(1, len(ids) + 1):
        if i == len(ids) or buckets[i] != buckets[run_start]:
            if i - run_start > 1:
                run = np.unique(ids[run_start:i])
                for x in range(len(run)):
                    for y in range(x + 1, len(run)):
                        seen.add((int(run[x]), int(run[y])))
            run_start = i
    return seen


def hamming_pairs_loop(group: pa.Table, radius: int) -> set:
    """SimHash's former in-partition loop: every two rows of a bucket
    with distinct ids, kept when their hashes differ in ≤ radius bits
    → {(id_a, id_b, hamming)}."""
    import numpy as np

    ids = group.column("id").to_numpy()
    buckets = group.column("bucket").to_numpy()
    hs = group.column("sh").to_numpy()
    order = np.lexsort((ids, buckets))
    ids, buckets, hs = ids[order], buckets[order], hs[order]
    out: set[tuple[int, int, int]] = set()
    run_start = 0
    for i in range(1, len(ids) + 1):
        if i == len(ids) or buckets[i] != buckets[run_start]:
            if i - run_start > 1:
                rid, rh = ids[run_start:i], hs[run_start:i]
                for x in range(len(rid)):
                    for y in range(x + 1, len(rid)):
                        if rid[x] == rid[y]:
                            continue
                        d = int(rh[x] ^ rh[y]).bit_count()
                        if d <= radius:
                            a_, b_ = sorted((int(rid[x]), int(rid[y])))
                            out.add((a_, b_, d))
            run_start = i
    return out


def pairs_in_partition_loop(group: pa.Table) -> pa.Table:
    """Canonicalization's former blocking loop: rows bucketed by block
    in a dict, each block sorted by (name, type), the linker verdict
    on every two rows of one type with different names → (a, b, type)
    same-entity pairs, ``a`` the smaller name."""
    from stanford_relation_extractor_ray.functions.text import (
        is_acronym_of, same_entity)

    names = group.column("name").to_pylist()
    types = group.column("type").to_pylist()
    blocks = group.column("block").to_pylist()
    by_block: dict[str, list[int]] = {}
    for i, blk in enumerate(blocks):
        by_block.setdefault(blk, []).append(i)
    out_a, out_b, out_t = [], [], []
    for blk in sorted(by_block):
        idx = by_block[blk]
        order = sorted(idx, key=lambda i: (names[i], types[i]))
        for ii in range(len(order)):
            i = order[ii]
            for jj in range(ii + 1, len(order)):
                j = order[jj]
                if types[i] != types[j] or names[i] == names[j]:
                    continue
                if same_entity(names[i], names[j], types[i]) \
                        or is_acronym_of(names[i], names[j]) \
                        or is_acronym_of(names[j], names[i]):
                    out_a.append(names[i])
                    out_b.append(names[j])
                    out_t.append(types[i])
    return pa.table({"a": pa.array(out_a, pa.string()),
                     "b": pa.array(out_b, pa.string()),
                     "type": pa.array(out_t, pa.string())})


def verify_pairs_loop(hit: pa.Table, sh_b, threshold: float) -> pa.Table:
    """MinHash verify's former per-pair loop: both digest lists of each
    pair to Python, one ``np.intersect1d`` per pair → (id_a, id_b,
    jaccard) of the pairs at or above ``threshold``."""
    import numpy as np

    out_a, out_b, out_j = [], [], []
    for ia, ib, sa, sb_ in zip(hit.column("id_a").to_pylist(),
                               hit.column("id_b").to_pylist(),
                               hit.column("sh_a").to_pylist(),
                               sh_b.to_pylist()):
        na, nb = len(sa), len(sb_)
        inter = len(np.intersect1d(
            np.asarray(sa, dtype=np.uint64),
            np.asarray(sb_, dtype=np.uint64),
            assume_unique=True))
        union = na + nb - inter
        j = inter / union if union else 0.0
        if j >= threshold:
            out_a.append(ia)
            out_b.append(ib)
            out_j.append(j)
    return pa.table({"id_a": pa.array(out_a, pa.int64()),
                     "id_b": pa.array(out_b, pa.int64()),
                     "jaccard": pa.array(out_j, pa.float64())})


def neighborhood_bfs(fills: pa.Table, seeds: dict, max_dist: int) -> set:
    """The former frontier loops of ``prune_by_distance`` and
    ``probabilistic_infer`` over one table: ``seeds`` maps node → set of
    query labels; ``max_dist`` rounds walk every edge both ways from the
    frontier and keep only (node, q) pairs not yet known → every
    reached (node, q)."""
    node_queries = {n: set(qs) for n, qs in seeds.items()}
    frontier = {n: set(qs) for n, qs in seeds.items()}
    subj = fills.column("subj").to_pylist()
    obj = fills.column("obj").to_pylist()
    for _ in range(max_dist):
        if not frontier:
            break
        new: dict = {}
        for s, o in zip(subj, obj):
            for a, b in ((s, o), (o, s)):
                for q in frontier.get(a, ()):
                    if q not in node_queries.get(b, ()):
                        new.setdefault(b, set()).add(q)
        for node, qs in new.items():
            node_queries.setdefault(node, set()).update(qs)
        frontier = new
    return {(n, q) for n, qs in node_queries.items() for q in qs}


def mirror_rows_loop(batch: pa.Table) -> pa.Table:
    """``symmetric_inverse_rewrite``'s former per-row map: the batch,
    then one swapped, damped row per symmetric/inverse edge whose object
    is a PERSON or ORGANIZATION."""
    from stanford_relation_extractor_ray.stages.graph_infer import (
        INVERSES, REWRITE_DAMPING, SYMMETRIC)

    names = FILLS_SCHEMA.names
    cols = {n: batch.column(n).to_pylist() for n in names}
    out = {n: list(cols[n]) for n in names}
    for i in range(batch.num_rows):
        pred = cols["pred"][i]
        new_pred = pred if pred in SYMMETRIC else INVERSES.get(pred)
        if new_pred is None:
            continue
        if cols["obj_type"][i] not in ("PERSON", "ORGANIZATION"):
            continue
        out["subj"].append(cols["obj"][i])
        out["subj_type"].append(cols["obj_type"][i])
        out["pred"].append(new_pred)
        out["obj"].append(cols["subj"][i])
        out["obj_type"].append(cols["subj_type"][i])
        out["score"].append(cols["score"][i] * REWRITE_DAMPING)
        out["doc_id"].append(cols["doc_id"][i])
        out["sent_idx"].append(cols["sent_idx"][i])
        out["subj_span"].append(cols["obj_span"][i])
        out["obj_span"].append(cols["subj_span"][i])
    return pa.Table.from_arrays(
        [pa.array(out[n], t) for n, t in
         zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
        schema=FILLS_SCHEMA)


def transitive_join_loop(fills: pa.Table, rules, damping: float) -> pa.Table:
    """``transitive_infer``'s former bridge join over one table, before
    its max combine: edges indexed by bridge (left rows on obj, right
    rows on subj), then a nested loop over every bridge's left row ×
    right row × rule → A -head→ C rows, score s₁·s₂·damping,
    provenance and subject span from the left row, object span from the
    right row."""
    names = FILLS_SCHEMA.names
    cols = {n: fills.column(n).to_pylist() for n in names}
    lefts: dict = {}
    rights: dict = {}
    for i in range(fills.num_rows):
        lefts.setdefault(cols["obj"][i], []).append(i)
        rights.setdefault(cols["subj"][i], []).append(i)
    out = {n: [] for n in names}
    for b in sorted(set(lefts) & set(rights)):
        for li in lefts[b]:
            for ri in rights[b]:
                for p, q, head in rules:
                    if cols["pred"][li] != p or cols["pred"][ri] != q:
                        continue
                    subj, obj = cols["subj"][li], cols["obj"][ri]
                    if subj == obj:
                        continue
                    out["subj"].append(subj)
                    out["subj_type"].append(cols["subj_type"][li])
                    out["pred"].append(head)
                    out["obj"].append(obj)
                    out["obj_type"].append(cols["obj_type"][ri])
                    out["score"].append(cols["score"][li]
                                        * cols["score"][ri] * damping)
                    out["doc_id"].append(cols["doc_id"][li])
                    out["sent_idx"].append(cols["sent_idx"][li])
                    out["subj_span"].append(cols["subj_span"][li])
                    out["obj_span"].append(cols["obj_span"][ri])
    return pa.Table.from_arrays(
        [pa.array(out[n], ty) for n, ty in
         zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
        schema=FILLS_SCHEMA)


def mine_rules_loop(fills: pa.Table, *, min_support: int = 2,
                    min_confidence: float = 0.3):
    """``mine_rules``' former path loop over one table: every distinct
    A-p→B-q→C path with A != C counts once toward total(p, q) and once
    toward support(p, q, head) per direct A-head→C edge → the
    (p, q, head, support, total, confidence) frame, confidence-desc."""
    import pandas as pd

    subj = fills.column("subj").to_pylist()
    pred = fills.column("pred").to_pylist()
    obj = fills.column("obj").to_pylist()
    heads: dict = {}
    for s, p, o in zip(subj, pred, obj):
        heads.setdefault((s, o), []).append(p)
    paths = {(s1, p1, p2, o2)
             for s1, p1, o1 in zip(subj, pred, obj)
             for s2, p2, o2 in zip(subj, pred, obj)
             if o1 == s2 and s1 != o2}
    totals: dict = {}
    support: dict = {}
    for s, p, q, o in paths:
        totals[(p, q)] = totals.get((p, q), 0) + 1
        for h in heads.get((s, o), ()):
            support[(p, q, h)] = support.get((p, q, h), 0) + 1
    rows = sorted((p, q, h, n, totals[(p, q)])
                  for (p, q, h), n in support.items())
    df = pd.DataFrame(rows, columns=["p", "q", "head", "support",
                                     "total"]).astype(
        {"support": "int64", "total": "int64"})
    df["confidence"] = df["support"] / df["total"]
    df = df[(df["support"] >= min_support)
            & (df["confidence"] >= min_confidence)]
    return df.sort_values(["confidence", "support"], ascending=False,
                          kind="mergesort")


# --- the finalize kernel's former row-dict consistency engines ---------

def _value_dup_row(a: str, b: str, obj_type: str) -> bool:
    from stanford_relation_extractor_ray.functions.text import same_entity
    if a == b or a.lower() == b.lower():
        return True
    if obj_type in ("PERSON", "ORGANIZATION"):
        return same_entity(a, b, obj_type)
    return False


def _valid_row(r: dict) -> bool:
    from stanford_relation_extractor_ray.vocab import RELATIONS
    spec = RELATIONS.get(r["pred"])
    if spec is None:
        return False
    if r["obj_type"] not in spec.slot_types \
            or spec.entity_type != r["subj_type"]:
        return False
    return bool(r["obj"]) and r["obj"] != r["subj"]


def _can_accept_row(r: dict, accepted: list[dict]) -> bool:
    from stanford_relation_extractor_ray.vocab import (
        INCOMPATIBLE_RELATIONS, SINGLE_RELATIONS)
    for a in accepted:
        if a["pred"] == r["pred"]:
            if r["pred"] in SINGLE_RELATIONS:
                return False
            if _value_dup_row(a["obj"], r["obj"], r["obj_type"]):
                return False
        elif a["obj"] == r["obj"] and frozenset(
                (a["pred"], r["pred"])) in INCOMPATIBLE_RELATIONS:
            return False
    return True


def _sort_key_row(r: dict):
    return (-round(r["score"], 9), -len(r["obj"].split()),
            r["pred"], r["obj"], r.get("raw_obj") or r["obj"],
            r["doc_id"], r["sent_idx"])


def greedy_rows(rows: list[dict]) -> list[dict]:
    """The per-entity greedy filterStep over row dicts (sorted here)."""
    rows.sort(key=_sort_key_row)
    accepted: list[dict] = []
    for r in rows:
        if _valid_row(r) and _can_accept_row(r, accepted):
            accepted.append(r)
    return accepted


def gibbs_greedy_rows(rows: list[dict], *, mixing_time: int = 10,
                      seed: int = 42) -> list[dict]:
    """The SUM engine over row dicts: the greedy pass, then
    ``mixing_time`` seeded random-restart passes, keeping the largest
    rounded Σ score; output in comparator order."""
    import random

    base = greedy_rows(rows)             # rows is now comparator-sorted
    valid = [r for r in rows if _valid_row(r)]
    best, best_obj = base, round(sum(r["score"] for r in base), 9)
    rng = random.Random(seed)
    order = list(range(len(valid)))
    for _ in range(mixing_time):
        rng.shuffle(order)
        accepted: list[dict] = []
        for i in order:
            if _can_accept_row(valid[i], accepted):
                accepted.append(valid[i])
        obj = round(sum(r["score"] for r in accepted), 9)
        if obj > best_obj:
            best, best_obj = accepted, obj
    chosen = {id(r) for r in best}
    return [r for r in rows if id(r) in chosen]


def _mitigate_loc_of_death_rows(accepted: list[dict]) -> list[dict]:
    from stanford_relation_extractor_ray.stages.consistency import \
        LOC_OF_DEATH
    if not any(r["pred"] in LOC_OF_DEATH for r in accepted):
        return accepted
    if any(r["pred"] == "per:date_of_death" for r in accepted):
        return accepted
    return [r for r in accepted if r["pred"] not in LOC_OF_DEATH]


_ENGINE_COLS = ("subj", "subj_type", "pred", "obj", "obj_type", "score",
                "raw_obj", "doc_id", "sent_idx")


def consistent_fills_rows(tbl: pa.Table, objective: str = "TOP",
                          mixing_time: int = 10,
                          seed: int = 42) -> pa.Table:
    """``consistency.consistent_fills``' former path: one row dict per
    fill grouped by subject, subjects in sorted order, each through the
    row-dict TOP or SUM engine and MitigateLocOfDeath, the accepted rows
    gathered back with one ``take``."""
    def engine(rows):
        if objective == "TOP":
            return _mitigate_loc_of_death_rows(greedy_rows(rows))
        return _mitigate_loc_of_death_rows(gibbs_greedy_rows(
            rows, mixing_time=mixing_time, seed=seed))

    names = [c for c in _ENGINE_COLS if c in tbl.column_names]
    keys = names + ["_row"]
    by_subj: dict = {}
    for vals in zip(*(tbl.column(c).to_pylist() for c in names),
                    range(tbl.num_rows)):
        r = dict(zip(keys, vals))
        by_subj.setdefault(r["subj"], []).append(r)
    take = [r["_row"] for subj in sorted(by_subj)
            for r in engine(by_subj[subj])]
    return tbl.select(FILLS_SCHEMA.names) \
        .take(pa.array(take, pa.int64())).cast(FILLS_SCHEMA)


# --- the finalize kernel's former per-row unary chain -------------------


def canonical_mention_rewrite_row(f: Fill, gloss_tokens, geo=None):
    """CanonicalMentionRewrite (:333-404): pronoun antecedents are
    resolved upstream in this engine (stages/nlp.py), so the live
    clauses here are number extraction and date/timex normalization."""
    spec = RELATIONS.get(f["pred"])
    if spec is None:
        return
    if "NUMBER" in spec.slot_types and not f["obj"].isdigit():
        m = _INTEGER.search(f["obj"])
        if m:
            f["obj"] = m.group(1)
    if "DATE" in spec.slot_types:
        from stanford_relation_extractor_ray.functions.text import \
            timex_normalize
        tx = timex_normalize(f["obj"])
        if tx is not None:
            f["obj"] = tx


def filter_unrelated_url_row(f: Fill, gloss_tokens, geo=None):
    """FilterUnrelatedURL (:290-332): org:website must overlap the
    entity name (direct / acronym / stopword-stripped acronym); the
    value is rewritten to its base URL."""
    if f["pred"] != "org:website":
        return
    name = f["subj"].lower()
    url = f["obj"].lower()
    acronym = re.sub(r"(^| )([a-z])[^ ]*", r"\2", name)
    acronym2 = re.sub(r"(^| +)([a-z])[^ ]*", r"\2",
                      re.sub(r"and|or|of|the", "", name))
    if not (_ngram_overlap(name.replace(" ", ""), url)
            or _ngram_overlap(acronym, url)
            or _ngram_overlap(acronym2, url)):
        f["drop"] = "FilterUnrelatedURL"
        return
    m = _BASE_URL.search(f["obj"])
    if m:
        f["obj"] = m.group(0)
    else:
        f["drop"] = "FilterUnrelatedURL"


def sanity_check_filter_row(f: Fill, gloss_tokens, geo=None):
    """SanityCheckFilter (:148-172): length cap, age bounds, employee
    count bounds, subj == obj."""
    if len(f["obj"]) > 80:
        f["drop"] = "SanityCheck"
        return
    if f["pred"] == "per:age":
        if "." in f["obj"]:
            f["drop"] = "SanityCheck"
            return
        try:
            v = int(f["obj"])
            if v > 125 or v <= 0:
                f["drop"] = "SanityCheck"
                return
        except ValueError:
            pass
    if f["pred"] == "org:number_of_employees/members":
        if "." in f["obj"]:
            f["drop"] = "SanityCheck"
            return
        try:
            v = int(f["obj"])
            if v > 500_000 or v < 25:
                f["drop"] = "SanityCheck"
                return
        except ValueError:
            pass
    if f["subj"] == f["obj"]:
        f["drop"] = "SanityCheck"


def conform_to_guidelines_filter_row(f: Fill, gloss_tokens, geo=None):
    """ConformToGuidelinesFilter (:173-289)."""
    pred = f["pred"]
    if gloss_tokens:
        span = " ".join(_between(gloss_tokens, f["subj_span"],
                                 f["obj_span"])).lower()
        if pred == "org:top_members/employees":
            if span in INVALID_TOP_EMPLOYEE_JUSTIFICATION:
                f["drop"] = "ConformToGuidelines"
                return
            gloss = " ".join(gloss_tokens)
            if any(k in gloss for k in DIVISION_KEYWORDS):
                f["drop"] = "ConformToGuidelines"
                return
        elif pred == "org:alternate_names" \
                and span in INVALID_ORG_ALT_NAMES:
            f["drop"] = "ConformToGuidelines"
            return
        elif pred == "per:employee_of" and f["obj"].lower() == "house":
            f["drop"] = "ConformToGuidelines"
            return
    if pred in DATE_RELATIONS:
        if not _YEAR.search(f["obj"]):
            f["drop"] = "ConformToGuidelines"
            return
        if _YEAR_ONLY.match(f["obj"]):
            f["obj"] = f["obj"] + "-XX-XX"
        elif _YEAR_MONTH.match(f["obj"]):
            f["obj"] = f["obj"] + "-XX"
    if pred == "per:title" and f["obj"] in INVALID_TITLES:
        f["drop"] = "ConformToGuidelines"


def very_low_probability_filter_row(f: Fill, gloss_tokens, geo=None):
    """FilterVeryLowProbabilitySlots (:139-147): score ≥ 1%."""
    if f["score"] < LOW_PROBABILITY_THRESHOLD:
        f["drop"] = "FilterVeryLowProbability"



def filter_already_known_row(f: Fill, known: dict):
    """FilterAlreadyKnownSlots (:103-138): drop fills whose value
    exactly matches or token-contains / is-contained-by a KB value for
    the same entity; alternate names must differ from the entity name
    (single-token prefixes/suffixes of a PERSON name also fail)."""
    vals = known.get(f["subj"], ())
    cand = f["obj"].lower()
    ctoks = cand.split()
    for v in vals:
        lv = v.lower()
        if cand == lv:
            f["drop"] = "FilterAlreadyKnownSlots"
            return
        vtoks = lv.split()
        if _contains(ctoks, vtoks) or _contains(vtoks, ctoks):
            f["drop"] = "FilterAlreadyKnownSlots"
            return
    if f["pred"].endswith("alternate_names"):
        name = f["subj"].lower()
        if cand == name:
            f["drop"] = "FilterAlreadyKnownSlots"
            return
        if f["subj_type"] == "PERSON" and " " not in f["obj"] and (
                name.startswith(cand) or name.endswith(cand)):
            f["drop"] = "FilterAlreadyKnownSlots"


def unary_chain_rows(batch: pa.Table, *, known: dict | None = None,
                     ignored: dict | None = None, geo=None,
                     reasons: list | None = None) -> pa.Table:
    """``postprocess.unary_chain``'s former path: one ``Fill`` per row
    through every rewrite, filter and the KB anti-join in order, each
    row stopping at its first drop. With ``reasons``, each row's drop
    reason is appended to it (None when kept, "FilterIgnoredSlots" for
    an ignored slot)."""
    names = [n for n in batch.column_names]
    cols = {n: batch.column(n).to_pylist() for n in names}
    glosses = cols.get("gloss")
    out_rows = []
    for r in range(batch.num_rows):
        f = Fill({n: cols[n][r] for n in names})
        gloss_tokens = glosses[r].split(" ") if glosses and glosses[r] \
            else []
        if ignored and f["pred"] in ignored.get(f["subj"], ()):
            f["drop"] = "FilterIgnoredSlots"
        else:
            for rw in REWRITES_ROWS:
                rw(f, gloss_tokens, geo)
                if f.get("drop"):
                    break
            if not f.get("drop"):
                for fl in FILTERS_ROWS:
                    fl(f, gloss_tokens, geo)
                    if f.get("drop"):
                        break
            if not f.get("drop") and known is not None:
                filter_already_known_row(f, known)
        if reasons is not None:
            reasons.append(f.get("drop"))
        if not f.get("drop"):
            out_rows.append(f)
    if not out_rows:
        return batch.slice(0, 0)
    return pa.table({n: pa.array([f[n] for f in out_rows],
                                 batch.schema.field(n).type)
                     for n in names})


REWRITES_ROWS = (canonical_mention_rewrite_row, expand_to_maximal_phrase,
                 top_employee_to_founder, born_in_rewrite, died_in_rewrite,
                 age_rewrite)
FILTERS_ROWS = (filter_unrelated_url_row, sanity_check_filter_row,
                conform_to_guidelines_filter_row, employee_filter,
                very_low_probability_filter_row)
