"""Distant-supervision training of the LR relation scorer.

Ray-Data re-expression of the reference's train lifecycle (SURVEY.md
§3.2, ``kbp/slotfilling/train/KBPTrainer.java``):

- training corpus = a disjoint seeded doc-id range (no overlap with the
  evaluation corpus);
- featurized candidates come from the same stage chain the evaluator
  uses (nlp → pair → link → featurize), streaming;
- distant-supervision labels = broadcast join of the (subj, obj) pair
  key against the world KB (``KBPTrainer.computePositiveAndNegative
  Relations``, ``:343-379``) inside ``map_batches`` — no shuffle;
- negatives (pairs absent from the KB) are subsampled at ratio 0.10
  with a deterministic content hash (``train.negatives.subsampleratio``,
  ``StanfordMIMLRE.properties:71``);
- feature count threshold 5 (``featureCountThreshold``,
  ``StanfordMIMLRE.properties:10``) applied via a distributed
  feature-frequency pre-aggregation;
- the (small) labeled design matrix is collected and a multinomial LR
  over hashed features is trained driver-side with seeded SGD for 8
  epochs (reference ``train.jointbayes.epochs = 8``). Sentence-level
  training = the reference's Mintz++/LOCAL_BAYES variant
  (``JointBayesRelationExtractor.java:138,512-515``); bag-level
  noisy-or aggregation happens at inference (stages/classify.py).

The trained model is broadcast (``ray.put``) to the scorer, which each
worker process builds once per model ref.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa

from ..stages import featurize, link, mentions, nlp
from ..stages.classify import HASH_DIM, LRModel, NO_RELATION, \
    hash_features
from ..vocab import RELATION_NAMES, RELATIONS
from ..world import get_world

TRAIN_DOC_OFFSET = 1_000_000      # disjoint from eval doc ids
NEG_SUBSAMPLE = 0.10
FEATURE_COUNT_THRESHOLD = 5
EPOCHS = 8
FEATURE_VERSION = 3               # bust stale model caches on template changes


def _label_batch(batch: pa.Table, kb: dict) -> pa.Table:
    """Broadcast DS-labeling + deterministic negative subsampling."""
    subj = batch.column("subj").to_pylist()
    obj = batch.column("obj").to_pylist()
    obj_t = batch.column("obj_type").to_pylist()
    feats = batch.column("features").to_pylist()
    out_f, out_y = [], []
    for s, o, ot, f in zip(subj, obj, obj_t, feats):
        rels = kb.get((s, o))
        label = None
        if rels:
            for r in rels:
                if ot in RELATIONS[r].slot_types:
                    label = r
                    break
        if label is None:
            h = zlib.crc32(f"{s}|{o}|{f}".encode()) % 1000
            if h >= NEG_SUBSAMPLE * 1000:
                continue
            label = NO_RELATION
        out_f.append(f)
        out_y.append(label)
    return pa.table({
        "features": pa.array(out_f, pa.list_(pa.string())),
        "label": pa.array(out_y, pa.string())})


def training_examples(n_docs: int, seed: int = 42):
    """Streaming labeled examples from the training doc range."""
    import ray.data as rd
    from ..corpus import _docs_batch

    world = get_world(seed)
    kb: dict[tuple, list] = {}
    for name, _etype, rel, value, _vt in world.kb_triples():
        kb.setdefault((name, value), []).append(rel)

    docs = (rd.range(n_docs)
            .map_batches(lambda b: {"id": b["id"] + TRAIN_DOC_OFFSET},
                         batch_format="numpy")
            .map_batches(lambda b: _docs_batch(b, seed),
                         batch_format="numpy", batch_size=2048))
    sents = nlp.annotate(docs, seed=seed)
    cands = link.link(mentions.pair(sents), seed=seed)
    feats = featurize.featurize(cands)
    return feats.map_batches(lambda b: _label_batch(b, kb),
                             batch_format="pyarrow")


def feature_keep_set(examples) -> set[int]:
    """Distributed feature-frequency count → hashed keep-set.

    Pre-aggregates counts per batch (partial combine) before the
    groupby — the at-scale pattern for the reference's global
    feature-count threshold (``EnsembleRelationExtractor.java:110-114``).
    """
    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[int, int] = {}
        for f in batch.column("features").to_pylist():
            for h in hash_features(f):
                counts[int(h)] = counts.get(int(h), 0) + 1
        return pa.table({"h": pa.array(list(counts), pa.int64()),
                         "c": pa.array(list(counts.values()), pa.int64())})

    from ray.data.aggregate import Sum
    agg = (examples.map_batches(partial, batch_format="pyarrow")
           .groupby("h").aggregate(Sum("c", alias_name="c")))
    return {r["h"] for r in agg.take_all()
            if r["c"] >= FEATURE_COUNT_THRESHOLD}


def train_lr(n_docs: int = 1500, seed: int = 42,
             cache_dir: str = "/tmp/sre_ray_cache") -> dict:
    """→ LRModel dict (numpy arrays); cached on disk per (seed, n)."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir,
                        f"lr_v{FEATURE_VERSION}_{seed}_{n_docs}.npz")
    if os.path.exists(path):
        d = np.load(path, allow_pickle=False)
        return {"weights": d["weights"], "bias": d["bias"],
                "labels": d["labels"]}

    examples = training_examples(n_docs, seed).materialize()
    keep = feature_keep_set(examples)
    rows = examples.take_all()

    labels = [NO_RELATION] + RELATION_NAMES
    lab_idx = {l: i for i, l in enumerate(labels)}
    n_lab = len(labels)
    feats = [[int(h) for h in hash_features(r["features"]) if int(h) in keep]
             for r in rows]
    ys = np.array([lab_idx[r["label"]] for r in rows], dtype=np.int64)

    rng = np.random.default_rng(seed)
    W = np.zeros((HASH_DIM, n_lab), dtype=np.float32)
    b = np.zeros(n_lab, dtype=np.float32)
    lr = 0.5
    n = len(rows)
    for _epoch in range(EPOCHS):
        order = rng.permutation(n)
        for i in order:
            idx = feats[i]
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

    out = {"weights": W, "bias": b,
           "labels": np.array(labels, dtype="U64")}
    np.savez_compressed(path + ".tmp.npz", **out)
    os.replace(path + ".tmp.npz", path)
    return out


def train_model_ref(n_docs: int = 1500, seed: int = 42):
    """Train (or load cached) and broadcast the model."""
    import ray
    return ray.put(train_lr(n_docs, seed))


def annotated_examples(n_docs: int, seed: int = 42):
    """Annotated-DATUM stream — the ``ModelType.SUPERVISED`` input
    path (``SupervisedExtractor`` consumes sentence-level annotated
    labels from ``Props.TRAIN_ANNOTATED_SENTENCES_DATA``, NOT distant
    supervision). Here the corpus's per-sentence gold assertions play
    the annotated-sentences file: each candidate is labeled by exact
    ``(doc_id, sent_idx, subj, obj)`` gold match; unmatched candidates
    become subsampled negatives. At real scale the annotations arrive
    as a table and this broadcast index becomes a coarse-pid join
    (the ``attach_gloss`` shape)."""
    import ray.data as rd

    from ..corpus import _docs_batch, doc_plan

    world = get_world(seed)
    gold: dict[tuple, str] = {}
    for d in range(n_docs):
        did = d + TRAIN_DOC_OFFSET
        _spans, g = doc_plan(did, world)
        for r in g:
            gold[(f"d{did:09d}", r["sent_idx"], r["subj"],
                  r["obj"])] = r["pred"]

    def label(batch: pa.Table) -> pa.Table:
        subj = batch.column("subj").to_pylist()
        obj = batch.column("obj").to_pylist()
        docs = batch.column("doc_id").to_pylist()
        sents = batch.column("sent_idx").to_pylist()
        feats = batch.column("features").to_pylist()
        out_f, out_y = [], []
        for s, o, d, si, f in zip(subj, obj, docs, sents, feats):
            y = gold.get((d, si, s, o))
            if y is None:
                h = zlib.crc32(f"{d}|{si}|{s}|{o}".encode()) % 1000
                if h >= NEG_SUBSAMPLE * 1000:
                    continue
                y = NO_RELATION
            out_f.append(f)
            out_y.append(y)
        return pa.table({
            "features": pa.array(out_f, pa.list_(pa.string())),
            "label": pa.array(out_y, pa.string())})

    docs = (rd.range(n_docs)
            .map_batches(lambda b: {"id": b["id"] + TRAIN_DOC_OFFSET},
                         batch_format="numpy")
            .map_batches(lambda b: _docs_batch(b, seed),
                         batch_format="numpy", batch_size=2048))
    sents = nlp.annotate(docs, seed=seed)
    cands = link.link(mentions.pair(sents), seed=seed)
    feats = featurize.featurize(cands)
    return feats.map_batches(label, batch_format="pyarrow")


def _sgd_lr(feats: list[list[int]], ys: np.ndarray, n_lab: int,
            seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    W = np.zeros((HASH_DIM, n_lab), dtype=np.float32)
    b = np.zeros(n_lab, dtype=np.float32)
    lr = 0.5
    n = len(feats)
    for _epoch in range(EPOCHS):
        order = rng.permutation(n)
        for i in order:
            idx = feats[i]
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


def train_bagged(n_docs: int = 1500, seed: int = 42, k: int = 3,
                 subsample: float = 0.7) -> list[dict]:
    """Subagged ensemble: K LR components, each trained on a seeded
    shuffled partition-with-redundancy of the examples (the
    reference's BAGGING/SUBAGGING sample generation,
    ``EnsembleRelationExtractor.java:194-252`` — seeded ``Random(p)``
    per component; we pin the shuffle the Java leaves unseeded,
    SURVEY.md §7.4). → list of LRModel dicts for
    ``classify.EnsembleScorer``-style voting."""
    examples = training_examples(n_docs, seed).materialize()
    keep = feature_keep_set(examples)
    rows = examples.take_all()

    labels = [NO_RELATION] + RELATION_NAMES
    lab_idx = {l: i for i, l in enumerate(labels)}
    feats = [[int(h) for h in hash_features(r["features"])
              if int(h) in keep] for r in rows]
    ys = np.array([lab_idx[r["label"]] for r in rows], dtype=np.int64)
    n = len(rows)
    lab_arr = np.array(labels, dtype="U64")

    models = []
    for j in range(k):
        rng = np.random.default_rng((seed << 8) ^ j)
        take = rng.permutation(n)[: max(1, int(n * subsample))]
        W, b = _sgd_lr([feats[i] for i in take], ys[take],
                       len(labels), seed + j)
        models.append({"weights": W, "bias": b, "labels": lab_arr})
    return models
