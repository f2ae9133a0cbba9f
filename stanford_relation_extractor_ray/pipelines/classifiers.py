"""The classifier zoo beyond JointBayes/Mintz++ (SURVEY.md §2.4;
reference ``kbp/slotfilling/classify/ModelType.java:31-49``).

Each trainer consumes the same training bags as
``jointbayes.build_training_bags`` and returns a model whose
``classify_bag(sent_features) → {relation: score}`` contract matches
the ensemble's component interface, so any of them can vote in
``EnsembleScorer``-style combination. All learning is numpy over the
shared hashed-feature space; training runs driver-side on the (small)
bag table, like the reference's in-process trainers. Hashing and
scoring are the shared kernel's (``classify.bucket_lists``,
``classify.hashed_sums``); ``SUPERVISED`` is an ``LRModel`` trained
by the one SGD loop, ``train.sgd_lr``.

- ``PERCEPTRON`` — sentence-level averaged multiclass perceptron
  (``PerceptronExtractor.java``, 868 LoC): local updates against the
  bag's distant label, averaged weights for inference.
- ``AT_LEAST_ONCE`` (Hoffmann/MultiR) — latent-variable perceptron
  (``HoffmannExtractor.java``, 544 LoC): per bag, predict Z per
  sentence; if the aggregated label set mismatches the bag's positive
  set, force each missed positive onto its best-scoring sentence and
  demote sentences predicting non-gold labels — the standard MultiR
  constrained update.
- ``LR_INC`` — one-vs-all logistic regression with incomplete
  negatives (``OneVsAllRelationExtractor.java``): per-relation binary
  LR; negatives only from bags with an explicit negative label.
- ``ROBUST_LR`` — LR_INC plus per-bag shift parameters
  (``ShiftParamsLogisticClassifierFactory.java``): an L1-penalized
  slack added to each positive bag's logit absorbs mislabeled
  distant-supervision positives.
- ``GOLD`` / ``NOOP`` — debug classifiers (``GoldClassifier.java``,
  ``NOOPClassifier.java``): memorize the training labels / always
  empty.

Registered in ``MODEL_REGISTRY`` (the ModelType analog — new models
plug in by name, SURVEY.md §2.12).
"""

from __future__ import annotations

import numpy as np

from ..stages.classify import (HASH_DIM, LABELS, NO_RELATION, LRModel,
                               bucket_lists, hashed_sums)
from .train import sgd_lr

_LAB_IDX = {l: i for i, l in enumerate(LABELS)}


class LinearBagModel:
    """Shared inference for the perceptron-family models: per-sentence
    argmax over linear scores, bag label set = union of non-NIL
    predictions, score = max sigmoid(margin) per label."""

    def __init__(self, W: np.ndarray, labels: list[str] = LABELS):
        self.W = W.astype(np.float32)
        self.labels = labels

    def _scores(self, sent_features: list[list[str]]) -> np.ndarray:
        return hashed_sums(self.W, sent_features).astype(np.float64)

    def classify_bag(self, sent_features: list[list[str]]) -> dict:
        if not sent_features:
            return {}
        s = self._scores(sent_features)
        z = s.argmax(axis=1)
        out: dict[str, float] = {}
        for i, zi in enumerate(z):
            lab = self.labels[zi]
            if lab == NO_RELATION:
                continue
            srt = np.sort(s[i])
            margin = float(srt[-1] - srt[-2]) if len(srt) > 1 else 1.0
            score = 1.0 / (1.0 + np.exp(-margin))
            if score > out.get(lab, 0.0):
                out[lab] = score
        return out


def train_perceptron(bags: list[dict], *, epochs: int = 5,
                     seed: int = 42) -> LinearBagModel:
    """Averaged sentence-level multiclass perceptron (local labels:
    every sentence of a positive bag carries the bag label)."""
    hashed = [bucket_lists(b["sent_features"]) for b in bags]
    W = np.zeros((HASH_DIM, len(LABELS)), dtype=np.float64)
    acc = np.zeros_like(W)
    rng = np.random.default_rng(seed)
    examples = [(idx, _LAB_IDX[b["pos"][0]] if b["pos"] else 0)
                for b, h in zip(bags, hashed) for idx in h]
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(examples)):
            idx, y = examples[i]
            t += 1
            if not idx:
                continue
            scores = W[idx].sum(axis=0)
            pred = int(scores.argmax())
            if pred != y:
                W[idx, y] += 1.0
                W[idx, pred] -= 1.0
        # epoch-snapshot averaging (cheap variant of the classic
        # per-update average; same stabilizing effect at this scale)
        acc += W
    return LinearBagModel((acc / max(1, epochs)).astype(np.float32))


def train_hoffmann(bags: list[dict], *, epochs: int = 5,
                   seed: int = 42) -> LinearBagModel:
    """MultiR / AT_LEAST_ONCE latent perceptron: constrained bag-level
    updates (force missed positives onto their best sentence, demote
    non-gold predictions)."""
    hashed = [bucket_lists(b["sent_features"]) for b in bags]
    W = np.zeros((HASH_DIM, len(LABELS)), dtype=np.float64)
    acc = np.zeros_like(W)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for bi in rng.permutation(len(bags)):
            bag, hs = bags[bi], hashed[bi]
            if not hs:
                continue
            gold = {_LAB_IDX[p] for p in bag["pos"]} or {0}
            scores = np.zeros((len(hs), len(LABELS)))
            for i, idx in enumerate(hs):
                if idx:
                    scores[i] = W[idx].sum(axis=0)
            z = scores.argmax(axis=1)
            predicted = {int(v) for v in z if v != 0} or {0}
            if predicted == gold:
                continue
            target = z.copy()
            # force each missed positive onto its best sentence
            for y in gold - predicted - {0}:
                target[int(scores[:, y].argmax())] = y
            # demote sentences predicting labels outside the gold set
            for i, zi in enumerate(z):
                if zi != 0 and int(zi) not in gold \
                        and target[i] == zi:
                    target[i] = 0
            for i, idx in enumerate(hs):
                if idx and target[i] != z[i]:
                    W[idx, int(target[i])] += 1.0
                    W[idx, int(z[i])] -= 1.0
        acc += W
    return LinearBagModel((acc / max(1, epochs)).astype(np.float32))


class OneVsAllModel:
    """Per-relation binary LR over hashed sentence features."""

    def __init__(self, W: dict[str, np.ndarray],
                 b: dict[str, float]):
        self.W, self.b = W, b

    def classify_bag(self, sent_features: list[list[str]]) -> dict:
        out: dict[str, float] = {}
        hashed = bucket_lists(sent_features)
        for rel, w in self.W.items():
            best = 0.0
            for idx in hashed:
                logit = self.b[rel] + (w[idx].sum() if len(idx) else 0.0)
                p = 1.0 / (1.0 + np.exp(-np.clip(logit, -30, 30)))
                best = max(best, float(p))
            if best > 0.5:
                out[rel] = best
        return out


def train_one_vs_all(bags: list[dict], *, epochs: int = 8,
                     seed: int = 42, lr: float = 0.5,
                     robust: bool = False,
                     shift_l1: float = 0.1) -> OneVsAllModel:
    """LR_INC (incomplete negatives) / ROBUST_LR (per-positive-bag
    shift parameters soaking up distant-supervision noise)."""
    hashed = [bucket_lists(b["sent_features"]) for b in bags]
    Ws: dict[str, np.ndarray] = {}
    bs: dict[str, float] = {}
    rels = sorted({p for b in bags for p in b["pos"]})
    for rel in rels:
        pos_ex, neg_ex = [], []
        shifts = []
        for b, hs in zip(bags, hashed):
            if rel in b["pos"]:
                pos_ex.extend((idx, len(shifts)) for idx in hs)
                shifts.append(0.0)
            elif rel in b["neg"] or b["neg"] or not b["pos"]:
                # incomplete negatives: explicit negs + unlabeled bags
                neg_ex.extend((idx, -1) for idx in hs)
        data = [(idx, 1.0, si) for idx, si in pos_ex] + \
               [(idx, 0.0, -1) for idx, _ in neg_ex]
        if not data:
            continue
        w = np.zeros(HASH_DIM, dtype=np.float64)
        bias = 0.0
        shift = np.zeros(len(shifts))
        rng = np.random.default_rng(seed)
        step = lr
        for _ in range(epochs):
            for i in rng.permutation(len(data)):
                idx, y, si = data[i]
                logit = bias + (w[idx].sum() if len(idx) else 0.0)
                if robust and si >= 0:
                    logit += shift[si]
                p = 1.0 / (1.0 + np.exp(-np.clip(logit, -30, 30)))
                g = p - y
                bias -= step * g
                if len(idx):
                    w[idx] -= step * g
                if robust and si >= 0:
                    shift[si] -= step * g
                    # L1 proximal step keeps shifts sparse
                    shift[si] = np.sign(shift[si]) * max(
                        0.0, abs(shift[si]) - step * shift_l1)
            step *= 0.8
        Ws[rel] = w.astype(np.float32)
        bs[rel] = float(bias)
    return OneVsAllModel(Ws, bs)


class GoldModel:
    """Memorizes the training bags' positive labels
    (``GoldClassifier.java``) — debug upper bound."""

    def __init__(self, bags: list[dict]):
        self.memory = {(b["subj"], b["obj"]): list(b["pos"])
                       for b in bags if b["pos"]}

    def classify_pair(self, subj: str, obj: str) -> dict:
        return {r: 1.0 for r in self.memory.get((subj, obj), ())}


class NoopModel:
    """Always empty (``NOOPClassifier.java``)."""

    @staticmethod
    def classify_bag(sent_features) -> dict:
        return {}


class SupervisedModel(LRModel):
    """Softmax LR trained on ANNOTATED sentence datums — the
    ``ModelType.SUPERVISED`` extractor (``SupervisedExtractor``;
    ``ModelType.java:45``), distinct from every distant-supervision
    model in this zoo: its labels come per sentence from an annotated
    corpus (``pipelines.train.annotated_examples``), not from a KB
    join. ``classify_bag`` scores each sentence and noisy-ors the
    confident per-sentence argmax relations."""

    def classify_bag(self, sent_features: list[list[str]]) -> dict:
        om: dict[str, float] = {}
        for p in self.predict_proba(sent_features):
            zi = int(p.argmax())
            lab = self.labels[zi]
            if lab == NO_RELATION or p[zi] < 0.5:
                continue
            om[lab] = om.get(lab, 1.0) * (1.0 - float(p[zi]))
        return {rel: 1.0 - v for rel, v in om.items()}


def train_supervised(datums: list[dict], *, seed: int = 42
                     ) -> SupervisedModel:
    """``datums``: annotated sentence examples
    ``{"features": [...], "label": relation-or-no_relation}`` (NOT
    bags — the SUPERVISED input type)."""
    feats = bucket_lists([d["features"] for d in datums])
    ys = np.array([_LAB_IDX[d["label"]] for d in datums],
                  dtype=np.int64)
    W, b = sgd_lr(feats, ys, len(LABELS), seed)
    return SupervisedModel(W, b, LABELS)


MODEL_REGISTRY = {
    "SUPERVISED": lambda datums, **kw: train_supervised(datums, **kw),
    "PERCEPTRON": train_perceptron,
    "AT_LEAST_ONCE": train_hoffmann,
    "LR_INC": lambda bags, **kw: train_one_vs_all(bags, robust=False,
                                                  **kw),
    "ROBUST_LR": lambda bags, **kw: train_one_vs_all(bags, robust=True,
                                                     **kw),
    "GOLD": lambda bags, **kw: GoldModel(bags),
    "NOOP": lambda bags, **kw: NoopModel(),
}


def train_model(name: str, bags: list[dict], **kw):
    """ModelType-style reflective construction (``ModelType.java:
    68-105``): look the trainer up by name."""
    if name == "JOINT_BAYES":
        from .jointbayes import train_jointbayes
        return train_jointbayes(bags, **kw)
    if name == "LOCAL_BAYES":
        from .jointbayes import train_jointbayes
        return train_jointbayes(bags, only_local=True, **kw)
    try:
        return MODEL_REGISTRY[name](bags, **kw)
    except KeyError:
        raise ValueError(f"unknown model type: {name}") from None
