"""MIML-RE JointBayes training (EM) + Y-layer inference.

Re-derivation of the reference's ``JointBayesRelationExtractor``
semantics (``kbp/slotfilling/classify/JointBayesRelationExtractor.java``):

- **bags** with pos/neg/unk label sets from distant supervision
  (``KBPTrainer.computePositiveAndNegativeRelations``, ``:343-379``:
  positives = KB relations of the (entity, value) pair; negatives =
  SINGLE-cardinality relations the entity fills in the KB with a
  DIFFERENT value — the incomplete-negatives heuristic; the rest
  unknown);
- **cross-validated Z folds** (``foldStart/foldEnd :194-212``): fold f's
  Z classifier is trained on every fold except f and performs E-step
  inference for fold f's bags, so a bag never sees a classifier trained
  on itself;
- **EM** (``:429-800``): E-step = per-bag greedy Z relabeling maximizing
  z-logprob + Σ_pos log P(y|Z) + Σ_neg log P(¬y|Z)
  (``inferZLabelsStable :1569-1665``), Y-dataset population from the
  inferred Z; M-step = retrain fold Z classifiers on the new labels and
  per-relation binary Y classifiers; early stop when no Z flips;
- **Y features** (``extractYFeatures :1819-1870``): NONE / ATLEASTONCE /
  UNIQUE / co-occurrence features over the bag's Z labels; Y
  classifiers are initialized with a big ATLEASTONCE weight
  (``initializeYClassifiersWithAtLeastOnce :1455-1470``);
- **Min et al. relabeling** (``:566-628``, NAACL 2013): optionally
  promote the globally most-probable (bag, unknown label) pairs to
  positives up to an expected-positive budget via a bounded priority
  queue;
- **inference** (``classifyRelations :2009-2130``): per-sentence Z
  argmax → noisy-or per label → per-relation Y probability → output
  modes Y_GIVEN_ZSTAR / NOISY_OR / Y_THEN_NOISY_OR with per-relation
  thresholds.

Z classifiers hash through ``classify.bucket_lists``, train with the
one SGD loop (``train.sgd_lr``) and score through ``classify.gather_sum``;
the single one is a plain ``LRModel`` dict for the pipeline's
``CandidateScorer``/``EnsembleScorer``. Fold M-steps
run as parallel Ray tasks when a cluster is up (``threadAndRun``
analog); everything else is driver-side numpy over the (small)
training-bag table.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..stages.classify import (LABELS, LRModel, NO_RELATION,
                               bucket_lists, gather_sum)
from ..vocab import RELATION_NAMES, RELATIONS
from .train import sgd_lr

NONE_FEAT = "none"
ATLEASTONCE_FEAT = "atleastonce"
UNIQUE_FEAT = "unique"
BIG_WEIGHT = 10.0
DEFAULT_THRESHOLD = 0.5
PERCENT_POSITIVE = 0.02      # Props.TRAIN_JOINTBAYES_PERCENT_POSITIVE


# ---------------------------------------------------------------------------
# Y-classifier: tiny binary LR over named features
# ---------------------------------------------------------------------------

def extract_y_features(y_label: str, z_labels: list[str]) -> dict:
    """extractYFeatures (:1819-1870) over string Z labels."""
    count = 0
    others = []
    for z in z_labels:
        if z == y_label:
            count += 1
        elif z != NO_RELATION:
            others.append(z)
    feats: dict[str, float] = {}
    if count == 0:
        feats[NONE_FEAT] = 1.0
    else:
        feats[ATLEASTONCE_FEAT] = 1.0
        for z in set(others):
            feats[f"cooc:{z}"] = 1.0
        if not others:
            feats[UNIQUE_FEAT] = 1.0
    return feats


class YClassifier:
    """Binary LR P(y | z-features); weights in a named dict."""

    def __init__(self):
        self.w: dict[str, float] = {ATLEASTONCE_FEAT: BIG_WEIGHT}
        self.b = 0.0

    def logit(self, feats: dict) -> float:
        return self.b + sum(self.w.get(f, 0.0) * v
                            for f, v in feats.items())

    def prob(self, feats: dict) -> float:
        return 1.0 / (1.0 + np.exp(-np.clip(self.logit(feats),
                                            -30, 30)))

    def log_prob(self, feats: dict, positive: bool) -> float:
        p = self.prob(feats)
        p = min(max(p, 1e-12), 1 - 1e-12)
        return float(np.log(p if positive else 1.0 - p))

    def train(self, data: list[tuple[dict, bool]], epochs: int = 30,
              lr: float = 0.5, l2: float = 1e-3):
        self.w, self.b = {}, 0.0
        for _ in range(epochs):
            for feats, pos in data:
                p = self.prob(feats)
                g = p - (1.0 if pos else 0.0)
                self.b -= lr * g
                for f, v in feats.items():
                    self.w[f] = self.w.get(f, 0.0) * (1 - lr * l2) \
                        - lr * g * v
            lr *= 0.9

    def to_dict(self):
        return {"w": dict(self.w), "b": self.b}

    @classmethod
    def from_dict(cls, d):
        y = cls()
        y.w, y.b = dict(d["w"]), float(d["b"])
        return y


# ---------------------------------------------------------------------------
# Z-classifier: an LRModel trained by the one SGD loop (train.sgd_lr)
# ---------------------------------------------------------------------------

def _z_log_probs(W, b, feat_idx: list[list[int]]) -> np.ndarray:
    """[n_sentences, n_labels] log-softmax of the float64 bias plus
    each sentence's float32 ``gather_sum``."""
    lengths = np.fromiter(map(len, feat_idx), np.int64, len(feat_idx))
    idx = np.fromiter(chain.from_iterable(feat_idx), np.int64,
                      lengths.sum())
    logits = b.astype(np.float64) + gather_sum(W, lengths, idx)
    logits -= logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits - lse


# ---------------------------------------------------------------------------
# the EM trainer
# ---------------------------------------------------------------------------

class JointBayesModel:
    """Serializable bundle: fold Z models + single Z model (drop-in
    LRModel dict for CandidateScorer) + per-relation Y classifiers."""

    def __init__(self, z_single: dict, y: dict[str, dict],
                 labels: list[str],
                 thresholds: dict[str, float] | None = None,
                 default_threshold: float = DEFAULT_THRESHOLD):
        self.z_single = z_single
        self.y = y
        self.labels = labels
        self.thresholds = thresholds or {}
        self.default_threshold = default_threshold

    def threshold(self, rel: str) -> float:
        return self.thresholds.get(rel, self.default_threshold)


def train_jointbayes(bags: list[dict], *, seed: int = 42,
                     n_folds: int = 3, epochs: int = 5,
                     guess_unlabeled: bool = False,
                     only_local: bool = False) -> JointBayesModel:
    """EM over training bags.

    ``bags``: dicts with ``sent_features`` (list of feature-string
    lists), ``pos`` / ``neg`` / ``unk`` (lists of relation names).
    ``only_local=True`` stops after initialization — the LOCAL_BAYES /
    Mintz++ variant (``onlyLocalTraining``, ``:138,512-515``).
    """
    labels = LABELS
    lab_idx = {l: i for i, l in enumerate(labels)}
    n_lab = len(labels)

    hashed = [bucket_lists(bag["sent_features"]) for bag in bags]
    n_bags = len(bags)

    # fold boundaries (foldStart/foldEnd :194-212)
    def fold_range(f):
        per = n_bags // n_folds
        lo = f * per
        hi = (f + 1) * per if f < n_folds - 1 else n_bags
        return lo, hi

    # --- initialization: local (Mintz++) Z labels -----------------------
    # each sentence starts labeled with one of its bag's positives
    z_labels = []
    for bag in bags:
        lab = lab_idx[bag["pos"][0]] if bag["pos"] else 0
        z_labels.append([lab] * len(bag["sent_features"]))

    def train_fold(fold):
        lo, hi = fold_range(fold)
        fi, ys = [], []
        for i in range(n_bags):
            if lo <= i < hi:
                continue            # cross-validation: hold out own fold
            fi.extend(hashed[i])
            ys.extend(z_labels[i])
        return sgd_lr(fi, np.array(ys, dtype=np.int64), n_lab,
                      seed + fold)

    def train_all_folds():
        import ray
        if ray.is_initialized() and n_bags > 64:
            f = ray.remote(lambda k: train_fold(k))
            return ray.get([f.remote(k) for k in range(n_folds)])
        return [train_fold(k) for k in range(n_folds)]

    z_folds = train_all_folds()

    y_cls = {r: YClassifier() for r in RELATION_NAMES}

    if not only_local:
        for _epoch in range(epochs):
            flips = 0

            if guess_unlabeled and _epoch > 0:
                # Min et al. relabeling (:566-628): promote the top
                # (bag, unknown-label) pairs to positive up to the
                # expected-positive budget
                n_pos = sum(len(b["pos"]) for b in bags)
                budget = int(PERCENT_POSITIVE * n_bags
                             * len(RELATION_NAMES)) - n_pos
                if budget > 0:
                    scored = []
                    for i, bag in enumerate(bags):
                        unk = [u for u in bag["unk"]
                               if u not in bag["pos"]]
                        if not unk:
                            continue
                        lp = _z_log_probs(*z_folds[_bag_fold(
                            i, n_bags, n_folds)], hashed[i])
                        for u in unk:
                            scored.append(
                                (float(lp[:, lab_idx[u]].max()), i, u))
                    scored.sort(reverse=True)
                    for _s, i, u in scored[:budget]:
                        bags[i]["pos"].append(u)
                        if u in bags[i]["neg"]:
                            bags[i]["neg"].remove(u)

            # E-step: greedy per-sentence Z flips + Y dataset
            y_data: dict[str, list] = {r: [] for r in RELATION_NAMES}
            for i, bag in enumerate(bags):
                fold = _bag_fold(i, n_bags, n_folds)
                W, b = z_folds[fold]
                lp = _z_log_probs(W, b, hashed[i])
                zl = z_labels[i]
                pos = [lab_idx[p] for p in bag["pos"]]
                neg = [lab_idx[p] for p in bag["neg"]]
                for s in range(len(zl)):
                    best, best_lp = zl[s], -np.inf
                    orig = zl[s]
                    for cand in range(n_lab):
                        zl[s] = cand
                        z_str = [labels[z] for z in zl]
                        logp = lp[s, cand]
                        for y in pos:
                            logp += y_cls[labels[y]].log_prob(
                                extract_y_features(labels[y], z_str),
                                True)
                        for y in neg:
                            logp += y_cls[labels[y]].log_prob(
                                extract_y_features(labels[y], z_str),
                                False)
                        if logp > best_lp:
                            best_lp, best = logp, cand
                    zl[s] = best
                    if best != orig:
                        flips += 1
                z_str = [labels[z] for z in zl]
                for p in bag["pos"]:
                    y_data[p].append(
                        (extract_y_features(p, z_str), True))
                for p in bag["neg"]:
                    y_data[p].append(
                        (extract_y_features(p, z_str), False))

            if flips == 0:
                break               # no Z updates: converged (:689-694)

            # M-step: retrain fold Z + per-relation Y classifiers
            z_folds = train_all_folds()
            for r, data in y_data.items():
                if data:
                    y_cls[r].train(data)

    # single Z classifier over all bags (makeSingleZClassifier)
    all_fi, all_ys = [], []
    for i in range(n_bags):
        all_fi.extend(hashed[i])
        all_ys.extend(z_labels[i])
    W, b = sgd_lr(all_fi, np.array(all_ys, dtype=np.int64), n_lab,
                  seed + 7919)
    z_single = LRModel(W, b, labels).to_dict()

    return JointBayesModel(z_single,
                           {r: c.to_dict() for r, c in y_cls.items()},
                           labels)


def _bag_fold(i: int, n_bags: int, n_folds: int) -> int:
    per = max(1, n_bags // n_folds)
    return min(i // per, n_folds - 1)


# ---------------------------------------------------------------------------
# inference (classifyRelations :2009-2130)
# ---------------------------------------------------------------------------

def classify_bag(model: JointBayesModel, sent_features: list[list[str]],
                 mode: str = "NOISY_OR") -> dict[str, float]:
    """→ {relation: score} under the given output mode."""
    lr = LRModel.from_dict(model.z_single)
    probs = lr.predict_proba(sent_features)
    z = probs.argmax(axis=1)
    z_str = [model.labels[zi] for zi in z]

    noisy_or: dict[str, float] = {}
    for zi, row in zip(z, probs):
        lab = model.labels[zi]
        if lab == NO_RELATION:
            continue
        noisy_or[lab] = noisy_or.get(lab, 1.0) * (1.0 - float(row[zi]))
    noisy_or = {l: 1.0 - v for l, v in noisy_or.items()}

    p_y: dict[str, float] = {}
    for rel in model.y:
        yc = YClassifier.from_dict(model.y[rel])
        p_y[rel] = yc.prob(extract_y_features(rel, z_str))

    out: dict[str, float] = {}
    if mode == "Y_GIVEN_ZSTAR":
        # the reference emits every Y probability, normalized (:2125-2127)
        total = sum(p_y.values()) or 1.0
        return {l: p / total for l, p in p_y.items()}
    if mode == "NOISY_OR":
        for l, zp in noisy_or.items():
            score = p_y.get(l, 0.0) * zp
            if score > model.threshold(l):
                out[l] = score
        return out
    if mode == "Y_THEN_NOISY_OR":
        for l, zp in noisy_or.items():
            if p_y.get(l, 0.0) > model.threshold(l):
                out[l] = p_y[l] * zp
        return out
    raise ValueError(f"unknown output mode: {mode}")


# ---------------------------------------------------------------------------
# distant-supervision bag building (KBPTrainer.java:343-379)
# ---------------------------------------------------------------------------

def build_training_bags(n_docs: int = 1500, seed: int = 42) -> list[dict]:
    """Streaming candidates → featurized bags with pos/neg/unk label
    sets. The bag groupby is the salted-key shuffle of stages/bags.py;
    labeling is a broadcast KB join inside the driver collect (the
    training-bag table is small by design — caps mirror the
    reference's per-entity sentence limits)."""
    from ..world import get_world
    from .train import training_candidates
    from ..stages import bags as bags_mod

    world = get_world(seed)
    kb: dict[tuple, list] = {}
    by_entity_single: dict[str, dict[str, str]] = {}
    for name, _etype, rel, value, _vt in world.kb_triples():
        kb.setdefault((name, value), []).append(rel)
        if RELATIONS[rel].cardinality == "SINGLE":
            by_entity_single.setdefault(name, {})[rel] = value

    bagged = bags_mod.assemble(training_candidates(n_docs, seed))

    out = []
    for row in bagged.take_all():
        subj, obj, objt = row["subj"], row["obj"], row["obj_type"]
        pos = [r for r in kb.get((subj, obj), ())
               if objt in RELATIONS[r].slot_types]
        neg = []
        singles = by_entity_single.get(subj)
        if singles:
            for rel, val in singles.items():
                if val != obj and objt in RELATIONS[rel].slot_types \
                        and rel not in pos:
                    neg.append(rel)
        unk = [r for r in RELATION_NAMES
               if r not in pos and r not in neg]
        out.append({"subj": subj, "obj": obj,
                    "sent_features": row["sent_features"],
                    "pos": pos, "neg": sorted(neg), "unk": unk})
    out.sort(key=lambda b: (b["subj"], b["obj"]))
    return out
