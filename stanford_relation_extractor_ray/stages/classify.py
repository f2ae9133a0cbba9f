"""Relation classification: bags → scored slot fills.

Ray-Data shape of the reference's classifier ensemble
(``kbp/slotfilling/classify/``): ONE scorer holds every component model
and emits the combined score in a single pass over the bags dataset —
the reference likewise calls component models sequentially in-process
(``EnsembleRelationExtractor.java:265-278``), and a single combined
scorer avoids per-model shuffles (SURVEY.md §2.4 RD note). Scorers run
as stateless tasks over a per-worker cached instance
(``runtime.map_cached``), keyed by the model ref and options.

Components:
- **PatternScorer** — the TokensRegex/Semgrex analog
  (``TokensRegexExtractor.java:66-``, ``HeuristicRelationExtractor.java:38-86``):
  connector-phrase match (vocab.resolve_relation) per sentence; pattern
  hits effectively always win (reference scores them +∞; we use 0.95 per
  sentence under noisy-or).
- **LRScorer** — the MIML-RE stand-in (``JointBayesRelationExtractor
  .java:2009-2130`` semantics, local/Mintz++ variant): per-sentence Z =
  multinomial LR over hashed features, bag-level aggregation = noisy-or
  per relation (the reference's NOISY_OR output mode).
- **Ensemble combine** (``EnsembleRelationExtractor.java:281-333``):
  AGREE_ANY over components with noisy-or score combine
  ``1 − ∏(1−wᵢ)``; provenance from the highest-scoring agreeing
  sentence.

Every scorer and trainer — extraction, ``train_lr``, the classifier
zoo and MIML-RE — shares one hashing step and one scoring kernel.
``feature_codes`` dictionary-encodes a ``list<string>`` column and
hashes each DISTINCT string once (``hash_features``, crc32 mod
``HASH_DIM``, a pure function of the string, so this is exact);
``bucket_lists`` turns that into the per-row bucket lists the
sequential SGD and perceptron loops index ``W`` with. ``gather_sum``
adds each row's weight rows position by position into zeros, the
float32 order of the per-row ``W[idx].sum(axis=0)`` it replaced, and
each caller adds its bias in its own dtype; the replaced loops are
oracles in tests/oracles.py, so scores are bit-identical. This is the
weight-table gather-sum of *Sketching Linear Classifiers over Data
Streams* (SIGMOD 2018).
``CandidateScorer`` selects LR hits with a label × object-type
admissibility table, with no per-row Python.

Salted partial bags are merged *after* classification by a cheap
per-triple noisy-or (``combine_fills``) — an intentional departure from
re-assembling giant bags, correct because both the pattern scorer and
the noisy-or aggregation distribute over bag partitions.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import FILLS_SCHEMA
from ..vocab import RELATION_NAMES, RELATIONS, resolve_relation

PATTERN_SENT_SCORE = 0.95
LR_MIN_PROB = 0.9
LR_WEIGHT = 0.6          # ensemble weight of the LR component
HASH_DIM = 1 << 15
NO_RELATION = "no_relation"
LABELS = [NO_RELATION] + RELATION_NAMES   # every LR model's label order

# TopEmployeesClassifier trigger list
# (kbp/slotfilling/classify/TopEmployeesClassifier.java:25-107)
TOP_EMPLOYEE_TRIGGERS = frozenset("""
executive chairman president chief head general ceo officer founder
found leader vice king prince manager host minister adviser boss chair
ambassador shareholder star governor investor representative dean
commissioner deputy commander scientist midfielder speaker researcher
editor chancellor fellow leadership diplomat attorney associate striker
pilot captain banker mayer premier producer architect designer major
advisor presidency senator specialist faculty monitor chairwoman mayor
columnist mediator prosecutor entrepreneur creator superstar
commentator principal operative businessman peacekeeper investigator
coordinator knight lawmaker justice publisher playmaker moderator
negotiator""".split())
_TOP_EMP_SLOT_TYPES = frozenset(
    {"ORGANIZATION", "COUNTRY", "STATE_OR_PROVINCE", "CITY"})


def top_employee_relation(subj_type: str, obj_type: str, between: str,
                          order_so: bool) -> str | None:
    """The TopEmployeesClassifier decision for one sentence
    (``TopEmployeesClassifier.java:115-195``): a trigger keyword in a
    short (<5 token) span between the mentions, not broken by another
    entity; PERSON×ORG-ish → per:employee_of, ORG×PERSON →
    org:top_members/employees (the latter vetoed when the span is
    punctuation-broken and the org precedes — 'Org, said president X').
    Entity-breakage is approximated by capitalized between-tokens (the
    lossy surface carries no NER)."""
    toks = between.split(" ") if between else []
    if len(toks) >= 5:
        return None
    if any(t[:1].isupper() for t in toks):
        return None                  # brokenByPERorORG approximation
    from .deps import lemma
    trigger = any(t.lower() in TOP_EMPLOYEE_TRIGGERS
                  or lemma(t) in TOP_EMPLOYEE_TRIGGERS for t in toks)
    if not trigger:
        return None
    broken_punct = any(t in (",", ";", '"') for t in toks)
    if subj_type == "PERSON" and obj_type in _TOP_EMP_SLOT_TYPES:
        return "per:employee_of"
    if subj_type == "ORGANIZATION" and obj_type == "PERSON":
        if not order_so or not broken_punct:
            return "org:top_members/employees"
    return None


def hash_features(features: list[str], dim: int = HASH_DIM) -> np.ndarray:
    """Stable feature hashing (crc32 — deterministic across processes)."""
    return np.fromiter(
        (zlib.crc32(f.encode()) % dim for f in features),
        dtype=np.int64, count=len(features))


def feature_codes(feat_lists) -> tuple[np.ndarray, np.ndarray,
                                       np.ndarray]:
    """The hashing step scoring and training share: a ``list<string>``
    column (Array or ChunkedArray, sliced or not; a Python list of
    lists is converted once) → ``(lengths, codes, buckets)``: each
    row's feature count, each flattened feature's code among the
    column's distinct strings, and each distinct string's
    ``hash_features`` bucket. The hash is a pure function of the
    string, so hashing once per distinct string is exact."""
    if not isinstance(feat_lists, (pa.Array, pa.ChunkedArray)):
        feat_lists = pa.array(feat_lists, pa.list_(pa.string()))
    lengths = pc.list_value_length(feat_lists)
    flat = pc.list_flatten(feat_lists)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if lengths.null_count or flat.null_count:
        # a null would reach crc32 as None, or be dropped silently by
        # the dictionary encoding
        raise ValueError(
            f"feature lists: {lengths.null_count} null rows and "
            f"{flat.null_count} null feature strings")
    enc = flat.dictionary_encode()
    return (lengths.to_numpy().astype(np.int64),
            enc.indices.to_numpy().astype(np.int64),
            hash_features(enc.dictionary.to_pylist()))


def bucket_lists(feat_lists) -> list[list[int]]:
    """Each row's ``hash_features`` buckets as a list of ints (an empty
    row stays ``[]``), from one ``feature_codes`` pass."""
    lengths, codes, buckets = feature_codes(feat_lists)
    flat = buckets[codes].tolist()
    ends = np.cumsum(lengths).tolist()
    return [flat[e - n:e] for n, e in zip(lengths.tolist(), ends)]


def gather_sum(rows: np.ndarray, lengths: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
    """Output row i sums ``rows[idx[j]]`` over its ``lengths[i]``
    consecutive entries of ``idx``, with no bias. Entries accumulate
    position by position into zeros — row i gets its entry 0, then 1,
    … — the sequential order of numpy's ``rows[idx_i].sum(axis=0)``, so
    the sums are bit-identical to it (``np.add.reduceat`` is not a
    sequential sum). Rows are ordered by length so the rows still open
    at position p are a prefix."""
    order = np.argsort(-lengths, kind="stable")     # longest first
    starts = (np.cumsum(lengths) - lengths)[order]
    # per position p, the number of rows longer than p
    n_open = np.searchsorted(-lengths[order],
                             -np.arange(lengths.max(initial=0)))
    acc = np.zeros((len(lengths), rows.shape[1]), rows.dtype)
    for p, k in enumerate(n_open):
        acc[:k] += rows[idx[starts[:k] + p]]
    sums = np.empty_like(acc)
    sums[order] = acc
    return sums


def hashed_sums(W: np.ndarray, feat_lists) -> np.ndarray:
    """Each feature-list row's summed weight rows of ``W``, no bias:
    one gathered row per distinct string, then ``gather_sum``."""
    lengths, codes, buckets = feature_codes(feat_lists)
    return gather_sum(W[buckets], lengths, codes)


class LRModel:
    """Multinomial LR over hashed features (numpy; trained in
    pipelines/train.py). ``labels[0]`` must be NO_RELATION."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray,
                 labels: list[str]):
        self.W = weights.astype(np.float32)          # [dim, n_labels]
        self.b = bias.astype(np.float32)
        self.labels = labels

    def logits(self, feat_lists) -> np.ndarray:
        """[n_rows, n_labels] float32: the bias plus each row's summed
        weight rows, bit-identical to ``b + W[hash(row)].sum(axis=0)``."""
        return hashed_sums(self.W, feat_lists) + self.b

    def predict_proba(self, feat_lists) -> np.ndarray:
        """[n_rows, n_labels] softmax probabilities."""
        logits = self.logits(feat_lists)
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        return p

    def to_dict(self):
        return {"weights": self.W, "bias": self.b,
                "labels": np.array(self.labels)}

    @classmethod
    def from_dict(cls, d):
        return cls(d["weights"], d["bias"], [str(x) for x in d["labels"]])


def ensemble_combine(components: list[dict], mode: str = "any") -> dict:
    """Test-time combination of per-component bag classifications —
    the reference's AGREE_* modes
    (``EnsembleRelationExtractor.java:281-333``).

    ``components``: one ``{relation: (score, best_i, best_s)}`` per
    component classifier, in classifier-list order (AGREE_FIRST depends
    on that order — SURVEY.md §2.11). Modes:

    - ``any``  — every proposed relation; score = 1 − ∏(1−wᵢ) over the
      proposing components (noisy-or).
    - ``all``  — only relations every component proposed.
    - ``most`` — only relations ≥ half the components proposed.
    - ``two``  — only relations ≥ 2 components proposed.
    - ``first``— the first component with any output wins outright.

    Provenance = the proposing component with the highest weight.
    """
    n = len(components)
    if mode == "first":
        for comp in components:
            if comp:
                return dict(comp)
        return {}
    min_votes = {"any": 1, "two": 2, "most": (n + 1) // 2,
                 "all": n}[mode]
    by_rel: dict[str, list[tuple]] = {}
    for comp in components:
        for rel, hit in comp.items():
            by_rel.setdefault(rel, []).append(hit)
    out = {}
    for rel, hits in by_rel.items():
        if len(hits) < min_votes:
            continue
        om = 1.0
        best = hits[0]
        for h in hits:
            om *= (1.0 - h[0])
            if h[0] > best[0]:
                best = h
        out[rel] = (1.0 - om, best[1], best[2])
    return out


class EnsembleScorer:
    """Batch transform: bags table → fills table (built once per
    worker process by ``classify``)."""

    def __init__(self, model_ref=None, mode: str = "any",
                 with_top_employees: bool = False,
                 extra_models=None):
        """``extra_models``: additional component models with a
        ``classify_bag(sent_features) → {relation: score}`` contract
        (the classifier-zoo interface, pipelines/classifiers.py) —
        the reference ensemble likewise holds all component
        classifiers in one process
        (``EnsembleRelationExtractor.java:265-278``)."""
        self.mode = mode
        self.with_top_employees = with_top_employees
        self.extra_models = list(extra_models or [])
        self.lr: LRModel | None = None
        if model_ref is not None:
            import ray
            d = ray.get(model_ref) if hasattr(model_ref, "hex") \
                else model_ref
            if d is not None:
                self.lr = LRModel.from_dict(d)

    @staticmethod
    def _noisy_or(per_rel: dict) -> dict:
        out = {}
        for rel, hits in per_rel.items():
            score = 1.0
            best_i, best_s = hits[0]
            for i, s in hits:
                score *= (1.0 - s)
                if s > best_s:
                    best_i, best_s = i, s
            out[rel] = (1.0 - score, best_i, best_s)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Shares the fast path's batching discipline
        (``CandidateScorer``): bags are FLATTENED so the whole batch
        gets one feature-extraction pass and ONE ``predict_proba``
        call, then per-(bag, relation) hit lists reassemble for the
        noisy-or + ensemble combine. Replaced a per-bag loop whose
        per-bag LR calls and duplicate feature scans were the bag
        path's top CPU lines (semantics identical — hit order stays
        bag-local ascending)."""
        cols = {n: batch.column(n).to_pylist()
                for n in batch.column_names}
        sf_col = cols["sent_features"]
        n_bags = batch.num_rows

        flat_feats: list = []
        flat_bag: list[int] = []
        flat_loc: list[int] = []
        for r, sf in enumerate(sf_col):
            flat_feats.extend(sf)
            flat_bag.extend([r] * len(sf))
            flat_loc.extend(range(len(sf)))
        flat_so = [False] * len(flat_feats)
        flat_between = [""] * len(flat_feats)
        for j, feats in enumerate(flat_feats):
            for f in feats:
                if f == "order:SO":
                    flat_so[j] = True
                elif f.startswith("between:"):
                    flat_between[j] = f[8:]

        def add_hit(comp, r, rel, i, s):
            comp.setdefault(r, {}).setdefault(rel, []).append((i, s))

        pattern: dict[int, dict] = {}
        tope: dict[int, dict] = {}
        for j in range(len(flat_feats)):
            r = flat_bag[j]
            st, ot = cols["subj_type"][r], cols["obj_type"][r]
            if flat_so[j]:
                rel = resolve_relation(flat_between[j], st, ot)
                if rel is not None:
                    add_hit(pattern, r, rel, flat_loc[j],
                            PATTERN_SENT_SCORE)
            if self.with_top_employees:
                rel = top_employee_relation(st, ot, flat_between[j],
                                            flat_so[j])
                if rel is not None:
                    add_hit(tope, r, rel, flat_loc[j],
                            PATTERN_SENT_SCORE)
        lr_hits: dict[int, dict] = {}
        if self.lr is not None and flat_feats:
            probs = self.lr.predict_proba(
                pc.list_flatten(batch.column("sent_features")))
            z = probs.argmax(axis=1)
            pmax = probs[np.arange(len(z)), z]
            for j in np.flatnonzero(pmax >= LR_MIN_PROB):
                rel = self.lr.labels[z[j]]
                if rel == NO_RELATION:
                    continue
                r = flat_bag[j]
                spec = RELATIONS.get(rel)
                if spec is None \
                        or cols["obj_type"][r] not in spec.slot_types:
                    continue
                add_hit(lr_hits, r, rel, flat_loc[j],
                        float(pmax[j]) * LR_WEIGHT)

        out: dict[str, list] = {n: [] for n in FILLS_SCHEMA.names}
        for r in range(n_bags):
            components = [self._noisy_or(pattern.get(r, {}))]
            if self.lr is not None:
                components.append(self._noisy_or(lr_hits.get(r, {})))
            if self.with_top_employees:
                components.append(self._noisy_or(tope.get(r, {})))
            for m in self.extra_models:
                mout = m.classify_bag(sf_col[r])
                components.append(
                    {rel: (s, 0, s) for rel, s in mout.items()})
            scored = ensemble_combine(components, self.mode)
            subj_type = cols["subj_type"][r]
            obj_type = cols["obj_type"][r]
            for rel, (score, best_i, _s) in scored.items():
                out["subj"].append(cols["subj"][r])
                out["subj_type"].append(subj_type)
                out["pred"].append(rel)
                out["obj"].append(cols["obj"][r])
                out["obj_type"].append(obj_type)
                out["score"].append(score)
                out["doc_id"].append(cols["prov_doc_id"][r][best_i])
                out["sent_idx"].append(cols["prov_sent_idx"][r][best_i])
                out["subj_span"].append(
                    [cols["prov_subj_begin"][r][best_i],
                     cols["prov_subj_end"][r][best_i]])
                out["obj_span"].append(
                    [cols["prov_obj_begin"][r][best_i],
                     cols["prov_obj_end"][r][best_i]])
        return pa.Table.from_arrays(
            [pa.array(out[n], t) for n, t in
             zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
            schema=FILLS_SCHEMA)


def classify(bags, *, model_ref=None, batch_size: int = 1024,
             mode: str = "any", with_top_employees: bool = False):
    from ..runtime import map_cached
    return map_cached(bags, EnsembleScorer, batch_size=batch_size,
                      model_ref=model_ref, mode=mode,
                      with_top_employees=with_top_employees)


_MISS = object()   # resolve_relation memo sentinel (None is a valid hit)


def _span_pairs(begin: np.ndarray, end: np.ndarray) -> pa.ListArray:
    """[b,e] int32 list column from parallel begin/end arrays —
    interleaved values buffer + stride-2 offsets, no per-row lists."""
    n = len(begin)
    vals = np.empty(2 * n, np.int32)
    vals[0::2] = begin
    vals[1::2] = end
    offsets = np.arange(0, 2 * n + 2, 2, dtype=np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                    pa.array(vals, pa.int32()))


class CandidateScorer:
    """Fast-path scorer: featurized candidate rows → per-batch
    PARTIAL fills (one row per triple per batch).

    Equivalent to bag assembly + bag scoring (bags.assemble +
    EnsembleScorer) because both ensemble components score sentences
    independently and the bag aggregate is a noisy-or, which distributes
    over any partition of the bag:  1-∏(1-sᵢ) over the whole bag equals
    the noisy-or of per-batch partial noisy-ors. This removes the
    100k-group bag shuffle entirely; what remains is the (much smaller)
    per-triple combine in finalize (``consistency.finalize_partition``,
    shuffled only above the size gate), and in-batch
    partial aggregation keeps hot-entity groups bounded by the number of
    batches rather than the number of supporting sentences.
    """

    def __init__(self, model_ref=None):
        self._resolve_memo: dict = {}
        self.lr: LRModel | None = None
        if model_ref is not None:
            import ray
            d = ray.get(model_ref) if hasattr(model_ref, "hex") \
                else model_ref
            if d is not None:
                self.lr = LRModel.from_dict(d)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Collects sentence-level hits with vectorized masks + arrow
        takes, then pre-combines them per triple with the SAME Arrow
        kernel every later merge uses (``merge_fills_table`` —
        noisy-or is associative, so in-batch partial merging is
        exact). This replaced a per-row Python dict
        aggregation that was the scorer's top CPU line, while keeping
        the output compact (one row per triple per batch, not per
        hit — emitting raw hits was measured to balloon the combine
        shuffle 9× at 2M docs)."""
        from ..vocab import resolve_relation

        sb = batch.column("subj_begin").to_numpy()
        ob = batch.column("obj_begin").to_numpy()

        # template corpora repeat (phrase, types) keys near-100%:
        # dictionary-encode the joined key once per batch, call
        # resolve_relation only per DISTINCT key (memoized across
        # batches on this scorer), and map the verdicts back with one
        # numpy gather — no per-candidate Python at all
        between = batch.column("between")
        if between.null_count:
            # a null phrase is not the empty phrase of adjacent
            # mentions: resolving it as "" would invent pattern hits
            raise ValueError(
                f"CandidateScorer: {between.null_count} candidate rows "
                "have a null 'between' phrase")
        key = pc.binary_join_element_wise(
            between,
            batch.column("subj_type"), batch.column("obj_type"),
            "\x1f").combine_chunks().dictionary_encode()
        kidx = key.indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        memo = self._resolve_memo
        uniq_rels: list = []
        for u in key.dictionary.to_pylist():
            rel = memo.get(u, _MISS)
            if rel is _MISS:
                # types carry no \x1f, so rsplit is exact even if the
                # between-phrase itself contains the separator
                rel = memo[u] = resolve_relation(*u.rsplit("\x1f", 2))
            uniq_rels.append(rel)
        uniq_rel_arr = np.array(uniq_rels, dtype=object)
        has_rel = np.array([r is not None for r in uniq_rels], bool)
        so = sb <= ob                  # pattern fires on SO order only
        pat_idx = np.flatnonzero(so & has_rel[kidx]) \
            if len(kidx) else np.empty(0, np.int64)

        idx = pat_idx
        rels = uniq_rel_arr[kidx[pat_idx]]
        scores = np.full(len(idx), PATTERN_SENT_SCORE)
        if self.lr is not None:
            lr_idx, lr_rels, lr_scores = self._lr_hits(batch)
            idx = np.concatenate([idx, lr_idx])
            rels = np.concatenate([rels, lr_rels])
            scores = np.concatenate([scores, lr_scores])

        take = pa.array(idx, pa.int64())
        # span pairs as one interleaved values buffer + stride-2
        # offsets — no per-row Python list construction
        se = batch.column("subj_end").to_numpy()[idx] \
            if len(idx) else np.empty(0, np.int64)
        oe = batch.column("obj_end").to_numpy()[idx] \
            if len(idx) else np.empty(0, np.int64)
        spans_s = _span_pairs(sb[idx], se)
        spans_o = _span_pairs(ob[idx], oe)
        score_arr = pa.array(scores, pa.float64())
        t = pa.Table.from_arrays(
            [batch.column("subj").take(take),
             batch.column("subj_type").take(take),
             pa.array(rels, pa.string()),
             batch.column("obj").take(take),
             batch.column("obj_type").take(take),
             score_arr,
             batch.column("doc_id").take(take),
             pa.compute.cast(batch.column("sent_idx").take(take),
                             pa.int32()),
             spans_s, spans_o],
            schema=FILLS_SCHEMA)
        t = t.append_column("prov_score", score_arr)
        if t.num_rows <= 1:
            return t
        return merge_fills_table(t)

    def _lr_hits(self, batch: pa.Table):
        """Rows whose LR argmax label clears ``LR_MIN_PROB`` and may
        fill the row's object type → (rows, labels, scores). The
        label × object-type admissibility is one boolean table over
        the batch's distinct types, gathered per row."""
        probs = self.lr.predict_proba(batch.column("features"))
        z = probs.argmax(axis=1)
        pmax = probs[np.arange(len(z)), z]
        obj_t = batch.column("obj_type").combine_chunks() \
            .dictionary_encode()
        types = obj_t.dictionary.to_pylist()
        labels = self.lr.labels
        # last column: a null object type, which no relation admits
        ok = np.zeros((len(labels), len(types) + 1), bool)
        for li, rel in enumerate(labels):
            spec = RELATIONS.get(rel)
            if rel != NO_RELATION and spec is not None:
                ok[li, :-1] = [t in spec.slot_types for t in types]
        ti = pc.fill_null(obj_t.indices, len(types)).to_numpy() \
            .astype(np.int64)
        hit = np.flatnonzero((pmax >= LR_MIN_PROB) & ok[z, ti])
        return (hit, np.array(labels, dtype=object)[z[hit]],
                pmax[hit].astype(np.float64) * LR_WEIGHT)


def score_candidates(featurized, *, model_ref=None,
                     batch_size: int = 8192):
    """Fast path: featurized candidates → partial fills."""
    from ..runtime import map_cached
    return map_cached(featurized, CandidateScorer, batch_size=batch_size,
                      model_ref=model_ref)


_PRIOR_SUM = {
    etype: sum(r.prior for r in RELATIONS.values()
               if r.entity_type == etype)
    for etype in ("PERSON", "ORGANIZATION")}


def apply_probability_priors(fills):
    """Opt-in probability priors (``Props.TEST_PROBABILITYPRIORS``,
    ``SimpleSlotFiller.java:210-213`` → ``Probabilities.java:41-71``):
    score' = score · P(value|entity) / P(rel|entity) with
    P(value|entity)=1 and P(rel|entity) = prior(rel)/Σ priors of the
    entity type — i.e. divide by the normalized relation prior. The
    reference does not clamp (it warns when the result leaves [0,1]);
    we cap at 1.0 so downstream noisy-or stays a probability."""
    def fn(batch: pa.Table) -> pa.Table:
        import numpy as np
        preds = batch.column("pred").to_pylist()
        subj_t = batch.column("subj_type").to_pylist()
        score = batch.column("score").to_numpy(zero_copy_only=False)
        factor = np.array([
            _PRIOR_SUM.get(t, 1.0) / RELATIONS[p].prior
            if p in RELATIONS else 1.0
            for p, t in zip(preds, subj_t)])
        new = np.minimum(1.0, score * factor)
        i = batch.column_names.index("score")
        return batch.set_column(i, "score",
                                pa.array(new, pa.float64()))
    return fills.map_batches(fn, batch_format="pyarrow")


TRIPLE_KEY = ["subj", "subj_type", "pred", "obj", "obj_type"]


def combine_fills(fills):
    """Per-triple noisy-or combine across partial fills.

    Two-level combine, both levels ``merge_fills_table`` (noisy-or is
    associative, so local-then-global merging is exact):

    1. ``local_combine`` — map-side pre-aggregation over ~64k-row
       windows of partial fills. Hot triples recur in nearly every
       extract task's output, so this collapses the shuffle input by
       the window/task ratio (measured 2.5M → ~0.3M rows at 2M docs).
    2. ``runtime.by_key`` on the triple key (O(CPUs) coarse
       partitions, not O(triples) groups) and a final per-partition
       merge.
    """
    from ..runtime import by_key

    def merge_partition(group: pa.Table) -> pa.Table:
        return merge_fills_table(group).select(FILLS_SCHEMA.names)

    return by_key(fills.map_batches(local_combine, batch_format="pyarrow",
                                    batch_size=65536),
                  TRIPLE_KEY, merge_partition)


def _rank_codes(col) -> np.ndarray:
    """Integer codes for a string column that sort identically to the
    strings: dictionary-encode (C++), order the (small) dictionary, and
    gather each row's rank."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    d = col.dictionary_encode()
    order = pc.array_sort_indices(d.dictionary) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[d.indices.to_numpy(zero_copy_only=False)
                .astype(np.int64)]


def merge_fills_table(t: pa.Table) -> pa.Table:
    """The package's one noisy-or merge: (partial) fills(+prov_score)
    → one row per triple, score ``1 − ∏(1 − sᵢ)``, best provenance
    (highest prov_score, then lowest doc_id/sent_idx), plus the kept
    ``prov_score``. Dictionary-rank lexsort + ``multiply.reduceat``:
    stable sort keys (triple asc, prov_score desc, doc_id/sent_idx
    asc) and a sequential per-group product (numpy's multiply.reduce
    is sequential for float64) — bit-identical to the pandas oracle
    in tests/oracles.py. The per-column rank codes keep tuple-wise
    string ordering exact — no joined-key separator assumption."""
    if t.num_rows == 0:
        return t
    score = t.column("score").to_numpy()
    ps = (t.column("prov_score").to_numpy()
          if "prov_score" in t.column_names else score)
    keys = [_rank_codes(t.column(nm)) for nm in TRIPLE_KEY]
    sent = t.column("sent_idx").to_numpy()
    order = np.lexsort((sent, _rank_codes(t.column("doc_id")), -ps,
                        keys[4], keys[3], keys[2], keys[1], keys[0]))
    ks = [k[order] for k in keys]
    change = np.zeros(len(order), bool)
    change[0] = True
    for k in ks:
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    prods = np.multiply.reduceat(1.0 - score[order], starts)
    first_idx = order[starts]
    take = pa.array(first_idx, pa.int64())
    out = t.select(FILLS_SCHEMA.names).take(take)
    out = out.set_column(out.column_names.index("score"), "score",
                         pa.array(1.0 - prods, pa.float64()))
    return out.append_column("prov_score",
                             pa.array(ps[first_idx], pa.float64()))


# partial fills as they leave ``local_combine``
PARTIAL_SCHEMA = FILLS_SCHEMA.append(pa.field("prov_score", pa.float64()))


def local_combine(batch: pa.Table) -> pa.Table:
    """Map-side pre-combine over pyarrow batches: merge within the
    batch window (``merge_fills_table``); the caller's ``by_key``
    routes the partials (triple key, or ``subj`` to co-locate whole
    subjects for a downstream per-entity pass)."""
    if batch.num_rows == 0:
        return PARTIAL_SCHEMA.empty_table()
    return merge_fills_table(batch)
