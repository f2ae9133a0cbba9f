"""The hashed-linear kernel, the Arrow featurizer and the training
keep-set against their per-row oracles (tests/oracles.py): float32
logits, the classifier zoo's and MIML-RE's scores and the one SGD loop
are compared bit for bit, bucket lists, the features column and the
keep-set exactly."""

import ast
import collections
import pathlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stanford_relation_extractor_ray.pipelines.classifiers import (
    LinearBagModel, SupervisedModel)
from stanford_relation_extractor_ray.pipelines.jointbayes import \
    _z_log_probs
from stanford_relation_extractor_ray.pipelines.train import sgd_lr
from stanford_relation_extractor_ray.stages import classify
from stanford_relation_extractor_ray.stages.classify import (
    HASH_DIM, LRModel, bucket_lists, hash_features)

from oracles import (bucket_lists_loop, featurize_loop,
                     linear_bag_scores_loop, lr_logits_loop,
                     supervised_bag_loop, train_z_loop, z_log_probs_loop)


def _colliding_pair() -> list[str]:
    """Two distinct strings that hash to one bucket."""
    seen: dict[int, str] = {}
    i = 0
    while True:
        s = f"collide:{i}"
        h = int(hash_features([s])[0])
        if h in seen:
            return [seen[h], s]
        seen[h] = s
        i += 1


COLLIDING = _colliding_pair()
VOCAB = ["between:was born in", "order:SO", "span_word:né", "arg:東京",
         "", "x" * 40] + COLLIDING
# feature-list rows: empty and single-feature rows, empty batches, and
# rows that repeat a bucket
ROWS = st.lists(st.lists(st.sampled_from(VOCAB), max_size=30),
                max_size=25)


def _model(seed: int, n_labels: int) -> LRModel:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((HASH_DIM, n_labels)).astype(np.float32)
    b = rng.standard_normal(n_labels).astype(np.float32)
    return LRModel(w, b, ["no_relation"] + [f"r{i}"
                                            for i in range(n_labels - 1)])


def _forms(rows: list[list[str]], cut: int):
    """The same rows as a Python list, a sliced ListArray and a
    two-chunk ChunkedArray split at ``cut``."""
    t = pa.list_(pa.string())
    padded = pa.array([["pad"]] + rows + [["pad", "pad"]], t)
    yield rows
    yield padded.slice(1, len(rows))
    yield pa.chunked_array([pa.array(rows[:cut], t),
                            pa.array(rows[cut:], t)], t)


def test_colliding_pair_shares_a_bucket():
    a, b = COLLIDING
    assert a != b
    assert hash_features([a])[0] == hash_features([b])[0]


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, seed=st.integers(0, 2**31 - 1),
       n_labels=st.integers(2, 6), cut=st.integers(0, 25))
def test_logits_bit_identical_to_row_loop(rows, seed, n_labels, cut):
    model = _model(seed, n_labels)
    want = lr_logits_loop(model, rows).view(np.uint32)
    want_buckets = bucket_lists_loop(rows)
    for form in _forms(rows, min(cut, len(rows))):
        got = model.logits(form)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want)
        assert bucket_lists(form) == want_buckets


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, seed=st.integers(0, 2**31 - 1),
       n_labels=st.integers(2, 48))
@example(rows=[], seed=0, n_labels=42)
@example(rows=[[]], seed=0, n_labels=42)
@example(rows=[[COLLIDING[0]], [], COLLIDING], seed=1, n_labels=42)
def test_zoo_scores_bit_identical_to_row_loops(rows, seed, n_labels):
    """The perceptron family's sentence scores, SUPERVISED's bag
    scores and MIML-RE's Z log-probabilities through ``gather_sum``
    against the per-row loops they replaced (42 labels is the
    package's label count)."""
    model = _model(seed, n_labels)
    got = LinearBagModel(model.W, model.labels)._scores(rows)
    want = linear_bag_scores_loop(model.W, rows)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64),
                                  want.view(np.uint64))
    sup = SupervisedModel(model.W, model.b, model.labels)
    assert sup.classify_bag(rows) == supervised_bag_loop(sup, rows)
    feat_idx = bucket_lists(rows)
    got = _z_log_probs(model.W, model.b, feat_idx)
    want = z_log_probs_loop(model.W, model.b, feat_idx)
    np.testing.assert_array_equal(got.view(np.uint64),
                                  want.view(np.uint64))


def test_sgd_lr_equals_former_train_z():
    """One SGD loop: ``sgd_lr`` gives MIML-RE's former ``_train_z``
    weights byte for byte (rows repeat buckets, some are empty)."""
    rng = np.random.default_rng(5)
    rows = [list(rng.choice(VOCAB, rng.integers(0, 8))) for _ in range(300)]
    feats = bucket_lists(rows)
    ys = rng.integers(0, 42, len(rows))
    W, b = sgd_lr(feats, ys, 42, 5)
    W0, b0 = train_z_loop(feats, ys, 42, 5)
    assert W.tobytes() == W0.tobytes() and b.tobytes() == b0.tobytes()


def test_predict_proba_is_softmax_of_oracle_logits():
    model = _model(3, 5)
    rows = [VOCAB[:4], [], COLLIDING * 3, ["span_word:né"] * 7]
    logits = lr_logits_loop(model, rows)
    logits -= logits.max(axis=1, keepdims=True)
    want = np.exp(logits)
    want /= want.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(model.predict_proba(rows), want)


def test_null_feature_string_fails_fast():
    model = _model(0, 3)
    with pytest.raises(ValueError, match="2 null feature strings"):
        model.logits([["a", None], [], [None]])
    with pytest.raises(ValueError, match="1 null rows"):
        model.logits(pa.array([["a"], None], pa.list_(pa.string())))


# --- featurize ----------------------------------------------------------

@pytest.fixture(scope="module")
def candidates():
    """Context-carrying candidate rows of a 300-doc batch."""
    from stanford_relation_extractor_ray.corpus import _docs_batch
    from stanford_relation_extractor_ray.stages.mentions import \
        pair_candidates_fused
    from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator
    docs = _docs_batch({"id": np.arange(300, dtype=np.int64)}, 42)
    c = pair_candidates_fused(NLPAnnotator(42), docs, with_ctx=True)
    assert c.num_rows > 500
    return c


def _same(got: pa.Table, want: pa.Table):
    assert got.schema == want.schema
    assert got.equals(want)


def test_featurize_equals_row_loop(candidates):
    from stanford_relation_extractor_ray.stages.featurize import \
        featurize_batch
    c = candidates
    for batch in (c, c.slice(17, 400),
                  pa.concat_tables([c.slice(0, 250), c.slice(250)])):
        _same(featurize_batch(batch), featurize_loop(batch))


def test_featurize_extra_provider_and_no_ctx(candidates):
    from stanford_relation_extractor_ray.stages.featurize import (
        ACTIVE_FEATURES, FEATURE_PROVIDERS, featurize_batch,
        register_feature)
    feats = ACTIVE_FEATURES + ("shout", "span_words_bigrams")
    try:
        register_feature("shout", lambda f: [f"shout:{f.obj_type}"]
                         * (f.distance % 3))
        _same(featurize_batch(candidates, feats),
              featurize_loop(candidates, feats))
    finally:
        FEATURE_PROVIDERS.pop("shout", None)
    bare = candidates.drop(["ctx_features"])
    _same(featurize_batch(bare), featurize_loop(bare))
    empty = bare.slice(0, 0)
    _same(featurize_batch(empty), featurize_loop(empty))


def test_null_ctx_features_fails_fast(candidates):
    from stanford_relation_extractor_ray.stages.featurize import \
        featurize_batch
    c = candidates.slice(0, 3)
    bad = c.set_column(c.column_names.index("ctx_features"),
                       "ctx_features",
                       pa.array([["a"], None, []], pa.list_(pa.string())))
    with pytest.raises(ValueError, match="1 candidate rows have a null"):
        featurize_batch(bad)


# --- training -----------------------------------------------------------

def test_feature_keep_set_equals_row_count(ray_session):
    import ray.data as rd

    from stanford_relation_extractor_ray.pipelines.train import (
        FEATURE_COUNT_THRESHOLD, feature_keep_set)
    a, b = COLLIDING
    # each colliding string alone stays under the threshold; their
    # shared bucket crosses it only if the two counts add up
    n = FEATURE_COUNT_THRESHOLD - 2
    rows = [[a], [b]] * n + [["often"]] * FEATURE_COUNT_THRESHOLD \
        + [["rare", "rare"], ["often", "né"], []]
    t = pa.table({"features": pa.array(rows, pa.list_(pa.string()))})
    ds = rd.from_arrow([t.slice(0, 5), t.slice(5)])
    counts = collections.Counter(int(h) for r in rows
                                 for h in hash_features(r))
    want = {h for h, c in counts.items() if c >= FEATURE_COUNT_THRESHOLD}
    assert int(hash_features([a])[0]) in want
    assert feature_keep_set(ds) == want


# --- one hashing pass per batch -----------------------------------------

def test_scorers_hash_once_per_batch(monkeypatch, candidates):
    from stanford_relation_extractor_ray.schemas import BAGS_SCHEMA
    from stanford_relation_extractor_ray.stages.classify import (
        CandidateScorer, EnsembleScorer)
    from stanford_relation_extractor_ray.stages.featurize import \
        featurize_batch
    calls = []

    def spy(features, *a, **kw):
        calls.append(len(features))
        return hash_features(features, *a, **kw)

    model = _model(1, 3).to_dict()
    featurized = featurize_batch(candidates)
    monkeypatch.setattr(classify, "hash_features", spy)
    CandidateScorer(model)(featurized)
    assert len(calls) == 1
    bags = pa.Table.from_pylist([{
        "subj": f"S{i}", "subj_type": "PERSON", "obj": "Paris",
        "obj_type": "CITY", "n_sentences": 2,
        "sent_features": [["order:SO", f"between:w{i}"], ["x"]],
        "prov_doc_id": ["d0", "d1"], "prov_sent_idx": [0, 1],
        "prov_subj_begin": [0, 0], "prov_subj_end": [2, 2],
        "prov_obj_begin": [5, 5], "prov_obj_end": [6, 6]}
        for i in range(6)], schema=BAGS_SCHEMA)
    EnsembleScorer(model)(bags)
    assert len(calls) == 2


# --- one hashing entry point ----------------------------------------------

def test_only_classify_references_hash_features():
    """Every package hashing path goes through ``classify.feature_codes``
    (``bucket_lists``, ``hashed_sums``): no other module names
    ``hash_features``."""
    pkg = pathlib.Path(classify.__file__).parent.parent
    offenders = []
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg).as_posix()
        if rel == "stages/classify.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] \
                if isinstance(node, (ast.Import, ast.ImportFrom)) else \
                [getattr(node, "id", None), getattr(node, "attr", None)]
            if "hash_features" in names:
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []
