"""The hashed-LR kernel, the Arrow featurizer and the training keep-set
against their per-row oracles (tests/oracles.py): float32 logits are
compared bit for bit, the features column and the keep-set exactly."""

import collections

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanford_relation_extractor_ray.stages import classify
from stanford_relation_extractor_ray.stages.classify import (
    HASH_DIM, LRModel, hash_features)

from oracles import featurize_loop, lr_logits_loop


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
@given(rows=st.lists(st.lists(st.sampled_from(VOCAB), max_size=30),
                     max_size=25),
       seed=st.integers(0, 2**31 - 1), n_labels=st.integers(2, 6),
       cut=st.integers(0, 25))
def test_logits_bit_identical_to_row_loop(rows, seed, n_labels, cut):
    model = _model(seed, n_labels)
    want = lr_logits_loop(model, rows).view(np.uint32)
    for form in _forms(rows, min(cut, len(rows))):
        got = model.logits(form)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want)


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
