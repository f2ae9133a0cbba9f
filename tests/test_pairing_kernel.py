"""One pairing kernel: the sentences-table path (``pair_mentions``) and
the fused documents path (``pair_candidates_fused``) give candidates
``Table.equals`` to each other and to the per-row oracle
(tests/oracles.py), ``ctx_features`` included; the annotator's pair
memo keeps pattern-only and with-context rows apart."""

import numpy as np
import pyarrow as pa
import pytest

from stanford_relation_extractor_ray.corpus import _docs_batch
from stanford_relation_extractor_ray.stages.mentions import (
    pair_candidates_fused, pair_mentions)
from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator

from oracles import pair_mentions_loop

N_DOCS = 300
CUT = 123             # a document boundary inside the batch


def _docs(seed: int) -> pa.Table:
    return _docs_batch({"id": np.arange(N_DOCS, dtype=np.int64)}, seed)


def _shape(docs: pa.Table, sents: pa.Table, shape: str):
    """(documents, sentences) for one batch shape. Sentence slices cut
    at the row where document ``CUT`` starts, so both sides cover the
    same documents; every slice is zero-copy (non-zero offsets)."""
    cut_id = docs.column("doc_id")[CUT].as_py()
    r = sents.column("doc_id").to_pylist().index(cut_id)
    head = (docs.slice(0, CUT), sents.slice(0, r))
    tail = (docs.slice(CUT), sents.slice(r))
    return {
        "batch": (docs, sents),
        "head": head,
        "tail": tail,
        "concat": (pa.concat_tables([head[0], tail[0]]),
                   pa.concat_tables([head[1], tail[1]])),
    }[shape]


def _without_ctx(cands: pa.Table) -> pa.Table:
    i = cands.schema.get_field_index("ctx_features")
    return cands.set_column(
        i, cands.schema.field(i),
        pa.array([[]] * cands.num_rows, pa.list_(pa.string())))


@pytest.mark.parametrize("shape", ["batch", "head", "tail", "concat"])
@pytest.mark.parametrize("seed", [42, 7])
def test_pairing_paths_equal_row_loop(seed, shape):
    full = _docs(seed)
    docs, sents = _shape(full, NLPAnnotator(seed)(full), shape)
    want = pair_mentions_loop(sents)
    assert want.num_rows > 300
    assert any(a for ms in sents.column("mentions").to_pylist()
               for a in (m["antecedent"] for m in ms))
    got_table = pair_mentions(sents)
    got_fused = pair_candidates_fused(NLPAnnotator(seed), docs,
                                      with_ctx=True)
    assert got_table.equals(want)
    assert got_fused.equals(want)
    assert any(want.column("ctx_features").to_pylist())
    pattern_only = pair_candidates_fused(NLPAnnotator(seed), docs)
    assert pattern_only.equals(_without_ctx(want))


@pytest.mark.parametrize("first", [False, True])
def test_pair_memo_keys_with_ctx(first):
    """One annotator, one path then the other: each output equals a
    fresh annotator's, so the warm memo never hands pattern-only rows
    to the with-context path or the reverse."""
    docs = _docs(42)
    nlp = NLPAnnotator(42)
    for with_ctx in (first, not first, first):
        got = pair_candidates_fused(nlp, docs, with_ctx=with_ctx)
        want = pair_candidates_fused(NLPAnnotator(42), docs,
                                     with_ctx=with_ctx)
        assert got.equals(want), with_ctx


def test_pair_empty_inputs():
    nlp = NLPAnnotator(42)
    docs = _docs(42).slice(0, 0)
    sents = nlp(docs)
    assert sents.num_rows == 0
    for got in (pair_mentions(sents),
                pair_candidates_fused(nlp, docs, with_ctx=True)):
        assert got.equals(pair_mentions_loop(sents))
        assert got.num_rows == 0
