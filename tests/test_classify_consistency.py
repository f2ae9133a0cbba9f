"""Classifier ensemble + consistency micro-fixtures (FIXTURES.md §6:
mirrors EnsembleRelationExtractorTest / PostProcessorsData semantics)."""

import numpy as np
import pyarrow as pa
import pytest

from stanford_relation_extractor_ray.schemas import BAGS_SCHEMA, \
    FILLS_SCHEMA
from stanford_relation_extractor_ray.stages.classify import (
    EnsembleScorer, LRModel, hash_features)
from stanford_relation_extractor_ray.stages.consistency import (
    consistent_fills, make_engine)

from oracles import merge_fill_group


def _bag(subj, subj_type, obj, obj_type, sent_feats):
    n = len(sent_feats)
    return pa.Table.from_pylist([{
        "subj": subj, "subj_type": subj_type,
        "obj": obj, "obj_type": obj_type,
        "n_sentences": n, "sent_features": sent_feats,
        "prov_doc_id": [f"d{i}" for i in range(n)],
        "prov_sent_idx": list(range(n)),
        "prov_subj_begin": [0] * n, "prov_subj_end": [2] * n,
        "prov_obj_begin": [5] * n, "prov_obj_end": [6] * n,
    }], schema=BAGS_SCHEMA)


def feats(between, st="PERSON", ot="CITY", order="SO"):
    return [f"types:{st}:{ot}", f"order:{order}", "dist:3",
            f"between:{between}"] + [f"bw:{t}" for t in between.split()]


def test_pattern_scorer_fires_and_noisy_or():
    scorer = EnsembleScorer()
    out = scorer(_bag("Robert Smith", "PERSON", "Toronto", "CITY",
                      [feats("was born in"), feats("was born in")]))
    rows = out.to_pylist()
    assert len(rows) == 1
    r = rows[0]
    assert r["pred"] == "per:city_of_birth"
    assert abs(r["score"] - (1 - 0.05 * 0.05)) < 1e-9   # noisy-or of 2


def test_pattern_requires_SO_order():
    scorer = EnsembleScorer()
    out = scorer(_bag("Robert Smith", "PERSON", "Toronto", "CITY",
                      [feats("was born in", order="OS")]))
    assert out.num_rows == 0


def test_obj_type_disambiguates():
    scorer = EnsembleScorer()
    out = scorer(_bag("Robert Smith", "PERSON", "Canada", "COUNTRY",
                      [feats("was born in", ot="COUNTRY")]))
    assert out.to_pylist()[0]["pred"] == "per:country_of_birth"


def test_lr_component_gated_and_combined():
    labels = ["no_relation", "per:city_of_birth"]
    W = np.zeros((1 << 15, 2), dtype=np.float32)
    idx = hash_features(["between:hails from"])
    W[idx, 1] = 50.0                       # confident LR signal
    model = LRModel(W, np.zeros(2), labels)
    scorer = EnsembleScorer.__new__(EnsembleScorer)
    scorer.lr = model
    scorer.mode = "any"
    scorer.with_top_employees = False
    scorer.extra_models = []
    out = scorer(_bag("Robert Smith", "PERSON", "Toronto", "CITY",
                      [feats("hails from")]))
    rows = out.to_pylist()
    assert len(rows) == 1
    assert rows[0]["pred"] == "per:city_of_birth"
    assert abs(rows[0]["score"] - 0.6) < 0.01     # LR weight


def test_merge_fill_group_noisy_or():
    t = pa.Table.from_pylist([
        {"subj": "A", "subj_type": "PERSON", "pred": "per:title",
         "obj": "curator", "obj_type": "TITLE", "score": 0.5,
         "doc_id": "d1", "sent_idx": 0, "subj_span": [0, 2],
         "obj_span": [3, 4]},
        {"subj": "A", "subj_type": "PERSON", "pred": "per:title",
         "obj": "curator", "obj_type": "TITLE", "score": 0.8,
         "doc_id": "d2", "sent_idx": 1, "subj_span": [0, 2],
         "obj_span": [3, 4]},
    ], schema=FILLS_SCHEMA)
    out = merge_fill_group(t).to_pylist()
    assert len(out) == 1
    assert abs(out[0]["score"] - (1 - 0.5 * 0.2)) < 1e-9
    assert out[0]["doc_id"] == "d2"        # best provenance wins


def _fill(subj, pred, obj, score, obj_type="CITY", subj_type="PERSON"):
    return {"subj": subj, "subj_type": subj_type, "pred": pred,
            "obj": obj, "obj_type": obj_type, "score": score,
            "doc_id": "d0", "sent_idx": 0, "subj_span": [0, 2],
            "obj_span": [5, 6]}


def _run_consistency(fills):
    t = pa.Table.from_pylist(fills, schema=FILLS_SCHEMA)
    return consistent_fills(t, make_engine("TOP", 10, 42)).to_pylist()


def test_single_cardinality_keeps_best():
    out = _run_consistency([
        _fill("A B", "per:city_of_birth", "Toronto", 0.9),
        _fill("A B", "per:city_of_birth", "Osaka", 0.7),
    ])
    assert [(r["pred"], r["obj"]) for r in out] == \
        [("per:city_of_birth", "Toronto")]


def test_list_relation_keeps_distinct_values():
    out = _run_consistency([
        _fill("A B", "per:cities_of_residence", "Toronto", 0.9),
        _fill("A B", "per:cities_of_residence", "Osaka", 0.7),
    ])
    assert len(out) == 2


def test_near_dup_slot_values_collapse():
    out = _run_consistency([
        _fill("A B", "per:spouse", "Robert Smith", 0.9,
              obj_type="PERSON"),
        _fill("A B", "per:spouse", "Bob Smith", 0.7, obj_type="PERSON"),
    ])
    assert len(out) == 1 and out[0]["obj"] == "Robert Smith"


def test_score_tie_prefers_longer_slot_value():
    """KBPSlotFill.compareTo: at equal score, MORE slot-value tokens
    sort first (kbp/common/KBPSlotFill.java:76-81), so for a SINGLE
    relation the longer value wins the greedy pass."""
    out = _run_consistency([
        _fill("A B", "per:city_of_birth", "Toronto", 0.9),
        _fill("A B", "per:city_of_birth", "New York City", 0.9),
    ])
    assert [(r["pred"], r["obj"]) for r in out] == \
        [("per:city_of_birth", "New York City")]


def test_incompatible_relations_rejected():
    out = _run_consistency([
        _fill("A B", "per:city_of_birth", "Toronto", 0.9),
        _fill("A B", "per:city_of_death", "Toronto", 0.7),
    ])
    assert [(r["pred"]) for r in out] == ["per:city_of_birth"]


def test_type_validity_enforced():
    out = _run_consistency([
        _fill("A B", "per:city_of_birth", "Canada", 0.9,
              obj_type="COUNTRY"),
    ])
    assert out == []


def test_self_reference_dropped():
    out = _run_consistency([
        _fill("Robert Smith", "per:spouse", "Robert Smith", 0.9,
              obj_type="PERSON"),
    ])
    assert out == []


@pytest.mark.parametrize("tier", ["driver", "distributed"])
def test_fused_combine_enforce_equals_unfused_chain(ray_session,
                                                    monkeypatch, tier):
    """finalize_fills' one kernel without the unary chain — on the
    driver below the gate, per subject partition behind its one
    shuffle above it — == combine_fills → link → enforce (three public
    stages) on the real pipeline's partial fills."""
    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import (
        extract_fills, finalize_fills)
    from stanford_relation_extractor_ray.stages import (classify,
                                                        consistency, link)
    if tier == "distributed":
        monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    partials = extract_fills(documents_dataset(150)).materialize()
    key = lambda r: (r["subj"], r["pred"], r["obj"])
    fused = {key(r): round(r["score"], 9)
             for r in finalize_fills(partials,
                                     postprocess=False).take_all()}
    chain = consistency.enforce(
        link.link(classify.combine_fills(partials)))
    unfused = {key(r): round(r["score"], 9) for r in chain.take_all()}
    assert fused == unfused and len(fused) > 50


def test_candidate_scorer_rejects_null_between():
    """A null 'between' phrase is not the empty phrase of adjacent
    mentions: the scorer must refuse it instead of resolving it as ""."""
    import pytest

    from stanford_relation_extractor_ray.schemas import CANDIDATES_SCHEMA
    from stanford_relation_extractor_ray.stages.classify import \
        CandidateScorer
    row = {"subj": "Ann Lee", "subj_type": "PERSON", "obj": "Paris",
           "obj_type": "CITY", "doc_id": "d000000001", "sent_idx": 0,
           "subj_begin": 0, "subj_end": 2, "obj_begin": 5, "obj_end": 6,
           "between": None, "ctx_features": []}
    batch = pa.Table.from_pylist([row], schema=CANDIDATES_SCHEMA)
    with pytest.raises(ValueError, match="null 'between'"):
        CandidateScorer()(batch)
    row["between"] = "was born in"
    assert CandidateScorer()(pa.Table.from_pylist(
        [row], schema=CANDIDATES_SCHEMA)).num_rows == 1
