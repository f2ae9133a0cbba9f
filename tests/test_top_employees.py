"""TopEmployeesClassifier component, NER span vote, and the
max-sentence-length gate (TopEmployeesClassifier.java,
RelationMentionAnnotator.java:368-376, StanfordMIMLRE.properties:24)."""

import pyarrow as pa

from stanford_relation_extractor_ray.schemas import BAGS_SCHEMA
from stanford_relation_extractor_ray.stages.classify import (
    EnsembleScorer, top_employee_relation)
from stanford_relation_extractor_ray.stages.mentions import vote_span_ner


def test_trigger_between_org_and_person():
    assert top_employee_relation(
        "ORGANIZATION", "PERSON", "ceo", True) \
        == "org:top_members/employees"
    assert top_employee_relation(
        "PERSON", "ORGANIZATION", "is president of", True) \
        == "per:employee_of"


def test_no_trigger_or_long_span_rejected():
    assert top_employee_relation(
        "ORGANIZATION", "PERSON", "met with", True) is None
    assert top_employee_relation(
        "ORGANIZATION", "PERSON",
        "was at the time led by ceo", True) is None      # >= 5 tokens


def test_punctuation_veto_only_when_org_first():
    # "Org , said president X" — org precedes, broken by comma: veto
    assert top_employee_relation(
        "ORGANIZATION", "PERSON", ", said president", True) is None
    # person precedes org: the veto does not apply
    assert top_employee_relation(
        "ORGANIZATION", "PERSON", ", said president", False) \
        == "org:top_members/employees"


def test_entity_breakage_rejected():
    assert top_employee_relation(
        "ORGANIZATION", "PERSON", "and Toronto ceo", True) is None


def _bag(subj_type, obj_type, betweens, order="SO"):
    n = len(betweens)
    feats = [[f"types:{subj_type}:{obj_type}", f"order:{order}",
              f"between:{b}"] for b in betweens]
    return pa.Table.from_pylist([{
        "subj": "S", "subj_type": subj_type, "obj": "O",
        "obj_type": obj_type, "n_sentences": n, "sent_features": feats,
        "prov_doc_id": [f"d{i}" for i in range(n)],
        "prov_sent_idx": list(range(n)),
        "prov_subj_begin": [0] * n, "prov_subj_end": [2] * n,
        "prov_obj_begin": [5] * n, "prov_obj_end": [6] * n,
    }], schema=BAGS_SCHEMA)


def test_component_active_in_ensemble_agree_most():
    """With AGREE_MOST over (pattern, top-employee) components, a
    relation proposed by both survives; one proposed only by the
    heuristic does not."""
    scorer = EnsembleScorer(mode="most", with_top_employees=True)
    # pattern "is led by" AND the trigger "leader"-less phrase: pattern
    # proposes top_members; top-employee proposes nothing → 1 of 2
    out = scorer(_bag("ORGANIZATION", "PERSON", ["is led by"]))
    assert out.num_rows == 1         # (n+1)//2 = 1 vote suffices? no:
    # two components → min_votes = 1 ... AGREE_MOST with n=2 is 1, so
    # pattern alone passes; verify the heuristic adds a second vote
    scorer_any = EnsembleScorer(mode="any", with_top_employees=True)
    both = scorer_any(_bag("ORGANIZATION", "PERSON", ["is chaired by"]))
    rows = {r["pred"]: r["score"] for r in both.to_pylist()}
    # "chair" is a trigger AND "is chaired by" is a pattern phrase →
    # noisy-or of two 0.95 components
    assert rows["org:top_members/employees"] > 0.99


def test_component_off_by_default():
    scorer = EnsembleScorer()
    out = scorer(_bag("ORGANIZATION", "PERSON", ["named ceo"]))
    assert out.num_rows == 0


def test_vote_span_ner():
    ments = [(0, 2, "PERSON"), (2, 5, "ORGANIZATION")]
    assert vote_span_ner(ments, (0, 3)) == "PERSON"      # 2 vs 1
    assert vote_span_ner(ments, (2, 5)) == "ORGANIZATION"
    assert vote_span_ner(ments, (7, 9)) is None
    # tie → lexicographic tag for determinism
    assert vote_span_ner([(0, 1, "B"), (1, 2, "A")], (0, 2)) == "A"


def test_max_sentence_length_gate(ray_session, fresh_worker_cache):
    import pyarrow as pa

    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.stages import nlp
    docs = documents_dataset(30).materialize()
    batches = ray_session.get(docs.to_arrow_refs())

    def rows(tables):
        return sorted(map(repr, pa.concat_tables(tables).to_pylist()))

    runs = []
    for cap in (8, None):
        # the warm call (Ray workers, and the driver's own cache) equals
        # a fresh annotator's output: the cap is part of the cache key
        want = rows([nlp.NLPAnnotator(42, max_sentence_tokens=cap)(b)
                     for b in batches])
        ds = nlp.annotate(docs, max_sentence_tokens=cap)
        fn = ds._logical_plan.dag._fn
        assert rows([fn(b) for b in batches]) == want
        got = ds.take_all()
        assert sorted(map(repr, got)) == want
        runs.append(got)
    capped, full = runs
    assert all(s["n_tokens"] <= 8 for s in capped)
    assert len(full) > len(capped)
    # sentence indices are preserved for surviving sentences
    full_keys = {(s["doc_id"], s["sent_idx"]): s["text"] for s in full}
    for s in capped:
        assert full_keys[(s["doc_id"], s["sent_idx"])] == s["text"]
