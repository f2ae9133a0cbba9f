"""Open IE (ReVerb constraint), output list strategies, and the
config/stage registry."""

import pytest

from stanford_relation_extractor_ray.stages.openie import \
    open_triples_in_sentence


def _triples(sent):
    return open_triples_in_sentence(sent.split(" "))


def test_open_triple_simple_vp():
    out = _triples("Jane Doe works for Acme Corp")
    assert ("Jane Doe", "works for", "Acme Corp") in out


def test_open_triple_passive_vp():
    out = _triples("Acme Corp was founded by Robert Smith")
    assert ("Acme Corp", "was founded by", "Robert Smith") in out


def test_reverb_constraint_rejects_nonverb_start():
    # relation span starting with a preposition is rejected
    assert _triples("Jane Doe of Acme Corp") == []


def test_reverb_constraint_requires_verb_or_prep_end():
    # "celebrated turning 4" — ends in CD chunk; VP "celebrated
    # turning" ends with VBG (a verb) → allowed
    out = _triples("Jane Doe celebrated turning 40")
    assert out and out[0][1] == "celebrated turning"


def test_open_triples_distributed(ray_session):
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.stages import nlp, openie
    sents = nlp.annotate(documents_dataset(40))
    rows = openie.extract_open_triples(sents).take_all()
    assert rows
    assert all(r["subj"] and r["rel"] and r["obj"] for r in rows)
    # open relation phrases start with a verb-ish token, never a DT/IN
    assert not any(r["rel"].split(" ")[0] in ("the", "a", "of", "in")
                   for r in rows)


# --- output list strategies -------------------------------------------

def test_list_output_strategies(ray_session, tmp_path):
    import ray.data as rd
    import pyarrow as pa
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.sources import \
        write_official_output

    rows = [{"subj": "A", "subj_type": "PERSON",
             "pred": "per:cities_of_residence", "obj": o,
             "obj_type": "CITY", "score": s, "doc_id": "d0",
             "sent_idx": 0, "subj_span": [0, 1], "obj_span": [2, 3]}
            for o, s in (("Osaka", 0.9), ("Toronto", 0.7),
                         ("Porto", 0.5), ("Krakow", 0.3))]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=FILLS_SCHEMA))

    def lines(path):
        return [ln.split("\t") for ln in open(path) if "NIL" not in ln]

    p_all = write_official_output(ds, str(tmp_path / "all.tsv"))
    assert len(lines(p_all)) == 4
    p_best = write_official_output(ds, str(tmp_path / "best.tsv"),
                                   list_strategy="BEST")
    best = lines(p_best)
    assert len(best) == 1 and best[0][4].strip() == "Osaka"
    p_top = write_official_output(ds, str(tmp_path / "top.tsv"),
                                  list_strategy="TOP", top_k=2)
    assert sorted(p[4].strip() for p in lines(p_top)) == \
        ["Osaka", "Toronto"]
    with pytest.raises(ValueError):
        write_official_output(ds, str(tmp_path / "x.tsv"),
                              list_strategy="SOME")


# --- config + registry ------------------------------------------------

def test_stage_registry_swappable():
    from stanford_relation_extractor_ray.config import (
        STAGE_REGISTRY, get_stage, register_stage)
    assert {"annotate", "pair", "link", "featurize", "bags",
            "classify", "enforce", "extract_fused"} <= set(STAGE_REGISTRY)
    orig = get_stage("annotate")
    try:
        register_stage("annotate", lambda ds, **kw: "custom")
        assert get_stage("annotate")(None) == "custom"
    finally:
        register_stage("annotate", orig)
    with pytest.raises(ValueError):
        get_stage("definitely_not_a_stage")


def test_build_pipeline_from_config(ray_session):
    from stanford_relation_extractor_ray.config import (
        PipelineConfig, build_pipeline)
    from stanford_relation_extractor_ray.corpus import documents_dataset
    cfg = PipelineConfig(probability_priors=False)
    run = build_pipeline(cfg)
    fills = run(documents_dataset(60)).take_all()
    assert fills
    cfg2 = PipelineConfig(probability_priors=True)
    fills2 = build_pipeline(cfg2)(documents_dataset(60)).take_all()
    # priors rescale scores but never invent or drop triples pre-greedy
    assert {(r["subj"], r["pred"], r["obj"]) for r in fills} == \
        {(r["subj"], r["pred"], r["obj"]) for r in fills2}


def test_knobs_nothing_reads_are_type_errors():
    # a setting nothing reads fails loudly instead of being ignored
    from stanford_relation_extractor_ray.config import PipelineConfig
    from stanford_relation_extractor_ray.pipelines.classifiers import \
        train_supervised
    for name in ("sentences_per_entity", "max_sentence_tokens",
                 "negative_subsample", "feature_count_threshold",
                 "epochs", "folds", "model_type", "list_output",
                 "threshold_tune", "slot_threshold", "ensemble_mode",
                 "with_top_employees", "with_world_knowledge"):
        with pytest.raises(TypeError):
            PipelineConfig(**{name: None})
    with pytest.raises(TypeError):
        train_supervised([], epochs=2)
