"""Classifier zoo semantics (PerceptronExtractor / HoffmannExtractor /
OneVsAll LR_INC + ROBUST_LR / Gold / Noop / registry) and Gibbs-restart
consistency + probability priors."""

import pyarrow as pa
import pytest

from stanford_relation_extractor_ray.pipelines.classifiers import (
    MODEL_REGISTRY, GoldModel, NoopModel, train_hoffmann, train_model,
    train_one_vs_all, train_perceptron)


def _mk_bags():
    bags = []
    for i in range(25):
        bags.append({
            "subj": f"P{i}", "obj": f"C{i}",
            "sent_features": [["between:was born in", "bw:born"],
                              ["between:visited", "bw:visited"]],
            "pos": ["per:city_of_birth"], "neg": [], "unk": []})
        bags.append({
            "subj": f"Q{i}", "obj": f"D{i}",
            "sent_features": [["between:visited", "bw:visited"]],
            "pos": [], "neg": ["per:city_of_birth"], "unk": []})
    return bags


BORN = [["between:was born in", "bw:born"]]
VISITED = [["between:visited", "bw:visited"]]


def test_perceptron_learns_signal():
    m = train_perceptron(_mk_bags())
    out = m.classify_bag(BORN)
    assert "per:city_of_birth" in out
    assert 0.5 < out["per:city_of_birth"] <= 1.0


def test_hoffmann_flips_noise_sentences():
    m = train_hoffmann(_mk_bags())
    assert "per:city_of_birth" in m.classify_bag(BORN)
    # the 'visited' sentence appears in positive bags but MultiR's
    # constrained inference needs only ONE supporting sentence, so the
    # noise sentence must not predict the relation
    assert "per:city_of_birth" not in m.classify_bag(VISITED)


def test_one_vs_all_and_robust():
    m = train_one_vs_all(_mk_bags())
    born = m.classify_bag(BORN)
    assert born["per:city_of_birth"] > 0.9
    # plain LR_INC sits near 0.5 on the noise sentence (it appears in
    # positive bags); ROBUST_LR's per-bag shifts absorb exactly that
    # distant-supervision noise and reject it
    plain_noise = m.classify_bag(VISITED).get("per:city_of_birth", 0.0)
    assert plain_noise < 0.6
    r = train_one_vs_all(_mk_bags(), robust=True)
    assert r.classify_bag(BORN)["per:city_of_birth"] > 0.9
    assert "per:city_of_birth" not in r.classify_bag(VISITED)


def test_gold_and_noop():
    bags = _mk_bags()
    g = GoldModel(bags)
    assert g.classify_pair("P0", "C0") == {"per:city_of_birth": 1.0}
    assert g.classify_pair("X", "Y") == {}
    assert NoopModel().classify_bag(BORN) == {}


def test_registry_dispatch():
    assert set(MODEL_REGISTRY) >= {"PERCEPTRON", "AT_LEAST_ONCE",
                                   "LR_INC", "ROBUST_LR", "GOLD",
                                   "NOOP"}
    m = train_model("PERCEPTRON", _mk_bags())
    assert "per:city_of_birth" in m.classify_bag(BORN)
    local = train_model("LOCAL_BAYES", _mk_bags())
    assert local.z_single is not None
    with pytest.raises(ValueError):
        train_model("NOT_A_MODEL", [])


# --- Gibbs-restart consistency ---------------------------------------

def _fill(pred, obj, score, obj_type="PERSON"):
    return {"subj": "A B", "subj_type": "PERSON", "pred": pred,
            "obj": obj, "obj_type": obj_type, "score": score,
            "doc_id": "d0", "sent_idx": 0, "subj_span": [0, 2],
            "obj_span": [5, 6]}


def _engine(rows, objective, mixing_time):
    """``rows`` of one entity through the package's consistency kernel
    with the TOP or SUM engine."""
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages.consistency import (
        consistent_fills, make_engine)
    t = pa.Table.from_pylist(rows, schema=FILLS_SCHEMA)
    return consistent_fills(
        t, make_engine(objective, mixing_time, 42)).to_pylist()


def test_gibbs_sum_objective_beats_greedy():
    # spouse(o) blocks siblings(o) and parents(o) pairwise, but
    # siblings+parents are mutually consistent: greedy takes the 0.9
    # spouse; SUM-objective restarts find {siblings, parents} = 1.4
    rows = [_fill("per:spouse", "Carol Ann Dee", 0.9),
            _fill("per:siblings", "Carol Ann Dee", 0.7),
            _fill("per:parents", "Carol Ann Dee", 0.7)]
    greedy = _engine(rows, "TOP", 10)
    assert [r["pred"] for r in greedy] == ["per:spouse"]
    best = _engine(rows, "SUM", 20)
    assert sorted(r["pred"] for r in best) == \
        ["per:parents", "per:siblings"]


def test_gibbs_deterministic():
    rows = [_fill("per:spouse", "Carol Ann Dee", 0.9),
            _fill("per:siblings", "Carol Ann Dee", 0.7),
            _fill("per:parents", "Carol Ann Dee", 0.7)]
    a = _engine(rows, "SUM", 10)
    b = _engine(rows, "SUM", 10)
    assert [(r["pred"], r["obj"]) for r in a] == \
        [(r["pred"], r["obj"]) for r in b]


# --- probability priors ----------------------------------------------

def test_probability_priors_rescale(ray_session):
    import ray.data as rd
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages.classify import \
        apply_probability_priors
    rows = [
        _fill("per:title", "curator", 0.10, obj_type="TITLE"),
        _fill("per:religion", "Stoicism", 0.10, obj_type="RELIGION"),
    ]
    t = pa.Table.from_pylist(rows, schema=FILLS_SCHEMA)
    out = apply_probability_priors(rd.from_arrow(t)).take_all()
    s = {r["pred"]: r["score"] for r in out}
    # rarer relation (lower prior) is boosted MORE by the inversion
    assert s["per:religion"] > s["per:title"]
    assert all(0.0 <= v <= 1.0 for v in s.values())


def test_zoo_models_as_ensemble_components():
    """Any zoo model votes in the EnsembleScorer alongside the pattern
    component (the all-models-in-one-actor reference shape)."""
    from stanford_relation_extractor_ray.stages.classify import \
        EnsembleScorer
    percep = train_perceptron(_mk_bags())
    scorer = EnsembleScorer(mode="any", extra_models=[percep])
    import pyarrow as pa
    from stanford_relation_extractor_ray.schemas import BAGS_SCHEMA
    bag = pa.Table.from_pylist([{
        "subj": "S", "subj_type": "PERSON", "obj": "O",
        "obj_type": "CITY", "n_sentences": 1,
        "sent_features": [["types:PERSON:CITY", "order:SO",
                           "between:was born in", "bw:born"]],
        "prov_doc_id": ["d0"], "prov_sent_idx": [0],
        "prov_subj_begin": [0], "prov_subj_end": [2],
        "prov_obj_begin": [5], "prov_obj_end": [6]}],
        schema=BAGS_SCHEMA)
    rows = {r["pred"]: r["score"] for r in scorer(bag).to_pylist()}
    # pattern (0.95) and perceptron agree -> noisy-or pushes above 0.95
    assert rows["per:city_of_birth"] > 0.95


def test_gibbs_engine_wired_into_enforce(ray_session):
    """objective='SUM' runs the Gibbs engine inside the distributed
    consistency stage (test.consistency.gibbsobjective)."""
    import ray.data as rd
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages.consistency import \
        enforce
    rows = [_fill("per:spouse", "Carol Ann Dee", 0.9),
            _fill("per:siblings", "Carol Ann Dee", 0.7),
            _fill("per:parents", "Carol Ann Dee", 0.7)]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=FILLS_SCHEMA))
    greedy = {r["pred"] for r in enforce(ds).take_all()}
    assert greedy == {"per:spouse"}
    ds2 = rd.from_arrow(pa.Table.from_pylist(rows, schema=FILLS_SCHEMA))
    gibbs = {r["pred"]
             for r in enforce(ds2, objective="SUM",
                              mixing_time=20).take_all()}
    assert gibbs == {"per:siblings", "per:parents"}


def test_supervised_annotated_datum_path(ray_session):
    """ModelType.SUPERVISED: trains on sentence-level ANNOTATED labels
    (pipelines.train.annotated_examples), not distant supervision, and
    classifies held-out sentence features."""
    from stanford_relation_extractor_ray.pipelines.classifiers import \
        train_model
    from stanford_relation_extractor_ray.pipelines.train import \
        annotated_examples
    datums = annotated_examples(150).take_all()
    labeled = [d for d in datums if d["label"] != "no_relation"]
    assert labeled, "no annotated positives in the train range"
    model = train_model("SUPERVISED", datums)
    hits = sum(
        1 for d in labeled[:50]
        if model.classify_bag([d["features"]]).get(d["label"], 0) > 0.5)
    assert hits >= 0.7 * min(50, len(labeled))   # fits its own datums
    assert model.classify_bag([["between:zzz-nonsense"]]) == {}
