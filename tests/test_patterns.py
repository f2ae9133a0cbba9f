"""Token-pattern / dependency-pattern engines + NER tweak rules
(TokensRegexExtractor / SemgrexExtractor / PostIRAnnotator tweaks)."""

import pytest

from stanford_relation_extractor_ray.stages.deps import parse, pos_tag
from stanford_relation_extractor_ray.stages.patterns import (
    DEFAULT_NER_TWEAKS, SemgrexExtractor, TokenPattern,
    TokensRegexExtractor, apply_ner_tweaks)


def _annot(sent, ner_spans=()):
    toks = sent.split(" ")
    pos = pos_tag(toks)
    ner = ["O"] * len(toks)
    for b, e, t in ner_spans:
        for i in range(b, e):
            ner[i] = t
    return toks, pos, ner


def test_token_pattern_word_and_tag():
    toks, pos, ner = _annot("Robert Smith was born in Toronto",
                            [(5, 6, "CITY")])
    assert TokenPattern("[word:was] [word:born] [tag:IN]") \
        .match(toks, pos, ner)
    assert not TokenPattern("[word:died] [tag:IN]").match(toks, pos, ner)


def test_token_pattern_regex_and_optional():
    toks, pos, ner = _annot("Jane Doe is now aged 45")
    assert TokenPattern("[re:is|was] [lower:now]? [word:aged]") \
        .match(toks, pos, ner)
    toks2, pos2, ner2 = _annot("Jane Doe is aged 45")
    assert TokenPattern("[re:is|was] [lower:now]? [word:aged]") \
        .match(toks2, pos2, ner2)


def test_token_pattern_entity_slot_anchors():
    toks, pos, ner = _annot("Robert Smith was born in Toronto",
                            [(0, 2, "PERSON"), (5, 6, "CITY")])
    p = TokenPattern("[$ENTITY] [word:was] [word:born] [tag:IN] [$SLOT]")
    assert p.match(toks, pos, ner, entity_span=(0, 2),
                   slot_span=(5, 6))
    assert not p.match(toks, pos, ner, entity_span=(0, 1),
                       slot_span=(5, 6))     # wrong span binding


def test_token_pattern_bad_attr_raises():
    with pytest.raises(ValueError):
        TokenPattern("[frobnicate:x]")


def test_tokensregex_extractor():
    ex = TokensRegexExtractor({
        "per:city_of_birth":
            ["[$ENTITY] [word:was] [word:born] [word:in] [$SLOT]"]})
    toks, pos, ner = _annot("Robert Smith was born in Toronto")
    out = ex.extract(toks, pos, ner, (0, 2), (5, 6))
    assert out == {"per:city_of_birth": 1.0}    # +inf analog


def test_semgrex_path_patterns():
    toks = "Robert Smith was born in Toronto".split(" ")
    pos = pos_tag(toks)
    edges = parse(toks, pos)
    ex = SemgrexExtractor({
        "per:city_of_birth": ["_nsubj->__<-prep_in_"],
        "per:spouse": ["*<-prep_to_"]})
    out = ex.extract(toks, edges, (0, 2), (5, 6))
    assert out == {"per:city_of_birth": 1.0}


def test_semgrex_glob():
    toks = "Jane Doe works for Acme Corp and resides in Canada".split(" ")
    pos = pos_tag(toks)
    edges = parse(toks, pos)
    ex = SemgrexExtractor({"per:countries_of_residence":
                           ["*<-prep_in_"]})
    assert ex.extract(toks, edges, (0, 2), (9, 10)) \
        == {"per:countries_of_residence": 1.0}


def test_ner_tweak_university_of():
    toks, pos, _ = _annot("She joined University of Toronto")
    mentions = [("Toronto", "CITY", 4, 5, "")]
    out = apply_ner_tweaks(toks, pos, mentions)
    assert out == [("University of Toronto", "ORGANIZATION", 2, 5, "")]


def test_ner_tweak_drops_bad_title():
    toks, pos, _ = _annot("the curator arrived")
    mentions = [("the", "TITLE", 0, 1, "")]
    assert apply_ner_tweaks(toks, pos, mentions) == []


def test_ner_tweak_leaves_others():
    toks, pos, _ = _annot("Robert Smith was born in Toronto")
    mentions = [("Robert Smith", "PERSON", 0, 2, ""),
                ("Toronto", "CITY", 5, 6, "")]
    assert apply_ner_tweaks(toks, pos, mentions) == mentions
    assert len(DEFAULT_NER_TWEAKS) >= 3


# --- trained entity linker --------------------------------------------

def test_trained_linker_resolves_aliases():
    from stanford_relation_extractor_ray.stages.link import (
        EntityLinker, TrainedLinker)
    tl = TrainedLinker()
    base = EntityLinker()
    # exact alias hits agree with the rule linker by construction
    for (surface, etype), canon in sorted(base.exact.items())[:50]:
        assert tl.resolve(surface, etype) == canon
    # unknown surfaces either link to a plausible candidate or stay
    # themselves — never to a different-type entity
    for (surface, etype), canon in sorted(base.exact.items())[:20]:
        got = tl.resolve(surface + "x", etype)
        assert got == surface + "x" or base.types.get(got) == etype


def test_trained_linker_deterministic():
    from stanford_relation_extractor_ray.stages.link import TrainedLinker
    a, b = TrainedLinker(), TrainedLinker()
    assert (a._w == b._w).all() and a._b == b._b


def test_trained_linker_shares_acronym_candidates():
    """TrainedLinker swaps only the accept score: it gathers the same
    candidates as EntityLinker, acronym expansions included."""
    from stanford_relation_extractor_ray.stages.link import (
        EntityLinker, TrainedLinker)
    want = EntityLinker().resolve("SPA", "ORGANIZATION")
    assert want == "Southern Polytechnic Academy"
    assert TrainedLinker().resolve("SPA", "ORGANIZATION") == want


def test_link_objects_equals_per_row_rule():
    """link_objects and EntityLinker.__call__ (one resolve per distinct
    (type, surface)) == the per-row rule, over one chunk and several:
    subjects always resolve; PERSON/ORGANIZATION objects resolve;
    alternate_names values and other slot types stay surface forms;
    ``raw_subj``/``raw_obj`` keep the pre-link surfaces."""
    import pyarrow as pa
    from stanford_relation_extractor_ray.stages.link import (
        EntityLinker, link_objects)
    base = EntityLinker()
    aliases = [(s, t) for (s, t), c in sorted(base.exact.items())
               if s != c][:30]
    subjects = [(s + "x", t) for s, t in aliases[:5]] + aliases
    rows = [{"subj": ss, "subj_type": st, "pred": p, "obj": s,
             "obj_type": ot}
            for (s, t), (ss, st) in zip(aliases + aliases[:10],
                                        subjects * 2)
            for p, ot in (("rel:x", t), ("org:alternate_names", t),
                          ("per:alternate_names", t), ("rel:x", "CITY"))]
    want = [base.resolve(r["obj"], r["obj_type"])
            if r["obj_type"] in ("PERSON", "ORGANIZATION")
            and not r["pred"].endswith("alternate_names") else r["obj"]
            for r in rows]
    want_subj = [base.resolve(r["subj"], r["subj_type"]) for r in rows]
    raw_subj = [r["subj"] for r in rows]
    one = pa.Table.from_pylist(rows)
    several = pa.concat_tables([one.slice(i, 50)
                                for i in range(0, one.num_rows, 50)])
    assert several.column("subj").num_chunks > 1
    for tbl in (one, several):
        objs = link_objects(tbl, base).to_pylist()
        assert [r["obj"] for r in objs] == want
        assert [r["raw_obj"] for r in objs] == [r["obj"] for r in rows]
        linked = base(tbl).to_pylist()
        assert [r["subj"] for r in linked] == want_subj
        assert [r["raw_subj"] for r in linked] == raw_subj
        assert [r["obj"] for r in linked] == want
    assert sum(w != r["obj"] for w, r in zip(want, rows)) >= 30
    assert sum(w != s for w, s in zip(want_subj, raw_subj)) >= 30


def test_link_via_join_matches_broadcast_exact(ray_session):
    """The sharded alias join resolves exact alias hits identically to
    the broadcast linker; unknown surfaces pass through."""
    import pyarrow as pa
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.link import (
        EntityLinker, alias_dataset, link_via_join)
    base = EntityLinker()
    items = sorted(base.exact.items())[:40]
    rows = [{"subj": s, "subj_type": t, "x": i}
            for i, ((s, t), _c) in enumerate(items)]
    rows.append({"subj": "Nobody Anywhere", "subj_type": "PERSON",
                 "x": 999})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    out = {r["x"]: r["subj"]
           for r in link_via_join(ds, alias_dataset()).take_all()}
    for i, ((s, t), canon) in enumerate(items):
        assert out[i] == canon
    assert out[999] == "Nobody Anywhere"


def test_link_via_join_smallest_canonical_wins(ray_session):
    """An ambiguous alias surface — one (surface, type) with two
    canonicals — links to the smallest canonical, whatever the alias
    rows' order; the same surface under another type is its own key."""
    import pyarrow as pa
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.link import link_via_join
    aliases = rd.from_items([
        {"surface": "Jay", "canonical": "Jay Zed", "type": "PERSON"},
        {"surface": "Jay", "canonical": "Jay Adams", "type": "PERSON"},
        {"surface": "Jay", "canonical": "Jay Corp", "type": "ORGANIZATION"},
        {"surface": "Kay", "canonical": "", "type": "PERSON"}])
    rows = [{"subj": "Jay", "subj_type": "PERSON", "x": 0},
            {"subj": "Jay", "subj_type": "ORGANIZATION", "x": 1},
            {"subj": "Jay", "subj_type": "CITY", "x": 2},
            {"subj": "Kay", "subj_type": "PERSON", "x": 3}]
    out = {r["x"]: r["subj"] for r in link_via_join(
        rd.from_arrow(pa.Table.from_pylist(rows)), aliases).take_all()}
    assert out == {0: "Jay Adams", 1: "Jay Corp", 2: "Jay", 3: "Kay"}
