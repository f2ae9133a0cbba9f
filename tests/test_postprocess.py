"""Rewrite/filter chain fixtures — one test per processor plus chain
tests, mirroring the reference's HeuristicSlotfillPostProcessorsTest
shape over hand-built fills (PostProcessorsData analog)."""

import pyarrow as pa
import pytest

from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
from stanford_relation_extractor_ray.stages import postprocess as P


def _fill(**over):
    f = {"subj": "Acme Corp", "subj_type": "ORGANIZATION",
         "pred": "org:top_members/employees", "obj": "Jane Doe",
         "obj_type": "PERSON", "score": 0.9, "doc_id": "d0",
         "sent_idx": 0, "subj_span": [0, 2], "obj_span": [6, 8]}
    f.update(over)
    return f


def _run(fills, gloss=None, **kw):
    t = pa.Table.from_pylist(fills, schema=FILLS_SCHEMA)
    if gloss is not None:
        t = t.append_column("gloss", pa.array(gloss, pa.string()))
    return P.unary_chain(t, **kw).to_pylist()


# --- rewrites ---------------------------------------------------------

def test_canonical_mention_number_extraction():
    out = _run([_fill(pred="per:age", subj="Jane Doe",
                      subj_type="PERSON", obj="aged 45",
                      obj_type="NUMBER")])
    assert out[0]["obj"] == "45"


def test_canonical_mention_timex_normalization():
    out = _run([_fill(pred="org:founded", obj="May 3 , 1970",
                      obj_type="DATE")])
    assert out[0]["obj"] == "1970-05-03"


def test_expand_to_maximal_phrase():
    gloss = "Jane Doe serves as a deputy curator there"
    out = _run([_fill(pred="per:title", subj="Jane Doe",
                      subj_type="PERSON", obj="curator",
                      obj_type="TITLE", subj_span=[0, 2],
                      obj_span=[6, 7])], gloss=[gloss])
    assert out[0]["obj"] == "deputy curator"
    assert out[0]["obj_span"] == [5, 7]


def test_top_employee_to_founder():
    gloss = "Acme Corp was founded and led by Jane Doe"
    out = _run([_fill(subj_span=[0, 2], obj_span=[7, 9])],
               gloss=[gloss])
    assert out[0]["pred"] == "org:founded_by"


def test_born_in_keeps_on_birth_keyword():
    gloss = "Robert Smith was born in Toronto"
    out = _run([_fill(pred="per:city_of_birth", subj="Robert Smith",
                      subj_type="PERSON", obj="Toronto",
                      obj_type="CITY", subj_span=[0, 2],
                      obj_span=[5, 6])], gloss=[gloss])
    assert out[0]["pred"] == "per:city_of_birth"


def test_born_in_rewrites_to_residence():
    gloss = "Robert Smith lives happily in Toronto"
    out = _run([_fill(pred="per:city_of_birth", subj="Robert Smith",
                      subj_type="PERSON", obj="Toronto",
                      obj_type="CITY", subj_span=[0, 2],
                      obj_span=[5, 6])], gloss=[gloss])
    assert out[0]["pred"] == "per:cities_of_residence"


def test_died_in_rewrite():
    gloss = "Robert Smith died last winter in Toronto"
    out = _run([_fill(pred="per:cities_of_residence",
                      subj="Robert Smith", subj_type="PERSON",
                      obj="Toronto", obj_type="CITY", subj_span=[0, 2],
                      obj_span=[6, 7])], gloss=[gloss],
               geo=__import__(
                   "stanford_relation_extractor_ray.stages.worldknowledge",
                   fromlist=["get_geography"]).get_geography())
    assert out[0]["pred"] == "per:city_of_death"


def test_age_rewrite_decades():
    gloss = "Jane Doe celebrated turning 4 decades old"
    out = _run([_fill(pred="per:age", subj="Jane Doe",
                      subj_type="PERSON", obj="4", obj_type="NUMBER",
                      subj_span=[0, 2], obj_span=[4, 5])],
               gloss=[gloss])
    assert out[0]["obj"] == "40"


# --- filters ----------------------------------------------------------

def test_filter_unrelated_url_drops_and_rewrites():
    kept = _run([_fill(pred="org:website", obj="www.acme.com/about",
                       obj_type="URL")])
    assert kept and kept[0]["obj"] == "www.acme.com/"
    dropped = _run([_fill(pred="org:website",
                          obj="www.zzzqqq.com", obj_type="URL")])
    assert dropped == []


def test_sanity_check_age_bounds():
    assert _run([_fill(pred="per:age", subj="Jane Doe",
                       subj_type="PERSON", obj="250",
                       obj_type="NUMBER")]) == []
    assert _run([_fill(pred="per:age", subj="Jane Doe",
                       subj_type="PERSON", obj="45",
                       obj_type="NUMBER")]) != []


def test_sanity_check_employee_counts():
    assert _run([_fill(pred="org:number_of_employees/members",
                       obj="7", obj_type="NUMBER")]) == []
    assert _run([_fill(pred="org:number_of_employees/members",
                       obj="4800", obj_type="NUMBER")]) != []


def test_conform_guidelines_invalid_title():
    assert _run([_fill(pred="per:title", subj="Jane Doe",
                       subj_type="PERSON", obj="member",
                       obj_type="TITLE")]) == []


def test_conform_guidelines_date_needs_year():
    assert _run([_fill(pred="org:founded", obj="May 3",
                       obj_type="DATE")]) == []


def test_conform_guidelines_division_keyword():
    gloss = "the Research Division of Acme Corp is led by Jane Doe"
    assert _run([_fill(subj_span=[4, 6], obj_span=[9, 11])],
                gloss=[gloss]) == []


def test_employee_filter_said():
    gloss = "Acme Corp said yesterday that money manager Jane Doe left"
    assert _run([_fill(pred="per:employee_of", subj="Jane Doe",
                       subj_type="PERSON", obj="Acme Corp",
                       obj_type="ORGANIZATION", subj_span=[7, 9],
                       obj_span=[0, 2])], gloss=[gloss]) == []


def test_very_low_probability_filter():
    assert _run([_fill(score=0.001)]) == []


def test_filter_already_known_slots():
    known = {"Acme Corp": ["Jane Doe"]}
    assert _run([_fill()], known=known) == []
    # substring containment also fails
    known2 = {"Acme Corp": ["Doe"]}
    assert _run([_fill()], known=known2) == []
    assert _run([_fill(obj="Bob Brown")], known=known) != []


def test_filter_ignored_slots():
    ignored = {"Acme Corp": {"org:top_members/employees"}}
    assert _run([_fill()], ignored=ignored) == []
    assert _run([_fill()], ignored={}) != []


# --- chain order ------------------------------------------------------

def test_chain_rewrite_then_filter():
    """TopEmployeeToFounder runs BEFORE the guidelines filter, so a
    'founded' justification escapes the invalid-top-employee list
    (rewrites always precede filters, SlotfillPostProcessor.java:121)."""
    gloss = "Acme Corp founded frontman Jane Doe"
    out = _run([_fill(subj_span=[0, 2], obj_span=[4, 6])],
               gloss=[gloss])
    assert out and out[0]["pred"] == "org:founded_by"


def test_chain_age_rewrite_feeds_sanity_check():
    """AgeRewrite scales '15 decades' to 150, which the sanity check
    then rejects — order matters."""
    gloss = "Jane Doe celebrated turning 15 decades old"
    out = _run([_fill(pred="per:age", subj="Jane Doe",
                      subj_type="PERSON", obj="15", obj_type="NUMBER",
                      subj_span=[0, 2], obj_span=[4, 5])],
               gloss=[gloss])
    assert out == []


def test_attach_gloss_distributed(ray_session):
    """fills ⋈ sentences join attaches the right sentence text."""
    import ray.data as rd
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.stages import nlp
    sents = nlp.annotate(documents_dataset(30))
    rows = [s for s in sents.take_all() if s["n_tokens"] > 0][:5]
    fills = rd.from_items([
        _fill(doc_id=s["doc_id"], sent_idx=s["sent_idx"])
        for s in rows])
    out = P.attach_gloss(fills, nlp.annotate(documents_dataset(30))) \
        .take_all()
    assert len(out) == len(rows)
    want = {(s["doc_id"], s["sent_idx"]): s["text"] for s in rows}
    for r in out:
        assert r["gloss"] == want[(r["doc_id"], r["sent_idx"])]


def test_repair_provenance(ray_session):
    """A fill with wrong/missing provenance is repaired to the best
    (shortest) supporting sentence; a fill whose provenance already
    supports it is untouched (SimpleSlotFiller.java:484-676)."""
    import ray.data as rd
    sentences = rd.from_items([
        {"doc_id": "dA", "sent_idx": 0,
         "text": "Acme Corp announced that Jane Doe is chief "
                 "executive of the new division in Toronto ."},
        {"doc_id": "dA", "sent_idx": 1,
         "text": "Jane Doe leads Acme Corp ."},          # shortest
        {"doc_id": "dB", "sent_idx": 0,
         "text": "Markets were mixed on Tuesday ."},
    ])
    fills = rd.from_items([
        # provenance points at a sentence that doesn't support it
        _fill(doc_id="dB", sent_idx=0),
        # provenance nonexistent
        _fill(obj="Toronto", obj_type="CITY",
              pred="org:city_of_headquarters",
              doc_id="dZ", sent_idx=9),
        # healthy provenance: untouched
        _fill(doc_id="dA", sent_idx=0, pred="org:founded_by"),
    ])
    out = {(r["pred"], r["doc_id"], r["sent_idx"])
           for r in P.repair_provenance(fills, sentences).take_all()}
    assert ("org:top_members/employees", "dA", 1) in out   # shortest
    assert ("org:city_of_headquarters", "dA", 0) in out
    assert ("org:founded_by", "dA", 0) in out


def test_repair_provenance_strong_sibling_untouched(ray_session):
    """Duplicate triples with distinct provenance: only the WEAK row
    is patched; the sibling whose own provenance already supports the
    fill keeps it — the patch is keyed on (triple, original
    provenance), not the triple alone (ADVICE r3)."""
    import ray.data as rd
    sentences = rd.from_items([
        {"doc_id": "dA", "sent_idx": 0,
         "text": "Acme Corp announced that Jane Doe would continue "
                 "to serve on the board of directors ."},  # supports
        {"doc_id": "dA", "sent_idx": 1,
         "text": "Jane Doe leads Acme Corp ."},   # shortest support
        {"doc_id": "dB", "sent_idx": 0,
         "text": "Markets were mixed on Tuesday ."},
    ])
    fills = rd.from_items([
        _fill(doc_id="dA", sent_idx=0),   # strong: keep dA,0
        _fill(doc_id="dB", sent_idx=0),   # weak: repair to dA,1
    ])
    out = sorted((r["doc_id"], r["sent_idx"]) for r in
                 P.repair_provenance(fills, sentences).take_all())
    assert out == [("dA", 0), ("dA", 1)]


def test_repair_provenance_no_support_keeps_original(ray_session):
    import ray.data as rd
    sentences = rd.from_items([
        {"doc_id": "dA", "sent_idx": 0, "text": "Nothing relevant ."}])
    fills = rd.from_items([_fill(doc_id="dQ", sent_idx=7)])
    out = P.repair_provenance(fills, sentences).take_all()
    assert (out[0]["doc_id"], out[0]["sent_idx"]) == ("dQ", 7)


def test_repair_provenance_via_alias(ray_session):
    """A canonicalized subject matches its alias surface in text."""
    import ray.data as rd
    sentences = rd.from_items([
        {"doc_id": "dA", "sent_idx": 3,
         "text": "ACME hired Jane Doe ."}])
    fills = rd.from_items([_fill(doc_id="dX", sent_idx=0)])
    out = P.repair_provenance(
        fills, sentences,
        aliases=[("ACME", "Acme Corp", 1.0)]).take_all()
    assert (out[0]["doc_id"], out[0]["sent_idx"]) == ("dA", 3)


def test_finalize_fills_repair_external_doc_ids(ray_session, monkeypatch):
    """finalize_fills on fills whose doc ids are NOT the generator
    format (an external corpus): no provenance document regenerates, so
    the chain runs without a gloss in both tiers, and a repair pass
    over sentences that do not support the fill keeps its provenance."""
    import ray.data as rd

    import stanford_relation_extractor_ray.pipelines.kg as kg
    fills = rd.from_items([_fill(doc_id="ext-corpus-17")])
    sentences = rd.from_items([
        {"doc_id": "ext-corpus-3", "sent_idx": 0,
         "text": "Markets were mixed on Tuesday ."}])
    for gate in (kg.SMALL_FILLS, 0):
        monkeypatch.setattr(kg, "SMALL_FILLS", gate)
        out = P.repair_provenance(kg.finalize_fills(fills),
                                  sentences).take_all()
        assert [(r["doc_id"], r["sent_idx"]) for r in out] \
            == [("ext-corpus-17", 0)]


@pytest.mark.parametrize("tier", ["driver", "distributed"])
def test_finalize_fills_near_miss_doc_ids(ray_session, monkeypatch, tier):
    """Doc ids that only resemble the generator's ``d%09d`` format get
    no gloss from the generator, and keep their provenance through
    ``finalize_fills`` in both tiers."""
    import ray.data as rd

    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.corpus import parse_doc_ids

    near = ["d12345678", "d0000000012", "D000000001", "ext-17"]
    assert parse_doc_ids(pa.array(near + ["d000000001"])).to_pylist() \
        == [None] * 4 + [1]
    assert kg._generator_sentences(pa.chunked_array([near]),
                                   42).num_rows == 0
    assert kg._generator_sentences(pa.chunked_array([["d000000001"]]),
                                   42).num_rows > 0
    if tier == "distributed":
        monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    subjects = ["Acme Corp", "Bolt Industries", "Crane Group",
                "Delta Labs"]
    fills = rd.from_items([_fill(subj=s, doc_id=d, sent_idx=i)
                           for i, (s, d) in enumerate(zip(subjects, near))])
    out = kg.finalize_fills(fills).take_all()
    assert sorted((r["subj"], r["doc_id"], r["sent_idx"]) for r in out) \
        == [(s, d, i) for i, (s, d) in enumerate(zip(subjects, near))]


def test_finalize_fills_external_corpus_with_sentences(ray_session):
    """External corpus (non-generator doc ids) with its own sentences
    Dataset: ``finalize_fills(postprocess=False)`` → ``apply_unary``
    over those sentences → ``repair_provenance``, the calls
    ``virtual_ir`` makes. The unary chain must run WITH glosses from
    that dataset (observable via the maximal-phrase rewrite) and the
    repair pass must re-point weak provenance — neither may silently
    degrade just because doc ids aren't generator-format."""
    import ray.data as rd

    from stanford_relation_extractor_ray.pipelines.kg import \
        finalize_fills
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA

    sentences = rd.from_items([
        {"doc_id": "ext:A", "sent_idx": 0,
         "text": "Jane Doe serves as a deputy curator there"},
        {"doc_id": "ext:A", "sent_idx": 1,
         "text": "Acme Corp is based in Toronto ."},
        {"doc_id": "ext:B", "sent_idx": 0,
         "text": "Markets were mixed on Tuesday ."},
    ])
    fills = rd.from_arrow(pa.Table.from_pylist([
        # chain-visible effect: per:title expands to the maximal
        # phrase USING THE GLOSS — only reachable via these sentences
        _fill(subj="Jane Doe", subj_type="PERSON", pred="per:title",
              obj="curator", obj_type="TITLE", doc_id="ext:A",
              sent_idx=0, subj_span=[0, 2], obj_span=[6, 7]),
        # weak provenance (gloss lacks subj+obj): repair must
        # re-point to the supporting sentence ext:A/1
        _fill(subj="Acme Corp", pred="org:city_of_headquarters",
              obj="Toronto", obj_type="CITY", doc_id="ext:B",
              sent_idx=0, subj_span=[0, 2], obj_span=[5, 6]),
    ], schema=FILLS_SCHEMA))
    consistent = finalize_fills(fills, postprocess=False)
    out = P.repair_provenance(P.apply_unary(consistent, sentences),
                              sentences)
    rows = {(r["subj"], r["pred"]): r for r in out.take_all()}
    title = rows[("Jane Doe", "per:title")]
    assert title["obj"] == "deputy curator"          # chain ran
    hq = rows[("Acme Corp", "org:city_of_headquarters")]
    assert (hq["doc_id"], hq["sent_idx"]) == ("ext:A", 1)   # repaired
