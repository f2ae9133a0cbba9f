"""NLP annotator + mention pairing unit tests (direct class calls — no
Ray needed; the classes are plain callables over Arrow tables)."""

import pyarrow as pa

from stanford_relation_extractor_ray.corpus import DOCUMENTS_SCHEMA, \
    SPAN_STRUCT
from stanford_relation_extractor_ray.stages.mentions import pair_mentions
from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator


def _doc(doc_id, texts, media_at=()):
    spans = []
    off = 0
    for i, t in enumerate(texts):
        if i in media_at:
            spans.append({"kind": "image", "text": "",
                          "media_ref": f"media://{doc_id}/{i}",
                          "offset": off})
        spans.append({"kind": "text", "text": t, "media_ref": "",
                      "offset": off})
        off += len(t) + 1
    return {"doc_id": doc_id, "spans": spans}


def _table(docs):
    return pa.Table.from_pylist(docs, schema=DOCUMENTS_SCHEMA)


def test_ner_and_spans():
    ann = NLPAnnotator()
    out = ann(_table([_doc("d1", [
        "Robert Smith was born in Toronto .",
        "He works for Acme Dynamics Corporation .",
    ])]))
    rows = out.to_pylist()
    assert [r["sent_idx"] for r in rows] == [0, 1]
    m0 = rows[0]["mentions"]
    assert [(m["surface"], m["ner"]) for m in m0] == \
        [("Robert Smith", "PERSON"), ("Toronto", "CITY")]
    assert (m0[0]["begin"], m0[0]["end"]) == (0, 2)
    assert (m0[1]["begin"], m0[1]["end"]) == (5, 6)
    m1 = rows[1]["mentions"]
    assert m1[0]["surface"] == "He"
    assert m1[0]["antecedent"] == "Robert Smith"
    assert m1[1]["surface"] == "Acme Dynamics Corporation"
    assert m1[1]["ner"] == "ORGANIZATION"


def test_media_spans_skipped_sentence_indices_stable():
    ann = NLPAnnotator()
    out = ann(_table([_doc("d1", ["Toronto is nice .", "Canada too ."],
                           media_at=(0, 1))]))
    rows = out.to_pylist()
    assert [r["sent_idx"] for r in rows] == [0, 1]


def test_date_number_priority():
    ann = NLPAnnotator()
    out = ann(_table([_doc("d1", [
        "Julie Smith was born on April 12 , 1984 .",
    ])]))
    ments = out.to_pylist()[0]["mentions"]
    tags = [m["ner"] for m in ments]
    assert "DATE" in tags
    assert "NUMBER" not in tags      # numbers inside the date are claimed


def test_pairing_distance_and_dedup():
    ann = NLPAnnotator()
    sents = ann(_table([_doc("d1", [
        "Robert Smith was born in Toronto .",
    ])]))
    cands = pair_mentions(sents).to_pylist()
    assert len(cands) == 1
    c = cands[0]
    assert (c["subj"], c["obj"], c["between"]) == \
        ("Robert Smith", "Toronto", "was born in")
    assert c["subj_begin"] == 0 and c["obj_begin"] == 5


def test_pronoun_not_a_slot():
    ann = NLPAnnotator()
    sents = ann(_table([_doc("d1", [
        "Robert Smith works for Acme Dynamics Corporation .",
        "He is married to Julie Laurent .",
    ])]))
    cands = pair_mentions(sents).to_pylist()
    pairs = {(c["subj"], c["obj"]) for c in cands}
    # pronoun resolved as subject, never as object
    assert ("Robert Smith", "Julie Laurent") in pairs
    assert all(c["obj"] not in ("He", "She", "It") for c in cands)


# ---- document-level coref beyond pronouns (PostIRAnnotator.java
# hack catalogue :40-57 — approximate names matched iff no other
# entity in the article could take them; acronym expansion) ----------

def test_doc_coref_unique_last_name():
    ann = NLPAnnotator()
    sents = ann(_table([_doc("d1", [
        "Priya Petrov works for Acme Dynamics Corporation .",
        "Petrov is married to Samuel Okafor .",
    ])]))
    cands = pair_mentions(sents).to_pylist()
    pairs = {(c["subj"], c["obj"]) for c in cands}
    assert ("Priya Petrov", "Samuel Okafor") in pairs


def test_doc_coref_ambiguous_last_name_refuses():
    ann = NLPAnnotator()
    sents = ann(_table([_doc("d1", [
        "Robert Smith met with Oliver Smith .",
        "Smith is married to Julie Laurent .",
    ])]))
    rows = sents.to_pylist()
    ments = rows[1]["mentions"]
    # two Smiths in the article: the bare surname must NOT resolve
    assert all(m["surface"] != "Smith" for m in ments)


def test_doc_coref_acronym_expansion():
    ann = NLPAnnotator()
    sents = ann(_table([_doc("d1", [
        "Samuel Okafor attended Westbrook Institute of Technology .",
        "WIT was founded by Julie Laurent .",
    ])]))
    cands = pair_mentions(sents).to_pylist()
    pairs = {(c["subj"], c["obj"]) for c in cands}
    assert ("Westbrook Institute of Technology", "Julie Laurent") \
        in pairs


def test_doc_coref_forward_reference():
    # the inventory is document-level: a short reference BEFORE the
    # full mention still resolves (the reference matches against
    # article-level stats, not a running prefix)
    ann = NLPAnnotator()
    sents = ann(_table([_doc("d1", [
        "Petrov spoke at length about Toronto .",
        "Priya Petrov works for Acme Dynamics Corporation .",
    ])]))
    ments = sents.to_pylist()[0]["mentions"]
    assert any(m["surface"] == "Petrov"
               and m["antecedent"] == "Priya Petrov" for m in ments)


def test_doc_coref_short_ref_not_a_slot():
    ann = NLPAnnotator()
    sents = ann(_table([_doc("d1", [
        "Priya Petrov works for Acme Dynamics Corporation .",
        "Julie Laurent met with Petrov .",
    ])]))
    cands = pair_mentions(sents).to_pylist()
    # like pronouns, recovered short references are subject-capable
    # but never slot values
    assert all(c["obj"] != "Petrov" for c in cands)


# ---- same-NER-run slot-mention scan (SlotMentionAnnotator.java
# :134-192 scan rules over token NER/POS layers) ----------------------

def _scan(sent, ner_spans, mask_spans=(), entity_ner=None, ante=None):
    from stanford_relation_extractor_ray.stages.deps import pos_tag
    from stanford_relation_extractor_ray.stages.mentions import \
        scan_slot_mentions
    toks = sent.split(" ")
    ner = [""] * len(toks)
    for b, e, t in ner_spans:
        for i in range(b, e):
            ner[i] = t
    mask = [False] * len(toks)
    for b, e in mask_spans:
        for i in range(b, e):
            mask[i] = True
    return scan_slot_mentions(toks, pos_tag(toks), ner,
                              ante or [""] * len(toks), mask,
                              entity_ner)


def test_slot_scan_merges_same_ner_run():
    # two adjacent CITY-tagged values become ONE maximal run
    out = _scan("He visited Toronto Marseille today",
                [(2, 3, "CITY"), (3, 4, "CITY")])
    assert (2, 4, "CITY", "") in out


def test_slot_scan_pos_fixups():
    # run may not START on DT ("the") nor END on IN ("of")
    out = _scan("the treasurer of Acme",
                [(0, 3, "TITLE")])
    assert out == [(1, 2, "TITLE", "")]


def test_slot_scan_entity_mask_and_dangling():
    # the masked entity is no slot; a same-NER run abutting the
    # entity's mask is dropped as a dangling edge ("George Bush Sr.")
    out = _scan("Junior Smith spoke",
                [(0, 1, "PERSON"), (1, 2, "PERSON")],
                mask_spans=[(1, 2)], entity_ner="PERSON")
    assert out == []        # "Junior" dangles off the entity edge


def test_slot_scan_antecedent_carried_not_for_dates():
    ante = ["", "", "Priya Petrov", "", ""]
    out = _scan("met with Petrov in 1990",
                [(2, 3, "PERSON"), (4, 5, "NUMBER")], ante=ante)
    assert (2, 3, "PERSON", "Priya Petrov") in out
    assert (4, 5, "NUMBER", "") in out       # NUMBER never normalized


def test_slot_scan_full_lexicon_value_with_interior_in():
    # "complications of influenza": interior IN stays, span survives
    out = _scan("died of complications of influenza .",
                [(2, 5, "CAUSE_OF_DEATH")])
    assert out == [(2, 5, "CAUSE_OF_DEATH", "")]


def test_slot_scan_no_antecedent_leak_from_next_token():
    """The antecedent of the first token AFTER a run must not leak
    onto the run (it belongs to the breaking token, e.g. a resolved
    pronoun right after a slot value)."""
    ante = ["", "", "", "Robert Smith", ""]
    out = _scan("He visited Toronto he .",
                [(2, 3, "CITY")], ante=ante)
    assert (2, 3, "CITY", "") in out


def test_slot_scan_dangling_edge_at_sentence_end():
    """The dangling-edge drop also applies when the masked entity
    mention is the sentence-final token."""
    out = _scan("Junior Smith",
                [(0, 1, "PERSON"), (1, 2, "PERSON")],
                mask_spans=[(1, 2)], entity_ner="PERSON")
    assert out == []


def test_annotator_parses_each_text_once_and_equals_unmemoized_build():
    import numpy as np
    from oracles import annotate_loop

    from stanford_relation_extractor_ray.corpus import _docs_batch
    batch = _docs_batch({"id": np.arange(300, dtype=np.int64)}, 42)
    ann = NLPAnnotator(seed=42)
    want = annotate_loop(ann, batch)
    texts = want.column("text").to_pylist()
    assert len(set(texts)) < len(texts)       # texts repeat
    calls = []
    analyze = ann.analyze
    ann.analyze = lambda tokens: calls.append(1) or analyze(tokens)
    got = ann(batch)
    assert got.equals(want)
    assert len(calls) == len(set(texts))
