"""The finalize kernel against its former row-dict paths.

``consistency.consistent_fills`` (columnar valid mask and comparator
order, indexed greedy pass, one ``_value_dup`` verdict per distinct
pair) and ``postprocess.unary_chain`` (column rules in Arrow, gloss
rules per row on the rows that read a gloss) must give exactly the rows
of ``tests/oracles.py``'s ``consistent_fills_rows`` and
``unary_chain_rows``, and the chain must drop each row with the rule
the oracle names. The edge cases run ``pipelines.kg.finalize_fills`` in
both tiers.
"""

import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import consistent_fills_rows, unary_chain_rows

from stanford_relation_extractor_ray.functions.text import (
    approx_match_score, same_entity)
from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
from stanford_relation_extractor_ray.stages import postprocess as P
from stanford_relation_extractor_ray.stages.consistency import (
    consistent_fills, make_engine)
from stanford_relation_extractor_ray.stages.worldknowledge import \
    get_geography

# --- the consistency engines -------------------------------------------

_SUBJECTS = {"PERSON": ["Ann Lee", "Bo Chan"],
             "ORGANIZATION": ["Acme Corp", "Bo Chan"]}
# SINGLE relations, declared incompatibilities, list relations with
# PERSON/ORG values, location of death with and without its date, and
# one unknown relation
_PREDS = ["per:city_of_birth", "per:city_of_death", "per:date_of_birth",
          "per:date_of_death", "per:spouse", "per:siblings",
          "per:parents", "per:children", "per:employee_of",
          "per:cities_of_residence", "org:top_members/employees",
          "org:parents", "org:subsidiaries", "org:shareholders",
          "org:founded", "org:dissolved", "per:nonsense"]
# near-duplicate PERSON and ORG values (case variants, acronyms), places
# and dates, an empty value and the subjects themselves
_OBJS = {"PERSON": ["Robert Smith", "Bob Smith", "Robert Smyth",
                    "robert smith", "Smith", "R. Smith", "Robert J. Smith",
                    "Ann Lee", "Bo Chan", ""],
         "ORGANIZATION": ["Acme Corp", "ACME", "Acme Corporation", "Acme",
                          "AC", "The Acme Group", "Bo Chan", ""],
         "CITY": ["Toronto", "Osaka", "toronto"],
         "DATE": ["1970-05-03", "1971", ""]}
# ties, near-ties below the 1e-9 rounding and plain values
_SCORES = st.one_of(st.sampled_from([0.5, 0.7, 0.7 + 1e-12, 0.9, 0.9]),
                    st.floats(0.0, 1.0))


@st.composite
def _fill_tables(draw):
    """Fills of a few subjects, mostly typed as their relation expects
    (so they conflict), some not (so ``_valid`` drops them)."""
    from stanford_relation_extractor_ray.vocab import RELATIONS
    n = draw(st.integers(0, 24))
    rows = []
    for _ in range(n):
        pred = draw(st.sampled_from(_PREDS))
        spec = RELATIONS.get(pred)
        typed = spec is not None and draw(st.integers(0, 9)) > 0
        subj_type = spec.entity_type if typed else draw(
            st.sampled_from(sorted(_SUBJECTS)))
        slot_types = [t for t in spec.slot_types if t in _OBJS] \
            if typed else []
        obj_type = draw(st.sampled_from(slot_types or sorted(_OBJS)))
        subj = draw(st.sampled_from(_SUBJECTS[subj_type]))
        obj = draw(st.sampled_from(_OBJS[obj_type]))
        rows.append({
            "subj": subj, "subj_type": subj_type, "pred": pred,
            "obj": obj, "obj_type": obj_type, "score": draw(_SCORES),
            "doc_id": draw(st.sampled_from(["d0", "d1"])),
            "sent_idx": draw(st.integers(0, 2)),
            "subj_span": [0, 2], "obj_span": [5, 6],
            "raw_obj": draw(st.sampled_from([obj, "", "Bob Smith",
                                             "Acme"]))})
    t = pa.Table.from_pylist(rows, schema=FILLS_SCHEMA.append(
        pa.field("raw_obj", pa.string())))
    return t if draw(st.booleans()) else t.drop_columns(["raw_obj"])


def _person_fills(rows: list) -> pa.Table:
    base = {"subj": "Ann Lee", "subj_type": "PERSON", "obj_type": "PERSON",
            "doc_id": "d0", "sent_idx": 0, "subj_span": [0, 2],
            "obj_span": [5, 6]}
    return pa.Table.from_pylist(
        [dict(base, **r) for r in rows],
        schema=FILLS_SCHEMA.append(pa.field("raw_obj", pa.string())))


# the restarts beat the greedy pass (spouse blocks siblings and parents,
# which a restart accepts siblings-first), and a tie broken by the raw
# object against the provenance order
_SUM_WINS = _person_fills([
    {"pred": "per:spouse", "obj": "Robert Smith", "score": 0.9,
     "raw_obj": "Robert Smith"},
    {"pred": "per:siblings", "obj": "Robert Smith", "score": 0.7,
     "raw_obj": "Robert Smith"},
    {"pred": "per:parents", "obj": "Robert Smith", "score": 0.7,
     "raw_obj": "Robert Smith"}])
_RAW_TIE = _person_fills([
    {"pred": "per:spouse", "obj": "Robert Smith", "score": 0.7,
     "raw_obj": "Bob Smith", "doc_id": "d1"},
    {"pred": "per:spouse", "obj": "Robert Smith", "score": 0.7 + 1e-12,
     "raw_obj": "Robert Smith", "doc_id": "d0"}])


@settings(max_examples=150, deadline=None)
@given(_fill_tables(), st.sampled_from(["TOP", "SUM"]),
       st.integers(0, 12), st.integers(0, 3))
@example(_SUM_WINS, "SUM", 10, 42)
@example(_RAW_TIE, "TOP", 10, 42)
def test_consistent_fills_equals_row_engines(t, objective, mixing_time,
                                             seed):
    got = consistent_fills(t, make_engine(objective, mixing_time, seed))
    want = consistent_fills_rows(t, objective, mixing_time, seed)
    assert got.to_pylist() == want.to_pylist()
    if t is _SUM_WINS:
        assert [r["pred"] for r in want.to_pylist()] == [
            "per:parents", "per:siblings"]
    if t is _RAW_TIE:
        assert [r["doc_id"] for r in want.to_pylist()] == ["d1"]
    assert got.schema.equals(FILLS_SCHEMA)


_SURFACES = st.lists(st.sampled_from(
    ["Robert", "Bob", "Smith", "Smyth", "J.", "Acme", "ACME", "Corp",
     "the", "Group", "Holdings", "A", "Lee", "Leeds"]),
    min_size=1, max_size=5).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(_SURFACES, _SURFACES, st.sampled_from(["PERSON", "ORGANIZATION"]))
def test_same_entity_size_filter_keeps_verdicts(a, b, entity_type):
    """The token-count bound only skips pairs the score rejects."""
    threshold = 0.49 if entity_type == "PERSON" else 0.79
    assert same_entity(a, b, entity_type) == \
        (approx_match_score(a, b) > threshold)


# --- the unary chain -----------------------------------------------------

_CHAIN_PREDS = sorted(P.GLOSS_RELATIONS) + [
    "per:alternate_names", "org:website", "org:number_of_employees/members",
    "per:date_of_birth", "org:founded", "per:spouse",
    "org:city_of_headquarters", "per:nonsense"]
_CHAIN_OBJS = ["45", "aged 45", "150", "4.5", "0", "May 3 , 1970", "1970",
               "May 1970", "May 3", "the 1970s", "www.acme.com/about",
               "http://zzzqqq.org/x", "member", "curator", "House",
               "Jane Doe", "Doe", "Acme Corp", "Acme", "Jane", "7", "4800",
               "x" * 81, "Toronto", "France"]
_GLOSS_WORDS = ["Jane", "Doe", "Acme", "Corp", "was", "born", "lives",
                "died", "death", "founded", "said", "Said", "told", "the",
                "Research", "Division", "decades", "months", "weeks",
                "days", "deputy", "chief", "curator", "in", "Toronto",
                "spokesman", "member", "association", "native", "home"]


@st.composite
def _chain_tables(draw):
    n = draw(st.integers(0, 20))
    rows = []
    for _ in range(n):
        subj, subj_type = draw(st.sampled_from(
            [("Acme Corp", "ORGANIZATION"), ("Jane Doe", "PERSON"),
             ("Acme", "ORGANIZATION")]))
        b, e = sorted(draw(st.lists(st.integers(0, 20), min_size=2,
                                    max_size=2)))
        sb, se = sorted(draw(st.lists(st.integers(0, 20), min_size=2,
                                      max_size=2)))
        rows.append({
            "subj": subj, "subj_type": subj_type,
            "pred": draw(st.sampled_from(_CHAIN_PREDS)),
            "obj": draw(st.sampled_from(_CHAIN_OBJS + [subj])),
            "obj_type": "PERSON",
            "score": draw(st.sampled_from([0.005, 0.01, 0.5, 0.9, 0.9])),
            "doc_id": "d0", "sent_idx": 0,
            "subj_span": [sb, se], "obj_span": [b, e],
            "gloss": draw(st.one_of(
                st.just(""),
                st.lists(st.sampled_from(_GLOSS_WORDS), min_size=1,
                         max_size=22).map(" ".join)))})
    return pa.Table.from_pylist(rows, schema=FILLS_SCHEMA.append(
        pa.field("gloss", pa.string())))


def _chain_table(rows: list) -> pa.Table:
    base = {"obj_type": "PERSON", "score": 0.9, "doc_id": "d0",
            "sent_idx": 0}
    return pa.Table.from_pylist(
        [dict(base, **r) for r in rows],
        schema=FILLS_SCHEMA.append(pa.field("gloss", pa.string())))


# rows the random tables seldom reach: a birth place far from its
# subject (BornInRewrite drops it), one with a residence keyword (rewritten
# to residence, then to death place by DiedInRewrite), and a "said" with
# a lower-case follower (EmployeeFilter)
_RARE = _chain_table([
    {"subj": "Jane Doe", "subj_type": "PERSON", "pred": "per:city_of_birth",
     "obj": "Toronto", "subj_span": [0, 2], "obj_span": [13, 14],
     "gloss": "Jane Doe a b c d e f g h i j in Toronto"},
    {"subj": "Jane Doe", "subj_type": "PERSON", "pred": "per:city_of_birth",
     "obj": "Toronto", "subj_span": [0, 2], "obj_span": [5, 6],
     "gloss": "Jane Doe lived and died in Toronto"},
    {"subj": "Jane Doe", "subj_type": "PERSON", "pred": "per:employee_of",
     "obj": "Acme Corp", "subj_span": [7, 9], "obj_span": [0, 2],
     "gloss": "Acme Corp said yesterday that money manager Jane Doe left"},
    {"subj": "Jane Doe", "subj_type": "PERSON", "pred": "per:title",
     "obj": "curator", "subj_span": [0, 2], "obj_span": [6, 7],
     "gloss": "Jane Doe serves as a deputy curator there"}])


_KNOWN = {"Acme Corp": ["Jane Doe", "www.acme.com/"], "Jane Doe": ["Acme"]}
_IGNORED = {"Acme Corp": {"org:website", "org:alternate_names"},
            "Jane Doe": {"per:age"}}


@settings(max_examples=200, deadline=None)
@given(_chain_tables(), st.sampled_from([None, {}, _KNOWN]),
       st.sampled_from([None, {}, _IGNORED]), st.booleans())
@example(_RARE, None, None, True)
@example(_RARE, _KNOWN, _IGNORED, True)
def test_unary_chain_equals_row_chain(t, known, ignored, with_gloss):
    """Kept rows equal, every row's drop reason equal, and for every rule
    the rows it saw are the rows it kept plus the drops it recorded."""
    if not with_gloss:
        t = t.drop_columns(["gloss"])
    geo = get_geography()
    want_reasons: list = []
    want = unary_chain_rows(t, known=known, ignored=ignored, geo=geo,
                            reasons=want_reasons)
    got = P.unary_chain(t, known=known, ignored=ignored, geo=geo)
    assert got.to_pylist() == want.to_pylist()
    _, reasons = P.unary_verdicts(t, known=known, ignored=ignored, geo=geo)
    assert list(reasons) == want_reasons
    if t is _RARE:
        assert want_reasons[:3] == ["BornInRewrite", None, "EmployeeFilter"]
        assert [(r["pred"], r["obj"]) for r in want.to_pylist()] == [
            ("per:city_of_death", "Toronto"), ("per:title", "deputy curator")]
    rules = ("FilterIgnoredSlots", "BornInRewrite", "FilterUnrelatedURL",
             "SanityCheck", "ConformToGuidelines", "EmployeeFilter",
             "FilterVeryLowProbability", "FilterAlreadyKnownSlots")
    assert set(reasons) <= set(rules) | {None}
    fills_in = t.num_rows
    for rule in rules:                       # chain order
        fills_out = fills_in - sum(r == rule for r in reasons)
        fills_in = fills_out
    assert fills_out == got.num_rows


def test_gloss_rules_run_only_on_gloss_rows(monkeypatch):
    """Every gloss rewrite and gloss filter is called once per alive row
    whose relation it reads and whose gloss is non-empty, and never on
    any other row."""
    calls: dict = {}

    def counted(rule):
        def call(f, tokens, geo=None):
            calls.setdefault(rule.__name__, []).append(f["obj"])
            return rule(f, tokens, geo)
        return call

    stages = ((P.GLOSS_REWRITES, P.REWRITE_RELATIONS),
              (P.GLOSS_FILTERS, P.FILTER_RELATIONS))
    monkeypatch.setattr(P, "GLOSS_REWRITES",
                        tuple(counted(r) for r in P.GLOSS_REWRITES))
    monkeypatch.setattr(P, "GLOSS_FILTERS",
                        tuple(counted(r) for r in P.GLOSS_FILTERS))
    gloss = "Jane Doe works there as the deputy chief of Acme Corp"
    rows = []
    for i, pred in enumerate(sorted(P.GLOSS_RELATIONS) + [
            "per:spouse", "org:website", "per:date_of_birth"]):
        for g in (gloss, ""):
            rows.append({"subj": "Acme Corp", "subj_type": "ORGANIZATION",
                         "pred": pred, "obj": f"{pred}|{bool(g)}",
                         "obj_type": "PERSON", "score": 0.9,
                         "doc_id": "d0", "sent_idx": i,
                         "subj_span": [9, 11], "obj_span": [0, 2],
                         "gloss": g})
    t = pa.Table.from_pylist(rows, schema=FILLS_SCHEMA.append(
        pa.field("gloss", pa.string())))
    P.unary_chain(t, geo=get_geography())
    for rules, preds in stages:
        for rule in rules:
            assert sorted(calls[rule.__name__]) == sorted(
                f"{p}|True" for p in preds), rule.__name__


# --- finalize_fills edge cases, both tiers ------------------------------

def _fill(**over):
    f = {"subj": "Acme Corp", "subj_type": "ORGANIZATION",
         "pred": "org:top_members/employees", "obj": "Jane Doe",
         "obj_type": "PERSON", "score": 0.9, "doc_id": "d000000001",
         "sent_idx": 0, "subj_span": [0, 2], "obj_span": [6, 8]}
    f.update(over)
    return f


def _finalized(fills, monkeypatch, tier):
    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.runtime import (collect_table,
                                                         table_dataset)
    if tier == "distributed":
        monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    ds = table_dataset(pa.Table.from_pylist(fills, schema=FILLS_SCHEMA))
    return collect_table(kg.finalize_fills(ds).materialize(), FILLS_SCHEMA)


@pytest.mark.parametrize("tier", ["driver", "distributed"])
def test_finalize_without_gloss_rows(ray_session, monkeypatch, tier):
    """No fill's relation reads a gloss: the column rules still rewrite
    and drop (base URL, padded date, unrelated URL), in both tiers."""
    fills = [_fill(pred="org:website", obj="www.acme.com/about",
                   obj_type="URL"),
             _fill(subj="Zed Inc", pred="org:website",
                   obj="www.qqq.com", obj_type="URL"),
             _fill(pred="org:founded", obj="1970", obj_type="DATE"),
             _fill(pred="org:city_of_headquarters", obj="Toronto",
                   obj_type="CITY")]
    out = _finalized(fills, monkeypatch, tier)
    assert sorted((r["pred"], r["obj"]) for r in out.to_pylist()) == [
        ("org:city_of_headquarters", "Toronto"),
        ("org:founded", "1970-XX-XX"), ("org:website", "www.acme.com/")]


@pytest.mark.parametrize("tier", ["driver", "distributed"])
def test_finalize_zero_rows(ray_session, monkeypatch, tier):
    """An empty input gives an empty FILLS_SCHEMA table in both tiers
    (the gate puts zero rows on the driver, so the distributed tier's
    partition kernel runs on an empty table directly)."""
    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.stages.link import EntityLinker
    out = _finalized([], monkeypatch, tier)
    assert out.num_rows == 0 and out.schema.equals(FILLS_SCHEMA)
    part = kg._finalize_table(FILLS_SCHEMA.empty_table(),
                              linker=EntityLinker(), seed=42,
                              engine=make_engine("TOP", 10, 42),
                              postprocess=True)
    assert part.num_rows == 0 and part.schema.equals(FILLS_SCHEMA)


@pytest.mark.parametrize("tier", ["driver", "distributed"])
def test_finalize_non_generator_doc_ids(ray_session, monkeypatch, tier):
    """Fills whose doc ids no generator document has get the gloss "":
    the gloss rules leave them alone (no maximal-phrase expansion, no
    employee filter) while the column rules still run."""
    fills = [_fill(subj="Jane Doe", subj_type="PERSON", pred="per:title",
                   obj="curator", obj_type="TITLE", doc_id="ext-1"),
             _fill(doc_id="ext-2", sent_idx=3),
             _fill(subj="Jane Doe", subj_type="PERSON", pred="per:age",
                   obj="aged 45", obj_type="NUMBER", doc_id="ext-3")]
    out = _finalized(fills, monkeypatch, tier)
    assert sorted((r["pred"], r["obj"], r["doc_id"])
                  for r in out.to_pylist()) == [
        ("org:top_members/employees", "Jane Doe", "ext-2"),
        ("per:age", "45", "ext-3"), ("per:title", "curator", "ext-1")]
