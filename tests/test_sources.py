"""Sources/sinks: candidate-sentence TSV, KB triple TSV, query XML,
official output + predictions.tab writers (SURVEY.md §2.1)."""

import pyarrow as pa
import pytest

from stanford_relation_extractor_ray import sources

CAND_TSV = """\
SF_ENT_001\tper:city_of_birth\t0.9\tAFP_ENG_20090531.0123:4:7-9:0-2\tx\tJohn Smith was born in Springfield .
SF_ENT_001\tper:age\t0.5\tNYT_ENG:12:3-4:0-2\tx\tJohn Smith turned 44 .
bad line without enough fields
SF_ENT_002\torg:founded\tnot_a_num\tDOC:0:1-2:3-4\tx\tAcme was founded .
"""

KB_TSV = """\
John Smith\tPERSON\tper:city_of_birth\tSpringfield\tCITY
Acme Corp\tORGANIZATION\torg:founded\t1999\tDATE
"""

QUERY_XML = """<?xml version="1.0"?>
<kbpslotfill>
  <query id="SF_ENT_001">
    <name>John Smith</name>
    <enttype>PER</enttype>
    <docid>AFP_ENG_20090531.0123</docid>
    <ignore>per:age per:religion</ignore>
  </query>
  <query id="SF_ENT_002">
    <name>Acme Corp</name>
    <enttype>ORG</enttype>
    <docid>NYT_ENG</docid>
  </query>
</kbpslotfill>
"""


def test_parse_provenance():
    assert sources.parse_provenance("AFP:4:7-9:0-2") == \
        ("AFP", 4, [7, 9], [0, 2])
    # doc ids may contain colons
    assert sources.parse_provenance("a:b:c:12:1-2:3-4") == \
        ("a:b:c", 12, [1, 2], [3, 4])
    assert sources.parse_provenance("garbage") is None


def test_read_candidate_sentences(ray_session, tmp_path):
    p = tmp_path / "cand.tsv"
    p.write_text(CAND_TSV)
    rows = sorted(sources.read_candidate_sentences(str(p)).take_all(),
                  key=lambda r: (r["entity_id"], r["relation"]))
    assert len(rows) == 3                    # bad line dropped
    r = rows[1]                              # SF_ENT_001 / per:city_of_birth
    assert r["entity_id"] == "SF_ENT_001"
    assert r["doc_id"] == "AFP_ENG_20090531.0123"
    assert r["sent_idx"] == 4
    assert r["slot_value_span"] == [7, 9]
    assert r["entity_span"] == [0, 2]
    assert r["sentence"].startswith("John Smith was born")
    assert rows[2]["score"] == 0.0           # unparsable score → 0


def test_read_kb_triples(ray_session, tmp_path):
    p = tmp_path / "kb.tsv"
    p.write_text(KB_TSV)
    rows = sources.read_kb_triples(str(p)).take_all()
    assert len(rows) == 2
    assert rows[0]["entity_name"] == "John Smith"
    assert rows[1]["slot_type"] == "DATE"


def test_read_query_entities(tmp_path):
    p = tmp_path / "queries.xml"
    p.write_text(QUERY_XML)
    ents = sources.read_query_entities(str(p))
    assert len(ents) == 2
    assert ents[0] == {"query_id": "SF_ENT_001", "name": "John Smith",
                       "type": "PERSON",
                       "doc_id": "AFP_ENG_20090531.0123",
                       "ignored_slots": ["per:age", "per:religion"]}
    assert ents[1]["type"] == "ORGANIZATION"
    assert ents[1]["ignored_slots"] == []


@pytest.fixture()
def small_fills(ray_session):
    import ray.data as rd
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    rows = [
        {"subj": "John Smith", "subj_type": "PERSON",
         "pred": "per:city_of_birth", "obj": "Springfield",
         "obj_type": "CITY", "score": 0.9, "doc_id": "d1", "sent_idx": 0,
         "subj_span": [0, 2], "obj_span": [5, 6]},
        {"subj": "John Smith", "subj_type": "PERSON", "pred": "per:age",
         "obj": "44", "obj_type": "NUMBER", "score": 0.5,
         "doc_id": "d2", "sent_idx": 1, "subj_span": [0, 2],
         "obj_span": [3, 4]},
    ]
    return rd.from_arrow(pa.Table.from_pylist(rows, schema=FILLS_SCHEMA))


def test_write_official_output(small_fills, tmp_path):
    out = tmp_path / "official.tsv"
    sources.write_official_output(
        small_fills, str(out), run_id="r1",
        all_relations=["per:age", "per:city_of_birth", "per:religion"])
    lines = out.read_text().strip().split("\n")
    assert lines == [
        "John Smith\tper:age\tr1\td2\t44",
        "John Smith\tper:city_of_birth\tr1\td1\tSpringfield",
        "John Smith\tper:religion\tr1\tNIL",
    ]


def test_write_predictions_tab(small_fills, tmp_path):
    out = tmp_path / "predictions.tab"
    sources.write_predictions_tab(small_fills, str(out))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    f0 = lines[0].split("\t")
    assert f0[1] == "John Smith" and f0[3] == "per:age"
    assert f0[8] == "0-2" and f0[9] == "3-4"


def test_read_parquet_clean_unifies_every_file_schema(ray_session,
                                                      tmp_path):
    """A column only the second file has is kept (null-filled for the
    first file's rows); a type conflict between files raises."""
    import pyarrow.parquet as pq

    from stanford_relation_extractor_ray.storage import read_parquet_clean
    f1, f2, f3 = (str(tmp_path / f"f{i}.parquet") for i in (1, 2, 3))
    pq.write_table(pa.table({"a": [1, 2]}), f1)
    pq.write_table(pa.table({"a": [3], "b": ["x"]}), f2)
    pq.write_table(pa.table({"a": ["s"]}), f3)
    rows = read_parquet_clean([f1, f2]).take_all()
    assert sorted((r["a"], r["b"]) for r in rows) == \
        sorted([(1, None), (2, None), (3, "x")])
    with pytest.raises(pa.ArrowTypeError):
        read_parquet_clean([f1, f3])


def test_read_parquet_clean_adds_no_hive_column(ray_session, tmp_path):
    """A file under a ``key=value`` directory comes back with its own
    columns, not with a ``key`` column derived from the path."""
    import pyarrow.parquet as pq

    from stanford_relation_extractor_ray.storage import read_parquet_clean
    (tmp_path / "part=0000").mkdir()
    f = str(tmp_path / "part=0000" / "0.parquet")
    pq.write_table(pa.table({"a": [1], "prov_score": [0.5]}), f)
    assert read_parquet_clean([f]).take_all() == \
        [{"a": 1, "prov_score": 0.5}]
