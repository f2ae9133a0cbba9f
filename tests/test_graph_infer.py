"""Graph inference: symmetric/inverse rewrites and length-2 transitive
rules over hand-built fixtures (mirrors the reference's
SimpleGraphInferenceEngineTest / GraphConsistencyPostProcessors tests),
and each columnar kernel against the per-row loop it replaced
(tests/oracles.py) on small random graphs, at 1 and 4 input blocks."""

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
from stanford_relation_extractor_ray.stages import graph_infer

from oracles import (mine_rules_loop, mirror_rows_loop, neighborhood_bfs,
                     transitive_join_loop)


def _fills_ds(rows):
    import ray.data as rd
    full = []
    for i, (s, st, p, o, ot, sc) in enumerate(rows):
        full.append({"subj": s, "subj_type": st, "pred": p, "obj": o,
                     "obj_type": ot, "score": sc, "doc_id": f"d{i}",
                     "sent_idx": 0, "subj_span": [0, 1],
                     "obj_span": [2, 3]})
    return rd.from_arrow(pa.Table.from_pylist(full, schema=FILLS_SCHEMA))


def test_symmetric_rewrite_adds_mirror(ray_session):
    ds = _fills_ds([
        ("Alice Smith", "PERSON", "per:spouse", "Bob Jones", "PERSON",
         0.8),
        ("Acme", "ORGANIZATION", "org:founded", "1999", "DATE", 0.9),
    ])
    rows = {(r["subj"], r["pred"], r["obj"]): r["score"]
            for r in graph_infer.symmetric_inverse_rewrite(ds).take_all()}
    assert ("Bob Jones", "per:spouse", "Alice Smith") in rows
    assert rows[("Bob Jones", "per:spouse", "Alice Smith")] == \
        pytest.approx(0.8 * graph_infer.REWRITE_DAMPING)
    # original edges kept at original score
    assert rows[("Alice Smith", "per:spouse", "Bob Jones")] == 0.8
    # DATE-valued relations don't mirror
    assert ("1999", "org:founded", "Acme") not in rows


def test_inverse_rewrite_children_parents(ray_session):
    ds = _fills_ds([
        ("Alice Smith", "PERSON", "per:children", "Carol Smith",
         "PERSON", 0.9),
        # pre-existing reverse edge with higher score must win
        ("Carol Smith", "PERSON", "per:parents", "Alice Smith",
         "PERSON", 0.95),
    ])
    rows = {(r["subj"], r["pred"], r["obj"]): r["score"]
            for r in graph_infer.symmetric_inverse_rewrite(ds).take_all()}
    assert rows[("Carol Smith", "per:parents", "Alice Smith")] == 0.95
    assert rows[("Alice Smith", "per:children", "Carol Smith")] == \
        pytest.approx(max(0.9, 0.95 * graph_infer.REWRITE_DAMPING))


def test_transitive_grandparent_org(ray_session):
    ds = _fills_ds([
        ("SubCo", "ORGANIZATION", "org:parents", "MidCo",
         "ORGANIZATION", 0.9),
        ("MidCo", "ORGANIZATION", "org:parents", "TopCo",
         "ORGANIZATION", 0.8),
        ("Zed Corp", "ORGANIZATION", "org:founded", "1999", "DATE", 1.0),
    ])
    inf = graph_infer.transitive_infer(ds).take_all()
    got = {(r["subj"], r["pred"], r["obj"]): r["score"] for r in inf}
    assert got == {("SubCo", "org:parents", "TopCo"):
                   pytest.approx(0.9 * 0.8 * graph_infer.RULE_DAMPING)}


def test_transitive_membership_through_org(ray_session):
    ds = _fills_ds([
        ("Alice Smith", "PERSON", "per:member_of", "SubOrg",
         "ORGANIZATION", 1.0),
        ("SubOrg", "ORGANIZATION", "org:member_of", "Umbrella",
         "ORGANIZATION", 0.5),
    ])
    inf = graph_infer.transitive_infer(ds).take_all()
    got = {(r["subj"], r["pred"], r["obj"]) for r in inf}
    assert got == {("Alice Smith", "per:member_of", "Umbrella")}
    (row,) = inf
    assert row["subj_type"] == "PERSON"
    assert row["obj_type"] == "ORGANIZATION"


def test_transitive_no_self_loop(ray_session):
    ds = _fills_ds([
        ("A Corp", "ORGANIZATION", "org:parents", "B Corp",
         "ORGANIZATION", 0.9),
        ("B Corp", "ORGANIZATION", "org:parents", "A Corp",
         "ORGANIZATION", 0.9),
    ])
    inf = graph_infer.transitive_infer(ds).take_all()
    assert all(r["subj"] != r["obj"] for r in inf)
    assert inf == []


def test_transitive_best_bridge_wins_at_any_partition_count(
        ray_session, monkeypatch):
    """Two bridges infer the same triple; the best-scoring inference
    must win whether or not the bridges share a partition."""
    from stanford_relation_extractor_ray import runtime
    rows = [("A Co", "ORGANIZATION", "org:parents", f"B{i} Co",
             "ORGANIZATION", s) for i, s in ((0, 0.5), (1, 0.9))]
    rows += [(f"B{i} Co", "ORGANIZATION", "org:parents", "C Co",
              "ORGANIZATION", s) for i, s in ((0, 0.5), (1, 0.9))]
    for n in (1, 16):
        monkeypatch.setattr(runtime, "shuffle_parts", lambda n=n: n)
        inf = graph_infer.transitive_infer(_fills_ds(rows)).take_all()
        got = {(r["subj"], r["pred"], r["obj"]): r["score"] for r in inf}
        assert got == {("A Co", "org:parents", "C Co"):
                       pytest.approx(0.9 * 0.9 * graph_infer.RULE_DAMPING)}


def test_intersect_fills(ray_session):
    a = _fills_ds([
        ("Alice Smith", "PERSON", "per:title", "curator", "TITLE", 0.9),
        ("Alice Smith", "PERSON", "per:age", "44", "NUMBER", 0.5),
    ])
    b = _fills_ds([
        ("Alice Smith", "PERSON", "per:title", "curator", "TITLE", 0.7),
        ("Bob Jones", "PERSON", "per:title", "surgeon", "TITLE", 0.8),
    ])
    out = graph_infer.intersect_fills(a, b).take_all()
    assert len(out) == 1
    r = out[0]
    assert (r["subj"], r["pred"], r["obj"]) == \
        ("Alice Smith", "per:title", "curator")
    assert r["score"] == 0.7                   # conservative min
    assert r["doc_id"] == "d0"                 # provenance from side A


def test_intersect_fills_empty_side(ray_session):
    a = _fills_ds([
        ("Alice Smith", "PERSON", "per:title", "curator", "TITLE", 0.9),
    ])
    b = _fills_ds([])
    assert graph_infer.intersect_fills(a, b).take_all() == []


def test_intersect_fills_disjoint_keeps_schema(ray_session):
    a = _fills_ds([
        ("Alice Smith", "PERSON", "per:title", "curator", "TITLE", 0.9),
    ])
    b = _fills_ds([
        ("Bob Jones", "PERSON", "per:title", "surgeon", "TITLE", 0.8),
    ])
    out = graph_infer.intersect_fills(a, b).materialize()
    assert out.count() == 0
    assert out.schema().base_schema == FILLS_SCHEMA


def _edge(s, p, o, st="ORGANIZATION", ot="ORGANIZATION", score=0.9):
    return {"subj": s, "subj_type": st, "pred": p, "obj": o,
            "obj_type": ot, "score": score, "doc_id": "d0",
            "sent_idx": 0, "subj_span": [0, 1], "obj_span": [2, 3]}


def test_prune_by_distance(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages.graph_infer import \
        prune_by_distance
    # chain Q -> A -> B -> C -> D -> E plus a disconnected X -> Y
    chain = [_edge("Q", "org:parents", "A"),
             _edge("A", "org:parents", "B"),
             _edge("B", "org:parents", "C"),
             _edge("C", "org:parents", "D"),
             _edge("D", "org:parents", "E"),
             _edge("X", "org:parents", "Y")]
    ds = rd.from_arrow(pa.Table.from_pylist(chain, schema=FILLS_SCHEMA))
    kept = {r["subj"] for r in
            prune_by_distance(ds, ["Q"], max_dist=2).take_all()}
    # subjects within distance 2 of Q: Q, A, B (C is at distance 3)
    assert kept == {"Q", "A", "B"}
    ds2 = rd.from_arrow(pa.Table.from_pylist(chain, schema=FILLS_SCHEMA))
    kept4 = {r["subj"] for r in
             prune_by_distance(ds2, ["Q"], max_dist=4).take_all()}
    assert "X" not in kept4 and "D" in kept4


def test_mine_rules(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages.graph_infer import \
        mine_rules
    rows = []
    # 3 supported instances of parents∘parents => parents
    for i in range(3):
        rows += [_edge(f"A{i}", "org:parents", f"B{i}"),
                 _edge(f"B{i}", "org:parents", f"C{i}"),
                 _edge(f"A{i}", "org:parents", f"C{i}")]
    # 1 unsupported path of the same shape
    rows += [_edge("A9", "org:parents", "B9"),
             _edge("B9", "org:parents", "C9")]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=FILLS_SCHEMA))
    mined = mine_rules(ds, min_support=2, min_confidence=0.3)
    got = {(r.p, r.q, r.head): (r.support, r.total, round(r.confidence, 3))
           for r in mined.itertuples()}
    assert ("org:parents", "org:parents", "org:parents") in got
    sup, total, conf = got[("org:parents", "org:parents",
                            "org:parents")]
    assert sup == 3 and total == 4 and conf == 0.75


# --------------------------------------------------------------------------
# the two kernels and the mirror map against the loops they replaced
# --------------------------------------------------------------------------

NODES = ["a", "b", "c", "d", "e", "f"]
PREDS = ["org:parents", "org:member_of", "per:member_of", "per:spouse",
         "per:children", "org:founded"]
TYPES = ["PERSON", "ORGANIZATION", "DATE"]
edges = st.lists(st.tuples(
    st.sampled_from(NODES), st.sampled_from(PREDS), st.sampled_from(NODES),
    st.sampled_from(TYPES), st.sampled_from(TYPES),
    st.sampled_from([0.25, 0.5, 0.9, 1.0])), max_size=14)
RULES = graph_infer.DEFAULT_RULES + (
    ("org:parents", "org:parents", "org:member_of"),
    ("per:spouse", "per:children", "per:children"))


def _table(es) -> pa.Table:
    return pa.Table.from_pylist(
        [{"subj": s, "subj_type": st_, "pred": p, "obj": o,
          "obj_type": ot, "score": sc, "doc_id": f"d{i}",
          "sent_idx": i % 3, "subj_span": [i, i + 1],
          "obj_span": [i + 2, i + 3]}
         for i, (s, p, o, st_, ot, sc) in enumerate(es)],
        schema=FILLS_SCHEMA)


def _blocks(table: pa.Table, n: int):
    import ray.data as rd
    step = -(-table.num_rows // n) or 1
    return rd.from_arrow([table.slice(i * step, step) for i in range(n)])


def _collect(ds) -> pa.Table:
    """The rows of ``ds`` in ``FILLS_SCHEMA`` (pandas blocks may hold the
    spans as Ray tensor columns)."""
    return pa.Table.from_pylist(
        [{k: v.tolist() if hasattr(v, "tolist") else v
          for k, v in r.items()} for r in ds.take_all()],
        schema=FILLS_SCHEMA)


def _sorted(t: pa.Table) -> pa.Table:
    """``t`` in one canonical row order (lists included)."""
    t = t.replace_schema_metadata(None).combine_chunks()
    keys = [repr(sorted(r.items())) for r in t.to_pylist()]
    return t.take(pa.array(sorted(range(t.num_rows), key=keys.__getitem__),
                           pa.int64()))


@settings(max_examples=150, deadline=None)
@given(edges)
def test_mirror_rows_equals_former_loop(es):
    t = _table(es)
    assert graph_infer._mirror_rows(t).equals(mirror_rows_loop(t))


@settings(max_examples=8, deadline=None)
@given(edges)
def test_symmetric_rewrite_equals_former_loop(ray_session, es):
    t = _table(es)
    want = _sorted(_collect(graph_infer._max_combine(
        _blocks(mirror_rows_loop(t), 1))))
    for n in (1, 4):
        got = _collect(graph_infer.symmetric_inverse_rewrite(_blocks(t, n)))
        assert _sorted(got).equals(want)


@settings(max_examples=10, deadline=None)
@given(edges, st.lists(st.tuples(st.sampled_from(NODES + ["zz"]),
                                 st.sampled_from(["q1", "q2"])),
                       max_size=4),
       st.integers(0, 3))
def test_neighborhood_equals_bfs(ray_session, es, seeds, max_dist):
    t = _table(es)
    seed_map: dict = {}
    for node, q in seeds:
        seed_map.setdefault(node, set()).add(q)
    want = neighborhood_bfs(t, seed_map, max_dist)
    want_t = _sorted(pa.table(
        {"node": [n for n, _q in want], "q": [q for _n, q in want]},
        schema=graph_infer.MEMBER_SCHEMA))
    # prune_by_distance: the same walk with one label, then a subject filter
    qs = sorted({n for n, _q in seeds})
    near = {n for n, _q in neighborhood_bfs(t, {q: {""} for q in qs},
                                            max_dist)}
    kept = _sorted(t.filter(pa.array(
        [s in near for s in t.column("subj").to_pylist()], pa.bool_())))
    seed_t = pa.table({"node": [n for n, _q in seeds],
                       "q": [q for _n, q in seeds]},
                      schema=graph_infer.MEMBER_SCHEMA)
    for n in (1, 4):
        got = graph_infer.neighborhood(_blocks(t, n), seed_t, max_dist)
        assert _sorted(got).equals(want_t)
        pruned = graph_infer.prune_by_distance(_blocks(t, n), qs, max_dist)
        assert _sorted(_collect(pruned)).equals(kept)


@settings(max_examples=8, deadline=None)
@given(edges)
def test_transitive_equals_former_loop(ray_session, es):
    t = _table(es)
    want = _sorted(_collect(graph_infer._max_combine(_blocks(
        transitive_join_loop(t, RULES, graph_infer.RULE_DAMPING), 1))))
    for n in (1, 4):
        got = graph_infer.transitive_infer(_blocks(t, n), RULES)
        assert _sorted(_collect(got)).equals(want)


MINED_SCHEMA = pa.schema([("p", pa.string()), ("q", pa.string()),
                          ("head", pa.string()), ("support", pa.int64()),
                          ("total", pa.int64()),
                          ("confidence", pa.float64())])


@settings(max_examples=8, deadline=None)
@given(edges)
def test_mine_rules_equals_former_loop(ray_session, es):
    t = _table(es)
    want = pa.Table.from_pandas(
        mine_rules_loop(t, min_support=1, min_confidence=0.0),
        schema=MINED_SCHEMA, preserve_index=False)
    for n in (1, 4):
        got = graph_infer.mine_rules(_blocks(t, n), min_support=1,
                                     min_confidence=0.0)
        got = pa.Table.from_pandas(got, schema=MINED_SCHEMA,
                                   preserve_index=False)
        assert _sorted(got).equals(_sorted(want))
