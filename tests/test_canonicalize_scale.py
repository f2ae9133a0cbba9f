"""Label-propagation canonicalization (the above-gate Dataset tier)
equals the driver tier, and converges on multi-hop chains."""

import pyarrow as pa
import pytest

from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
from stanford_relation_extractor_ray.stages import canonicalize as C


def _fill(subj, subj_type="PERSON", obj="Toronto", obj_type="CITY",
          score=0.9):
    return {"subj": subj, "subj_type": subj_type,
            "pred": "per:cities_of_residence" if subj_type == "PERSON"
            else "org:city_of_headquarters",
            "obj": obj, "obj_type": obj_type, "score": score,
            "doc_id": "d0", "sent_idx": 0,
            "subj_span": [0, 2], "obj_span": [5, 6]}


@pytest.fixture()
def variant_fills(ray_session):
    import ray.data as rd
    rows = [
        # 3-surface variant cluster sharing the "acme" block (nickname
        # and acronym variants are the LINKER's job upstream; the
        # canonicalize stage merges shared-token residual variants)
        _fill("Acme Dynamics Corporation", "ORGANIZATION", score=0.8),
        _fill("Acme Dynamics", "ORGANIZATION", score=0.3),
        _fill("Acme Dynamics Corp", "ORGANIZATION", score=0.5),
        _fill("Julie Laurent", score=0.7),         # singleton
    ]
    return rd.from_arrow(
        pa.Table.from_pylist(rows, schema=FILLS_SCHEMA)).materialize()


def _rows(t, cols):
    df = t.to_pandas()
    return sorted(zip(*(df[c].tolist() for c in cols)))


def test_propagation_equals_union_find(ray_session, variant_fills):
    """Driver canonical_map (union-find over the driver surface
    aggregate) == canonical_map_ds (label propagation over the Dataset
    surface aggregate): same surfaces, clusters and representatives."""
    import ray
    tbl = pa.concat_tables(ray.get(variant_fills.to_arrow_refs()))
    surf_uf = C.surface_weights(tbl)
    surf_lp = C._surface_table(variant_fills).materialize()
    assert [(n, t, round(w, 9)) for n, t, w in
            _rows(surf_lp, ["name", "type", "weight"])] == \
        [(n, t, round(w, 9)) for n, t, w in
         _rows(surf_uf, ["name", "type", "weight"])]
    cmap_uf = _rows(C.canonical_map(surf_uf), ["name", "type", "rep"])
    # non-trivial cluster actually formed, rep = highest weight
    rep = {(n, t): r for n, t, r in cmap_uf}
    assert rep[("Acme Dynamics", "ORGANIZATION")] == \
        "Acme Dynamics Corporation"
    assert rep[("Acme Dynamics Corp", "ORGANIZATION")] == \
        "Acme Dynamics Corporation"
    assert rep[("Julie Laurent", "PERSON")] == "Julie Laurent"
    cmap_lp = C.canonical_map_ds(surf_lp)
    assert _rows(cmap_lp, ["name", "type", "rep"]) == cmap_uf


def test_make_nodes_equals_loop_reference():
    """The vectorized node assembly == the per-row dict/set loop it
    replaced: one node per (rep, type), sorted, merged-away names as
    sorted aliases, id = crc32 of name|type."""
    import zlib
    rows = [("Bo X", "PERSON", "Bo"), ("Bo", "PERSON", "Bo"),
            ("Al", "PERSON", "Bo"), ("Bo", "ORGANIZATION", "Bo"),
            ("Zed", "ORGANIZATION", "Zed"), ("Yo", "ORGANIZATION", "Zed")]
    aliases: dict[tuple, set] = {}
    for name, etype, rep in rows:
        aliases.setdefault((rep, etype), set())
        if name != rep:
            aliases[(rep, etype)].add(name)
    want = [(f"e{zlib.crc32(f'{n}|{t}'.encode()):08x}", n, t,
             sorted(aliases[(n, t)])) for n, t in sorted(aliases)]
    cmap = pa.table({k: [r[i] for r in rows]
                     for i, k in enumerate(("name", "type", "rep"))})
    got = C.make_nodes(cmap)
    assert [tuple(r.values()) for r in got.to_pylist()] == want
    assert C.make_nodes(cmap.slice(0, 0)).num_rows == 0


def test_propagate_components_multi_hop(ray_session):
    """A 4-node chain needs >1 propagation round; all nodes must end
    on one root."""
    import ray.data as rd
    pairs = rd.from_items([
        {"a": "A", "b": "B", "type": "PERSON"},
        {"a": "B", "b": "C", "type": "PERSON"},
        {"a": "C", "b": "D", "type": "PERSON"},
        {"a": "X", "b": "Y", "type": "PERSON"},    # second component
    ])
    rows = C.propagate_components_ds(pairs).to_pandas() \
        .to_dict("records")
    roots = {r["node"]: r["label"] for r in rows}
    assert len({roots[k] for k in ("A|PERSON", "B|PERSON", "C|PERSON",
                                   "D|PERSON")}) == 1
    assert len({roots["X|PERSON"], roots["Y|PERSON"]}) == 1
    assert roots["A|PERSON"] != roots["X|PERSON"]


def test_cc_ds_gate_paths_equal(ray_session, monkeypatch):
    """connected_components_ds: driver union-find (small gate) ==
    min-label propagation (scale path)."""
    import ray.data as rd
    from stanford_relation_extractor_ray.stages import dedup as D
    pairs = rd.from_items([
        {"id_a": 1, "id_b": 2}, {"id_a": 2, "id_b": 30},
        {"id_a": 400, "id_b": 5}, {"id_a": 9, "id_b": 10},
        # negative and above-2**32 ids keep numeric min order
        {"id_a": -3, "id_b": -7}, {"id_a": 2**40, "id_b": -3},
    ])
    small = D.connected_components_ds(pairs)
    monkeypatch.setattr(D, "SMALL_CC_PAIRS", 0)
    large = D.connected_components_ds(pairs)
    assert small == large
    roots = {r["id"]: r["root"] for r in small}
    assert roots[30] == 1 and roots[400] == 5 and roots[10] == 9
    assert roots[-3] == roots[2**40] == -7


def test_propagate_components_long_chain_pointer_jumping(ray_session):
    """A 16-hop chain converges in ≤8 rounds: the per-round
    label↔node links collapse chains in O(log diameter) rounds
    (plain min-propagation would need 16); the loop raises rather
    than returning unconverged labels. (A 40-chain inside max_iter=10
    is verified the same way, but each round is a fixed-latency Ray
    execution, too slow for the suite.)"""
    import ray.data as rd
    pairs = rd.from_items([
        {"a": f"N{i:03d}", "b": f"N{i + 1:03d}", "type": "ORGANIZATION"}
        for i in range(16)])
    rows = C.propagate_components_ds(pairs, max_iter=8).to_pandas() \
        .to_dict("records")
    roots = {r["node"]: r["label"] for r in rows}
    assert set(roots.values()) == {"N000|ORGANIZATION"}


def test_build_graph_distributed_tier_equals_driver(
        ray_session, variant_fills, monkeypatch):
    """Above the gate, build_graph runs the Dataset tier (Dataset-only
    canonical map, co-partition rewrite joins, distributed nodes) —
    same nodes and edges (scores at the round-9 resolution of the
    surface aggregate) as the driver tier, on the variant cluster and
    on the consistent fills of a 150-doc corpus."""
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines import kg

    def norm_nodes(obj):
        df = obj.to_pandas()
        df["aliases"] = df["aliases"].map(list)
        return sorted(map(tuple, df.to_numpy().tolist()))

    def norm_edges(ds):
        df = ds.to_pandas()
        df["score"] = df["score"].round(9)
        return sorted(map(tuple, df.to_numpy().tolist()))

    corpus = kg.finalize_fills(
        kg.extract_fills(documents_dataset(150))).materialize()
    inputs = [variant_fills, corpus]
    small = []
    for fills in inputs:
        nodes, edges = kg.build_graph(fills)
        assert isinstance(nodes, pa.Table)          # the driver tier
        small.append((norm_nodes(nodes), norm_edges(edges)))
    assert len(small[1][1]) > 100
    assert any(row[3] for row in small[1][0])    # aliases were merged
    monkeypatch.setattr(C, "SMALL_SURFACES", 0)
    for fills, (n_small, e_small) in zip(inputs, small):
        nodes_big, edges_big = kg.build_graph(fills)
        # the Dataset tier produced a Dataset, not a Table
        assert not isinstance(nodes_big, pa.Table)
        assert norm_nodes(nodes_big) == n_small
        assert norm_edges(edges_big) == e_small
