"""End-to-end pipeline tests: triple parity vs the reference-semantics
oracle (P/R ≥ 0.95 — BASELINE.md rebuild target), span-sequence
invariant, and checkpoint resume."""

import shutil

import pytest

from stanford_relation_extractor_ray.corpus import (documents_dataset,
                                                    gold_triple_set)
from stanford_relation_extractor_ray.oracle import OracleExtractor

N_DOCS = 200


@pytest.fixture(scope="module")
def consistent_fills(ray_session):
    from stanford_relation_extractor_ray.pipelines.kg import (
        extract_fills, finalize_fills)
    fills = extract_fills(documents_dataset(N_DOCS))
    return finalize_fills(fills).materialize().take_all()


def _pr(a, b):
    tp = len(a & b)
    return tp / max(1, len(a)), tp / max(1, len(b))


def test_parity_vs_oracle(consistent_fills):
    got = {(r["subj"], r["pred"], r["obj"]) for r in consistent_fills}
    orc = OracleExtractor().extract(N_DOCS)
    p, r = _pr(got, orc)
    assert p >= 0.95 and r >= 0.95, (p, r)


def test_parity_vs_gold(consistent_fills):
    got = {(r["subj"], r["pred"], r["obj"]) for r in consistent_fills}
    # the default pipeline postprocess chain timex-normalizes dates;
    # compare against the same-normalized gold (reference scorer
    # semantics)
    gold = gold_triple_set(N_DOCS, timex_dates=True)
    p, r = _pr(got, gold)
    assert p >= 0.95 and r >= 0.95, (p, r)


def test_span_invariant(ray_session):
    from stanford_relation_extractor_ray.pipelines.kg import \
        passthrough_documents
    src = {r["doc_id"]: r["spans"]
           for r in documents_dataset(60).take_all()}
    out = passthrough_documents(documents_dataset(60)).take_all()
    assert len(out) == len(src)
    for r in out:
        assert r["spans"] == src[r["doc_id"]], r["doc_id"]


def test_graph_build(ray_session, consistent_fills):
    import pyarrow as pa
    import ray.data as rd
    from stanford_relation_extractor_ray.pipelines.kg import build_graph
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    fills_ds = rd.from_arrow(
        pa.Table.from_pylist(consistent_fills, schema=FILLS_SCHEMA))
    nodes, edges = build_graph(fills_ds)
    node_names = set(nodes.column("name").to_pylist())
    edge_rows = edges.take_all()
    assert edge_rows and node_names
    # every edge subject resolves to a node
    assert {e["subj"] for e in edge_rows} <= node_names
    # canonicalization merged alias surface forms into node aliases
    alias_lists = nodes.column("aliases").to_pylist()
    assert any(alias_lists)


def test_checkpoint_resume(ray_session, tmp_path):
    from stanford_relation_extractor_ray.pipelines.kg import run_kg
    ckpt = str(tmp_path / "ckpt")
    out1 = run_kg(80, checkpoint_dir=ckpt, n_shards=2)
    t1 = {(r["subj"], r["pred"], r["obj"])
          for r in out1["fills"].take_all()}
    # kill one partition → rerun recomputes only it, same result
    shutil.rmtree(tmp_path / "ckpt" / "fills" / "part=0001")
    out2 = run_kg(80, checkpoint_dir=ckpt, n_shards=2)
    t2 = {(r["subj"], r["pred"], r["obj"])
          for r in out2["fills"].take_all()}
    assert t1 == t2


def test_pipeline_version_bump_recomputes_every_shard(ray_session,
                                                     tmp_path,
                                                     monkeypatch):
    """A checkpoint written by older code is never reused silently:
    bumping ``PIPELINE_VERSION`` recomputes every shard (an unchanged
    rerun recomputes none), and the rerun's kg_triples are
    byte-identical."""
    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.state.manifest import Manifest

    committed = []
    commit = Manifest.commit

    def spy(self, partition, input_digest, row_count):
        committed.append(partition)
        commit(self, partition, input_digest, row_count)

    monkeypatch.setattr(Manifest, "commit", spy)
    cols = ["subj", "subj_type", "pred", "obj", "obj_type", "doc_id",
            "sent_idx"]

    def kg_triples() -> str:
        committed.clear()
        out = kg.run_kg(80, checkpoint_dir=str(tmp_path / "ckpt"),
                        n_shards=2)
        return out["fills"].to_pandas()[cols].sort_values(cols) \
            .to_csv(index=False)

    first = kg_triples()
    assert committed == ["0000", "0001"] and first.count("\n") > 10
    assert kg_triples() == first and committed == []
    monkeypatch.setattr(kg, "PIPELINE_VERSION", kg.PIPELINE_VERSION + 1)
    assert kg_triples() == first
    assert committed == ["0000", "0001"]


def test_fast_path_equals_bag_path(ray_session):
    """CandidateScorer partial noisy-or == bag assembly + bag scorer
    (noisy-or distributes over bag partitions). The bag path is the
    literal reference dataflow, chained from the public stages."""
    from stanford_relation_extractor_ray.pipelines.kg import (
        extract_fills, finalize_fills)
    from stanford_relation_extractor_ray.stages import (
        bags, classify, featurize, link, mentions, nlp)
    fast = finalize_fills(
        extract_fills(documents_dataset(120))).take_all()
    cands = link.link(mentions.pair(nlp.annotate(documents_dataset(120))))
    bagged = bags.assemble(featurize.featurize(cands))
    bag = finalize_fills(classify.classify(bagged)).take_all()
    key = lambda r: (r["subj"], r["pred"], r["obj"])
    fast_scores = {key(r): round(r["score"], 9) for r in fast}
    bag_scores = {key(r): round(r["score"], 9) for r in bag}
    assert fast_scores == bag_scores


def test_postprocess_gate_paths_equal(ray_session, monkeypatch):
    """Driver-side unary chain (below SMALL_FILLS) == distributed
    gloss join + apply_unary (above it) — same fills, same provenance."""
    import stanford_relation_extractor_ray.pipelines.kg as kg

    def run():
        fills = kg.extract_fills(documents_dataset(60))
        return sorted(
            (r["subj"], r["pred"], r["obj"], r["doc_id"], r["sent_idx"])
            for r in kg.finalize_fills(fills).take_all())

    fast = run()
    monkeypatch.setattr(kg, "SMALL_FILLS", 0)   # force distributed
    dist = run()
    assert fast == dist and len(fast) > 50


def test_merge_fills_table_equals_pandas_kernel():
    """merge_fills_table (Arrow/numpy) is bit-identical to
    merge_fills_df (pandas) — including a hot triple whose group is
    large enough (>>128 rows) to expose any non-sequential product
    order, score ties, and single-provenance triples."""
    import numpy as np
    import pyarrow as pa
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages.classify import (
        merge_fills_df, merge_fills_table)

    rng = np.random.default_rng(7)
    n = 2000
    # ~300 distinct triples plus one hot triple taking ~400 rows
    tri = rng.integers(0, 300, n)
    tri[rng.random(n) < 0.2] = 7
    subj = [f"ent {t % 40}" for t in tri]
    pred = [f"rel:{t % 11}" for t in tri]
    obj = [f"val {t}" for t in tri]
    score = rng.uniform(0.05, 0.95, n)
    score[rng.random(n) < 0.3] = 0.5           # provenance-score ties
    t = pa.Table.from_arrays(
        [pa.array(subj), pa.array(["PERSON"] * n), pa.array(pred),
         pa.array(obj), pa.array(["TITLE"] * n),
         pa.array(score, pa.float64()),
         pa.array([f"doc{int(i)}" for i in rng.integers(0, 50, n)]),
         pa.array(rng.integers(0, 9, n), pa.int32()),
         pa.array([[0, 1]] * n, pa.list_(pa.int32())),
         pa.array([[2, 3]] * n, pa.list_(pa.int32()))],
        schema=FILLS_SCHEMA).append_column(
            "prov_score", pa.array(score * 0.9, pa.float64()))

    cols = list(FILLS_SCHEMA.names) + ["prov_score"]
    want = merge_fills_df(t.to_pandas(), cols)
    got = merge_fills_table(t)
    want_t = pa.Table.from_arrays(
        [pa.array(want[nm].tolist(), ty) for nm, ty in
         zip(cols, list(FILLS_SCHEMA.types) + [pa.float64()])],
        names=cols)
    assert got.equals(want_t)


def test_graph_driver_tier_equals_mid_tier(ray_session):
    """build_graph's zero-execution driver tier (fills tiny enough that
    2·count bounds the surface universe below SMALL_SURFACES) produces
    the same nodes and the same edges (scores compared at the round-9
    resolution the surface aggregate documents) as the mixed dataflow
    chained from the surviving kernels: Dataset surface aggregate,
    driver canonical map, Dataset co-partition rewrite and merge."""
    import pyarrow as pa
    import ray.data as rd

    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.stages import canonicalize as C
    from stanford_relation_extractor_ray.stages.classify import (
        combine_fills)

    cons = kg.finalize_fills(
        kg.extract_fills(documents_dataset(150))).materialize()
    nodes_fast, edges_fast = kg.build_graph(cons)

    surfaces = pa.Table.from_pylist(
        C._surface_table(cons).select_columns(
            ["name", "type", "weight"]).take_all())
    cmap = C.canonical_map(surfaces)
    nodes_mid = C.make_nodes(cmap)
    edges_mid = combine_fills(C.apply_canonical_join(
        cons, rd.from_arrow(cmap))).map_batches(
            C._to_edges, batch_format="pyarrow")

    def nkey(d):
        return (d["entity_id"], d["name"], d["type"],
                tuple(d["aliases"]))

    assert sorted(map(nkey, nodes_fast.to_pylist())) == \
        sorted(map(nkey, nodes_mid.to_pylist()))
    assert any(d["aliases"] for d in nodes_fast.to_pylist())

    def ekey(r):
        return tuple(round(v, 9) if isinstance(v, float) else v
                     for v in r.values())

    ef = sorted(ekey(r) for r in edges_fast.take_all())
    em = sorted(ekey(r) for r in edges_mid.take_all())
    assert ef == em and len(ef) > 100
