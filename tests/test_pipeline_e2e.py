"""End-to-end pipeline tests: triple parity vs the reference-semantics
oracle (P/R ≥ 0.95 — BASELINE.md rebuild target), span-sequence
invariant, and checkpoint resume."""

import shutil

import pytest

from stanford_relation_extractor_ray.corpus import (documents_dataset,
                                                    gold_triple_set)

from oracle_extractor import OracleExtractor

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
    """An identity re-emission of documents keeps every span, media
    spans included, in order."""
    src = {r["doc_id"]: r["spans"]
           for r in documents_dataset(60).take_all()}
    out = documents_dataset(60).map_batches(
        lambda b: b, batch_format="pyarrow").take_all()
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


def _commit_spy(monkeypatch) -> list:
    """Record ``(stage, partition)`` of every ``Manifest.commit``."""
    import os

    from stanford_relation_extractor_ray.state.manifest import Manifest

    committed = []
    commit = Manifest.commit

    def spy(self, partition, input_digest):
        committed.append((os.path.basename(self.dir), partition))
        commit(self, partition, input_digest)

    monkeypatch.setattr(Manifest, "commit", spy)
    return committed


_TRIPLE_COLS = ["subj", "subj_type", "pred", "obj", "obj_type", "doc_id",
                "sent_idx"]


def _triples(out) -> str:
    return out["fills"].to_pandas()[_TRIPLE_COLS] \
        .sort_values(_TRIPLE_COLS).to_csv(index=False)


def _kg_triples(ckpt: str) -> str:
    from stanford_relation_extractor_ray.pipelines import kg
    return _triples(kg.run_kg(80, checkpoint_dir=ckpt, n_shards=2))


def test_checkpoint_resume(ray_session, tmp_path, monkeypatch):
    from stanford_relation_extractor_ray.pipelines.kg import run_kg
    ckpt = str(tmp_path / "ckpt")
    out1 = run_kg(80, checkpoint_dir=ckpt, n_shards=2)
    t1 = {(r["subj"], r["pred"], r["obj"])
          for r in out1["fills"].take_all()}
    # kill one partition → rerun recomputes only it and rewrites the
    # graph boundary, same result
    shutil.rmtree(tmp_path / "ckpt" / "fills" / "part=0001")
    committed = _commit_spy(monkeypatch)
    out2 = run_kg(80, checkpoint_dir=ckpt, n_shards=2)
    t2 = {(r["subj"], r["pred"], r["obj"])
          for r in out2["fills"].take_all()}
    assert t1 == t2
    assert committed == [("fills", "0001"), ("graph", "0000")]


def test_resume_reads_the_graph_boundary(ray_session, tmp_path,
                                         monkeypatch):
    """A resume of a complete driver-tier checkpoint reads the graph
    boundary back: zero Ray Data executions, no commit, and fills,
    nodes and edges equal to the first call's."""
    from ray.data._internal.plan import ExecutionPlan

    from stanford_relation_extractor_ray.pipelines.kg import run_kg
    from stanford_relation_extractor_ray.runtime import collect_table
    from stanford_relation_extractor_ray.schemas import (EDGES_SCHEMA,
                                                         FILLS_SCHEMA)

    def tables(out):
        return (collect_table(out["fills"], FILLS_SCHEMA), out["nodes"],
                collect_table(out["edges"], EDGES_SCHEMA))

    ckpt = str(tmp_path / "ckpt")
    first = tables(run_kg(80, checkpoint_dir=ckpt, n_shards=2))
    committed = _commit_spy(monkeypatch)
    started = []
    create = ExecutionPlan.create_executor

    def spy(self, *args, **kwargs):
        started.append(self)
        return create(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "create_executor", spy)
    resumed = tables(run_kg(80, checkpoint_dir=ckpt, n_shards=2))
    assert started == [] and committed == []
    assert all(a.equals(b) for a, b in zip(first, resumed))
    assert first[0].num_rows > 10 and first[1].num_rows > 5


def test_graph_boundary_dataset_tier_round_trips(ray_session, tmp_path,
                                                 monkeypatch):
    """Above the gates the boundary is written and read by Ray Data: the
    resume returns Datasets (nodes too) with the first call's rows."""
    import pyarrow as pa

    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.stages import canonicalize

    monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    monkeypatch.setattr(canonicalize, "SMALL_SURFACES", 0)
    ckpt = str(tmp_path / "ckpt")

    def rows(out):
        return {k: sorted(map(repr, out[k].take_all()))
                for k in ("fills", "nodes", "edges")}

    first = rows(kg.run_kg(80, checkpoint_dir=ckpt, n_shards=2))
    committed = _commit_spy(monkeypatch)
    resumed = kg.run_kg(80, checkpoint_dir=ckpt, n_shards=2)
    assert committed == [] and not isinstance(resumed["nodes"], pa.Table)
    assert rows(resumed) == first and len(first["edges"]) > 10


def test_out_dir_holds_the_returned_graph(ray_session, tmp_path):
    """``run_kg(out_dir=...)`` writes the nodes and edges it returns
    (driver tier: nodes a ``pa.Table``) under ``nodes/`` and
    ``edges/``."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from stanford_relation_extractor_ray.pipelines.kg import run_kg
    from stanford_relation_extractor_ray.runtime import (collect_table,
                                                         materialized)
    from stanford_relation_extractor_ray.schemas import (EDGES_SCHEMA,
                                                         NODES_SCHEMA)

    out_dir = str(tmp_path / "out")
    out = run_kg(80, out_dir=out_dir)
    assert isinstance(out["nodes"], pa.Table)
    for name, schema, want in (
            ("nodes", NODES_SCHEMA, out["nodes"]),
            ("edges", EDGES_SCHEMA,
             collect_table(materialized(out["edges"]), EDGES_SCHEMA))):
        got = pq.read_table(os.path.join(out_dir, name)).cast(schema)
        keys = [(f.name, "ascending") for f in schema
                if not pa.types.is_list(f.type)]
        assert want.num_rows > 5, name
        assert got.sort_by(keys).equals(want.sort_by(keys)), name


def test_dataset_tier_checkpoint_keeps_provenance(ray_session, tmp_path,
                                                  monkeypatch):
    """Above the gates the shard files go through a Ray Data read that
    keeps every column they hold (``prov_score`` picks each merged
    fill's provenance): a checkpointed call and its resume give the
    fills of a call without a checkpoint, scores and provenance
    included."""
    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.runtime import collect_table
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages import canonicalize

    monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    monkeypatch.setattr(canonicalize, "SMALL_SURFACES", 0)

    def fills(**kw):
        ds = kg.run_kg(80, n_shards=2, **kw)["fills"].materialize()
        return collect_table(ds, FILLS_SCHEMA).sort_by(
            [(c, "ascending") for c in _TRIPLE_COLS])

    plain = fills()
    ckpt = str(tmp_path / "ckpt")
    assert plain.num_rows > 10
    assert fills(checkpoint_dir=ckpt).equals(plain)
    assert fills(checkpoint_dir=ckpt).equals(plain)


def test_resharded_checkpoint_reads_only_its_shards(ray_session,
                                                    tmp_path):
    """Shards committed under another ``n_shards`` stay in the manifest
    but are not read: after a 4-shard run, a 2-shard rerun over the
    same checkpoint gives the fresh 2-shard run's fills, scores
    included."""
    from stanford_relation_extractor_ray.pipelines.kg import run_kg

    def fills(ckpt, n_shards):
        df = run_kg(80, checkpoint_dir=str(ckpt), n_shards=n_shards)[
            "fills"].to_pandas()[_TRIPLE_COLS + ["score"]]
        return df.sort_values(_TRIPLE_COLS).to_csv(index=False)

    run_kg(80, checkpoint_dir=str(tmp_path / "ckpt"), n_shards=4)
    assert fills(tmp_path / "ckpt", 2) == fills(tmp_path / "fresh", 2)


def test_truncated_part_files_recompute(ray_session, tmp_path,
                                        monkeypatch):
    """A truncated part file fails its Parquet footer check: the rerun
    recomputes exactly the partition it belongs to — one shard and
    then the graph boundary, or the boundary alone — and the
    kg_triples stay byte-identical."""
    import glob
    import os

    ckpt = str(tmp_path / "ckpt")
    first = _kg_triples(ckpt)
    committed = _commit_spy(monkeypatch)

    def truncate(stage: str, partition: str) -> None:
        path = sorted(glob.glob(os.path.join(
            ckpt, stage, f"part={partition}", "**", "*.parquet"),
            recursive=True))[0]
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)

    truncate("fills", "0001")
    assert _kg_triples(ckpt) == first
    assert committed == [("fills", "0001"), ("graph", "0000")]
    committed.clear()
    truncate("graph", "0000")
    assert _kg_triples(ckpt) == first
    assert committed == [("graph", "0000")]


def test_pipeline_version_bump_recomputes_every_shard(ray_session,
                                                     tmp_path,
                                                     monkeypatch):
    """A checkpoint written by older code is never reused silently:
    bumping ``PIPELINE_VERSION`` recomputes every shard and the graph
    boundary once (an unchanged rerun recomputes none), and the rerun's
    kg_triples are byte-identical."""
    import stanford_relation_extractor_ray.pipelines.kg as kg

    log = _commit_spy(monkeypatch)
    ckpt = str(tmp_path / "ckpt")

    def kg_triples() -> str:
        log.clear()
        return _kg_triples(ckpt)

    def committed(stage: str) -> list:
        return [p for s, p in log if s == stage]

    first = kg_triples()
    assert committed("fills") == ["0000", "0001"] \
        and first.count("\n") > 10
    assert kg_triples() == first and committed("fills") == []
    assert committed("graph") == []
    monkeypatch.setattr(kg, "PIPELINE_VERSION", kg.PIPELINE_VERSION + 1)
    assert kg_triples() == first
    assert committed("fills") == ["0000", "0001"]
    assert committed("graph") == ["0000"]


def _shard_tables(ckpt: str) -> dict:
    """{part: its committed partial fills, read as ``run_kg`` reads
    them}."""
    from stanford_relation_extractor_ray.pipelines import kg
    from stanford_relation_extractor_ray.stages.classify import \
        PARTIAL_SCHEMA
    from stanford_relation_extractor_ray.state.manifest import Manifest
    man = Manifest(ckpt, "fills")
    return {p: kg._driver_table(man.committed(p), PARTIAL_SCHEMA)
            for p in sorted(man._rows)}


@pytest.mark.parametrize("seed", [42, 7])
def test_committed_shards_equal_serial_chain(ray_session, tmp_path, seed):
    """For shards of at most ``EXTRACT_BATCH`` documents, each shard
    ``run_kg`` commits from its one execution is the table the former
    per-shard serial chain committed: pattern-only (two 2250-doc
    shards, which that chain generated in 2048-doc batches) and trained
    (three 200-doc shards)."""
    from stanford_relation_extractor_ray.pipelines import kg
    from stanford_relation_extractor_ray.pipelines.train import train_lr

    from oracles import checkpoint_shards_serial

    model_ref = ray_session.put(
        train_lr(300, seed, cache_dir=str(tmp_path / "model")))
    for name, n_docs, n_shards, ref in (("pattern", 4500, 2, None),
                                        ("trained", 600, 3, model_ref)):
        serial, ckpt = str(tmp_path / f"{name}-serial"), \
            str(tmp_path / name)
        checkpoint_shards_serial(n_docs, serial, seed=seed, model_ref=ref,
                                 n_shards=n_shards)
        kg.run_kg(n_docs, seed=seed, model_ref=ref, checkpoint_dir=ckpt,
                  n_shards=n_shards)
        want, got = _shard_tables(serial), _shard_tables(ckpt)
        assert list(got) == list(want) == [f"{k:04d}"
                                           for k in range(n_shards)]
        for part, table in want.items():
            assert table.num_rows > 100 and got[part].equals(table), part


@pytest.mark.parametrize("seed,n_docs,n_shards,empty",
                         [(42, 5000, 1, []), (7, 8, 8, ["0004", "0007"])])
def test_kg_triples_equal_serial_chain(ray_session, tmp_path, monkeypatch,
                                       seed, n_docs, n_shards, empty):
    """A pattern-only shard of more than ``EXTRACT_BATCH`` documents (two
    chunk tasks; the serial chain batched it its own way), and
    single-document shards of which two have no fills: ``run_kg``'s
    kg_triples equal those over the serial chain's checkpoint, an empty
    shard commits an empty dir, and no staging dir is left behind."""
    import os

    from stanford_relation_extractor_ray.pipelines import kg
    from stanford_relation_extractor_ray.state.manifest import Manifest

    from oracles import checkpoint_shards_serial

    serial, ckpt = str(tmp_path / "serial"), str(tmp_path / "ckpt")
    checkpoint_shards_serial(n_docs, serial, seed=seed, n_shards=n_shards)
    committed = _commit_spy(monkeypatch)
    want = _triples(kg.run_kg(n_docs, seed=seed, checkpoint_dir=serial,
                              n_shards=n_shards))
    assert committed == [("graph", "0000")] and want.count("\n") > 10
    assert _triples(kg.run_kg(n_docs, seed=seed, checkpoint_dir=ckpt,
                              n_shards=n_shards)) == want
    shards = _shard_tables(ckpt)
    assert [p for p, t in shards.items() if t.num_rows == 0] == empty
    man = Manifest(ckpt, "fills")
    assert all(man.committed(p) == {} and os.path.isdir(
        man.partition_dir(p)) for p in empty)
    assert sorted(os.listdir(man.dir)) == ["_MANIFEST.json"] + [
        f"part={p}" for p in shards]


def test_stale_shards_extract_in_one_execution(ray_session, tmp_path,
                                               monkeypatch):
    """A call with three stale shards starts exactly one Ray Data
    execution (extraction and the staged write; finalize and the graph
    build run in their driver tiers) and leaves the process's
    ``DataContext`` as it was; its resume, and a zero-document call,
    start none."""
    from ray.data import DataContext
    from ray.data._internal.plan import ExecutionPlan

    from stanford_relation_extractor_ray.pipelines.kg import run_kg

    ctx = DataContext.get_current()
    before = (ctx.target_max_block_size,
              ctx.op_resource_reservation_enabled,
              ctx._max_num_blocks_in_streaming_gen_buffer)
    started = []
    create = ExecutionPlan.create_executor

    def spy(self, *args, **kwargs):
        started.append(self)
        return create(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "create_executor", spy)
    ckpt = str(tmp_path / "ckpt")
    first = run_kg(90, checkpoint_dir=ckpt, n_shards=3)
    assert len(started) == 1
    assert DataContext.get_current() is ctx and before == (
        ctx.target_max_block_size, ctx.op_resource_reservation_enabled,
        ctx._max_num_blocks_in_streaming_gen_buffer)
    started.clear()
    assert _triples(run_kg(90, checkpoint_dir=ckpt, n_shards=3)) \
        == _triples(first)
    empty = run_kg(0, checkpoint_dir=str(tmp_path / "zero"))
    assert started == [] and empty["fills"].count() == 0


@pytest.mark.parametrize("n_shards", [0, -1])
def test_checkpointed_run_rejects_non_positive_n_shards(ray_session,
                                                        tmp_path,
                                                        n_shards):
    """With a checkpoint, ``n_shards`` below 1 is a ``ValueError`` that
    names it (0 used to divide by zero, -1 to return an empty graph)."""
    from stanford_relation_extractor_ray.pipelines.kg import run_kg
    with pytest.raises(ValueError, match="n_shards"):
        run_kg(80, checkpoint_dir=str(tmp_path / "ckpt"),
               n_shards=n_shards)


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


@pytest.mark.parametrize("postprocess", [True, False])
@pytest.mark.parametrize("seed", [42, 7])
def test_finalize_tiers_equal_full_rows(ray_session, monkeypatch, seed,
                                        postprocess):
    """finalize_fills' driver tier (partials below SMALL_FILLS) and its
    distributed tier (one shuffle, distributed unary chain) give the
    same rows under the same schema: scores equal at round-9, every
    other column — spans included — exactly equal."""
    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.runtime import collect_table
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages import link

    aliases_ref = link.build_alias_ref(seed)
    partials = kg.extract_fills(documents_dataset(150, seed), seed=seed,
                                aliases_ref=aliases_ref).materialize()

    def run():
        out = kg.finalize_fills(partials, seed=seed,
                                aliases_ref=aliases_ref,
                                postprocess=postprocess).materialize()
        t = collect_table(out, FILLS_SCHEMA)
        rows = sorted(
            tuple(round(v, 9) if isinstance(v, float) else
                  tuple(v) if isinstance(v, list) else v
                  for v in r.values()) for r in t.to_pylist())
        return t.schema.remove_metadata(), rows

    driver = run()
    monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    distributed = run()
    assert driver[0].equals(FILLS_SCHEMA)
    assert driver == distributed and len(driver[1]) > 50


def test_finalize_driver_tier_starts_no_execution(ray_session,
                                                  monkeypatch):
    """On a materialized input below the gate, finalize_fills starts no
    Ray Data execution (with or without the unary chain); forcing the
    distributed tier does start some, so the spy sees executions."""
    from ray.data._internal.plan import ExecutionPlan

    import stanford_relation_extractor_ray.pipelines.kg as kg

    partials = kg.extract_fills(documents_dataset(120)).materialize()
    started = []
    create = ExecutionPlan.create_executor

    def spy(self, *args, **kwargs):
        started.append(self)
        return create(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "create_executor", spy)
    outs = [kg.finalize_fills(partials, postprocess=p)
            for p in (True, False)]
    assert started == []
    assert all(o.count() > 50 for o in outs)
    monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    kg.finalize_fills(partials, postprocess=False).materialize()
    assert started


def test_finalize_distributed_tier_is_one_execution(ray_session,
                                                    monkeypatch):
    """Above the gate, finalize_fills with the unary chain only plans:
    it starts no Ray Data execution before its result is read, and one
    on ``.materialize()`` (the combine, consistency, gloss lookup and
    chain run inside one shuffle)."""
    from ray.data._internal.plan import ExecutionPlan

    import stanford_relation_extractor_ray.pipelines.kg as kg

    partials = kg.extract_fills(documents_dataset(60)).materialize()
    started = []
    create = ExecutionPlan.create_executor

    def spy(self, *args, **kwargs):
        started.append(self)
        return create(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "create_executor", spy)
    monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    out = kg.finalize_fills(partials)
    assert started == []
    out = out.materialize()
    assert len(started) == 1 and out.count() > 20


@pytest.mark.parametrize("postprocess", [True, False])
def test_finalize_distributed_tier_few_fills_keeps_schema(ray_session,
                                                          monkeypatch,
                                                          postprocess):
    """A handful of fills leaves most of the shuffle's partitions empty,
    and some partitions lose every fill to consistency or to the chain;
    the distributed tier still returns exactly ``FILLS_SCHEMA``."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    import stanford_relation_extractor_ray.pipelines.kg as kg
    from stanford_relation_extractor_ray.runtime import shuffle_parts
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA

    def fill(subj, obj, score=0.9):
        return {"subj": subj, "subj_type": "ORGANIZATION",
                "pred": "org:top_members/employees", "obj": obj,
                "obj_type": "PERSON", "score": score,
                "doc_id": "d000000001", "sent_idx": 0,
                "subj_span": [0, 2], "obj_span": [6, 8]}

    fills = rd.from_arrow(pa.Table.from_pylist(
        [fill("Acme Corp", "Jane Doe"),
         fill("Bolt Industries", "Bolt Industries"),     # subj == obj
         fill("Crane Group", "Ann Lee", score=0.001)],   # low score
        schema=FILLS_SCHEMA))
    monkeypatch.setattr(kg, "SMALL_FILLS", 0)
    out = kg.finalize_fills(fills, postprocess=postprocess).materialize()
    blocks = ray.get(out.to_arrow_refs())
    assert shuffle_parts() >= 16 and len(blocks) < shuffle_parts()
    assert all(b.schema.equals(FILLS_SCHEMA) for b in blocks)
    assert out.schema().base_schema.equals(FILLS_SCHEMA)
    assert {r["subj"] for r in out.take_all()} == (
        {"Acme Corp"} if postprocess else {"Acme Corp", "Crane Group"})


def test_document_sentences_equals_loop():
    """The Arrow list-kernel sentence splitter == the per-span loop on
    generated documents with interleaved media spans (whole, sliced,
    and chunked), plus hand-built edge cases: a document opening with
    media, an empty one, media between text spans."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from stanford_relation_extractor_ray.corpus import (DOCUMENTS_SCHEMA,
                                                        _docs_batch)
    from stanford_relation_extractor_ray.pipelines.kg import \
        document_sentences

    from oracles import sentences_loop

    docs = _docs_batch({"id": np.arange(400)}, 42)
    kinds = [[s["kind"] for s in spans]
             for spans in docs.column("spans").to_pylist()]
    # media strictly between two text spans somewhere in the corpus
    assert any("text" in k[:i] and "text" in k[i + 1:]
               for k in kinds for i, kind in enumerate(k)
               if kind != "text")

    def span(kind, text=""):
        return {"kind": kind, "text": text, "media_ref": "", "offset": 0}

    hand = pa.Table.from_pylist([
        {"doc_id": "x1", "spans": [span("image"), span("text", "a"),
                                   span("audio"), span("text", "b")]},
        {"doc_id": "x2", "spans": []},
        {"doc_id": "x3", "spans": [span("text", "c"), span("table")]},
    ], schema=DOCUMENTS_SCHEMA)
    chunked = pa.concat_tables([docs.slice(0, 150), docs.slice(150)])
    for t in (docs, docs.slice(37, 211), chunked, hand, hand.slice(1)):
        want = sentences_loop(t)
        assert document_sentences(t).equals(want)
    assert pc.sum(pc.list_value_length(docs.column("spans"))).as_py() \
        > document_sentences(docs).num_rows > 0


def test_merge_fills_table_equals_pandas_kernel():
    """merge_fills_table (Arrow/numpy) is bit-identical to
    merge_fills_df (pandas) — including a hot triple whose group is
    large enough (>>128 rows) to expose any non-sequential product
    order, score ties, and single-provenance triples."""
    import numpy as np
    import pyarrow as pa
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    from stanford_relation_extractor_ray.stages.classify import \
        merge_fills_table

    from oracles import merge_fills_df

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
