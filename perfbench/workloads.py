"""The three closed-loop workloads.

Each workload drives the package only through its public functions and
has the same shape: ``setup`` (timed, repeated), ``prepare`` (untimed
references), ``warmup`` (one untimed op, also a self-test), ``op`` (the
timed unit of work) and ``check`` (raises ``CheckFailed``). After the
loop, ``metrics`` gives the gated end-to-end values plus named extras
for the report line, and ``layers`` / ``probe`` the per-layer values of
a traced run. Sizes are fixed here, not derived from the host, so every
host runs the same work.
"""

from __future__ import annotations

import csv
import os
import shutil
import statistics

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


class CheckFailed(Exception):
    pass


def _med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(n: float, rs: list[dict], secs=lambda r: r["wall"]) -> float:
    """``n`` per second of the run's median op, each op's time scaled by
    the share of the CPU time it wanted that the host gave it
    (``client.given``)."""
    return n / _med(secs(r) * r["given"] for r in rs)


def table_of(ds):
    """Materialized Dataset (or Arrow table) → one Arrow table."""
    import pyarrow as pa
    import ray
    if isinstance(ds, pa.Table):
        return ds
    blocks = ray.get(ds.to_arrow_refs())
    full = [t for t in blocks if t.num_rows]
    if not full:
        return blocks[0] if blocks else pa.table({})
    return pa.concat_tables(full).combine_chunks()


def digest_table(tbl) -> str:
    """Order-insensitive digest of a table (rows sorted after rounding
    floats to 9 digits)."""
    cols = [c.to_pylist() for c in tbl.columns]
    rows = [tuple(round(v, 9) if isinstance(v, float) else v
                  for v in row) for row in zip(*cols)]
    rows.sort(key=repr)
    return inputs.digest_rows(rows)


class Workload:
    name = ""
    setups = 3               # setup repetitions per run (median reported)

    def __init__(self, seed: int, workdir: str, tracer: spans.Tracer,
                 pins: dict):
        self.seed = seed
        self.work = workdir
        self.tr = tracer
        self.pins = pins.get(self.name, {})
        self.first: dict | None = None       # digests of the first op

    def pin_check(self, digests: dict, size_key: str) -> None:
        """Equal to the first op's digests; equal to the recorded pin
        when one exists for this seed and size."""
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            raise CheckFailed(f"nondeterministic output: {digests} != "
                              f"{self.first}")
        pin = self.pins.get(size_key, {}).get(str(self.seed))
        if pin is not None and pin != digests:
            raise CheckFailed(f"digest pin mismatch: {digests} != {pin}")


# --- kg_stream -----------------------------------------------------------

def _graph_tier(consistent_count: int) -> int:
    """1 = zero-execution driver tier, 2 = distributed tiers (the gate
    ``build_graph`` applies)."""
    from stanford_relation_extractor_ray.stages.canonicalize import \
        SMALL_SURFACES
    return 1 if 2 * consistent_count <= SMALL_SURFACES else 2


def _graph_digests(consistent, nodes, edges) -> dict:
    return {"triples": digest_table(consistent),
            "nodes": digest_table(nodes), "edges": digest_table(edges)}


class KGStream(Workload):
    """Parquet corpus → extract → finalize → graph, pattern-only
    scorer. The generator runs in setup only."""

    name = "kg_stream"
    n_docs = 8192
    golden_docs = 2000
    golden_csv = os.path.join(REPO, "golden", "kg_triples_sf0_01.csv")
    f1_floor = 0.5

    def setup(self, k: int) -> None:
        from stanford_relation_extractor_ray.corpus import \
            documents_dataset
        from stanford_relation_extractor_ray.storage import write_table
        path = os.path.join(self.work, f"corpus-{k}")
        write_table(documents_dataset(self.n_docs, self.seed), path)
        if k:
            shutil.rmtree(self.corpus)
        self.corpus = path

    def prepare(self) -> None:
        from stanford_relation_extractor_ray.corpus import (
            documents_dataset, gold_triple_set)
        from stanford_relation_extractor_ray.stages import link
        from stanford_relation_extractor_ray.storage import write_table
        self.aliases_ref = link.build_alias_ref(self.seed)
        self.gold = gold_triple_set(self.n_docs, self.seed,
                                    timex_dates=True)
        self.golden_corpus = os.path.join(self.work, "golden")
        write_table(documents_dataset(self.golden_docs, 42),
                    self.golden_corpus)

    def run_op(self, corpus: str, seed: int, aliases_ref) -> dict:
        from stanford_relation_extractor_ray.pipelines.kg import (
            build_graph, extract_fills, finalize_fills)
        from stanford_relation_extractor_ray.storage import read_table
        tr = self.tr
        with tr.span("op") as op:
            with tr.span("extract"):
                fills = extract_fills(read_table(corpus), seed=seed,
                                      aliases_ref=aliases_ref
                                      ).materialize()
            extract_rows = tr.stats("extract", fills)
            with tr.span("finalize"):
                consistent = finalize_fills(
                    fills, seed=seed, aliases_ref=aliases_ref
                ).materialize()
            tr.stats("finalize", consistent)
            with tr.span("graph"):
                nodes, edges = build_graph(consistent)
                nodes, edges = table_of(nodes), table_of(edges)
        return {"wall": op["end"] - op["start"],
                "partial_in": fills.count(),
                "consistent": table_of(consistent),
                "nodes": nodes, "edges": edges,
                "extract_ops": extract_rows}

    def warmup(self) -> None:
        """Self-test: the op at 2000 docs, seed 42, reproduces the
        ``kg_triples`` golden pin."""
        from stanford_relation_extractor_ray.stages import link
        r = self.run_op(self.golden_corpus, 42, link.build_alias_ref(42))
        cols = ["subj", "subj_type", "pred", "obj", "obj_type", "doc_id",
                "sent_idx"]
        got = sorted(tuple(str(v) for v in row) for row in zip(
            *[r["consistent"].column(c).to_pylist() for c in cols]))
        with open(self.golden_csv, newline="") as f:
            rd = csv.reader(f)
            if next(rd) != cols:
                raise CheckFailed("golden header changed")
            want = sorted(tuple(row) for row in rd)
        if got != want:
            raise CheckFailed(f"golden self-test: {len(got)} triples vs "
                              f"{len(want)} pinned")

    def op(self) -> dict:
        from stanford_relation_extractor_ray.pipelines.evaluate import \
            score_fills
        r = self.run_op(self.corpus, self.seed, self.aliases_ref)
        c = r["consistent"]
        r["f1"] = score_fills(c.to_pylist(), self.gold).f1
        r["finalize_s"] = self.tr.dur("finalize")
        r["extract_s"] = self.tr.dur("extract")
        r["graph_s"] = self.tr.dur("graph")
        r["digests"] = _graph_digests(c, r["nodes"], r["edges"])
        return r

    def check(self, r: dict) -> None:
        if r["f1"] < self.f1_floor:
            raise CheckFailed(f"f1 {r['f1']:.4f} < {self.f1_floor}")
        self.pin_check(r["digests"], f"n{self.n_docs}")

    def metrics(self, rs: list[dict]) -> tuple[dict, dict]:
        docs = _rate(self.n_docs, rs)
        return ({"rows_per_s": docs, "f1": _med(r["f1"] for r in rs)},
                {"docs_per_s": {"value": docs, "unit": "docs/s"}})

    def layers(self, rs: list[dict]) -> dict:
        from stanford_relation_extractor_ray.runtime import pool_size
        actors = pool_size(share=1.0)
        busy = []
        for r in rs:
            udf = sum(o["udf_s"] for o in r["extract_ops"]
                      if "FusedExtractor" in o["name"])
            busy.append(udf / (actors * r["extract_s"]))
        return {
            "stages.extract_fused.extract_s":
                _med(r["extract_s"] for r in rs),
            "runtime.actors": actors,
            "runtime.actor_busy_share": _med(busy),
            **_finalize_layers(rs)}

    def probe(self) -> dict:
        return spans.layer_probe(self.seed, aliases_ref=self.aliases_ref,
                                 model_ref=None, n_batches=2)


def _finalize_layers(rs: list[dict]) -> dict:
    return {
        "stages.consistency.finalize_s": _med(r["finalize_s"] for r in rs),
        "stages.consistency.partial_fills_in":
            _med(r["partial_in"] for r in rs),
        "stages.consistency.consistent_out":
            _med(r["consistent"].num_rows for r in rs),
        "stages.canonicalize.graph_s": _med(r["graph_s"] for r in rs),
        "stages.canonicalize.nodes": _med(r["nodes"].num_rows for r in rs),
        "stages.canonicalize.edges": _med(r["edges"].num_rows for r in rs),
        "stages.canonicalize.tier":
            _med(_graph_tier(r["consistent"].num_rows) for r in rs)}


# --- kg_trained_job ----------------------------------------------------------

def _parts(ckpt: str) -> dict:
    """{partition dir: (inode, mtime_ns)} of a checkpoint's fills."""
    d = os.path.join(ckpt, "fills")
    out = {}
    for name in sorted(os.listdir(d)) if os.path.isdir(d) else []:
        if name.startswith("part=") and not name.endswith(".tmp"):
            st = os.stat(os.path.join(d, name))
            out[name] = (st.st_ino, st.st_mtime_ns)
    return out


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


class KGTrainedJob(Workload):
    """``run_kg`` with a trained LR model and a checkpoint, then the
    same call again, which resumes from the completed checkpoint."""

    name = "kg_trained_job"
    n_docs = 1600
    n_shards = 2
    train_docs = 400
    f1_floor = 0.5

    def setup(self, k: int) -> None:
        import ray

        from stanford_relation_extractor_ray.pipelines.train import \
            train_lr
        cache = os.path.join(self.work, f"model-{k}")
        with self.tr.span("train"):
            model = train_lr(self.train_docs, self.seed, cache_dir=cache)
        self.model_ref = ray.put(model)
        shutil.rmtree(cache)

    def prepare(self) -> None:
        from stanford_relation_extractor_ray.corpus import gold_triple_set
        self.gold = gold_triple_set(self.n_docs, self.seed,
                                    timex_dates=True)
        self.n_ops = 0

    def run_op(self, ckpt: str) -> dict:
        from stanford_relation_extractor_ray.pipelines.kg import run_kg
        tr = self.tr
        out = {}
        with tr.span("op") as op:
            for call in ("first", "resume"):
                if call == "resume":
                    before = _parts(ckpt)
                    out["checkpoint_bytes"] = _tree_bytes(ckpt)
                with tr.span(f"run_kg.{call}"):
                    res = run_kg(self.n_docs, seed=self.seed,
                                 model_ref=self.model_ref,
                                 checkpoint_dir=ckpt,
                                 n_shards=self.n_shards)
                    out[call] = {k: table_of(res[k])
                                 for k in ("fills", "nodes", "edges")}
        after = _parts(ckpt)
        out["recomputed"] = sum(after.get(p) != v
                                for p, v in before.items()) \
            + len(set(after) - set(before))
        out["digests"], out["resume_digests"] = (
            _graph_digests(*(out[call][k] for k in
                             ("fills", "nodes", "edges")))
            for call in ("first", "resume"))
        out["wall"] = op["end"] - op["start"]
        out["first_s"] = tr.dur("run_kg.first")
        out["resume_s"] = tr.dur("run_kg.resume")
        return out

    def warmup(self) -> None:
        # full size: a smaller warm-up left the first timed op ~30%
        # slower than the rest (worker processes still cold)
        ckpt = os.path.join(self.work, "ckpt-warm")
        r = self.run_op(ckpt)
        shutil.rmtree(ckpt)
        self._check_resume(r)

    def op(self) -> dict:
        import pyarrow.parquet as pq

        from stanford_relation_extractor_ray.pipelines.evaluate import \
            score_fills
        from stanford_relation_extractor_ray.state.manifest import Manifest
        self.n_ops += 1
        ckpt = os.path.join(self.work, f"ckpt-{self.n_ops}")
        r = self.run_op(ckpt)
        r["f1"] = score_fills(r["first"]["fills"].to_pylist(),
                              self.gold).f1
        r["partial_in"] = sum(
            pq.read_metadata(f).num_rows
            for f in Manifest(ckpt, "fills").completed_files())
        if self.tr.enabled:
            # keep the newest checkpoint for the global-stage probe
            if getattr(self, "ckpt", None):
                shutil.rmtree(self.ckpt)
            self.ckpt = ckpt
        else:
            shutil.rmtree(ckpt)
        return r

    @staticmethod
    def _check_resume(r: dict) -> None:
        if r["recomputed"]:
            raise CheckFailed(f"resume recomputed {r['recomputed']} "
                              "shards")
        if r["digests"] != r["resume_digests"]:
            raise CheckFailed(f"resume output differs: {r['digests']} != "
                              f"{r['resume_digests']}")

    def check(self, r: dict) -> None:
        self._check_resume(r)
        if r["f1"] < self.f1_floor:
            raise CheckFailed(f"f1 {r['f1']:.4f} < {self.f1_floor}")
        self.pin_check(r["digests"], f"n{self.n_docs}")

    def metrics(self, rs: list[dict]) -> tuple[dict, dict]:
        # rows_per_s covers the whole op, so the resume counts too
        return ({"rows_per_s": _rate(self.n_docs, rs),
                 "f1": _med(r["f1"] for r in rs)},
                {"docs_per_s": {"value": _rate(self.n_docs, rs,
                                               lambda r: r["first_s"]),
                                "unit": "docs/s"},
                 "resume_s": {"value": _med(r["resume_s"] for r in rs),
                              "unit": "s"}})

    def layers(self, rs: list[dict]) -> dict:
        """The global stages of the last checkpoint, re-run through the
        calls ``run_kg`` makes on resume, give the finalize / graph
        split; extraction plus checkpoint writes is first − resume."""
        from stanford_relation_extractor_ray.pipelines.kg import (
            build_graph, finalize_fills)
        from stanford_relation_extractor_ray.runtime import pool_size
        from stanford_relation_extractor_ray.stages import link
        from stanford_relation_extractor_ray.state.manifest import Manifest
        from stanford_relation_extractor_ray.storage import \
            read_parquet_clean
        tr = self.tr
        tr.op_id = "global-stages"
        ar = link.build_alias_ref(self.seed)
        fills = read_parquet_clean(
            Manifest(self.ckpt, "fills").completed_files())
        with tr.span("finalize"):
            consistent = finalize_fills(fills, seed=self.seed,
                                        aliases_ref=ar).materialize()
        tr.stats("finalize", consistent)
        with tr.span("graph"):
            nodes, edges = build_graph(consistent)
            nodes, edges = table_of(nodes), table_of(edges)
        g = {"finalize_s": tr.dur("finalize"), "graph_s": tr.dur("graph"),
             "partial_in": fills.count(), "consistent": table_of(consistent),
             "nodes": nodes, "edges": edges}
        return {
            "stages.extract_fused.extract_s":
                _med(r["first_s"] - r["resume_s"] for r in rs),
            "runtime.actors": pool_size(share=1.0),
            **_finalize_layers([g]),
            "state.manifest.resume_s": _med(r["resume_s"] for r in rs),
            "state.manifest.shards_recomputed":
                max(r["recomputed"] for r in rs),
            "state.manifest.checkpoint_bytes":
                _med(r["checkpoint_bytes"] for r in rs),
            "pipelines.train.train_s":
                _med(s["end"] - s["start"] for s in tr.spans
                     if s["name"] == "train")}

    def probe(self) -> dict:
        from stanford_relation_extractor_ray.stages import link
        return spans.layer_probe(self.seed,
                                 aliases_ref=link.build_alias_ref(self.seed),
                                 model_ref=self.model_ref, n_batches=1)


# --- shuffle_ops -------------------------------------------------------------

class ShuffleOps(Workload):
    """As-of join over a skewed event log, MinHash-LSH pairs →
    connected components and repeated-span detection over a text
    table: three shuffle-bound operators, no NLP."""

    name = "shuffle_ops"
    n_events = 200_000
    n_users = 20_000
    n_texts = 2500
    warm = (20_000, 300)
    threshold = 0.5

    def _inputs(self, n_events: int, n_texts: int):
        import ray.data as rd

        def blocks(t, k):
            step = -(-t.num_rows // k)
            return rd.from_arrow([t.slice(i, step)
                                  for i in range(0, t.num_rows, step)])

        ev, od = inputs.event_log(self.seed, n_events, n_events // 10,
                                  self.n_users)
        docs, clusters = inputs.dedup_corpus(self.seed, n_texts)
        return {"ev": ev, "od": od, "docs": docs, "clusters": clusters,
                "ds": (blocks(ev, 8), blocks(od, 4), blocks(docs, 4))}

    def setup(self, k: int) -> None:
        self.data = self._inputs(self.n_events, self.n_texts)

    def prepare(self) -> None:
        self.ref = self._references(self.data)
        self.warm_data = self._inputs(*self.warm)
        self.warm_ref = self._references(self.warm_data)

    def _references(self, d: dict) -> dict:
        docs = d["docs"]
        texts = docs.column("text").to_pylist()
        ids = docs.column("doc_id").to_pylist()
        planted = inputs.planted_pairs(d["clusters"])
        return {"asof": inputs.asof_reference(d["ev"], d["od"]),
                "substring": inputs.substring_reference(texts, ids),
                "texts": texts, "planted": planted,
                "must": {p for p in planted if inputs.jaccard(
                    texts[p[0]], texts[p[1]]) >= self.threshold}}

    def run_op(self, d: dict) -> dict:
        from stanford_relation_extractor_ray.pipelines.temporal import \
            events_asof_order
        from stanford_relation_extractor_ray.stages.dedup import (
            connected_components_ds, minhash_lsh_pairs, substring_spans)
        tr = self.tr
        ev, od, docs = d["ds"]
        with tr.span("op") as op:
            with tr.span("asof"):
                asof = events_asof_order("", datasets=(ev, od)
                                         ).materialize()
                asof_df = asof.to_pandas()
            asof_ops = tr.stats("asof", asof)
            with tr.span("components"):
                pairs = minhash_lsh_pairs(
                    docs, k=3, num_perm=128, bands=64,
                    threshold=self.threshold).materialize()
                comps = connected_components_ds(pairs)
                pairs_df = pairs.to_pandas()
            pair_ops = tr.stats("components", pairs)
            with tr.span("substring"):
                sub = substring_spans(docs, n=5, min_docs=2).materialize()
                sub_df = sub.to_pandas()
            sub_ops = tr.stats("substring", sub)
        return {"wall": op["end"] - op["start"], "asof": asof_df,
                "pairs": pairs_df, "comps": comps, "sub": sub_df,
                "asof_s": tr.dur("asof"),
                "components_s": tr.dur("components"),
                "substring_s": tr.dur("substring"),
                "asof_ops": asof_ops, "dedup_ops": pair_ops + sub_ops}

    def _verify(self, r: dict, ref: dict) -> dict:
        a = r["asof"]
        if inputs.asof_digest(a.event_id, a.user_id, a.ts, a.asof_orderkey,
                              a.asof_orderdate) != ref["asof"]:
            raise CheckFailed("events_asof_order differs from reference")
        s = r["sub"]
        if inputs.digest_rows(zip(s.gram, s.n_docs.astype(int),
                                  s.n_occ.astype(int))) != ref["substring"]:
            raise CheckFailed("substring_spans differs from reference")
        p = r["pairs"]
        texts = ref["texts"]
        found = set()
        for ia, ib, j in zip(p.id_a.astype(int), p.id_b.astype(int),
                             p.jaccard):
            if abs(inputs.jaccard(texts[ia], texts[ib]) - j) > 1e-9 \
                    or j < self.threshold:
                raise CheckFailed(f"pair ({ia}, {ib}) has wrong jaccard")
            found.add((ia, ib))
        if not ref["must"] <= found:
            raise CheckFailed(f"{len(ref['must'] - found)} near-duplicate "
                              "pairs missed")
        comps = {row["id"]: row["root"] for row in r["comps"]}
        if comps != inputs.components(sorted(found)):
            raise CheckFailed("connected components differ from "
                              "union-find over the pairs")
        tp = len(found & ref["planted"])
        return {"asof": ref["asof"], "substring": ref["substring"],
                "pairs": inputs.digest_rows(sorted(found)),
                "components": inputs.digest_rows(sorted(comps.items())),
                "f1": 2 * tp / (len(found) + len(ref["planted"]))}

    def warmup(self) -> None:
        self._verify(self.run_op(self.warm_data), self.warm_ref)

    def op(self) -> dict:
        r = self.run_op(self.data)
        r["digests"] = self._verify(r, self.ref)
        r["f1"] = r["digests"].pop("f1")
        # keep no outputs past the check, so that peak RSS does not grow
        # with the number of ops a run fits in
        r["n_pairs"] = len(r.pop("pairs"))
        for k in ("asof", "comps", "sub"):
            del r[k]
        return r

    def check(self, r: dict) -> None:
        self.pin_check(r["digests"], f"n{self.n_events}-{self.n_texts}")

    def metrics(self, rs: list[dict]) -> tuple[dict, dict]:
        rows = self.n_events + self.n_events // 10 + self.n_texts
        return (
            {"rows_per_s": _rate(rows, rs),
             "f1": _med(r["f1"] for r in rs)},
            {"events_per_s": {"value": _rate(self.n_events, rs,
                                             lambda r: r["asof_s"]),
                              "unit": "events/s"},
             "dedup_docs_per_s": {
                 "value": _rate(self.n_texts, rs,
                                lambda r: r["components_s"]
                                + r["substring_s"]),
                 "unit": "docs/s"}})

    def layers(self, rs: list[dict]) -> dict:
        return {
            "pipelines.temporal.asof_s": _med(r["asof_s"] for r in rs),
            "pipelines.temporal.partition_skew":
                _med(spans.skew(r["asof_ops"], "MapBatches(asof)")
                     for r in rs),
            "stages.dedup.components_s":
                _med(r["components_s"] for r in rs),
            "stages.dedup.substring_s": _med(r["substring_s"] for r in rs),
            "stages.dedup.pairs": _med(r["n_pairs"] for r in rs),
            "stages.dedup.partition_skew": _med(
                max(spans.skew(r["dedup_ops"], n) for n in
                    ("partition_pairs", "attach_a", "verify",
                     "reduce_part")) for r in rs)}

    def probe(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (KGStream, KGTrainedJob, ShuffleOps)}
