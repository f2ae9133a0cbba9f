"""Spans, Ray Data operator stats and the driver-side layer probe.

Everything is recorded from the benchmark's side of the package API:
spans wrap calls into one module each, operator figures come from
``Dataset._get_stats_summary()`` and the per-layer split of the fused
extract actor comes from running the same component chain that
``FusedExtractor.__call__`` composes, batch by batch, on the driver.
"""

from __future__ import annotations

import contextlib
import gc
import json
import re
import time


class Tracer:
    """In-memory spans (name, start, end, parent, op id), written out
    once at exit. Stage durations are always measured, because the
    end-to-end metrics need some of them; ``enabled`` adds the Dataset
    stats reads and keeps the span records for the trace file."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.ops: list[dict] = []      # per-operator stats rows
        self._stack: list[int] = []
        self.op_id: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dur(self, name: str, op_id: str | None = None) -> float:
        """Summed duration of the named spans of one op (the current
        one by default)."""
        op_id = self.op_id if op_id is None else op_id
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["op"] == op_id
                   and s["end"] is not None)

    def stats(self, stage: str, ds) -> list[dict]:
        """Per-operator rows of a materialized Dataset (traced runs
        only; [] otherwise)."""
        if not self.enabled:
            return []
        rows = operator_stats(ds)
        for r in rows:
            r.update(stage=stage, op=self.op_id)
        self.ops.extend(rows)
        return rows

    def dump(self, path: str, extra: dict) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0,
                      end=None if s["end"] is None else s["end"] - t0)
                 for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": spans, "operators": self.ops, **extra},
                      f, indent=1)


_TASKS = re.compile(r"(\d+) tasks? executed")


def operator_stats(ds) -> list[dict]:
    """Flatten a Dataset's stats tree: one row per operator with wall
    time, UDF time, task count, peak heap and output rows per block."""
    out: list[dict] = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for o in summary.operators_stats:
            rows = o.output_num_rows or {}
            m = _TASKS.search(o.block_execution_summary_str or "")
            out.append({
                "name": o.operator_name,
                "wall_s": o.time_total_s,
                "udf_s": (o.udf_time or {}).get("sum", 0.0),
                "tasks": int(m.group(1)) if m else 0,
                "peak_heap_mb": (o.memory or {}).get("max", 0.0),
                "rows_max": rows.get("max", 0),
                "rows_mean": rows.get("mean", 0),
                "rows": rows.get("sum", 0)})

    walk(ds._get_stats_summary())
    return out


def skew(rows: list[dict], name_part: str) -> float:
    """max/mean output rows per block of the first operator whose name
    contains ``name_part`` (0.0 when absent)."""
    for r in rows:
        if name_part in r["name"] and r["rows_mean"]:
            return r["rows_max"] / r["rows_mean"]
    return 0.0


BATCH = 4096       # the fused extract stage's batch size


def layer_probe(seed: int, *, aliases_ref, model_ref, n_batches: int
                ) -> dict:
    """Run the fused extract actor's component chain driver-side over
    the first ``n_batches`` batches of the seeded corpus and time each
    layer: generation → NLP + pairing → linking → featurization (only
    with a trained model) → scoring. Returns per-layer metrics, times
    per 4096 documents."""
    import numpy as np

    from stanford_relation_extractor_ray.corpus import _docs_batch
    from stanford_relation_extractor_ray.stages.classify import \
        CandidateScorer
    from stanford_relation_extractor_ray.stages.featurize import \
        featurize_batch
    from stanford_relation_extractor_ray.stages.link import EntityLinker
    from stanford_relation_extractor_ray.stages.mentions import \
        pair_candidates_fused
    from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator

    nlp = NLPAnnotator(seed)
    linker = EntityLinker(aliases_ref, seed)
    scorer = CandidateScorer(model_ref)
    need = scorer.lr is not None
    ms = dict.fromkeys(("gen", "pair", "link", "featurize", "score"), 0.0)
    docs = cands = fills = 0
    # the actor raises the GC thresholds the same way
    old = gc.get_threshold()
    gc.set_threshold(100_000, 50, 50)
    try:
        for b in range(n_batches):
            ids = np.arange(b * BATCH, (b + 1) * BATCH, dtype=np.int64)
            t = time.perf_counter()
            batch = _docs_batch({"id": ids}, seed)
            t1 = time.perf_counter()
            c = pair_candidates_fused(nlp, batch, with_ctx=need)
            t2 = time.perf_counter()
            c = linker(c)
            t3 = time.perf_counter()
            if need:
                c = featurize_batch(c)
            t4 = time.perf_counter()
            f = scorer(c)
            t5 = time.perf_counter()
            for k, dt in zip(ms, (t1 - t, t2 - t1, t3 - t2, t4 - t3,
                                  t5 - t4)):
                ms[k] += dt * 1000
            docs += batch.num_rows
            cands += c.num_rows
            fills += f.num_rows
    finally:
        gc.set_threshold(*old)
    per4k = BATCH / docs
    return {"corpus.gen_ms_per_4k": ms["gen"] * per4k,
            "stages.mentions.pair_ms_per_4k": ms["pair"] * per4k,
            "stages.mentions.candidates_per_doc": cands / docs,
            "stages.link.ms_per_4k": ms["link"] * per4k,
            "stages.featurize.ms_per_4k": ms["featurize"] * per4k,
            "stages.classify.score_ms_per_4k": ms["score"] * per4k,
            "stages.classify.fills_per_candidate": fills / max(cands, 1)}
