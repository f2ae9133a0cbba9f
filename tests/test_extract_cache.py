"""Fused extraction as stateless tasks over the per-worker component
cache (``runtime.worker_cached``, ``FusedExtractor.cached``).

Warm components must give exactly the output of cold ones: the
annotator is keyed by (seed, with_ctx) because its pair memo stores
ctx features only on trained runs, the linker by (aliases ref, seed),
the scorer by the model ref. Each cache is bounded.
"""

import gc
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pytest

from stanford_relation_extractor_ray import runtime

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCK = 4096          # the extract stage's batch size: one block = one batch


@pytest.fixture
def fresh_worker_cache(monkeypatch):
    """Run a test against an empty driver-side cache, then restore the
    driver's cache and GC thresholds."""
    monkeypatch.setattr(runtime, "_WORKER_CACHE", {})
    thresholds = gc.get_threshold()
    yield runtime._WORKER_CACHE
    gc.set_threshold(*thresholds)


def test_worker_cache_bounded_and_hits_same_object(ray_session,
                                                   fresh_worker_cache):
    from stanford_relation_extractor_ray.stages.link import _cached_linker
    from stanford_relation_extractor_ray.world import get_world
    aliases = get_world(42).alias_table()
    refs = [ray_session.put(aliases) for _ in range(10)]
    built = [_cached_linker(r, 42) for r in refs]
    assert len(fresh_worker_cache["linker"]) <= runtime.WORKER_CACHE_CAP
    assert gc.get_threshold() == (100_000, 50, 50)
    # a hit returns the very object the miss built
    assert _cached_linker(refs[-1], 42) is built[-1]
    # keep_raw is part of the key
    assert _cached_linker(refs[-1], 42, keep_raw=True) is not built[-1]
    # the oldest entry was evicted: asking again builds a new linker
    assert _cached_linker(refs[0], 42) is not built[0]
    assert len(fresh_worker_cache["linker"]) <= runtime.WORKER_CACHE_CAP


def _docs(n_blocks: int, seed: int) -> list[pa.Table]:
    from stanford_relation_extractor_ray.corpus import _docs_batch
    return [_docs_batch({"id": np.arange(i * BLOCK, (i + 1) * BLOCK)},
                        seed) for i in range(n_blocks)]


def _rows(table: pa.Table) -> list[tuple]:
    cols = sorted(table.column_names)
    return sorted(zip(*[map(repr, table.column(c).to_pylist())
                        for c in cols]))


def test_warm_caches_equal_cold_chain(ray_session, tmp_path,
                                      fresh_worker_cache):
    """pattern-only → trained → pattern-only → other seed, in one Ray
    session: each output equals a fresh, uncached chain's, row for
    row. The same sequence through the driver-side cache pins the
    keying independently of which worker Ray picks for a task."""
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import extract_fills
    from stanford_relation_extractor_ray.pipelines.train import train_lr
    from stanford_relation_extractor_ray.stages import link
    from stanford_relation_extractor_ray.stages.classify import \
        CandidateScorer
    from stanford_relation_extractor_ray.stages.extract_fused import \
        FusedExtractor
    from stanford_relation_extractor_ray.stages.link import EntityLinker
    from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator

    n_blocks = 2
    model_ref = ray_session.put(train_lr(300, cache_dir=str(tmp_path)))
    runs = [(42, None), (42, model_ref), (42, None), (7, None)]
    alias_refs = {s: link.build_alias_ref(s) for s in (42, 7)}
    for seed, mref in runs:
        ar = alias_refs[seed]
        docs = _docs(n_blocks, seed)
        # a fresh chain per batch: cold memos, nothing cached
        want = pa.concat_tables(
            [FusedExtractor(NLPAnnotator(seed), EntityLinker(ar, seed),
                            CandidateScorer(mref))(b) for b in docs])
        assert want.num_rows > 100
        got = extract_fills(
            documents_dataset(n_blocks * BLOCK, seed,
                              override_num_blocks=n_blocks),
            seed=seed, aliases_ref=ar, model_ref=mref).materialize()
        assert _rows(pa.concat_tables(
            ray_session.get(got.to_arrow_refs()))) == _rows(want), \
            (seed, mref is not None)
        warm = pa.concat_tables(
            [FusedExtractor.cached(seed, ar, mref)(b) for b in docs])
        assert _rows(warm) == _rows(want), (seed, mref is not None)
    # one annotator per (seed, with_ctx) actually used
    assert set(fresh_worker_cache["annotator"]) == {
        (42, False), (42, True), (7, False)}


def test_extract_plan_has_no_actor_pool(ray_session):
    from ray.data import ActorPoolStrategy

    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import extract_fills
    ds = extract_fills(documents_dataset(64, 42))
    ops, op = [], ds._logical_plan.dag
    while op is not None:
        ops.append(op)
        op = op.input_dependencies[0] if op.input_dependencies else None
    assert "MapBatches(_extract_batch)" in [o.name for o in ops]
    assert not any(isinstance(getattr(o, "_compute", None),
                              ActorPoolStrategy) for o in ops)
    assert ds.count() > 0


_NO_PACKAGE_ON_WORKERS = textwrap.dedent("""
    import sys
    sys.path.insert(0, {repo!r})
    import ray
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import extract_fills
    extract_fills(documents_dataset(64, 42)).materialize()
""")


def test_extract_fails_fast_when_workers_cannot_import(tmp_path):
    """Only the driver's sys.path has the package; its workers (cwd: an
    empty temp dir) cannot import it. The run must fail with the import
    error, not retry a failing actor constructor until killed."""
    p = subprocess.run(
        [sys.executable, "-c", _NO_PACKAGE_ON_WORKERS.format(repo=REPO)],
        cwd=tmp_path, capture_output=True, text=True, timeout=90,
        env={"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
             "HOME": os.environ.get("HOME", str(tmp_path)),
             "RAY_DISABLE_IMPORT_WARNING": "1"})
    assert p.returncode != 0
    assert "ModuleNotFoundError" in p.stdout + p.stderr
