"""Stateful stages as stateless tasks over the per-worker component
cache (``runtime.worker_cached``, ``runtime.map_cached``,
``FusedExtractor.cached``).

Warm components must give exactly the output of cold ones: the
annotator is keyed by seed alone (its pair memo keys ``with_ctx``
itself, so one annotator serves pattern-only and trained runs), the
linker by (aliases ref, seed), the scorer by the model ref, and every
``map_cached`` component by all of its constructor arguments. Each
cache is bounded, and no package stage plans an actor pool.
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
    # one annotator per seed, shared by the pattern-only and trained runs
    assert set(fresh_worker_cache["annotator"]) == {42, 7}


def _physical_ops(ds) -> list:
    from ray.data._internal.logical.optimizers import get_execution_plan
    ops, todo = [], [get_execution_plan(ds._logical_plan).dag]
    while todo:
        op = todo.pop()
        ops.append(op)
        todo.extend(op.input_dependencies)
    return ops


def _map_op_kinds(ds) -> set[str]:
    from ray.data._internal.execution.operators.map_operator import \
        MapOperator
    return {type(op).__name__ for op in _physical_ops(ds)
            if isinstance(op, MapOperator)}


def _stage_plans(name: str, monkeypatch) -> list:
    """The lazy Datasets the public stage ``name`` builds (planned, not
    run, except for ``scrub_repeats``, which drives its own rounds)."""
    import ray.data as rd

    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.pipelines.kg import extract_fills
    from stanford_relation_extractor_ray.stages import (
        classify, dedup, link, media, nlp, openie, textquality)
    from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator
    ds = rd.range(4)
    if name == "scrub_repeats":
        plans, scrub = [], dedup.scrub_spans

        def spy(*args, **kwargs):
            plans.append(scrub(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(dedup, "scrub_spans", spy)
        dedup.scrub_repeats(rd.from_items([
            {"doc_id": 1, "text": "m n a b c o p"},
            {"doc_id": 2, "text": "q r a b c s t"}]), n=3, min_docs=2)
        assert plans
        return plans
    return [{
        "actor_pool_control": lambda: ds.map_batches(
            NLPAnnotator, batch_format="pyarrow", concurrency=1),
        "extract": lambda: extract_fills(documents_dataset(64, 42)),
        "annotate": lambda: nlp.annotate(ds),
        "classify": lambda: classify.classify(ds),
        "score_candidates": lambda: classify.score_candidates(ds),
        "substring_span_ranges":
            lambda: dedup.substring_span_ranges(ds, ["a b c d e"]),
        "decode": lambda: media.decode(ds),
        "resize_images": lambda: media.resize_images(ds),
        "audio_window_stats": lambda: media.audio_window_stats(ds),
        "featurize_media": lambda: media.featurize_media(ds),
        "extract_open_triples": lambda: openie.extract_open_triples(ds),
        "add_lang_id": lambda: textquality.add_lang_id(ds),
        "link": lambda: link.link(ds),
    }[name]()]


@pytest.mark.parametrize("name", [
    "extract", "annotate", "classify", "score_candidates",
    "scrub_repeats", "substring_span_ranges", "decode", "resize_images",
    "audio_window_stats", "featurize_media", "extract_open_triples",
    "add_lang_id", "link", "actor_pool_control"])
def test_plan_has_no_actor_pool(ray_session, monkeypatch, name):
    """Every public stage plans its maps as tasks, never as an
    ActorPoolMapOperator; the control (a component class mapped with
    ``concurrency``) shows the check sees one when it is there."""
    for ds in _stage_plans(name, monkeypatch):
        kinds = _map_op_kinds(ds)
        assert kinds
        assert ("ActorPoolMapOperator" in kinds) == \
            (name == "actor_pool_control"), kinds


class _Scaler:
    def __init__(self, k):
        self.k = k


def _replay_on_driver(ds, batches: list) -> pa.Table:
    """Run ``ds``'s last map function over ``batches`` in this process,
    through the driver's worker cache: a warm hit is then certain,
    whichever Ray worker ran the same call."""
    fn = ds._logical_plan.dag._fn
    return pa.concat_tables([fn(b) for b in batches])


def _blocks(ray_session, ds) -> list[pa.Table]:
    return ray_session.get(ds.materialize().to_arrow_refs())


def test_map_cached_rejects_inputs_its_key_cannot_see(ray_session):
    """A class defined in a function (its closure is unkeyed) and an
    argument that is neither a scalar nor a ref fail at plan time."""
    import ray.data as rd

    class Local(_Scaler):
        pass

    with pytest.raises(ValueError, match="module-level"):
        runtime.map_cached(rd.range(4), Local, batch_size=4, k=2)
    with pytest.raises(TypeError, match="ray.put"):
        runtime.map_cached(rd.range(4), _Scaler, batch_size=4, k=[2])
    ref = ray_session.put([2])
    assert runtime._key_part(ref) == ("ref", ref.hex())


def _fresh(cls, kwargs: dict, batches: list) -> pa.Table:
    """An uncached component per batch: the reference output."""
    return pa.concat_tables([cls(**kwargs)(b) for b in batches])


def test_classify_warm_calls_equal_fresh_scorers(ray_session,
                                                 fresh_worker_cache):
    """Consecutive calls differ in one option each; with either option
    missing from the cache key the second call would reuse the first
    call's scorer."""
    from stanford_relation_extractor_ray.corpus import documents_dataset
    from stanford_relation_extractor_ray.stages import (
        bags, classify, featurize, link, mentions, nlp)
    from stanford_relation_extractor_ray.stages.classify import \
        EnsembleScorer
    bag_ds = bags.assemble(featurize.featurize(link.link(mentions.pair(
        nlp.annotate(documents_dataset(80)))))).materialize()
    batches = _blocks(ray_session, bag_ds)
    wants = []
    for kw in ({"mode": "any", "with_top_employees": True},
               {"mode": "all", "with_top_employees": True},
               {"mode": "all", "with_top_employees": False}):
        want = _rows(_fresh(EnsembleScorer, kw, batches))
        got = classify.classify(bag_ds, **kw)
        assert _rows(pa.concat_tables(_blocks(ray_session, got))) == want
        assert _rows(_replay_on_driver(got, batches)) == want
        wants.append(want)
    assert wants[0] != wants[1] != wants[2]


def test_scrub_warm_calls_equal_fresh_scrubbers(ray_session,
                                                fresh_worker_cache):
    """Two corpora, so two gram refs: the second corpus's scrub must
    not reuse the first corpus's scrubber."""
    import ray.data as rd

    from stanford_relation_extractor_ray.stages.dedup import (
        SpanScrubber, scrub_repeats, scrub_spans, substring_spans)
    corpora = [
        [{"doc_id": 1, "text": "m n a b c o p"},
         {"doc_id": 2, "text": "q r a b c s t"},
         {"doc_id": 3, "text": "m n o p x1 x2"}],
        [{"doc_id": 1, "text": "u v w d e f y"},
         {"doc_id": 2, "text": "d e f z1 z2 u v w"},
         {"doc_id": 3, "text": "nothing shared here"}]]
    for docs in corpora:
        table = pa.Table.from_pylist(docs)
        grams = {r["gram"] for r in substring_spans(
            rd.from_items(docs), n=3, min_docs=2).take_all()}
        want = _rows(_fresh(SpanScrubber, {"grams_ref": grams, "n": 3},
                            [table]))
        assert want != _rows(table)
        got = scrub_spans(rd.from_items(docs), grams, n=3)
        assert _rows(pa.concat_tables(_blocks(ray_session, got))) == want
        assert _rows(_replay_on_driver(got, [table])) == want
        # the fixpoint loop against the same loop over fresh scrubbers
        while grams:
            table = SpanScrubber(grams, n=3)(table)
            grams = {r["gram"] for r in substring_spans(
                rd.from_arrow(table), n=3, min_docs=2).take_all()}
        out, _rounds = scrub_repeats(rd.from_items(docs), n=3,
                                     min_docs=2)
        assert _rows(pa.concat_tables(_blocks(ray_session, out))) == \
            _rows(table)


_NO_PACKAGE_ON_WORKERS = textwrap.dedent("""
    import sys
    sys.path.insert(0, {repo!r})
    import ray
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from stanford_relation_extractor_ray.corpus import documents_dataset
    {stage}
""")

_STAGE_RUNS = {
    "extract": "from stanford_relation_extractor_ray.pipelines import kg\n"
               "kg.extract_fills(documents_dataset(64, 42)).materialize()",
    "annotate": "from stanford_relation_extractor_ray.stages import nlp\n"
                "nlp.annotate(documents_dataset(64)).materialize()",
}


@pytest.mark.parametrize("stage", sorted(_STAGE_RUNS))
def test_fails_fast_when_workers_cannot_import(tmp_path, stage):
    """Only the driver's sys.path has the package; its workers (cwd: an
    empty temp dir) cannot import it. The run must fail with the import
    error, not retry a failing actor constructor until killed."""
    script = _NO_PACKAGE_ON_WORKERS.format(repo=REPO,
                                           stage=_STAGE_RUNS[stage])
    p = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, capture_output=True, text=True, timeout=90,
        env={"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
             "HOME": os.environ.get("HOME", str(tmp_path)),
             "RAY_DISABLE_IMPORT_WARNING": "1"})
    assert p.returncode != 0
    assert "ModuleNotFoundError" in p.stdout + p.stderr
