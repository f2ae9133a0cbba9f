"""Extract executions run under their own Ray Data context
(``extract_fused.unreserved``): every batch of a read → batched map
starts at once, and the caller's Datasets and the process context keep
their settings."""

import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from stanford_relation_extractor_ray.corpus import documents_dataset
from stanford_relation_extractor_ray.stages.extract_fused import (
    EXTRACT_BLOCK_BYTES, unreserved)
from stanford_relation_extractor_ray.storage import read_table, write_table

# how long a batch waits for the others to start before it gives up
WAIT_S = 30.0


def test_every_batch_starts_at_once(ray_session, tmp_path):
    """One batch per CPU of a ``read_parquet → map_batches(batch_size)``
    Dataset: each task leaves a start marker, then waits (bounded) for
    every other task's. Without ``unreserved`` the map runs one task
    until its first task ends, so the first task sees only its own
    marker."""
    from ray.data import ExecutionResources

    cpus = int(ray_session.cluster_resources()["CPU"])
    batch, markers = 64, str(tmp_path / "markers")
    os.makedirs(tmp_path / "docs")
    os.makedirs(markers)
    pq.write_table(pa.table({"x": range(cpus * batch)}),
                   str(tmp_path / "docs" / "part.parquet"))

    def wait_for_all(b: pa.Table) -> pa.Table:
        open(os.path.join(markers, f"{os.getpid()}-{time.time_ns()}"),
             "w").close()
        deadline = time.monotonic() + WAIT_S
        while len(os.listdir(markers)) < cpus and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        return pa.table({"seen": [len(os.listdir(markers))]})

    ds = read_table(str(tmp_path / "docs")).map_batches(
        wait_for_all, batch_format="pyarrow", batch_size=batch)
    # the object-store share a reserving executor takes of a 512 MiB
    # store, the benchmark's; in this session's larger store the map
    # would not wait
    ds.context.execution_options.resource_limits = ExecutionResources(
        object_store_memory=256 << 20)
    assert [r["seen"] for r in unreserved(ds).take_all()] == [cpus] * cpus


def test_extract_context_stays_with_extract(ray_session, tmp_path,
                                            monkeypatch):
    """``extract_fills`` returns a Dataset under the extract settings, its
    execution runs under them (executor and every operator), and the
    caller's documents Dataset and the process context keep theirs."""
    from ray.data import DataContext
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from stanford_relation_extractor_ray.pipelines.kg import extract_fills

    def settings(ctx):
        return (ctx.op_resource_reservation_enabled,
                ctx.target_max_block_size)

    process = DataContext.get_current()
    before = settings(process)
    assert before[0] and before[1] != EXTRACT_BLOCK_BYTES
    documents = read_table(write_table(documents_dataset(40),
                                       str(tmp_path / "docs")))
    assert settings(documents.context) == before

    contexts = []
    execute = StreamingExecutor.execute

    def spy(self, dag, *args, **kwargs):
        contexts.append(self._data_context)
        ops = [dag]
        while ops:
            op = ops.pop()
            contexts.append(op.data_context)
            ops.extend(op.input_dependencies)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy)
    fills = extract_fills(documents)
    assert settings(fills.context) == (False, EXTRACT_BLOCK_BYTES)
    assert fills.materialize().count() > 0
    assert len(contexts) > 2 and {settings(c) for c in contexts} == {
        (False, EXTRACT_BLOCK_BYTES)}
    assert DataContext.get_current() is process
    assert settings(documents.context) == before == settings(process)


def test_streaming_partials_follow_block_order(ray_session, tmp_path):
    """A streaming extract over a 4-file corpus gives the partials of
    the in-process chain over docs [0, 4096) and [4096, 8192),
    concatenated, whichever read task finishes first: the extract
    context keeps block order, so each batch holds the same documents in
    every run. The process context keeps its own setting."""
    import numpy as np
    from ray.data import DataContext

    from stanford_relation_extractor_ray.corpus import _docs_batch
    from stanford_relation_extractor_ray.pipelines.kg import extract_fills
    from stanford_relation_extractor_ray.runtime import collect_table
    from stanford_relation_extractor_ray.stages.classify import (
        PARTIAL_SCHEMA, CandidateScorer)
    from stanford_relation_extractor_ray.stages.extract_fused import (
        EXTRACT_BATCH, FusedExtractor)
    from stanford_relation_extractor_ray.stages.link import EntityLinker
    from stanford_relation_extractor_ray.stages.nlp import NLPAnnotator

    def docs(lo, hi):
        return _docs_batch({"id": np.arange(lo, hi, dtype=np.int64)}, 42)

    n, per = 2 * EXTRACT_BATCH, EXTRACT_BATCH // 2
    os.makedirs(tmp_path / "docs")
    for lo in range(0, n, per):
        pq.write_table(docs(lo, lo + per),
                       str(tmp_path / "docs" / f"{lo:05d}.parquet"))
    got = collect_table(extract_fills(read_table(str(tmp_path / "docs")))
                        .materialize(), PARTIAL_SCHEMA)
    chain = FusedExtractor(NLPAnnotator(42), EntityLinker(None, 42),
                           CandidateScorer(None))
    want = pa.concat_tables([chain(docs(lo, lo + EXTRACT_BATCH))
                             for lo in (0, EXTRACT_BATCH)])
    assert got.num_rows > 1000
    assert got.to_pylist() == want.to_pylist()
    assert not DataContext.get_current().execution_options.preserve_order
