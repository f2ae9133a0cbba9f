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
