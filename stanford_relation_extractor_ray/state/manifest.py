"""Per-partition lineage manifests for checkpoint-resumable stages.

Replaces the reference's Postgres key→blob caches
(``kbp/common/PostgresUtils.java``, redo flags ``cache.*.redo``) with the
batch-native pattern: each materialized stage writes one directory per
input partition, atomically (write to ``<dir>.tmp`` then rename), plus a
manifest row recording (stage, partition, input digest, and the
Parquet row count of every part file under the directory; a
partition's row count is their sum). A rerun skips partitions whose
manifest row matches the current input digest and whose part files
still carry their committed row counts (one footer read per file, so
a truncated or unreadable file reruns its partition) — kill the job
at any point and restart it with the same arguments to resume.

A write may also cover several partitions at once: it goes to the
stage's ``_staging`` dir (``staging_dir``), one hive-named
``part=<partition>`` subdir per partition, and ``begin(partition,
staged=True)`` moves each subdir in as that partition's temp dir before
it is committed on its own. ``pipelines/kg.run_kg`` keeps two stages:
the per-shard partial fills (``fills``: one staged write per call for
every stale shard, committed shard by shard) and the graph boundary
(``graph``: consistent fills, nodes and edges of one call).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _footer_rows(path: str) -> int:
    return pq.read_metadata(path).num_rows


class Manifest:
    def __init__(self, root: str, stage: str):
        self.dir = os.path.join(root, stage)
        os.makedirs(self.dir, exist_ok=True)
        self.path = os.path.join(self.dir, "_MANIFEST.json")
        # not named like a partition, so nothing reads it as one
        self.staging = os.path.join(self.dir, "_staging")
        self._rows: dict[str, dict] = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                self._rows = json.load(f)

    def partition_dir(self, partition: str) -> str:
        return os.path.join(self.dir, f"part={partition}")

    def is_done(self, partition: str, input_digest: str) -> bool:
        """Committed under ``input_digest``, and every committed part
        file's Parquet footer still gives its committed row count. A
        row without per-file counts (written by older code) is not
        done."""
        row = self._rows.get(partition)
        if (row is None or row.get("digest") != input_digest
                or "files" not in row
                or not os.path.isdir(self.partition_dir(partition))):
            return False
        try:
            return all(_footer_rows(path) == rows for path, rows
                       in self.committed(partition).items())
        except (OSError, pa.ArrowException):
            return False

    def committed(self, partition: str) -> dict[str, int]:
        """{part file path: committed row count} of ``partition``, in
        path order; empty when nothing is committed."""
        base = self.partition_dir(partition)
        files = self._rows.get(partition, {}).get("files", {})
        return {os.path.join(base, f): files[f] for f in sorted(files)}

    def staging_dir(self) -> str:
        """→ the stage's staging dir, fresh and empty, for one write that
        covers several partitions."""
        if os.path.isdir(self.staging):
            shutil.rmtree(self.staging)
        os.makedirs(self.staging)
        return self.staging

    def begin(self, partition: str, staged: bool = False) -> str:
        """→ temp dir to write into; commit() renames it into place.
        ``staged``: the temp dir is ``partition``'s subdir of the
        staging dir, moved in (empty when the write left none)."""
        tmp = self.partition_dir(partition) + ".tmp"
        if os.path.isdir(tmp):
            shutil.rmtree(tmp)
        src = os.path.join(self.staging, f"part={partition}")
        if staged and os.path.isdir(src):
            os.rename(src, tmp)
        else:
            os.makedirs(tmp)
        return tmp

    def commit(self, partition: str, input_digest: str) -> None:
        """Rename the temp dir into place, recording the row count of
        every ``.parquet`` file under it (footer reads)."""
        tmp = self.partition_dir(partition) + ".tmp"
        final = self.partition_dir(partition)
        files = {}
        for d, _, names in os.walk(tmp):
            for f in names:
                if f.endswith(".parquet"):
                    path = os.path.join(d, f)
                    files[os.path.relpath(path, tmp)] = _footer_rows(path)
        if os.path.isdir(final):
            shutil.rmtree(final)
        os.rename(tmp, final)
        self._rows[partition] = {"digest": input_digest, "files": files}
        with open(self.path + ".tmp", "w") as f:
            json.dump(self._rows, f, indent=1, sort_keys=True)
        os.replace(self.path + ".tmp", self.path)

    def completed_dirs(self) -> list[str]:
        return [self.partition_dir(p) for p in sorted(self._rows)
                if os.path.isdir(self.partition_dir(p))]

    def completed_files(self, suffix: str = ".parquet") -> list[str]:
        out = []
        for d in self.completed_dirs():
            out.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                       if f.endswith(suffix))
        return out
