"""Table storage: Lance when available, Parquet otherwise.

The target deployment stores corpus / node / edge tables as Lance
datasets (``ray.data.read_lance`` / ``Dataset.write_lance``). This
container has no ``pylance``, so every call degrades to Parquet with
the same directory-per-table layout; the API is the seam — callers
never name a format.
"""

from __future__ import annotations


def _have_lance() -> bool:
    try:
        import lance                          # noqa: F401
        return True
    except Exception:
        return False


def read_table(path: str, *, columns=None):
    """→ streaming Dataset from a Lance dataset or Parquet directory."""
    import ray.data as rd
    if _have_lance():
        return rd.read_lance(path, columns=columns)
    return read_parquet_clean(path, columns=columns)


def read_parquet_clean(path, *, columns=None):
    """``ray.data.read_parquet`` with the file-level pandas metadata
    stripped from the block schema. pyarrow hashes a schema's metadata
    as a dict, so metadata-bearing schemas are UNHASHABLE and every
    downstream block unify logs ``Failed to hash the schemas (for
    deduplication): unhashable type: 'dict'`` (Ray's
    ``transform_pyarrow.unify_schemas`` set-dedup) and pays the slow
    unify path. One metadata read per file + an explicit clean
    ``schema=`` keeps blocks hashable end-to-end. The schema is unified
    over EVERY listed file (a column only a later file has is kept,
    null-filled elsewhere); conflicting column types raise. Listed
    files come back with their own columns only: Ray would add a hive
    partition column for every ``key=value`` directory on their path
    (a checkpoint's ``part=0000/``) even with ``schema=``."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    files = path if isinstance(path, (list, tuple)) else [path]
    try:
        schemas = [pq.read_schema(f).remove_metadata() for f in files]
    except Exception:            # directory input etc.: let Ray infer
        return rd.read_parquet(path, columns=columns)
    schema = pa.unify_schemas(schemas)
    if columns is None:
        # not columns=: Ray's projection then fails on a file that
        # lacks one of the unified columns
        return rd.read_parquet(path, schema=schema) \
            .select_columns(schema.names)
    schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema)


def write_table(ds, path: str):
    """Dataset → Lance dataset / partitioned Parquet directory."""
    if _have_lance():
        ds.write_lance(path)
    else:
        ds.write_parquet(path)
    return path
