"""Worker-process runtime helpers: cluster sizing, the one coarse-pid
shuffle and the per-worker component cache.

``by_key`` is the package's only grouping shuffle on a hashed key: it
routes rows to ``shuffle_parts()`` coarse partitions by ``pid_of`` of
their key columns and runs a function over each whole partition, so a
key never costs one Ray group of its own (~200 µs each). Every stage
that groups by entity, triple, user, gram, bucket or document goes
through it; groupbys on small real keys do not. Its list form is the
package's one co-partition join: each caller names its sides'
schemas and gets one table per side, while the null padding, side
code and split stay here.

Stages whose state is only a cache of immutable inputs (lexicons, alias
indexes, model weights, codec tables and the memos built over them) need
no actor: they run as stateless ``map_batches`` tasks over
``worker_cached`` components, which Ray's worker reuse keeps warm across
tasks, executions and Datasets. ``map_cached`` is that shape for a
component class; no package stage reserves CPUs for an actor pool.
"""

from __future__ import annotations


def cluster_cpus(default: int = 8) -> int:
    try:
        import ray
        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        pass
    return default


def shuffle_parts() -> int:
    """Coarse partition count of a ``groupby("pid")`` shuffle — O(CPUs)
    groups, never one Ray group per key (~200 µs each, see
    dedup.substring_spans)."""
    return max(16, cluster_cpus() * 4)


def _hash_input(col):
    """One key column in the form its hash reads, so that equal keys
    hash alike whatever their Arrow type and whatever else their batch
    holds: every integer and temporal column as int64 bits (uint64
    above 2**63 included) with nulls as 0; string, large_string and
    dictionary columns as Python strings (null as None), which keeps
    every string pid the plain pandas hash of the string."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    if isinstance(col, pd.Series):
        col = pa.array(col, from_pandas=True)
    elif isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        col = col.dictionary_decode()
    t = col.type
    if pa.types.is_temporal(t):
        col = col.view(pa.int64()) if t.bit_width == 64 \
            else col.cast(pa.int32()).cast(pa.int64())
        t = col.type
    if pa.types.is_integer(t):
        return col.fill_null(0).to_numpy().astype(np.int64)
    return col.to_pandas()


def pid_of(keys, n_parts: int):
    """Coarse partition id per row of ``keys`` — one key column (an
    Arrow array or a pandas Series), or a list of them hashed together.
    A vectorized, process-stable hash (pandas siphash with its fixed
    key; Python's str hash is salted per process) over ``_hash_input``,
    no per-row Python."""
    import pandas as pd
    if isinstance(keys, (list, tuple)):
        frame = pd.DataFrame({i: _hash_input(c) for i, c in
                              enumerate(keys)})
        h = pd.util.hash_pandas_object(frame, index=False)
    else:
        h = pd.util.hash_pandas_object(pd.Series(_hash_input(keys)),
                                       index=False)
    return (h.to_numpy() % n_parts).astype("int32")


def by_key(sides, key, fn, *, batch_format: str = "pyarrow"):
    """``fn`` over coarse partitions that each hold every row of their
    keys — the package's one hash-and-group shuffle.

    ``sides`` is one Dataset, or a list of ``(Dataset, schema)`` join
    sides; ``key`` is a column name, or a list of them, present on
    every side under the same name (a side renames its key before it
    comes here). One Dataset: its map step (fused with whatever map
    built it) sets ``pid = pid_of(key columns, shuffle_parts())``,
    replacing a ``pid`` column already there, and
    ``groupby("pid").map_groups(fn)`` runs with one argument, the
    partition. A list: each side is projected and cast to its own
    schema, padded with nulls to the union of the side schemas (a
    column two sides share must have one type) and given an int8 side
    code; the sides are unioned and grouped the same way, and each
    group is split back by side code, so ``fn(*parts)`` gets one part
    per side, in its side's own schema — empty but typed when the side
    has no rows there. Parts are pandas frames with
    ``batch_format="pandas"``, Arrow tables otherwise. Either way the
    operator keeps ``fn.__name__``."""
    import functools

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    cols = [key] if isinstance(key, str) else list(key)
    n_parts = shuffle_parts()

    def add_pid(batch):
        keys = [batch[c] for c in cols]
        pid = pid_of(keys[0] if len(keys) == 1 else keys, n_parts)
        if isinstance(batch, pd.DataFrame):
            return batch.assign(pid=pid)
        arr = pa.array(pid)
        i = batch.schema.get_field_index("pid")
        return batch.set_column(i, "pid", arr) if i >= 0 else \
            batch.append_column("pid", arr)

    if not isinstance(sides, (list, tuple)):
        return sides.map_batches(add_pid, batch_format=None) \
            .groupby("pid").map_groups(fn, batch_format=batch_format)

    schemas = [schema.remove_metadata() for _ds, schema in sides]
    union = pa.unify_schemas(schemas)

    def tagger(code: int, schema: pa.Schema):
        def tag(batch: pa.Table) -> pa.Table:
            own = batch.select(schema.names).cast(schema)
            n = own.num_rows
            return add_pid(pa.Table.from_arrays(
                [own.column(f.name) if f.name in schema.names
                 else pa.nulls(n, f.type) for f in union]
                + [pa.array(np.full(n, code, np.int8))],
                schema=union.append(pa.field("_side", pa.int8()))))
        return tag

    @functools.wraps(fn)
    def split(group: pa.Table):
        code = group.column("_side")
        parts = [group.filter(pc.equal(code, i)).select(s.names)
                 for i, s in enumerate(schemas)]
        if batch_format == "pandas":
            parts = [p.to_pandas() for p in parts]
        return fn(*parts)

    tagged = [ds.map_batches(tagger(i, s), batch_format="pyarrow")
              for i, ((ds, _), s) in enumerate(zip(sides, schemas))]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return ds.groupby("pid").map_groups(split, batch_format="pyarrow")


def renamed(ds, names: dict):
    """``ds`` with columns renamed old → new by ``names`` in an Arrow
    map step: how a ``by_key`` side gives its key the shared name (Ray's
    ``rename_columns`` fails on pandas blocks)."""
    def rename(batch):
        return batch.rename_columns([names.get(c, c)
                                     for c in batch.column_names])
    return ds.map_batches(rename, batch_format="pyarrow")


def materialized(ds):
    """``ds`` with its output computed, so that reading its blocks starts
    no Ray Data execution. A ``MaterializedDataset`` (``from_arrow`` or
    ``from_blocks`` output, or a ``materialize()`` result) only executes
    its own plan: over blocks already in hand that starts no executor,
    and the second time it is a no-op, where ``materialize()`` would
    copy the plan and run it twice."""
    from ray.data.dataset import MaterializedDataset
    if not isinstance(ds, MaterializedDataset):
        return ds.materialize()
    ds._plan.execute()
    return ds


def table_dataset(table):
    """One driver-side Arrow table as a ``materialized`` Dataset of one
    block. ``rd.from_blocks`` takes the block metadata from the table
    (``rd.from_arrow`` runs a remote task per table to compute it)."""
    import ray.data as rd
    return materialized(rd.from_blocks([table]))


def collect_table(ds, schema):
    """A materialized Dataset's blocks as one Arrow table on the driver
    (no Ray Data execution); ``schema``'s empty table when it has no
    rows."""
    import pyarrow as pa
    import ray
    blocks = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(blocks).combine_chunks() if blocks else \
        schema.empty_table()


def map_distinct(fn, *arrays, type=None):
    """``fn(*values)`` for every row of the equal-length Arrow ``arrays``
    as one Arrow array of ``type``, with ``fn`` called once per DISTINCT
    tuple of values: each array is dictionary-encoded (a null is a value
    of its own), the codes fold into one dense key, ``fn`` runs on the
    first row of each key and the results are gathered back."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def encode(a):
        enc = pc.dictionary_encode(a, null_encoding="encode")
        return enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) \
            else enc

    if len(arrays) == 1:
        enc = encode(arrays[0])
        return pa.array([fn(v) for v in enc.dictionary.to_pylist()],
                        type).take(enc.indices)
    key = np.zeros(len(arrays[0]), np.int64)
    for a in arrays:
        enc = encode(a)
        key = np.unique(key * len(enc.dictionary)
                        + enc.indices.to_numpy(zero_copy_only=False),
                        return_inverse=True)[1]
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    values = (a.take(first).to_pylist() for a in arrays)
    return pa.array([fn(*v) for v in zip(*values)], type).take(inverse)


def pool_budget() -> float:
    """Perfbench's ``runtime.actors`` metric only; goes with ROADMAP
    direction 1."""
    cpus = cluster_cpus()
    return max(1.0, cpus - max(2, cpus // 16))


def pool_size(share: float = 1 / 3, cap: int | None = None,
              num_cpus: float = 1.0) -> int:
    """Perfbench's ``runtime.actors`` metric only; goes with ROADMAP
    direction 1."""
    n = max(1, int(pool_budget() * share / num_cpus))
    if cap is not None:
        n = min(n, cap)
    return n


# entries kept per component kind in one worker process
WORKER_CACHE_CAP = 4

_WORKER_CACHE: dict[str, dict] = {}


def ref_key(ref):
    """Cache key of a broadcast ObjectRef argument (None stays None)."""
    return None if ref is None else ref.hex()


def worker_cached(kind: str, key, build):
    """This worker process's ``kind`` component for ``key``, built by
    ``build()`` on first use.

    Ray reuses task worker processes across tasks and executions, so a
    stateless ``map_batches`` task keeps heavy components and their
    memos warm the way a long-lived actor would, without reserving a
    CPU. Each kind holds at most ``WORKER_CACHE_CAP`` entries and evicts
    the oldest: keys embed broadcast ObjectRefs, and a driver that puts
    a fresh ref per job would otherwise grow every worker without bound.

    The first call in a process raises the cyclic-GC thresholds to
    ``(100_000, 50, 50)``: the cached chains allocate millions of
    short-lived Python objects per batch, and the default gen-0
    threshold (700) made cyclic GC a measurable fraction of worker CPU.
    Ray's raylet already broadcasts periodic ``gc.collect()`` requests
    to workers, which bounds any cycle growth.
    """
    if not _WORKER_CACHE:
        import gc
        gc.set_threshold(100_000, 50, 50)
    cache = _WORKER_CACHE.setdefault(kind, {})
    obj = cache.get(key)
    if obj is None:
        obj = build()
        if len(cache) >= WORKER_CACHE_CAP:
            del cache[next(iter(cache))]     # dicts keep insertion order
        cache[key] = obj
    return obj


def _key_part(value):
    """Cache-key form of one constructor argument: a broadcast ObjectRef
    by its id, a scalar as itself. Anything else would key by ``id()``,
    which the driver reuses, or not at all — ``ray.put`` it instead."""
    import ray
    if isinstance(value, ray.ObjectRef):
        return "ref", ref_key(value)
    if value is None or isinstance(value, (str, int, float, bytes)):
        return value
    raise TypeError(f"map_cached: pass {type(value).__name__} arguments "
                    f"as ray.put refs")


def map_cached(ds, cls, *, batch_size: int, **ctor_kwargs):
    """``ds.map_batches`` as stateless tasks over this worker's cached
    ``cls(**ctor_kwargs)`` (pyarrow batches).

    The cache key is built from EVERY constructor argument, so a cached
    component is reused only for the inputs that built it. ``cls`` must
    be a module-level class: one defined inside a function could close
    over an input the key cannot see. Arguments are scalars or
    ``ray.put`` refs (``_key_part``)."""
    kind = f"{cls.__module__}.{cls.__qualname__}"
    if "<locals>" in cls.__qualname__:
        raise ValueError(f"map_cached needs a module-level class, got "
                         f"{kind}: its closure is outside the cache key")
    key = tuple(sorted((k, _key_part(v)) for k, v in ctor_kwargs.items()))

    def fn(batch):
        return worker_cached(kind, key, lambda: cls(**ctor_kwargs))(batch)

    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size)
