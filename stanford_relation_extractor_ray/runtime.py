"""Worker-process runtime helpers: actor-pool sizing and the
per-worker component cache.

Fixed-size actor pools (not autoscaling) because a pool that ramps from
1 actor spends seconds of the job's wall-clock scaling up — measured as
the main reason a 32-CPU run failed to beat an 8-CPU run by more than
1.6× on the bench corpus.

The hard constraint: every fixed pool in a streaming pipeline reserves
its CPUs for the WHOLE execution, even while its stage has no input
yet, and Ray Data's stateless tasks (read/generate, shuffle map, sort,
map_groups) each need a full CPU slot. If the pools reserve ~all CPUs
the stateless stages never schedule and the pipeline livelocks at ~0%
CPU.

Rule: all pools together may reserve at most ``pool_budget()`` CPUs =
cluster − headroom, headroom = max(2, cpus/16). Each pool takes a
``share`` of that budget scaled by its per-actor ``num_cpus``.

Stages whose state is only a cache of immutable inputs (lexicons,
alias indexes, model weights and the memos built over them) do not
need an actor at all: they run as stateless tasks over
``worker_cached`` components, which Ray's worker reuse keeps warm
across tasks, executions and Datasets.
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


def pool_budget() -> float:
    """CPUs available to actor pools after task headroom.

    Headroom cpus/16 (floor 2): at 32 CPUs this reserves 2 instead of
    the old cpus/8 = 4; the 2-CPU floor keeps a task slot free at
    small cluster sizes (the livelock documented above)."""
    cpus = cluster_cpus()
    return max(1.0, cpus - max(2, cpus // 16))


def pool_size(share: float = 1 / 3, cap: int | None = None,
              num_cpus: float = 1.0) -> int:
    """Actor count for a pool taking ``share`` of the pool budget with
    ``num_cpus`` reserved per actor."""
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
