"""Deduplication operators over document datasets.

First-class large-scale training-data-pipeline components (beyond the
reference's per-entity dedup — its near-dup machinery,
``HeuristicSlotfillPostProcessors.java:672-739`` + min-hash blocking
plan SURVEY.md §7.2/7.3, generalized corpus-wide):

- ``exact_dedup``       — content-hash groupby, keep first (min id).
- ``minhash_lsh_pairs`` — shingle → minhash → banded LSH buckets →
  candidate pairs → distributed exact-Jaccard verification over a
  two-pass shingle-digest join. The scale path: only bucket-mates are
  compared, never all pairs, and nothing lands on the driver.
- ``simhash_pairs``     — 64-bit simhash, banded by pigeonhole so any
  pair within the hamming radius shares ≥1 of (radius+1) bands —
  exact, no false negatives.
- ``jaccard_pairs``     — blocked exact n-gram-Jaccard join (the
  verification kernel standalone, for oracle-checkable small blocks).
- ``embedding_dup_pairs`` — cosine near-dup via IVF multi-probe
  bucketing (deterministic seeded centroids, in-bucket matmul,
  coarse-pid pair distinct) — no driver-side matrix, bucket id doubles
  as a partition key at scale.

All hash functions are deterministic (crc32/blake2, seeded
multiply-shift) so results are reproducible across processes and
cluster sizes.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def shingles(text: str, k: int = 3) -> set[str]:
    toks = text.split(' ')
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


def minhash_signature(sh: set[str], a: np.ndarray, b: np.ndarray
                      ) -> np.ndarray:
    if not sh:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    hv = np.fromiter((zlib.crc32(s.encode()) for s in sh),
                     dtype=np.uint64, count=len(sh))
    # (a*h + b) mod p for all perms × shingles, vectorized
    vals = (a[:, None] * hv[None, :] + b[:, None]) % _MERSENNE
    return vals.min(axis=1)


# ---------------------------------------------------------------------------


def _doc_shingle_rows(texts, k: int):
    """Vectorized per-document DISTINCT shingle rows — the batch form
    of ``shingles()`` (identical semantics: length-k token windows for
    docs with ≥k tokens, else the whole — possibly empty — text as the
    single shingle; nulls read as ""). Returns ``(doc_idx, grams,
    seg_starts)`` with rows doc-contiguous in doc order, distinct
    within each doc, and every doc owning ≥1 row; ``seg_starts`` are
    the reduceat segment offsets. One split + one Arrow window join +
    one hash-aggregate replace the former per-doc Python set builds
    (minhash signatures and digest sets both consume this)."""
    n = len(texts)
    if pa.types.is_null(texts.type):
        coal = pa.array([""] * n, pa.string())
    else:
        coal = pc.coalesce(texts, "")
        if isinstance(coal, pa.ChunkedArray):
            coal = coal.combine_chunks()
    win = _token_windows(coal, k, build_grams=True)
    if win is None:
        # every doc short: whole text is its one shingle
        d = np.arange(n, dtype=np.int64)
        return d, coal, d
    counts = win["counts"]
    short = np.flatnonzero(counts == 0)
    d_all = win["doc_idx"]
    g_all = win["grams"]
    if len(short):
        d_all = np.concatenate([d_all, short])
        g_all = pa.concat_arrays([g_all, coal.take(pa.array(short))])
    uniq = (pa.table({"d": pa.array(d_all), "g": g_all})
            .group_by(["d", "g"]).aggregate([])
            .sort_by([("d", "ascending")]))
    d = uniq.column("d").to_numpy()
    grams = uniq.column("g").combine_chunks() \
        if isinstance(uniq.column("g"), pa.ChunkedArray) \
        else uniq.column("g")
    seg_starts = np.flatnonzero(np.diff(d, prepend=-1))
    return d, grams, seg_starts


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep the min-id row per distinct text (hash-partition + per-group
    first; reference analog ``keysToNotDuplicate`` global dedup,
    ``KBPTrainer.java:155,246``). Output: (id_col, text_col).

    The shuffle is a coarse crc32(text) pid — O(CPUs) Ray groups with
    an Arrow C++ hash-aggregate per partition, never one Ray group per
    distinct text (whose ~200 µs/group driver overhead is pathological
    at corpus-scale cardinality; see ``substring_spans``)."""
    from ..runtime import cluster_cpus
    n_parts = max(16, cluster_cpus() * 4)

    def partial(batch: pa.Table) -> pa.Table:
        # in-batch pre-aggregation (Arrow hash-agg) → the global
        # groupby shuffles at most one row per distinct text per batch
        agg = (batch.select([id_col, text_col])
               .group_by(text_col).aggregate([(id_col, "min")])
               .rename_columns([text_col, id_col]))
        # null-safe: a null text hashes as '' for ROUTING only (Arrow
        # group_by already keeps null as its own group, so the null
        # row survives with its min id; crc32 just picks its pid)
        pid = np.array([zlib.crc32((t or "").encode()) % n_parts
                        for t in agg.column(text_col).to_pylist()],
                       np.int32)
        return agg.append_column("pid", pa.array(pid))

    def reduce_part(part: pa.Table) -> pa.Table:
        return (part.group_by(text_col)
                .aggregate([(id_col, "min")])
                .rename_columns([text_col, id_col])
                .select([id_col, text_col]))

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("pid")
            .map_groups(reduce_part, batch_format="pyarrow"))


def minhash_lsh_pairs(ds, *, text_col: str = "text",
                      id_col: str = "doc_id", k: int = 3,
                      num_perm: int = 128, bands: int = 64,
                      threshold: float = 0.5, seed: int = 7):
    """Near-duplicate pairs via MinHash + banded LSH + exact verify.

    Dataflow (fully distributed, nothing on the driver): per-batch
    signature computation (vectorized numpy) → banded bucket rows →
    coarse-pid groupby → within-bucket candidate pairs → coarse-pid
    pair distinct → two-pass digest join (pairs meet each doc's 64-bit
    shingle-digest set on id_a, then id_b) → in-partition exact
    Jaccard. Output: (id_a, id_b, jaccard) with id_a < id_b.

    With r = num_perm/bands rows per band, a pair with true Jaccard j
    shares ≥1 band w.p. 1-(1-j^r)^bands — at the defaults (r=2, b=64)
    detection at j≥0.5 is ≈1-1e-8, so the verified output equals the
    exact-join oracle with overwhelming probability while only
    comparing bucket-mates. Verification compares 64-bit siphash
    shingle digests (``pd.util.hash_pandas_object``, fixed key), not
    texts — collision-free in practice and ~10× smaller than text
    payloads in the verify shuffle.
    """
    r = num_perm // bands
    a, b = _perm_params(num_perm, seed)
    from ..runtime import cluster_cpus
    n_parts = max(16, cluster_cpus() * 4)

    def to_bands(batch: pa.Table) -> pa.Table:
        """(id, pid, bucket) rows — one per band; vectorized across
        the WHOLE batch (``_doc_shingle_rows`` + crc32 once per
        distinct gram + per-perm ``minimum.reduceat`` over
        doc-contiguous segments — byte-identical signatures to the
        per-doc ``minhash_signature`` loop, pinned in
        tests/test_properties.py). Band hashes fold into a single
        uint64 bucket key; rows route to a COARSE partition id so the
        downstream groupby has O(n_parts) groups, not O(rows)."""
        ids = np.asarray(batch.column(id_col).to_numpy(), np.int64)
        n_docs = batch.num_rows
        d, grams, seg = _doc_shingle_rows(
            batch.column(text_col).combine_chunks(), k)
        enc = grams.dictionary_encode()
        dvals = enc.dictionary.to_pylist()     # cross-doc distinct
        dh = np.fromiter((zlib.crc32(s.encode()) for s in dvals),
                         np.uint64, len(dvals))
        hv = dh[enc.indices.to_numpy(zero_copy_only=False)]
        sig = np.empty((n_docs, num_perm), np.uint64)
        for i in range(num_perm):
            sig[:, i] = np.minimum.reduceat(
                (a[i] * hv + b[i]) % _MERSENNE, seg)
        folded = sig.reshape(n_docs, bands, r)
        acc = np.full((n_docs, bands), 14695981039346656037,
                      dtype=np.uint64)
        for col in range(r):
            acc = (acc ^ folded[:, :, col]) * np.uint64(1099511628211)
        acc = (acc ^ np.arange(bands, dtype=np.uint64)[None, :]) \
            * np.uint64(1099511628211)
        out_id = np.repeat(ids, bands)
        out_bucket = acc.reshape(-1)
        pid = (out_bucket % np.uint64(n_parts)).astype(np.int32)
        return pa.table({"id": out_id, "bucket": out_bucket, "pid": pid})

    banded = ds.map_batches(to_bands, batch_format="pyarrow",
                            batch_size=4096)

    def partition_pairs(group: pa.Table) -> pa.Table:
        """One coarse partition: dict-group by bucket, emit candidate
        pairs (deduped within the partition)."""
        ids = group.column("id").to_numpy()
        buckets = group.column("bucket").to_numpy()
        order = np.lexsort((ids, buckets))
        ids, buckets = ids[order], buckets[order]
        seen: set[tuple[int, int]] = set()
        run_start = 0
        for i in range(1, len(ids) + 1):
            if i == len(ids) or buckets[i] != buckets[run_start]:
                if i - run_start > 1:
                    run = np.unique(ids[run_start:i])
                    for x in range(len(run)):
                        for y in range(x + 1, len(run)):
                            seen.add((int(run[x]), int(run[y])))
                run_start = i
        return pa.table(
            {"id_a": np.fromiter((p[0] for p in seen), np.int64,
                                 len(seen)),
             "id_b": np.fromiter((p[1] for p in seen), np.int64,
                                 len(seen))})

    cand = banded.groupby("pid").map_groups(partition_pairs,
                                            batch_format="pyarrow")
    # a pair can surface from several band partitions → coarse-pid
    # distinct (never one group per pair, never the driver)
    cand = _dedupe_pairs(cand, n_parts)

    # ---- distributed exact-Jaccard verification ----------------------
    # Two-pass digest join (the tagged-union shape of
    # graph_infer.intersect_fills): candidate pairs meet each doc's
    # 64-bit shingle-digest set in a coarse partition keyed by the
    # doc id — first on id_a, then on id_b — and the Jaccard is
    # computed where the second digest lands. No driver materialization
    # of pairs or texts; the digest stream is shuffled twice, both
    # passes streaming with O(n_parts) groups.
    empty_sh = pa.array([], pa.list_(pa.uint64()))

    def digests(batch: pa.Table) -> pa.Table:
        """Per-doc sorted 64-bit shingle-digest sets, vectorized: one
        ``_doc_shingle_rows`` pass + ONE ``hash_pandas_object`` call
        over the whole gram column (element hashes are value-based, so
        this equals the former per-doc Series hashing exactly), then a
        doc-major lexsort and a ListArray wrap. The digest is
        genuinely 64-bit siphash13 with a fixed key (process-stable) —
        NOT a crc32 pair: crc32 is affine, so crc32(b+'#') is a fixed
        bijection of crc32(b) and the pair carries only 32 bits;
        birthday collisions from ~77k distinct shingles would inflate
        the "exact" Jaccard verify at corpus scale."""
        import pandas as pd
        ids = np.asarray(batch.column(id_col).to_numpy(), np.int64)
        n_docs = batch.num_rows
        d, grams, _seg = _doc_shingle_rows(
            batch.column(text_col).combine_chunks(), k)
        h = pd.util.hash_pandas_object(
            grams.to_pandas().astype("object"), index=False) \
            .to_numpy().astype(np.uint64)
        order = np.lexsort((h, d))
        h = h[order]
        counts = np.bincount(d, minlength=n_docs)
        offs = np.concatenate(([0], np.cumsum(counts)))
        sh = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                      pa.array(h, pa.uint64()))
        return pa.table({
            "jid": pa.array(ids, pa.int64()),
            "id_a": pa.array(ids, pa.int64()),
            "id_b": pa.array([-1] * n_docs, pa.int64()),
            "sh": sh,
            "sh_a": pa.nulls(n_docs, pa.list_(pa.uint64())),
            "side": pa.array(["D"] * n_docs, pa.string()),
        })

    def _with_join_pid(t: pa.Table) -> pa.Table:
        jid = t.column("jid").to_numpy()
        pid = (jid.astype(np.uint64) * np.uint64(2654435761)
               % np.uint64(n_parts)).astype(np.int32)
        return t.append_column("jpid", pa.array(pid))

    def tag_pairs_on_a(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "jid": batch.column("id_a"),
            "id_a": batch.column("id_a"),
            "id_b": batch.column("id_b"),
            "sh": pa.nulls(n, pa.list_(pa.uint64())),
            "sh_a": pa.nulls(n, pa.list_(pa.uint64())),
            "side": pa.array(["P"] * n, pa.string()),
        })

    def attach_a(group: pa.Table) -> pa.Table:
        sides = group.column("side").to_pylist()
        jids = group.column("jid").to_pylist()
        shs = group.column("sh").to_pylist()
        by_id = {j: s for j, s, sd in zip(jids, shs, sides)
                 if sd == "D"}
        out = {"jid": [], "id_a": [], "id_b": [], "sh_a": []}
        ias = group.column("id_a").to_pylist()
        ibs = group.column("id_b").to_pylist()
        for sd, ia, ib in zip(sides, ias, ibs):
            if sd != "P":
                continue
            sa = by_id.get(ia)
            if sa is None:
                continue
            out["jid"].append(ib)        # next pass joins on id_b
            out["id_a"].append(ia)
            out["id_b"].append(ib)
            out["sh_a"].append(sa)
        return pa.table({
            "jid": pa.array(out["jid"], pa.int64()),
            "id_a": pa.array(out["id_a"], pa.int64()),
            "id_b": pa.array(out["id_b"], pa.int64()),
            "sh": pa.nulls(len(out["jid"]), pa.list_(pa.uint64())),
            "sh_a": pa.array(out["sh_a"], pa.list_(pa.uint64())),
            "side": pa.array(["P"] * len(out["jid"]), pa.string()),
        })

    def verify(group: pa.Table) -> pa.Table:
        sides = group.column("side").to_pylist()
        jids = group.column("jid").to_pylist()
        shs = group.column("sh").to_pylist()
        by_id = {j: s for j, s, sd in zip(jids, shs, sides)
                 if sd == "D"}
        out_a, out_b, out_j = [], [], []
        ias = group.column("id_a").to_pylist()
        ibs = group.column("id_b").to_pylist()
        sas = group.column("sh_a").to_pylist()
        for sd, ia, ib, sa in zip(sides, ias, ibs, sas):
            if sd != "P":
                continue
            sb_ = by_id.get(ib)
            if sb_ is None or sa is None:
                continue
            na, nb = len(sa), len(sb_)
            inter = len(np.intersect1d(
                np.asarray(sa, dtype=np.uint64),
                np.asarray(sb_, dtype=np.uint64),
                assume_unique=True))
            union = na + nb - inter
            j = inter / union if union else 0.0
            if j >= threshold:
                out_a.append(ia)
                out_b.append(ib)
                out_j.append(j)
        return pa.table({"id_a": pa.array(out_a, pa.int64()),
                         "id_b": pa.array(out_b, pa.int64()),
                         "jaccard": pa.array(out_j, pa.float64())})

    dig = ds.map_batches(digests, batch_format="pyarrow",
                         batch_size=4096)
    pass1 = (cand.map_batches(tag_pairs_on_a, batch_format="pyarrow")
             .union(dig)
             .map_batches(_with_join_pid, batch_format="pyarrow")
             .groupby("jpid")
             .map_groups(attach_a, batch_format="pyarrow"))
    return (pass1.union(dig)
            .map_batches(_with_join_pid, batch_format="pyarrow")
            .groupby("jpid")
            .map_groups(verify, batch_format="pyarrow")
            .select_columns(["id_a", "id_b", "jaccard"]))


def _dedupe_pairs(pairs, n_parts: int, extra_col: str | None = None):
    """Distinct (id_a, id_b) via coarse-pid routing + in-partition
    vectorized dedupe — the cross-partition distinct used by every
    pair-emitting operator here."""
    def add_pid(batch: pa.Table) -> pa.Table:
        ia = batch.column("id_a").to_numpy()
        ib = batch.column("id_b").to_numpy()
        pid2 = ((ia.astype(np.uint64) * np.uint64(2654435761)
                 ^ ib.astype(np.uint64)) % np.uint64(n_parts)) \
            .astype(np.int32)
        return batch.append_column("pid2", pa.array(pid2))

    cols = ["id_a", "id_b"] + ([extra_col] if extra_col else [])

    def dedupe(group: pa.Table) -> pa.Table:
        import pandas as pd
        df = group.select(cols).to_pandas()
        df = df.sort_values(cols, kind="mergesort") \
            .drop_duplicates(["id_a", "id_b"], keep="first")
        # strip the pandas schema metadata from_pandas attaches — a
        # metadata-bearing schema is unhashable (pyarrow hashes the
        # metadata dict) and downgrades every downstream block unify
        # to the slow path with a per-block warning
        return pa.Table.from_pandas(df, preserve_index=False) \
            .replace_schema_metadata(None)

    return (pairs.map_batches(add_pid, batch_format="pyarrow")
            .groupby("pid2").map_groups(dedupe, batch_format="pyarrow")
            .select_columns(cols))


def simhash64(text: str, k: int = 1) -> int:
    """Vectorized per document: one unpackbits over the [n_shingles, 8]
    digest matrix instead of a numpy round-trip per shingle (identical
    bits: Σ(2b−1) = 2Σb − n, and each digest's big-endian byte layout
    matches the former int round-trip)."""
    sh = shingles(text, k)
    if not sh:
        return 0
    digests = b"".join(
        hashlib.blake2b(s.encode(), digest_size=8).digest() for s in sh)
    bits = np.unpackbits(
        np.frombuffer(digests, dtype=np.uint8).reshape(-1, 8), axis=1)
    v = bits.sum(axis=0, dtype=np.int64) * 2 - len(sh)
    return int.from_bytes(np.packbits(v > 0).tobytes(), "big")


def _simhash64_batch(texts, k: int = 1) -> np.ndarray:
    """Batch form of ``simhash64`` — bit-identical (same per-shingle
    blake2b digests, and Σ(2b−1) over a doc's shingles is order-free):
    distinct shingle rows for the whole batch, blake2b once per
    DISTINCT gram across docs, unpackbits on the distinct digest
    matrix, per-doc bit sums via one ``add.reduceat``, sign-pack."""
    d, grams, seg = _doc_shingle_rows(texts, k)
    enc = grams.dictionary_encode()
    dvals = enc.dictionary.to_pylist()
    dig = b"".join(hashlib.blake2b(s.encode(), digest_size=8).digest()
                   for s in dvals)
    # big-endian uint64 per distinct digest: bit p of the packed value
    # is exactly simhash64's unpackbits column 63-p, so the per-bit
    # majority below reproduces its packbits output bit-for-bit —
    # WITHOUT materializing a [rows, 64] bit matrix (the gather +
    # reduceat on it measured 5x slower than this shift loop)
    h64 = np.frombuffer(dig, dtype=">u8").astype(np.uint64) \
        if dvals else np.zeros(0, np.uint64)
    hv = h64[enc.indices.to_numpy(zero_copy_only=False)]
    n_sh = np.diff(np.append(seg, len(d)))
    out = np.zeros(len(seg), np.uint64)
    for p in range(64):
        s = np.add.reduceat(
            ((hv >> np.uint64(p)) & np.uint64(1)).astype(np.int64),
            seg)
        out |= ((s * 2 - n_sh) > 0).astype(np.uint64) << np.uint64(p)
    # simhash64 returns 0 for an empty shingle set; _doc_shingle_rows
    # gives every doc >= 1 shingle ('' for empty text), matching
    # shingles()'s own never-empty contract — no special case needed
    return out


def simhash_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  radius: int = 3, k: int = 1):
    """Near-dup pairs with hamming(simhash) ≤ radius.

    Banding by pigeonhole: the 64-bit hash splits into (radius+1)
    blocks; any pair within the radius is identical on ≥1 block, so
    bucketing on (block index, block value) finds every such pair —
    no false negatives, verification filters bucket collisions.
    Output: (id_a, id_b, hamming), id_a < id_b.
    """
    n_blocks = radius + 1
    width = 64 // n_blocks
    from ..runtime import cluster_cpus
    n_parts = max(16, cluster_cpus() * 4)

    def to_blocks(batch: pa.Table) -> pa.Table:
        """Vectorized across the batch: one ``_doc_shingle_rows``
        pass, blake2b once per DISTINCT gram, per-doc bit sums via
        ``add.reduceat`` — hashes bit-identical to the per-doc
        ``simhash64`` loop (pinned in tests/test_properties.py); the
        block explosion is numpy shifts over the whole hash vector."""
        ids = np.asarray(batch.column(id_col).to_numpy(), np.int64)
        n = batch.num_rows
        hs = _simhash64_batch(batch.column(text_col).combine_chunks(),
                              k)
        # explode each doc to its n_blocks (block index, block value)
        # bucket keys
        bi = np.tile(np.arange(n_blocks, dtype=np.uint64), n)
        hrep = np.repeat(hs, n_blocks)
        bval = (hrep >> (bi * np.uint64(width))) \
            & np.uint64((1 << width) - 1)
        out_bucket = (bval * np.uint64(1099511628211)) ^ bi
        pid = (out_bucket % np.uint64(n_parts)).astype(np.int32)
        return pa.table({"id": np.repeat(ids, n_blocks),
                         "bucket": out_bucket, "sh": hrep,
                         "pid": pid})

    def partition_pairs(group: pa.Table) -> pa.Table:
        """One coarse partition: dict-group by bucket key, verify
        hamming within buckets."""
        ids = group.column("id").to_numpy()
        buckets = group.column("bucket").to_numpy()
        hs = group.column("sh").to_numpy()
        order = np.lexsort((ids, buckets))
        ids, buckets, hs = ids[order], buckets[order], hs[order]
        out: set[tuple[int, int, int]] = set()
        run_start = 0
        for i in range(1, len(ids) + 1):
            if i == len(ids) or buckets[i] != buckets[run_start]:
                if i - run_start > 1:
                    rid, rh = ids[run_start:i], hs[run_start:i]
                    for x in range(len(rid)):
                        for y in range(x + 1, len(rid)):
                            if rid[x] == rid[y]:
                                continue
                            d = int(rh[x] ^ rh[y]).bit_count()
                            if d <= radius:
                                a_, b_ = sorted((int(rid[x]),
                                                 int(rid[y])))
                                out.add((a_, b_, d))
                run_start = i
        rows = sorted(out)
        return pa.table(
            {"id_a": pa.array([r_[0] for r_ in rows], pa.int64()),
             "id_b": pa.array([r_[1] for r_ in rows], pa.int64()),
             "hamming": pa.array([r_[2] for r_ in rows], pa.int64())})

    blocks = ds.map_batches(to_blocks, batch_format="pyarrow",
                            batch_size=4096)
    pairs = blocks.groupby("pid").map_groups(partition_pairs,
                                             batch_format="pyarrow")

    # distinct pairs across partitions: coarse-pid dedupe again (a pair
    # can surface from several blocks) — never one group per pair
    def add_pid(batch: pa.Table) -> pa.Table:
        ia = batch.column("id_a").to_numpy()
        ib = batch.column("id_b").to_numpy()
        pid2 = ((ia.astype(np.uint64) * np.uint64(2654435761)
                 ^ ib.astype(np.uint64)) % np.uint64(n_parts)) \
            .astype(np.int32)
        return batch.append_column("pid2", pa.array(pid2))

    def dedupe(group: pa.Table) -> pa.Table:
        ia = group.column("id_a").to_numpy()
        ib = group.column("id_b").to_numpy()
        hm = group.column("hamming").to_numpy()
        order = np.lexsort((hm, ib, ia))
        ia, ib, hm = ia[order], ib[order], hm[order]
        keep = np.ones(len(ia), dtype=bool)
        keep[1:] = (ia[1:] != ia[:-1]) | (ib[1:] != ib[:-1])
        return pa.table({"id_a": pa.array(ia[keep]),
                         "id_b": pa.array(ib[keep]),
                         "hamming": pa.array(hm[keep])})

    return (pairs.map_batches(add_pid, batch_format="pyarrow")
            .groupby("pid2").map_groups(dedupe, batch_format="pyarrow")
            .select_columns(["id_a", "id_b", "hamming"]))


def jaccard_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                  block_cols: tuple = ("lang",), k: int = 3,
                  threshold: float = 0.5):
    """Exact blocked n-gram-Jaccard join: all pairs within a block.

    The oracle-checkable exact variant (blocks must be small); the LSH
    op above is the at-scale path. Output: (id_a, id_b, jaccard).
    """
    def block_pairs(group: pa.Table) -> pa.Table:
        ids = group.column(id_col).to_pylist()
        texts = group.column(text_col).to_pylist()
        order = np.argsort(ids)
        sh = [shingles(texts[i], k) for i in order]
        idv = [ids[i] for i in order]
        out_a, out_b, out_j = [], [], []
        for x in range(len(idv)):
            for y in range(x + 1, len(idv)):
                union = len(sh[x] | sh[y])
                j = len(sh[x] & sh[y]) / union if union else 0.0
                if j >= threshold:
                    out_a.append(idv[x])
                    out_b.append(idv[y])
                    out_j.append(j)
        return pa.table({"id_a": out_a, "id_b": out_b,
                         "jaccard": np.array(out_j, dtype=np.float64)})

    return ds.groupby(list(block_cols)).map_groups(
        block_pairs, batch_format="pyarrow")


def _token_windows(texts, n: int, *, build_grams: bool = True):
    """Shared vectorized window kernel for the exact-substring family:
    split a text column once, enumerate every length-``n`` token window
    with ragged numpy index arithmetic, and (when ``build_grams``) join
    each window into its gram via one Arrow C++ element-wise join — no
    per-row Python. Probing stages (scrub / span-ranges) pass
    ``build_grams=False`` and use ``_flag_hits`` instead: building the
    gram string for EVERY window is the kernel's dominant cost (takes +
    join ≈ 0.26 s per 10⁶ windows measured), and a probe only needs
    strings for candidate hits.

    Returns ``None`` when no text yields a window, else a dict with:
    ``flat`` (flattened token array), ``lens`` (tokens per doc),
    ``counts`` (windows per doc), ``doc_idx`` (doc index per window),
    ``within`` (window's 0-based token offset inside its doc),
    ``starts`` (window's first-token index into ``flat``) and
    ``grams`` (the joined n-gram strings; only when ``build_grams``).
    """
    if pa.types.is_null(texts.type):    # all-null column: no windows
        return None
    split = pc.split_pattern(pc.coalesce(texts, ""), " ")
    flat = pc.list_flatten(split)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    lens = pc.list_value_length(split).to_numpy().astype(np.int64)
    counts = np.maximum(lens - (n - 1), 0)
    total = int(counts.sum())
    if total == 0:
        return None
    doc_idx = np.repeat(np.arange(len(lens)), counts)
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    win_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(win_starts, counts)
    starts = np.repeat(offsets, counts) + within
    out = {"flat": flat, "lens": lens, "counts": counts,
           "doc_idx": doc_idx, "within": within, "starts": starts}
    if build_grams:
        parts = [flat.take(pa.array(starts + k)) for k in range(n)]
        out["grams"] = pc.binary_join_element_wise(*parts, " ")
    return out


_FNV = np.uint64(1099511628211)


def _flag_hits(win, n: int, gram_tokens: pa.Array,
               gram_set: pa.Array) -> np.ndarray:
    """Window indices (into ``win``'s window arrays) whose gram is in
    the flagged set — EXACT, without building a gram string per window.

    Two phases: (1) dictionary-encode the batch's tokens once, compute
    a rolling FNV hash over every window's token-index sequence with n
    contiguous slice ops (no per-window gather matrix), hash the
    flagged grams through the same batch dictionary (a flagged gram
    with any token absent from the batch can't occur), and prefilter
    via sorted-searchsorted membership; (2) build gram STRINGS only for
    the (few) hash candidates and verify exactly with ``pc.is_in`` —
    hash collisions can only add candidates, never drop a true hit, so
    the result equals the build-every-gram-string probe.

    ``gram_tokens`` is the flagged grams' tokens flattened to a
    [G·n]-long array (grams are exactly n tokens each — a joined
    n-token window can never equal a string with a different token
    count); ``gram_set`` is the flagged gram strings for the exact
    verify."""
    flat, starts = win["flat"], win["starts"]
    d = flat.dictionary_encode()
    idx = d.indices.fill_null(-1).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    m = len(idx) - n + 1
    if m <= 0 or len(gram_set) == 0:
        return np.empty(0, dtype=np.int64)
    # rolling hash at every flat position (contiguous slices), gathered
    # at window starts only
    h_all = np.zeros(m, np.uint64)
    for k in range(n):
        h_all = (h_all ^ idx[k:m + k].astype(np.uint64)) * _FNV
    wh = h_all[starts]
    # flagged grams → this batch's dictionary space
    gi = pc.index_in(gram_tokens, value_set=d.dictionary) \
        .fill_null(-1).to_numpy(zero_copy_only=False) \
        .astype(np.int64).reshape(-1, n)
    gi = gi[~(gi == -1).any(axis=1)]
    if len(gi) == 0:
        return np.empty(0, dtype=np.int64)
    gh = np.zeros(len(gi), np.uint64)
    for k in range(n):
        gh = (gh ^ gi[:, k].astype(np.uint64)) * _FNV
    gh = np.unique(gh)
    pos = np.searchsorted(gh, wh)
    pos[pos == len(gh)] = 0
    cand = np.flatnonzero(gh[pos] == wh)
    if len(cand) == 0:
        return cand
    # exact verify on candidates only
    parts = [flat.take(pa.array(starts[cand] + k)) for k in range(n)]
    g = pc.binary_join_element_wise(*parts, " ")
    ok = pc.is_in(g, value_set=gram_set).to_numpy(zero_copy_only=False)
    return cand[ok]


def _gram_probe_state(grams, n: int) -> tuple[pa.Array, pa.Array]:
    """(flat gram-token array, gram string set) for ``_flag_hits``
    from a flagged gram collection; grams whose token count differs
    from ``n`` can never equal a joined n-token window (tokens carry
    no spaces) and are dropped."""
    glist = [g for g in sorted(set(grams))
             if len(g.split(" ")) == n]
    toks = [t for g in glist for t in g.split(" ")]
    return pa.array(toks, pa.string()), pa.array(glist, pa.string())


def substring_spans(ds, *, text_col: str = "text",
                    id_col: str = "doc_id", n: int = 5,
                    min_docs: int = 2):
    """Cross-document repeated-span detection over token n-grams —
    the exact-substring dedup family (Lee et al. 2022,
    arXiv:2107.06499), simplified from suffix arrays to fixed-length
    token n-grams so the whole operation is one map-side
    explode+combine and ONE gram-keyed groupby shuffle.

    Per batch: explode docs to (gram, doc) rows, Arrow hash-aggregate
    to (gram, n_docs, n_occ) partials — document rows are whole, so
    per-batch distinct-doc counts are exact and the global stage only
    sums. Output: (gram, n_docs, n_occ) for grams appearing in
    ≥ ``min_docs`` distinct documents, sorted by gram.

    At 100-TB scale the map-side combine bounds shuffle traffic at one
    row per distinct (gram, batch); the gram key space is high-
    cardinality and hash-balanced, so the single groupby has no hot
    keys. The shuffle is a COARSE-pid groupby (O(CPUs) Ray groups)
    with an Arrow C++ hash-aggregate inside each partition — never
    ``groupby(gram).aggregate``, whose per-group driver overhead is
    ~200 µs × millions of groups (measured: 49 s vs 1.5 s at 238k
    groups). Downstream span *removal* is a broadcast of the flagged
    gram set back over the corpus (same shape as the PII scrub).
    """
    from ..runtime import cluster_cpus
    n_parts = max(16, cluster_cpus() * 4)

    def partial(batch: pa.Table) -> pa.Table:
        # fully vectorized gram construction (``_token_windows``):
        # split once, ragged window index arithmetic in numpy, then n
        # Arrow takes joined element-wise in C++ — no per-row Python
        # (50 s → 9 s at sf0.1 vs the join-in-a-loop version)
        win = _token_windows(batch.column(text_col), n)
        empty = pa.table({"gram": pa.array([], pa.string()),
                          "n_docs": pa.array([], pa.int64()),
                          "n_occ": pa.array([], pa.int64()),
                          "pid": pa.array([], pa.int32())})
        if win is None:
            return empty
        docs = batch.column(id_col).take(pa.array(win["doc_idx"]))
        tbl = pa.table({"gram": win["grams"], "doc": docs})
        agg = (tbl.group_by("gram")
               .aggregate([("doc", "count_distinct"),
                           ("doc", "count")])
               .rename_columns(["gram", "n_docs", "n_occ"]))
        pid = np.array([zlib.crc32(g.encode()) % n_parts
                        for g in agg.column("gram").to_pylist()],
                       np.int32)
        return agg.append_column("pid", pa.array(pid))

    def reduce_part(part: pa.Table) -> pa.Table:
        out = (part.group_by("gram")
               .aggregate([("n_docs", "sum"), ("n_occ", "sum")])
               .rename_columns(["gram", "n_docs", "n_occ"]))
        return out.filter(
            pc.greater_equal(out.column("n_docs"), min_docs))

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=4096)
            .groupby("pid")
            .map_groups(reduce_part, batch_format="pyarrow")
            .sort("gram"))


class SpanScrubber:
    """Batch transform removing flagged repeated n-gram spans from a
    text column — the removal half of the exact-substring dedup loop
    (run ``substring_spans`` first, scrub its grams with
    ``scrub_spans``).

    The flagged gram set is output-bounded (grams seen in ≥min_docs
    documents), so it broadcasts: pass ``grams_ref = ray.put(set)``
    and each worker process reads the object-store copy ONCE in
    ``__init__`` (``scrub_spans`` caches the scrubber per ref) — never
    re-shipped per batch. Tokens covered by any flagged
    window are dropped; surviving tokens re-join with single spaces.

    Fully vectorized (shares ``_token_windows`` with the detection
    half): windows probe the flagged set via the dictionary-index
    rolling-hash prefilter + exact candidate verify (``_flag_hits`` —
    no gram STRING is built except at hash candidates), hit windows
    expand to token drops with a difference-array cumsum, and
    survivors re-join through one Arrow ``binary_join`` — no per-row
    Python. Measured 2.4–2.5× per batch (warm) vs the former
    join-in-a-loop kernel on both the sf0.1 corpus and a 10⁶-token
    long-doc corpus; byte-identical output (BASELINE.md).

    SINGLE-PASS contract: scrubbing re-joins survivors with single
    spaces, which can itself create new cross-document n-grams
    spanning removed regions — one detect→scrub round removes every
    gram flagged by the PRECEDING detection, not a fixpoint. Callers
    needing a repeat-free corpus iterate detect→scrub until
    ``substring_spans`` over the scrubbed text is empty
    (``scrub_repeats``; the query ``dedup_substring_scrub`` pins one
    round against a SQL oracle). Untouched documents keep their
    original byte-exact text; scrubbed documents come back
    single-space normalized.
    """

    def __init__(self, grams_ref, *, text_col: str = "text",
                 n: int = 5):
        import ray
        grams = ray.get(grams_ref) if hasattr(grams_ref, "hex") \
            else grams_ref
        # probe state for _flag_hits (built once per worker)
        self.gram_tokens, self.gram_set = _gram_probe_state(grams, n)
        self.text_col = text_col
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.n
        texts = batch.column(self.text_col).combine_chunks()
        win = _token_windows(texts, n, build_grams=False)
        if win is None:
            return batch
        hw = _flag_hits(win, n, self.gram_tokens, self.gram_set)
        if len(hw) == 0:
            return batch
        flat, lens = win["flat"], win["lens"]
        starts = win["starts"][hw]
        # expand hit windows [s, s+n) to a token coverage mask via a
        # difference array (starts are unique per window, so direct
        # indexed add is exact); windows never cross documents because
        # counts = max(len - (n-1), 0)
        diff = np.zeros(len(flat) + 1, dtype=np.int64)
        diff[starts] += 1
        diff[starts + n] -= 1
        dropped = np.cumsum(diff[:-1]) > 0
        tok_doc = np.repeat(np.arange(len(lens)), lens)
        touched = np.zeros(len(lens), dtype=bool)
        touched[tok_doc[dropped]] = True
        # rebuild ONLY touched docs (untouched keep byte-exact text):
        # gather their surviving tokens, list-wrap by per-doc counts,
        # join in C++
        sel = ~dropped & touched[tok_doc]
        kept = flat.take(pa.array(np.flatnonzero(sel)))
        kept_counts = np.bincount(tok_doc[sel],
                                  minlength=len(lens))[touched]
        offs = np.concatenate(([0], np.cumsum(kept_counts)))
        la = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), kept)
        joined = pc.binary_join(la, " ")
        out = pc.replace_with_mask(texts, pa.array(touched), joined)
        idx = batch.schema.get_field_index(self.text_col)
        return batch.set_column(idx, self.text_col, out)


def _gram_ref(grams):
    """Broadcast ref of a flagged gram collection (a ref passes
    through)."""
    import ray
    return grams if hasattr(grams, "hex") else ray.put(sorted(set(grams)))


def scrub_spans(ds, grams, *, text_col: str = "text", n: int = 5):
    """One detect→scrub round's scrub half: drop every token covered by
    a flagged n-gram in ``grams`` (from ``substring_spans``; a
    collection or its ``ray.put`` ref) — the ``SpanScrubber``
    single-pass contract."""
    from ..runtime import map_cached
    return map_cached(ds, SpanScrubber, batch_size=4096,
                      grams_ref=_gram_ref(grams), text_col=text_col, n=n)


def scrub_repeats(ds, *, text_col: str = "text",
                  id_col: str = "doc_id", n: int = 5,
                  min_docs: int = 2, max_rounds: int = 10):
    """Detect→scrub to a FIXPOINT: iterate ``substring_spans`` +
    ``scrub_spans`` until no n-gram appears in ≥ ``min_docs``
    documents. One scrub pass is not idempotent — re-joining
    survivors can create new cross-document n-grams spanning the
    removed regions (the ``SpanScrubber`` single-pass contract) — so
    exactness-requiring callers use this loop. Returns
    ``(scrubbed_ds, rounds)``; each round is one detection shuffle +
    one broadcast scrub pass, and real corpora converge in 1-2 rounds
    (new shared grams require newly-adjacent survivors to align
    across ≥ min_docs documents).

    The flagged gram set is output-bounded and collected per round to
    broadcast (the SpanScrubber contract); the corpus itself never
    lands on the driver."""
    # max_rounds + 1 detections: the LAST scrub still needs its own
    # verification pass, else a corpus that converges exactly at
    # max_rounds would be mis-reported as non-convergent
    for rounds in range(max_rounds + 1):
        flagged = substring_spans(ds, text_col=text_col,
                                  id_col=id_col, n=n,
                                  min_docs=min_docs)
        grams = {r["gram"] for r in
                 flagged.select_columns(["gram"]).take_all()}
        if not grams:
            return ds, rounds
        if rounds == max_rounds:
            break
        ds = scrub_spans(ds, grams, text_col=text_col, n=n).materialize()
    raise RuntimeError(
        f"scrub_repeats did not reach a repeat-free fixpoint in "
        f"{max_rounds} rounds — the corpus keeps regenerating shared "
        f"n-grams; raise max_rounds or lower min_docs pressure")


class SpanRanges:
    """documents batch → maximal merged flagged-span rows
    ``(id_col, span_start, span_end)`` (see ``substring_span_ranges``).
    """

    def __init__(self, gram_ref, *, id_col: str, text_col: str, n: int):
        import ray
        self.gram_tokens, self.gram_set = _gram_probe_state(
            ray.get(gram_ref), n)
        self.id_col, self.text_col, self.n = id_col, text_col, n

    def __call__(self, batch: pa.Table) -> pa.Table:
        id_col, n = self.id_col, self.n
        empty = pa.table({
            id_col: pa.array([], batch.schema.field(id_col).type),
            "span_start": pa.array([], pa.int64()),
            "span_end": pa.array([], pa.int64())})
        win = _token_windows(batch.column(self.text_col).combine_chunks(),
                             n, build_grams=False)
        if win is None:
            return empty
        hw = _flag_hits(win, n, self.gram_tokens, self.gram_set)
        if len(hw) == 0:
            return empty
        d = win["doc_idx"][hw]
        wi = win["within"][hw]
        brk = np.ones(len(hw), dtype=bool)
        brk[1:] = (d[1:] != d[:-1]) | (wi[1:] > wi[:-1] + n)
        first = np.flatnonzero(brk)
        last = np.append(first[1:] - 1, len(hw) - 1)
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(d[first])),
            "span_start": pa.array(wi[first], pa.int64()),
            "span_end": pa.array(wi[last] + n, pa.int64())})


def substring_span_ranges(ds, grams, *, text_col: str = "text",
                          id_col: str = "doc_id", n: int = 5):
    """Maximal repeated-span ranges per document — the step toward
    Lee-et-al. (arXiv:2107.06499) variable-length semantics: adjacent
    or overlapping flagged n-gram windows coalesce into ONE
    ``(doc_id, span_start, span_end)`` row (0-based token offsets,
    end exclusive), so a 50-token boilerplate block reports once, not
    as ~46 overlapping windows.

    ``grams`` is the flagged gram collection from ``substring_spans``
    (output-bounded, broadcast via ``ray.put`` exactly like
    ``scrub_spans``). Merging is one vectorized sorted pass per batch
    (windows arrive doc-major, offset-ascending from
    ``_token_windows``): a new span starts when the window offset
    jumps more than ``n`` past its predecessor. No shuffle — document
    rows are whole, so spans are per-doc local.
    """
    from ..runtime import map_cached
    return map_cached(ds, SpanRanges, batch_size=4096,
                      gram_ref=_gram_ref(grams), id_col=id_col,
                      text_col=text_col, n=n)


SMALL_CC_PAIRS = 100_000


def connected_components_ds(pairs, *, id_a: str = "id_a",
                            id_b: str = "id_b"):
    """Distributed connected components over a near-dup pair Dataset —
    the scale path: iterative min-label propagation
    (``canonicalize.propagate_components``; one coarse-pid
    tagged-union shuffle per round), so the pair list never lands on
    the driver. Returns the (pair-node-bounded) assignment as a list
    of ``{"id": int, "root": int}`` rows, root = the component's
    minimum id — identical to ``connected_components`` union-find.
    Ids are zero-padded in the label space so string-min equals
    numeric min. Below ``SMALL_CC_PAIRS`` the identical union-find
    runs driver-side instead (the propagation loop costs a handful of
    fixed-latency Ray executions — the canonicalize gate pattern)."""
    pairs = pairs.materialize()
    if pairs.count() <= SMALL_CC_PAIRS:
        df = pairs.to_pandas()
        cmap = connected_components(
            list(zip(df[id_a].astype(int), df[id_b].astype(int))))
        return [{"id": int(k), "root": int(v)}
                for k, v in sorted(cmap.items())]

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column(id_a).to_pylist()
        b = batch.column(id_b).to_pylist()
        return pa.table({
            "a": pa.array([f"{x:020d}" for x in a], pa.string()),
            "b": pa.array([f"{x:020d}" for x in b], pa.string()),
            "type": pa.array(["cc"] * len(a), pa.string())})

    from .canonicalize import propagate_components
    rows = propagate_components(
        pairs.map_batches(to_edges, batch_format="pyarrow"))
    return [{"id": int(r["node"].split("|", 1)[0]),
             "root": int(r["label"].split("|", 1)[0])} for r in rows]


def connected_components(pairs_rows: list[tuple]) -> dict:
    """Driver-side union-find over near-dup pairs (small pair lists;
    ``connected_components_ds`` is the distributed scale path).
    → {id: cluster_representative}."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    nodes = set()
    for a, b in sorted(pairs_rows):
        nodes.add(a)
        nodes.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    return {x: find(x) for x in nodes}


def embedding_dup_pairs(ds, *, vec_col: str = "embedding",
                        id_col: str = "vec_id", threshold: float = 0.5,
                        n_centroids: int | None = None, n_probe: int = 3,
                        seed: int = 13):
    """Cosine near-dup pairs via IVF multi-probe bucketing — the
    100-TB path (VERDICT round 1: the former broadcast brute force
    materialized the full matrix on the driver).

    Dataflow: seeded deterministic centroids (stages/similarity.py
    ``build_ivf`` sampling) → every vector is replicated to its
    ``n_probe`` nearest buckets → ``groupby(bucket)`` → in-bucket
    vectorized matmul emits pairs ≥ threshold → coarse-pid distinct
    (a pair can be found in every shared bucket). A near-dup pair has
    near-identical centroid rankings, so both members share ≥1 probed
    bucket with overwhelming probability; recall vs the exact join is
    pinned by the driver oracle and tests. Buckets bound the matmul:
    each group is ~n·n_probe/C vectors, and the bucket id doubles as a
    partition key at scale. Output: (id_a, id_b, cosine), id_a < id_b.
    """
    from .similarity import _normalize, vec_matrix
    from ..runtime import cluster_cpus
    n_parts = max(16, cluster_cpus() * 4)

    n = ds.count()
    if n_centroids is None:
        n_centroids = max(4, min(1 << 14, int(np.sqrt(max(n, 1)))))
    # small-C regime: probe a majority of buckets so ANY pair shares
    # one (pigeonhole) — recall is exact while the dataflow stays
    # bucketed. At scale C=√n ≫ p and recall is probabilistic,
    # governed by n_probe (near-dup pairs rank centroids alike).
    if n_centroids <= 64:
        n_probe = max(n_probe, n_centroids // 2 + 1)
    n_probe = min(n_probe, n_centroids)

    # deterministic centroids: hash-seeded sample of the vectors
    # themselves (stable across runs/partitionings — see
    # similarity.centroid_sample)
    from .similarity import centroid_sample
    cent = centroid_sample(ds, n_centroids, vec_col=vec_col,
                           id_col=id_col, seed=seed)

    def to_buckets(batch: pa.Table) -> pa.Table:
        ids = np.array(batch.column(id_col).to_pylist())
        mat = _normalize(vec_matrix(batch.column(vec_col)))
        sims = mat @ cent.T
        p = min(n_probe, sims.shape[1])
        probes = np.argpartition(-sims, p - 1, axis=1)[:, :p]
        out_id = np.repeat(ids, p)
        out_bucket = probes.reshape(-1).astype(np.int32)
        out_vec = np.repeat(mat, p, axis=0)
        # list array straight from the flat buffer (no per-row
        # tolist); offset-based so empty batches keep the same
        # list<double> type as full ones
        dimv = out_vec.shape[1] if out_vec.size else 0
        offs = np.arange(out_vec.shape[0] + 1, dtype=np.int32) * dimv
        vec_arr = pa.ListArray.from_arrays(
            pa.array(offs),
            pa.array(out_vec.reshape(-1), pa.float64()))
        return pa.table({
            "id": pa.array(out_id, pa.int64()),
            "bucket": pa.array(out_bucket, pa.int32()),
            "pid": pa.array((out_bucket % n_parts).astype(np.int32)),
            "vec": vec_arr,
        })

    def bucket_pairs(group: pa.Table) -> pa.Table:
        """One coarse partition (≥1 whole buckets): per bucket, matmul
        among members, emit (id_a, id_b, cosine) above threshold."""
        ids = group.column("id").to_numpy()
        buckets = group.column("bucket").to_numpy()
        vecs = vec_matrix(group.column("vec"))
        order = np.lexsort((ids, buckets))
        ids, buckets, vecs = ids[order], buckets[order], vecs[order]
        out_a, out_b, out_s = [], [], []
        run = 0
        for i in range(1, len(ids) + 1):
            if i == len(ids) or buckets[i] != buckets[run]:
                if i - run > 1:
                    rid, rv = ids[run:i], vecs[run:i]
                    sims = rv @ rv.T
                    xs, ys = np.where(np.triu(sims >= threshold, k=1))
                    for x, y in zip(xs, ys):
                        a_, b_ = int(rid[x]), int(rid[y])
                        if a_ == b_:
                            continue
                        if a_ > b_:
                            a_, b_ = b_, a_
                        out_a.append(a_)
                        out_b.append(b_)
                        out_s.append(float(sims[x, y]))
                run = i
        return pa.table({"id_a": pa.array(out_a, pa.int64()),
                         "id_b": pa.array(out_b, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})

    pairs = (ds.map_batches(to_buckets, batch_format="pyarrow",
                            batch_size=4096)
             .groupby("pid")
             .map_groups(bucket_pairs, batch_format="pyarrow"))
    return _dedupe_pairs(pairs, n_parts, extra_col="cosine")
