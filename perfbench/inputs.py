"""Seeded inputs for the ``shuffle_ops`` workload and the driver-side
references its outputs are checked against.

Nothing here imports the package: the inputs are plain Arrow tables and
the references are independent pandas / pure-Python re-statements of
each operator's contract, so a change to the package cannot move both
sides of a check at once.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

SPAN_S = 90 * 86400
BASE = np.datetime64("2024-01-01T00:00:00", "us")


def digest_rows(rows) -> str:
    """sha256 (16 hex) over an iterable of already-sorted row tuples;
    floats are rounded to 9 digits, below any benign reduction-order
    difference and far above any real change."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(tuple(round(v, 9) if isinstance(v, float) else v
                            for v in row)).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# --- as-of join ------------------------------------------------------------

def event_log(seed: int, n_events: int, n_orders: int, n_users: int
              ) -> tuple[pa.Table, pa.Table]:
    """(events, orders) with Zipf-skewed user keys, so a handful of hot
    users dominate some hash partitions."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, n_users + 1) ** 1.1
    p /= p.sum()
    users = rng.permutation(n_users).astype(np.int64)

    def draw(n):
        return users[rng.choice(n_users, size=n, p=p)]

    def stamps(n):
        return BASE + rng.integers(0, SPAN_S, n).astype("timedelta64[s]")

    events = pa.table({
        "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
        "user_id": pa.array(draw(n_events)),
        "ts": pa.array(stamps(n_events), pa.timestamp("us"))})
    orders = pa.table({
        "o_custkey": pa.array(draw(n_orders)),
        "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
        "o_orderdate": pa.array(stamps(n_orders), pa.timestamp("us"))})
    return events, orders


def asof_reference(events: pa.Table, orders: pa.Table) -> str:
    """Digest of the backward as-of join (latest order of the same user
    at or before the event; ties go to the highest order key; events
    with no prior order dropped), sorted by event id."""
    ev = events.to_pandas().sort_values(["ts", "event_id"],
                                        kind="mergesort")
    od = orders.to_pandas().sort_values(["o_orderdate", "o_orderkey"],
                                        kind="mergesort")
    j = pd.merge_asof(ev, od, left_on="ts", right_on="o_orderdate",
                      left_by="user_id", right_by="o_custkey",
                      direction="backward")
    j = j[j["o_orderkey"].notna()].sort_values("event_id")
    return asof_digest(j["event_id"], j["user_id"], j["ts"],
                       j["o_orderkey"], j["o_orderdate"])


def asof_digest(event_id, user_id, ts, orderkey, orderdate) -> str:
    """sha256 (16 hex) over the rows in the order given: event id, user
    id, event time (us), order key and order day, each as int64."""
    def us(col):
        return np.asarray(pd.to_datetime(col), "datetime64[us]")

    h = hashlib.sha256()
    for col in (np.asarray(event_id, np.int64),
                np.asarray(user_id, np.int64),
                us(ts).astype(np.int64),
                np.asarray(orderkey, np.int64),
                us(orderdate).astype("datetime64[D]").astype(np.int64)):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()[:16]


# --- near-duplicate text -----------------------------------------------------

def dedup_corpus(seed: int, n_docs: int, *, vocab: int = 6000,
                 boiler: int = 40) -> tuple[pa.Table, list[list[int]]]:
    """(doc_id, text) table plus the planted near-duplicate clusters.

    A tenth of the documents seed a cluster with three variants, each with
    a share of its tokens replaced; the shares cycle through a fixed
    ladder from 0 to 0.3 so that the part of the planted pairs above the
    detector's threshold barely depends on the seed. About a third of
    all documents carry one of ``boiler`` shared 8-token sentences,
    which the repeated-span detector must find."""
    rng = np.random.default_rng(seed + 1)
    words = np.array([f"w{i:04d}" for i in range(vocab)])
    boilers = [list(words[rng.integers(0, vocab, 8)])
               for _ in range(boiler)]
    docs: list[list[str]] = []
    clusters: list[list[int]] = []
    n_variants = 0
    while len(docs) < n_docs:
        base = list(words[rng.integers(0, vocab, rng.integers(40, 80))])
        if rng.random() < 0.33:
            at = int(rng.integers(0, len(base)))
            base[at:at] = boilers[int(rng.integers(0, boiler))]
        members = [len(docs)]
        docs.append(base)
        if rng.random() < 0.1:
            for _ in range(3):
                if len(docs) >= n_docs:
                    break
                rate = 0.3 * (n_variants * 7 % 20) / 20
                n_variants += 1
                var = [str(words[rng.integers(0, vocab)])
                       if rng.random() < rate else t for t in base]
                members.append(len(docs))
                docs.append(var)
            if len(members) > 1:
                clusters.append(members)
    table = pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array([" ".join(d) for d in docs], pa.string())})
    return table, clusters


def _shingles(text: str, k: int = 3) -> set:
    toks = text.split(" ")
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


def jaccard(a: str, b: str) -> float:
    sa, sb = _shingles(a), _shingles(b)
    return len(sa & sb) / len(sa | sb) if sa or sb else 0.0


def planted_pairs(clusters: list[list[int]]) -> set:
    return {(a, b) for c in clusters for i, a in enumerate(c)
            for b in c[i + 1:]}


def components(pairs) -> dict:
    """Union-find → {id: min id of its component}."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = {x for p in pairs for x in p}
    return {x: find(x) for x in nodes}


def substring_reference(texts: list[str], ids: list[int], n: int = 5,
                        min_docs: int = 2) -> str:
    """Digest of (gram, n_docs, n_occ) for token n-grams seen in at
    least ``min_docs`` distinct documents, sorted by gram."""
    occ: dict[str, int] = {}
    docs: dict[str, set] = {}
    for did, text in zip(ids, texts):
        toks = text.split(" ")
        for i in range(len(toks) - n + 1):
            g = " ".join(toks[i:i + n])
            occ[g] = occ.get(g, 0) + 1
            docs.setdefault(g, set()).add(did)
    return digest_rows((g, len(docs[g]), occ[g]) for g in sorted(occ)
                       if len(docs[g]) >= min_docs)
