"""``runtime.by_key`` — the package's one coarse-pid shuffle — and the
hash policy under it (``runtime.pid_of``).

- Property tests: equal keys get equal pids whatever their Arrow type
  (int32/int64/uint64, string/large_string/dictionary, pandas) and
  whatever else their batch holds (nulls), for one and for several key
  columns. A key whose pid depended on either would split across
  partitions between batches or between the sides of a union.
- Partition invariance: the ported operators give the same rows at 1,
  7 and the default number of partitions.
- Source shape: no module but ``runtime.py`` picks a partition count,
  groups by a pid column or routes by crc32.
"""

import pathlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanford_relation_extractor_ray import runtime
from stanford_relation_extractor_ray.runtime import pid_of

PKG = pathlib.Path(runtime.__file__).parent

parts = st.integers(1, 64)
int32s = st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=20)
texts = st.lists(st.text(max_size=8), min_size=1, max_size=20)


# --- pid_of ----------------------------------------------------------------

def test_pid_of_examples():
    assert pid_of(pa.array([-1], pa.int32()), 16)[0] == \
        pid_of(pa.array([-1], pa.int64()), 16)[0]
    assert pid_of(pa.array([5, None]), 16)[0] == \
        pid_of(pa.array([5, 7]), 16)[0]


@settings(max_examples=60, deadline=None)
@given(int32s, parts)
def test_integer_types_hash_alike(vals, n):
    want = pid_of(pa.array(vals, pa.int64()), n)
    assert (pid_of(pa.array(vals, pa.int32()), n) == want).all()
    assert (pid_of(pd.Series(vals, dtype="int32"), n) == want).all()
    assert (pid_of(pa.chunked_array([pa.array(vals[:1], pa.int64()),
                                     pa.array(vals[1:], pa.int64())]), n)
            == want).all()
    bits = np.array(vals, np.int64).view(np.uint64)
    assert (pid_of(pa.array(bits, pa.uint64()), n) == want).all()
    assert (pid_of(pa.array(vals, pa.int64()).dictionary_encode(), n)
            == want).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2**63, 2**64 - 1), min_size=1, max_size=20),
       parts)
def test_uint64_digests_above_2_63_hash_as_int64_bits(vals, n):
    u = np.array(vals, np.uint64)
    assert (pid_of(pa.array(u, pa.uint64()), n)
            == pid_of(pa.array(u.view(np.int64), pa.int64()), n)).all()


@settings(max_examples=60, deadline=None)
@given(texts, parts)
def test_string_types_hash_alike_and_keep_their_pids(vals, n):
    # the plain pandas hash of the strings: string pids (finalize,
    # canonicalize) are the same as before pid_of normalized types
    want = (pd.util.hash_pandas_object(pd.Series(vals, dtype=object),
                                       index=False).to_numpy()
            % n).astype("int32")
    for arr in (pa.array(vals, pa.string()),
                pa.array(vals, pa.large_string()),
                pa.array(vals, pa.string()).dictionary_encode(),
                pa.array(vals, pa.large_string()).dictionary_encode()):
        assert (pid_of(arr, n) == want).all()
    assert (pid_of(pd.Series(vals, dtype=object), n) == want).all()


@settings(max_examples=60, deadline=None)
@given(st.one_of(int32s, texts), st.data(), parts)
def test_nulls_do_not_move_other_keys(vals, data, n):
    at = sorted(data.draw(st.lists(st.integers(0, len(vals)),
                                   max_size=4)))
    with_nulls = list(vals)
    for i in reversed(at):
        with_nulls.insert(i, None)
    keep = np.array([v is not None for v in with_nulls])
    got = pid_of(pa.array(with_nulls), n)
    assert (got[keep] == pid_of(pa.array(vals), n)).all()
    # a null hashes the same way in every batch
    nulls = got[~keep]
    assert len(set(nulls.tolist())) <= 1
    if len(nulls):
        assert nulls[0] == pid_of(pa.array([None, *vals[:1]],
                                           pa.array(vals).type), n)[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**31, 2**31 - 1),
                          st.text(max_size=6)),
                min_size=1, max_size=20), parts)
def test_multi_column_keys_hash_alike(rows, n):
    ints = [r[0] for r in rows]
    strs = [r[1] for r in rows]
    want = pid_of([pa.array(ints, pa.int64()), pa.array(strs)], n)
    assert (pid_of([pa.array(ints, pa.int32()),
                    pa.array(strs, pa.large_string())], n) == want).all()
    assert (pid_of([pa.array(ints, pa.int64()),
                    pa.array(strs).dictionary_encode()], n) == want).all()
    assert (pid_of([pd.Series(ints), pd.Series(strs, dtype=object)], n)
            == want).all()
    # row-local: a row's pid does not depend on the rest of its batch
    assert want[0] == pid_of([pa.array(ints[:1], pa.int32()),
                              pa.array(strs[:1])], n)[0]


# --- by_key ----------------------------------------------------------------

@pytest.mark.parametrize("n_parts", [3, 7])
def test_by_key_co_locates_every_side_of_a_key(ray_session, monkeypatch,
                                               n_parts):
    import ray.data as rd

    def count_sides(group: pa.Table) -> pa.Table:
        pids = group.column("pid").unique().to_pylist()
        out = group.group_by(["k", "side"]).aggregate([("k", "count")])
        n = out.num_rows
        return pa.table({"k": out.column("k"), "side": out.column("side"),
                         "n": out.column("k_count"),
                         "pid": pa.array([pids[0]] * n, pa.int32()),
                         "n_pids": pa.array([len(pids)] * n)})

    monkeypatch.setattr(runtime, "shuffle_parts", lambda: n_parts)
    a = rd.from_arrow(pa.table({
        "k": pa.array([i % 40 for i in range(400)], pa.int64()),
        "side": ["A"] * 400,
        "pid": pa.array([0] * 400, pa.int32())})).repartition(4)
    b = rd.from_arrow(pa.table({
        "k": pa.array(list(range(0, 40, 2)), pa.int64()),
        "side": ["B"] * 20,
        "pid": pa.array([0] * 20, pa.int32())}))
    ds = runtime.by_key([a, b], "k", count_sides).materialize()
    out = ds.to_pandas()
    assert (out["n_pids"] == 1).all()
    # every key sits in exactly one partition, with all of its rows
    assert out.groupby("k")["pid"].nunique().max() == 1
    assert len(out.groupby("k")) == 40
    a_rows = out[out["side"] == "A"].set_index("k")["n"]
    assert (a_rows == 10).all() and len(a_rows) == 40
    assert len(out[out["side"] == "B"]) == 20
    # the pid column already on the input is replaced, not kept
    assert set(out["pid"]) <= set(range(n_parts))
    assert out["pid"].nunique() > 1
    # the operator keeps the function's name (perfbench finds its
    # skew metrics by it)
    assert "MapBatches(count_sides)" in ds.stats()


# --- partition invariance ----------------------------------------------------

def _docs():
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(60)]
    base = [" ".join(rng.choice(vocab, 12)) for _ in range(25)]
    texts = []
    for i in range(150):
        toks = base[i % 25].split(" ")
        if i % 3:
            toks[rng.integers(0, 12)] = f"x{i}"
        texts.append(" ".join(toks))
    texts += [None, None, ""]
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _asof_inputs():
    rng = np.random.default_rng(11)
    n_ev = 3000
    users = np.where(rng.random(n_ev) < 0.3, 7, rng.integers(0, 60, n_ev))
    base = np.datetime64("2024-01-01T00:00:00", "us")
    ts = base + rng.integers(0, 20 * 86400, n_ev).astype(
        "timedelta64[s]")
    ev = pa.table({"event_id": pa.array(range(n_ev), pa.int64()),
                   "user_id": pa.array(users, pa.int64()),
                   "ts": pa.array(ts, pa.timestamp("us"))})
    n_od = 400
    od_users = np.where(rng.random(n_od) < 0.2, 7,
                        rng.integers(0, 60, n_od))
    days = rng.integers(19723, 19743, n_od)       # 2024-01-01 + 0..19
    od = pa.table({"o_custkey": pa.array(od_users, pa.int32()),
                   "o_orderkey": pa.array(range(1, n_od + 1), pa.int64()),
                   "o_orderdate": pa.array(days.astype(np.int32),
                                           pa.date32())})
    return ev, od


def _ops(tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from stanford_relation_extractor_ray.pipelines import relational
    from stanford_relation_extractor_ray.pipelines.temporal import \
        events_asof_order
    from stanford_relation_extractor_ray.stages.dedup import (
        exact_dedup, minhash_lsh_pairs, substring_spans)

    docs = _docs()
    ev, od = _asof_inputs()
    # several orders per customer, some on the same date (the tie goes
    # to the highest order key)
    pq.write_table(od.set_column(2, "o_orderdate", pa.array(
        (od.column("o_orderdate").cast(pa.int32()).to_numpy() // 4 * 4)
        .astype(np.int32), pa.date32())), tmp_path / "orders.parquet")

    def ds(t, n):
        return rd.from_arrow(t).repartition(n)

    def asof(salt):
        return events_asof_order("", salt, datasets=(ds(ev, 3),
                                                     ds(od, 2)))

    def membership():
        rows = rd.from_items([{"k": i, "v": f"r{i}"}
                              for i in range(300)]).repartition(3)
        keys = rd.from_arrow(pa.table({"k": pa.array(
            list(range(0, 300, 7)) * 2, pa.int32())}))
        return relational._membership_join(
            rows, keys, key_col="k", payload={"v": pa.string()},
            anti=False)

    return {
        "exact_dedup": lambda: exact_dedup(ds(docs, 3)),
        "substring_spans": lambda: substring_spans(ds(docs, 3), n=3),
        "minhash_lsh_pairs": lambda: minhash_lsh_pairs(
            ds(docs, 3), num_perm=32, bands=16, threshold=0.5),
        "asof": lambda: asof(None),
        "asof_salted": lambda: asof(24 * 60),
        "membership_join": membership,
        "latest_order": lambda: relational.latest_order_per_customer(
            str(tmp_path)),
    }


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("op", [
    "exact_dedup", "substring_spans", "minhash_lsh_pairs", "asof",
    "asof_salted", "membership_join", "latest_order"])
def test_outputs_do_not_depend_on_partition_count(ray_session,
                                                  monkeypatch, tmp_path,
                                                  op):
    from stanford_relation_extractor_ray.pipelines import relational
    monkeypatch.setattr(relational, "SMALL_KEYS", 0)
    build = _ops(tmp_path)[op]
    want = _sorted(build().to_pandas())
    assert len(want)
    for n in (1, 7):
        monkeypatch.setattr(runtime, "shuffle_parts", lambda n=n: n)
        got = _sorted(build().to_pandas())
        pd.testing.assert_frame_equal(got, want)


# --- source shape ------------------------------------------------------------

PID_COLS = "pid|pid2|jpid|qpid|cpid|ppid|dpid|__jpid"
# crc32 moduli that route no rows to partitions: negative subsampling
# (train), feature hashing (classify), lexicon word classes (world) and
# the bag salt, which is part of the bag's own groupby key (bags)
CRC32_MOD_OK = {("pipelines/train.py", "1000"),
                ("stages/classify.py", "dim"), ("world.py", "8"),
                ("stages/bags.py", "n_salt")}


def shape_violations(root: pathlib.Path) -> list[str]:
    """Hand-rolled shuffle plumbing in the package outside runtime.py:
    a partition count, a groupby on a pid column, or crc32 routing."""
    out = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "runtime.py":
            continue
        rel = str(path.relative_to(root))
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines, 1):
            where = f"{rel}:{i}"
            if re.search(r"cluster_cpus\(\)\s*\*\s*4|\bn_parts\b", line):
                out.append(f"{where}: partition count: {line.strip()}")
            if re.search(rf"groupby\(\s*\[?\s*[\"']({PID_COLS})[\"']",
                         line):
                out.append(f"{where}: groupby on a pid: {line.strip()}")
            if "zlib.crc32" not in line:
                continue
            for mod in re.findall(r"%\s+(\w+)",
                                  " ".join(lines[i - 1:i + 2])):
                if (rel, mod) not in CRC32_MOD_OK:
                    out.append(f"{where}: crc32 routing: {line.strip()}")
    return out


def test_no_hand_rolled_shuffles_outside_runtime():
    assert shape_violations(PKG) == []
