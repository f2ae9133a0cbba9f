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

    def describe(part):
        """(column:type list, key values) of one part."""
        if isinstance(part, pd.DataFrame):
            return (",".join(f"{c}:{t}" for c, t in part.dtypes.items()),
                    part["k"].tolist())
        return (",".join(f"{f.name}:{f.type}" for f in part.schema),
                part.column("k").to_pylist())

    def count_sides(a, b, c):
        (ta, ka), (tb, kb), (tc, kc) = map(describe, (a, b, c))
        keys = sorted(set(ka) | set(kb))
        n = len(keys)
        return pa.table({
            "k": pa.array(keys, pa.int64()),
            "n_a": pa.array([ka.count(k) for k in keys], pa.int64()),
            "n_b": pa.array([kb.count(k) for k in keys], pa.int64()),
            "types": [f"{ta}|{tb}|{tc}|{len(kc)}"] * n,
            "part": pa.array([keys[0] if keys else -1] * n, pa.int64())})

    monkeypatch.setattr(runtime, "shuffle_parts", lambda: n_parts)
    # side a carries a stale pid and a column outside its schema; side
    # b's key is int32 (cast to the shared int64); side c is empty
    a = rd.from_arrow(pa.table({
        "k": pa.array([i % 40 for i in range(400)], pa.int64()),
        "x": [f"x{i}" for i in range(400)],
        "junk": [1.0] * 400,
        "pid": pa.array([0] * 400, pa.int32())})).repartition(4)
    b = rd.from_arrow(pa.table({
        "k": pa.array(list(range(0, 40, 2)), pa.int32()),
        "y": pa.array(range(20), pa.int64())}))
    c = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                "z": pa.array([], pa.float64())}))
    sides = [(a, pa.schema([("k", pa.int64()), ("x", pa.string())])),
             (b, pa.schema([("k", pa.int64()), ("y", pa.int64())])),
             (c, pa.schema([("k", pa.int64()), ("z", pa.float64())]))]
    for batch_format, want in (
            ("pyarrow", "k:int64,x:string|k:int64,y:int64|k:int64,z:double"),
            ("pandas", "k:int64,x:object|k:int64,y:int64|k:int64,z:float64")):
        ds = runtime.by_key(sides, "k", count_sides,
                            batch_format=batch_format).materialize()
        out = ds.to_pandas()
        # every part is in its side's own schema: the padding, the side
        # code and the pid are gone, the int64 column padded with nulls
        # in the union stays int64 in pandas form, and the empty side's
        # part is empty but typed
        assert set(out["types"]) == {want + "|0"}
        # every key sits in exactly one partition, with all of its rows
        assert sorted(out["k"]) == list(range(40))
        assert (out["n_a"] == 10).all()
        assert (out["n_b"] == (out["k"] % 2 == 0)).all()
        assert 1 < out["part"].nunique() <= n_parts
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


def _fill(subj, pred, obj, score=0.5, doc=0, sent=0, subj_type="PERSON",
          obj_type="PERSON"):
    return {"subj": subj, "subj_type": subj_type, "pred": pred,
            "obj": obj, "obj_type": obj_type, "score": score,
            "doc_id": f"d{doc}", "sent_idx": sent,
            "subj_span": [0, 1], "obj_span": [2, 3]}


def _fills(rows):
    from stanford_relation_extractor_ray.schemas import FILLS_SCHEMA
    return pa.Table.from_pylist(rows, schema=FILLS_SCHEMA)


def _join_inputs():
    """Inputs of the two-sided joins: glosses, exact-alias links,
    triple intersection, canonical roots and mined rules."""
    rng = np.random.default_rng(5)
    sents = pa.table({
        "doc_id": [f"d{i // 5}" for i in range(100)],
        "sent_idx": pa.array([i % 5 for i in range(100)], pa.int32()),
        "text": [f"sentence {i}" for i in range(100)]})
    # docs 20-24 and sentences 5-6 have no text: their gloss is ""
    glossed = _fills([_fill(f"S{i}", "per:title", f"O{i}", doc=i % 25,
                            sent=i % 7) for i in range(120)])
    names = [f"N{i}" for i in range(30)]
    cands = pa.table({
        "subj": [names[i % 30] for i in range(200)],
        "subj_type": ["PERSON" if i % 3 else "ORGANIZATION"
                      for i in range(200)],
        "x": pa.array(range(200), pa.int64())})
    # ambiguous surfaces: the smallest canonical wins
    aliases = pa.table({
        "surface": [names[i % 20] for i in range(50)],
        "type": ["PERSON"] * 50,
        "canonical": [f"C{rng.integers(0, 9)}" for _ in range(50)]})
    triples = [(f"S{i % 17}", "per:title", f"O{i % 11}")
               for i in range(80)]
    fills_a = _fills([_fill(*t, score=float(rng.random()), doc=i)
                      for i, t in enumerate(triples[:60])])
    fills_b = _fills([_fill(*t, score=float(rng.random()), doc=i)
                      for i, t in enumerate(triples[30:])])
    stems = ["Acme Dynamics", "Blue River", "Cobalt Lake", "Delta Rho"]
    surf = [(n, "ORGANIZATION") for s in stems
            for n in (s, f"{s} Corp", f"{s} Corporation")] + \
        [(f"Person {i}", "PERSON") for i in range(12)]
    surfaces = pa.table({
        "name": [n for n, _t in surf], "type": [t for _n, t in surf],
        "weight": [float(w) for w in rng.random(len(surf))]})
    paths = []
    for i in range(12):
        paths += [_fill(f"A{i}", "org:parents", f"B{i}"),
                  _fill(f"B{i}", "org:parents", f"C{i}")]
        if i % 3:
            paths.append(_fill(f"A{i}", "org:parents", f"C{i}"))
        if i % 4 == 0:
            paths.append(_fill(f"B{i}", "org:members", f"A{i}"))
    return {"sents": sents, "glossed": glossed, "cands": cands,
            "aliases": aliases, "fills_a": fills_a, "fills_b": fills_b,
            "surfaces": surfaces, "paths": _fills(paths)}


def _ops(tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from stanford_relation_extractor_ray.pipelines import relational
    from stanford_relation_extractor_ray.pipelines.temporal import \
        events_asof_order
    from stanford_relation_extractor_ray.stages.canonicalize import \
        canonical_map_ds
    from stanford_relation_extractor_ray.stages.dedup import (
        exact_dedup, minhash_lsh_pairs, simhash_pairs, substring_spans)
    from stanford_relation_extractor_ray.stages.graph_infer import (
        intersect_fills, mine_rules)
    from stanford_relation_extractor_ray.stages.link import link_via_join
    from stanford_relation_extractor_ray.stages.postprocess import \
        attach_gloss

    docs = _docs()
    ev, od = _asof_inputs()
    j = _join_inputs()
    # several orders per customer, some on the same date (the tie goes
    # to the highest order key)
    od = od.set_column(2, "o_orderdate", pa.array(
        (od.column("o_orderdate").cast(pa.int32()).to_numpy() // 4 * 4)
        .astype(np.int32), pa.date32()))
    n_od = od.num_rows
    pq.write_table(od.append_column("o_totalprice", pa.array(
        np.arange(n_od) * 1.25 + 3.0)), tmp_path / "orders.parquet")
    # customer 59 has no orders, and the orders of 60-and-up customers
    # nobody (customer keys stop at 59)
    pq.write_table(pa.table({
        "c_custkey": pa.array(range(60), pa.int64()),
        "c_nationkey": pa.array([i % 5 for i in range(60)], pa.int32())}),
        tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array(range(5), pa.int32()),
        "n_name": [f"NATION{i}" for i in range(5)]}),
        tmp_path / "nation.parquet")

    def ds(t, n):
        return rd.from_arrow(t).repartition(n)

    spans = ["subj_span", "obj_span"]

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
        "simhash_pairs": lambda: simhash_pairs(ds(docs, 3), radius=3),
        "asof": lambda: asof(None),
        "asof_salted": lambda: asof(24 * 60),
        "membership_join": membership,
        "latest_order": lambda: relational.latest_order_per_customer(
            str(tmp_path)),
        "revenue_by_nation": lambda: relational.revenue_by_nation(
            str(tmp_path)),
        "attach_gloss": lambda: attach_gloss(
            ds(j["glossed"], 3), ds(j["sents"], 2)).drop_columns(spans),
        "link_via_join": lambda: link_via_join(
            ds(j["cands"], 3), ds(j["aliases"], 2)),
        "intersect_fills": lambda: intersect_fills(
            ds(j["fills_a"], 3), ds(j["fills_b"], 2)).drop_columns(spans),
        "canonical_map_ds": lambda: canonical_map_ds(ds(j["surfaces"], 3)),
        "mine_rules": lambda: mine_rules(ds(j["paths"], 3),
                                         min_support=1,
                                         min_confidence=0.0),
    }


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("op", [
    "exact_dedup", "substring_spans", "minhash_lsh_pairs",
    "simhash_pairs", "asof", "asof_salted", "membership_join", "latest_order",
    "revenue_by_nation", "attach_gloss", "link_via_join",
    "intersect_fills", "canonical_map_ds", "mine_rules"])
def test_outputs_do_not_depend_on_partition_count(ray_session,
                                                  monkeypatch, tmp_path,
                                                  op):
    from stanford_relation_extractor_ray.pipelines import relational
    # above the gate: the key sides co-partition
    monkeypatch.setattr(relational, "SMALL_KEYS", 0)
    build = _ops(tmp_path)[op]

    def frame():
        out = build()       # mine_rules returns its (tiny) frame
        return _sorted(out if isinstance(out, pd.DataFrame)
                       else out.to_pandas())

    want = frame()
    assert len(want)
    for n in (1, 7):
        monkeypatch.setattr(runtime, "shuffle_parts", lambda n=n: n)
        pd.testing.assert_frame_equal(frame(), want)


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
