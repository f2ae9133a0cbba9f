"""Small-side gate equality: the broadcast tier (key side ≤ gate) and
the co-partitioned tier (key side > gate) of ``_membership_join`` and
``revenue_by_nation`` must return identical rows — the gate is a
latency optimization, never a semantics change (VERDICT r4 "next
round" #4)."""

import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_membership_join_gate_equality(ray_session, monkeypatch):
    import ray.data as rd

    from stanford_relation_extractor_ray.pipelines import relational
    from stanford_relation_extractor_ray.pipelines.relational import \
        _membership_join

    rows = rd.from_items(
        [{"k": i, "v": f"r{i}"} for i in range(50)])
    keys = rd.from_items([{"k": i} for i in range(0, 50, 3)])
    kw = dict(key_col="k", payload={"v": pa.string()})
    for anti in (False, True):
        monkeypatch.setattr(relational, "SMALL_KEYS", 10_000)
        small = _membership_join(rows, keys, anti=anti,
                                 **kw).to_pandas()
        monkeypatch.setattr(relational, "SMALL_KEYS", 0)
        large = _membership_join(rows, keys, anti=anti,
                                 **kw).to_pandas()
        pd.testing.assert_frame_equal(_sorted(small), _sorted(large))
        want = {i for i in range(50)
                if (i % 3 == 0) != anti}
        assert set(small["k"]) == want


def test_revenue_by_nation_gate_equality(ray_session, monkeypatch):
    from stanford_relation_extractor_ray.pipelines import relational
    from stanford_relation_extractor_ray.pipelines.relational import \
        revenue_by_nation

    monkeypatch.setattr(relational, "SMALL_KEYS", 10**9)
    small = revenue_by_nation(SF).to_pandas()
    monkeypatch.setattr(relational, "SMALL_KEYS", 0)
    large = revenue_by_nation(SF).to_pandas()
    small["revenue"] = small["revenue"].round(2)
    large["revenue"] = large["revenue"].round(2)
    pd.testing.assert_frame_equal(_sorted(small), _sorted(large))
    assert len(small) > 0


def test_revenue_broadcast_tier_empty_customer(ray_session, tmp_path,
                                               monkeypatch):
    """Empty customer table through the broadcast tier: inner-join
    semantics (zero rows), not an IndexError on the empty lookup."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from stanford_relation_extractor_ray.pipelines import relational
    from stanford_relation_extractor_ray.pipelines.relational import \
        revenue_by_nation

    d = tmp_path / "sf_empty"
    d.mkdir()
    for t in ("orders", "nation"):
        shutil.copy(f"{SF}/{t}.parquet", d / f"{t}.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([], pa.int64()),
        "c_nationkey": pa.array([], pa.int64())}),
        d / "customer.parquet")
    monkeypatch.setattr(relational, "SMALL_KEYS", 10**9)
    assert revenue_by_nation(str(d)).count() == 0
