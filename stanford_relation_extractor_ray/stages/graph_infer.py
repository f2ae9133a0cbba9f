"""Graph inference over the fills/edges table (SURVEY.md §2.10, §2.8).

Ray-Data shape of the reference's transitive & symmetric relation
rewrites (``kbp/slotfilling/evaluate/GraphConsistencyPostProcessors.java:
317-353`` transitive closure, ``:355-414`` symmetric rewrite) and the
antecedent-matching Horn rules of ``evaluate/inference/
SimpleGraphInferenceEngine.java`` restricted to length-2 paths:

- ``symmetric_inverse_rewrite`` — per-row flat-map emitting the
  mirrored/inverted edge for symmetric relations (spouse, siblings,
  org membership) and inverse pairs (children↔parents,
  subsidiaries↔parents), then an exact per-triple max-score combine.
  No shuffle beyond the (small) triple combine.
- ``transitive_infer`` — bounded-depth (length-2) rule application
  ``A -p→ B, B -q→ C ⇒ A -head→ C`` as a hash-partitioned self-join:
  left rows keyed by obj, right rows keyed by subj, one
  ``runtime.by_key`` shuffle on the bridge entity co-locates both
  sides, the joined edges get
  score = s₁·s₂·damping. The join key is the bridge entity, so hot
  bridges are bounded by the per-partition group; at corpus scale the
  edges table is already aggregated (one row per triple), orders of
  magnitude smaller than the corpus.
"""

from __future__ import annotations

import pyarrow as pa

from ..runtime import by_key
from ..schemas import FILLS_SCHEMA

SYMMETRIC = frozenset({"per:spouse", "per:siblings"})
INVERSES = {
    "per:children": "per:parents",
    "per:parents": "per:children",
    "org:subsidiaries": "org:parents",
    "org:parents": "org:subsidiaries",
    "org:members": "org:member_of",
    "org:member_of": "org:members",
}
REWRITE_DAMPING = 0.9

# (p, q, head): A -p→ B and B -q→ C infer A -head→ C
DEFAULT_RULES = (
    ("org:parents", "org:parents", "org:parents"),
    ("per:member_of", "org:member_of", "per:member_of"),
)
RULE_DAMPING = 0.8


def _mirror_rows(batch: pa.Table) -> pa.Table:
    names = FILLS_SCHEMA.names
    cols = {n: batch.column(n).to_pylist() for n in names}
    out = {n: list(cols[n]) for n in names}
    n_rows = batch.num_rows
    for i in range(n_rows):
        pred = cols["pred"][i]
        new_pred = pred if pred in SYMMETRIC else INVERSES.get(pred)
        if new_pred is None:
            continue
        # mirrored edge only meaningful between two linked entities
        if cols["obj_type"][i] not in ("PERSON", "ORGANIZATION"):
            continue
        out["subj"].append(cols["obj"][i])
        out["subj_type"].append(cols["obj_type"][i])
        out["pred"].append(new_pred)
        out["obj"].append(cols["subj"][i])
        out["obj_type"].append(cols["subj_type"][i])
        out["score"].append(cols["score"][i] * REWRITE_DAMPING)
        out["doc_id"].append(cols["doc_id"][i])
        out["sent_idx"].append(cols["sent_idx"][i])
        out["subj_span"].append(cols["obj_span"][i])
        out["obj_span"].append(cols["subj_span"][i])
    return pa.Table.from_arrays(
        [pa.array(out[n], t) for n, t in
         zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
        schema=FILLS_SCHEMA)


def _max_combine(fills):
    """Exact per-triple combine keeping the highest-score row (the
    original edge wins over a damped rewrite of itself). Coarse hash
    partitions of the triple key, same pattern as
    classify.combine_fills."""
    import pandas as pd

    from .classify import TRIPLE_KEY

    def best(df: pd.DataFrame) -> pd.DataFrame:
        # rounded score key: max-per-triple selection must not flip on
        # batch-layout ulps of upstream float products (consistency.
        # _sort_key has the full rationale)
        df = df.assign(_sk=df["score"].round(9))
        df = df.sort_values(TRIPLE_KEY + ["_sk", "doc_id", "sent_idx"],
                            ascending=[True] * len(TRIPLE_KEY)
                            + [False, True, True], kind="mergesort")
        return df.drop_duplicates(TRIPLE_KEY, keep="first")[
            list(FILLS_SCHEMA.names)]

    return by_key(fills, TRIPLE_KEY, best, batch_format="pandas") \
        .select_columns(FILLS_SCHEMA.names)


def symmetric_inverse_rewrite(fills):
    """fills → fills ∪ mirrored/inverted edges (max-score per triple)."""
    return _max_combine(
        fills.map_batches(_mirror_rows, batch_format="pyarrow"))


def intersect_fills(fills_a, fills_b):
    """Triples present in BOTH fills datasets — the reference's
    ``IntersectSlotFiller`` (``kbp/slotfilling/evaluate/
    IntersectSlotFiller.java``; RD note §2.8: inner join on the triple
    key). Shape: one two-sided ``by_key`` join on the triple, keep
    triples seen on both sides; score = min of the two (the
    conservative combination), provenance from side A."""
    import pandas as pd

    from .classify import TRIPLE_KEY

    def keep_both(a: pd.DataFrame, b: pd.DataFrame) -> pa.Table:
        # an Arrow table in FILLS_SCHEMA, so an empty partition keeps
        # its column types (an empty frame's would all be object)
        if len(a) == 0 or len(b) == 0:
            return FILLS_SCHEMA.empty_table()
        min_s = pd.concat([a, b]).groupby(TRIPLE_KEY, sort=False)[
            "score"].min()
        a = a.drop_duplicates(TRIPLE_KEY).set_index(TRIPLE_KEY)
        a = a[a.index.isin(b.set_index(TRIPLE_KEY).index)]
        a["score"] = min_s.reindex(a.index)
        return pa.Table.from_pandas(
            a.reset_index(), schema=FILLS_SCHEMA,
            preserve_index=False).replace_schema_metadata(None)

    return by_key([(fills_a, FILLS_SCHEMA), (fills_b, FILLS_SCHEMA)],
                  TRIPLE_KEY, keep_both, batch_format="pandas")


def prune_by_distance(fills, query_entities, max_dist: int = 4):
    """Keep edges whose subject lies within graph distance ≤ max_dist
    of a query entity — the reference's EntityGraph pruning
    (``InferentialSlotFiller.java:55-200`` +
    ``graph/GraphAlgorithms.java:13``).

    Iterative frontier expansion: ``max_dist`` rounds of a distributed
    edge scan against the broadcast frontier set (``ray.put`` per
    round; the frontier is bounded by the ≤-max_dist neighborhood of
    the query set, orders of magnitude smaller than the corpus — the
    edge table itself never leaves the cluster)."""
    import ray

    reached = {str(q) for q in query_entities}
    frontier = set(reached)
    for _ in range(max_dist):
        if not frontier:
            break
        ref = ray.put(frontier)

        def neighbors(batch: pa.Table, _ref=ref) -> pa.Table:
            fr = ray.get(_ref)
            subj = batch.column("subj").to_pylist()
            obj = batch.column("obj").to_pylist()
            out = {o for s, o in zip(subj, obj) if s in fr} \
                | {s for s, o in zip(subj, obj) if o in fr}
            out = sorted(out)
            return pa.table({"n": pa.array(out, pa.string())})

        found = {r["n"] for r in
                 fills.map_batches(neighbors,
                                   batch_format="pyarrow").take_all()}
        frontier = found - reached
        reached |= found

    keep_ref = ray.put(reached)

    def keep(batch: pa.Table) -> pa.Table:
        ks = ray.get(keep_ref)
        mask = pa.array([s in ks
                         for s in batch.column("subj").to_pylist()])
        return batch.filter(mask)

    return fills.map_batches(keep, batch_format="pyarrow")


def mine_rules(fills, *, min_support: int = 2,
               min_confidence: float = 0.3):
    """Mine length-2 Horn rules (p, q ⇒ head) from the KG — the
    ``MineInferentialPaths`` analog (path counting instead of the
    path-trie): enumerate A-p→B-q→C bridge paths (the
    ``transitive_infer`` join shape), co-locate them with the direct
    A-head→C edges on a coarse (subj, obj) partition, and score each
    (p, q, head) by support / #paths(p, q). Output:
    (p, q, head, support, total, confidence), confidence-desc."""
    import pandas as pd

    def tag(batch: pa.Table) -> pa.Table:
        """One row per edge per side (L bridges on obj, R on subj)."""
        subj = batch.column("subj").to_pylist()
        pred = batch.column("pred").to_pylist()
        obj = batch.column("obj").to_pylist()
        rows = {"subj": [], "pred": [], "obj": [], "side": [],
                "bridge": []}
        for s, p, o in zip(subj, pred, obj):
            for side, key in (("L", o), ("R", s)):
                rows["subj"].append(s)
                rows["pred"].append(p)
                rows["obj"].append(o)
                rows["side"].append(side)
                rows["bridge"].append(key)
        return pa.table({k: pa.array(v, pa.string())
                         for k, v in rows.items()})

    def paths(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["side"] == "L"]
        right = df[df["side"] == "R"]
        j = left.merge(right, left_on="bridge", right_on="bridge",
                       suffixes=("_l", "_r"))
        j = j[j["subj_l"] != j["obj_r"]]
        out = j[["subj_l", "pred_l", "pred_r", "obj_r"]]
        out.columns = ["subj", "p", "q", "obj"]
        return out.drop_duplicates()

    path_ds = by_key(fills.map_batches(tag, batch_format="pyarrow"),
                     "bridge", paths, batch_format="pandas")

    def score(paths: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame:
        heads: dict[tuple, list] = {}
        for s, o, p in zip(edges["subj"], edges["obj"], edges["pred"]):
            heads.setdefault((s, o), []).append(p)
        rows = []
        # paths() dedups only within its bridge-hashed partition: the
        # same (subj,p,q,obj) path via bridges in different partitions
        # survives. All copies converge HERE (keyed on (subj, obj)),
        # so the global distinct lives in this partition — without it,
        # support/total depend on the partition count, i.e. on cluster
        # size.
        pdf = paths.drop_duplicates(["subj", "p", "q", "obj"])
        for s, o, p, q in zip(pdf["subj"], pdf["obj"], pdf["p"],
                              pdf["q"]):
            rows.append((p, q, "", 0, 1))     # one total per path
            for h in heads.get((s, o), ()):   # supported heads
                rows.append((p, q, h, 1, 0))
        out = pd.DataFrame(rows, columns=["p", "q", "head",
                                          "support", "total"])
        # in-partition pre-aggregation: the driver sees one row per
        # (p, q, head) per partition, not per path
        return out.groupby(["p", "q", "head"], as_index=False).sum()

    # co-locate paths with direct edges on (subj, obj)
    text = pa.string()
    scored = by_key(
        [(path_ds, pa.schema([(c, text) for c in ("subj", "p", "q",
                                                    "obj")])),
         (fills, pa.schema([(c, text) for c in ("subj", "pred", "obj")]))],
        ["subj", "obj"], score, batch_format="pandas")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        totals = df.groupby(["p", "q"])["total"].sum()
        sup = df[df["head"] != ""].groupby(
            ["p", "q", "head"])["support"].sum().reset_index()
        sup["total"] = sup.set_index(["p", "q"]).index.map(totals) \
            .astype("int64")
        sup["confidence"] = sup["support"] / sup["total"]
        sup = sup[(sup["support"] >= min_support)
                  & (sup["confidence"] >= min_confidence)]
        return sup.sort_values(["confidence", "support"],
                               ascending=False, kind="mergesort")

    rows = scored.take_all()
    df = pd.DataFrame(rows) if rows else pd.DataFrame(
        columns=["p", "q", "head", "support", "total"])
    return combine(df)


def transitive_infer(fills, rules=DEFAULT_RULES,
                     damping: float = RULE_DAMPING):
    """fills → inferred length-2-path edges (NOT unioned with input;
    callers union + combine as desired). The output itself is
    duplicate-free: every inference of a triple, through any bridge in
    any partition, reaches the per-triple max combine, which keeps the
    best score — so the result does not depend on how bridges hash to
    partitions."""
    left_preds = {p for p, _q, _h in rules}
    right_preds = {q for _p, q, _h in rules}

    def tag(batch: pa.Table) -> pa.Table:
        """Emit one row per (edge, side) with the bridge-entity join
        key: left rows bridge on obj, right rows on subj."""
        names = FILLS_SCHEMA.names
        cols = {n: batch.column(n).to_pylist() for n in names}
        out = {n: [] for n in names}
        sides, keys = [], []
        for i in range(batch.num_rows):
            pred = cols["pred"][i]
            for side, pset, key in (
                    ("L", left_preds, cols["obj"][i]),
                    ("R", right_preds, cols["subj"][i])):
                if pred in pset:
                    for n in names:
                        out[n].append(cols[n][i])
                    sides.append(side)
                    keys.append(key)
        t = pa.Table.from_arrays(
            [pa.array(out[n], ty) for n, ty in
             zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
            schema=FILLS_SCHEMA)
        t = t.append_column("side", pa.array(sides, pa.string()))
        return t.append_column("bridge", pa.array(keys, pa.string()))

    def join(group: pa.Table) -> pa.Table:
        names = FILLS_SCHEMA.names
        cols = {n: group.column(n).to_pylist() for n in names}
        sides = group.column("side").to_pylist()
        bridges = group.column("bridge").to_pylist()
        lefts: dict[str, list[int]] = {}
        rights: dict[str, list[int]] = {}
        for i, (s, b) in enumerate(zip(sides, bridges)):
            (lefts if s == "L" else rights).setdefault(b, []).append(i)
        out = {n: [] for n in names}
        for b in sorted(set(lefts) & set(rights)):
            for li in lefts[b]:
                for ri in rights[b]:
                    for p, q, head in rules:
                        if cols["pred"][li] != p \
                                or cols["pred"][ri] != q:
                            continue
                        subj, obj = cols["subj"][li], cols["obj"][ri]
                        if subj == obj:
                            continue
                        out["subj"].append(subj)
                        out["subj_type"].append(cols["subj_type"][li])
                        out["pred"].append(head)
                        out["obj"].append(obj)
                        out["obj_type"].append(cols["obj_type"][ri])
                        out["score"].append(cols["score"][li]
                                            * cols["score"][ri]
                                            * damping)
                        out["doc_id"].append(cols["doc_id"][li])
                        out["sent_idx"].append(cols["sent_idx"][li])
                        out["subj_span"].append(cols["subj_span"][li])
                        out["obj_span"].append(cols["obj_span"][ri])
        return pa.Table.from_arrays(
            [pa.array(out[n], ty) for n, ty in
             zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
            schema=FILLS_SCHEMA)

    return _max_combine(by_key(
        fills.map_batches(tag, batch_format="pyarrow"), "bridge", join))
