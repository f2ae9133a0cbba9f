"""Graph inference over the fills/edges table (SURVEY.md §2.10, §2.8).

Ray-Data shape of the reference's transitive & symmetric relation
rewrites (``kbp/slotfilling/evaluate/GraphConsistencyPostProcessors.java:
317-353`` transitive closure, ``:355-414`` symmetric rewrite), the
antecedent-matching Horn rules of ``evaluate/inference/
SimpleGraphInferenceEngine.java`` restricted to length-2 paths, the
``InferentialSlotFiller`` distance pruning and ``MineInferentialPaths``.
Every map and group function is columnar (Arrow compute, Acero joins,
pandas); two kernels carry the graph algorithms:

- ``neighborhood`` — every ``(node, q)`` within ``max_dist`` undirected
  hops of seed ``(node, q)`` rows. One map over the fills per round:
  the batch's distinct undirected edges joined with the broadcast
  frontier, anti-joined with the broadcast known pairs, so a round
  collects only new pairs. The known pairs are one driver-side Arrow
  table, re-shipped with ``ray.put`` each round and capped at
  ``MAX_MEMBERSHIP`` rows. ``prune_by_distance`` runs it with one label;
  ``mln.probabilistic_infer`` with one label per query entity.
- ``bridge_paths`` — every path ``A -p→ B -q→ C`` with ``A != C``, as
  one ``runtime.by_key`` join on the bridge ``B``: the left side is the
  fills with ``obj`` renamed ``bridge``, the right side the fills with
  ``subj`` renamed ``bridge``. ``transitive_infer`` joins the paths
  with its rules on ``(p, q)``; ``mine_rules`` counts them.

``symmetric_inverse_rewrite`` appends, per batch, a copy of the rows
whose predicate is symmetric or has an inverse with subject and object
swapped, then keeps the best row per triple. Acero's hash join takes no
list-typed payload columns (the spans), so joins carry row indices and
``take`` the rows afterwards.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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

# neighborhood: max (node, q) pairs the broadcast membership may hold
# before a round fails loudly. Every query's neighborhood rides each
# round's broadcast and probabilistic_infer copies each fill once per
# query it touches; 48 queries over a 2000-doc KG hold 5,859 pairs.
MAX_MEMBERSHIP = 1_000_000

MEMBER_SCHEMA = pa.schema([("node", pa.string()), ("q", pa.string())])

_MIRROR_FROM = pa.array(sorted(SYMMETRIC) + sorted(INVERSES))
_MIRROR_TO = pa.array(sorted(SYMMETRIC)
                      + [INVERSES[p] for p in sorted(INVERSES)])


def _distinct(t: pa.Table, keys: list) -> pa.Table:
    return t.select(keys).group_by(keys).aggregate([])


def _fills(batch: pa.Table) -> pa.Table:
    return batch.select(FILLS_SCHEMA.names).cast(FILLS_SCHEMA)


def _mirror_rows(batch: pa.Table) -> pa.Table:
    """The batch, then a mirrored copy of its rows whose predicate is
    symmetric or has an inverse and whose object is a linked entity:
    subject and object (with their types and spans) swapped, the
    predicate mapped to its inverse, the score damped."""
    batch = _fills(batch)
    idx = pc.index_in(batch.column("pred"), value_set=_MIRROR_FROM)
    # a mirrored edge is only meaningful between two linked entities
    mask = pc.and_(pc.is_valid(idx), pc.is_in(
        batch.column("obj_type"),
        value_set=pa.array(["PERSON", "ORGANIZATION"])))
    m = batch.filter(mask)
    mirrored = pa.Table.from_arrays(
        [m.column("obj"), m.column("obj_type"),
         _MIRROR_TO.take(idx.filter(mask)), m.column("subj"),
         m.column("subj_type"),
         pc.multiply(m.column("score"), REWRITE_DAMPING),
         m.column("doc_id"), m.column("sent_idx"), m.column("obj_span"),
         m.column("subj_span")], schema=FILLS_SCHEMA)
    return pa.concat_tables([batch, mirrored])


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
        # _comparator_order has the full rationale)
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


def neighborhood(fills, seeds: pa.Table, max_dist: int) -> pa.Table:
    """``(node, q)`` seed rows → every ``(node, q)`` whose node lies
    within ``max_dist`` undirected hops of a seed node with label ``q``
    (seeds included), as one driver-side table in ``MEMBER_SCHEMA``.

    One Ray Data execution per round: each fills batch joins its
    distinct undirected edges with the frontier and anti-joins the
    reached pairs with the known ones, so the driver collects only the
    round's new pairs. Raises ``RuntimeError`` once the known pairs
    exceed ``MAX_MEMBERSHIP``."""
    import ray

    known = frontier = _distinct(seeds.cast(MEMBER_SCHEMA), ["node", "q"])
    for _ in range(max_dist):
        if not frontier.num_rows:
            break
        ref = ray.put((frontier.rename_columns(["a", "q"]), known))

        def expand(batch: pa.Table, _ref=ref) -> pa.Table:
            fr, kn = ray.get(_ref)
            subj, obj = batch.column("subj"), batch.column("obj")
            edges = _distinct(pa.table({
                "a": pa.chunked_array(subj.chunks + obj.chunks, pa.string()),
                "node": pa.chunked_array(obj.chunks + subj.chunks,
                                         pa.string())}), ["a", "node"])
            hop = edges.join(fr, "a", join_type="inner")
            return _distinct(hop, ["node", "q"]).join(
                kn, ["node", "q"], join_type="left anti")

        found = fills.map_batches(expand, batch_format="pyarrow") \
            .iter_batches(batch_size=None, batch_format="pyarrow")
        frontier = _distinct(pa.concat_tables(
            [MEMBER_SCHEMA.empty_table(), *found]), ["node", "q"])
        known = pa.concat_tables([known, frontier])
        if known.num_rows > MAX_MEMBERSHIP:
            raise RuntimeError(
                f"neighborhood: {known.num_rows} (node, query) pairs "
                f"(> MAX_MEMBERSHIP={MAX_MEMBERSHIP}) — the query "
                "neighborhoods are too large to broadcast; use fewer "
                "query entities or a smaller max_dist (or raise the cap)")
    return known.combine_chunks()


def prune_by_distance(fills, query_entities, max_dist: int = 4):
    """Keep edges whose subject lies within graph distance ≤ max_dist
    of a query entity — the reference's EntityGraph pruning
    (``InferentialSlotFiller.java:55-200`` +
    ``graph/GraphAlgorithms.java:13``): ``neighborhood`` with one label,
    then an ``is_in`` filter on the subject against the broadcast
    reached nodes (the edge table itself never leaves the cluster)."""
    import ray

    qs = [str(q) for q in query_entities]
    reached = neighborhood(fills, pa.table({"node": qs, "q": [""] * len(qs)},
                                           schema=MEMBER_SCHEMA), max_dist)
    ref = ray.put(reached.column("node").combine_chunks())

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("subj"),
                                     value_set=ray.get(ref)))

    return fills.map_batches(keep, batch_format="pyarrow")


def bridge_paths(fills, emit, left_preds=None, right_preds=None):
    """Every bridge path ``A -p→ B -q→ C`` with ``A != C`` through one
    ``by_key`` join on the bridge ``B``. The left side is the fills
    with ``obj`` renamed ``bridge`` (optionally only predicates in
    ``left_preds``), the right side the fills with ``subj`` renamed
    ``bridge`` (``right_preds``). Per partition, ``emit(left, right)``
    gets the two sides' rows of every path, aligned row by row, in
    (bridge, left row, right row) order; the operator is named after
    ``emit``."""
    import functools

    def side(key: str, preds):
        value_set = pa.array(sorted(preds or ()), pa.string())

        def project(batch: pa.Table) -> pa.Table:
            if preds is not None:
                batch = batch.filter(pc.is_in(batch.column("pred"),
                                              value_set=value_set))
            return batch.rename_columns(
                ["bridge" if c == key else c for c in batch.column_names])

        return fills.map_batches(project, batch_format="pyarrow"), \
            pa.schema([("bridge" if f.name == key else f.name, f.type)
                       for f in FILLS_SCHEMA])

    @functools.wraps(emit)
    def paths(left: pa.Table, right: pa.Table) -> pa.Table:
        j = pa.table({"bridge": left.column("bridge"),
                      "_l": np.arange(left.num_rows)}).join(
            pa.table({"bridge": right.column("bridge"),
                      "_r": np.arange(right.num_rows)}),
            "bridge", join_type="inner").sort_by(
            [("bridge", "ascending"), ("_l", "ascending"),
             ("_r", "ascending")])
        left, right = left.take(j.column("_l")), right.take(j.column("_r"))
        keep = pc.not_equal(left.column("subj"), right.column("obj"))
        return emit(left.filter(keep), right.filter(keep))

    return by_key([side("obj", left_preds), side("subj", right_preds)],
                  "bridge", paths)


def mine_rules(fills, *, min_support: int = 2,
               min_confidence: float = 0.3):
    """Mine length-2 Horn rules (p, q ⇒ head) from the KG — the
    ``MineInferentialPaths`` analog (path counting instead of the
    path-trie): enumerate the distinct ``bridge_paths``
    (subj, p, q, obj), co-locate them with the direct subj-head→obj
    edges on a coarse (subj, obj) partition, and score each
    (p, q, head) by support / #paths(p, q). Output:
    (p, q, head, support, total, confidence), confidence-desc."""
    import pandas as pd

    def path_rows(left: pa.Table, right: pa.Table) -> pa.Table:
        return _distinct(pa.table({
            "subj": left.column("subj"), "p": left.column("pred"),
            "q": right.column("pred"), "obj": right.column("obj")}),
            ["subj", "p", "q", "obj"])

    def score(paths: pd.DataFrame, edges: pd.DataFrame) -> pd.DataFrame:
        # path_rows dedups only within its bridge-hashed partition: the
        # same (subj,p,q,obj) path via bridges in different partitions
        # survives. All copies converge HERE (keyed on (subj, obj)),
        # so the global distinct lives in this partition — without it,
        # support/total depend on the partition count, i.e. on cluster
        # size.
        paths = paths.drop_duplicates(["subj", "p", "q", "obj"])
        # one total per path, one support per head edge it closes
        totals = paths.groupby(["p", "q"]).size().rename("total") \
            .reset_index().assign(head="", support=0)
        sup = paths.merge(edges.rename(columns={"pred": "head"}),
                          on=["subj", "obj"]) \
            .groupby(["p", "q", "head"]).size().rename("support") \
            .reset_index().assign(total=0)
        # in-partition pre-aggregation: the driver sees one row per
        # (p, q, head) per partition, not per path
        return pd.concat([totals, sup]).groupby(
            ["p", "q", "head"], as_index=False).sum()

    # co-locate paths with direct edges on (subj, obj)
    text = pa.string()
    scored = by_key(
        [(bridge_paths(fills, path_rows),
          pa.schema([(c, text) for c in ("subj", "p", "q", "obj")])),
         (fills, pa.schema([(c, text) for c in ("subj", "pred", "obj")]))],
        ["subj", "obj"], score, batch_format="pandas")

    df = scored.to_pandas()
    if df.empty:
        df = pd.DataFrame(columns=["p", "q", "head", "support", "total"])
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


def transitive_infer(fills, rules=DEFAULT_RULES,
                     damping: float = RULE_DAMPING):
    """fills → inferred length-2-path edges (NOT unioned with input;
    callers union + combine as desired): ``bridge_paths`` joined with
    the rules on (p, q) → head, score = (s₁·s₂)·damping, provenance and
    subject span from the left edge, object span from the right. The
    output itself is duplicate-free: every inference of a triple,
    through any bridge in any partition, reaches the per-triple max
    combine, which keeps the best score — so the result does not
    depend on how bridges hash to partitions."""
    rule_t = pa.table({c: pa.array([r[i] for r in rules], pa.string())
                       for i, c in enumerate(("p", "q", "head"))})

    def join(left: pa.Table, right: pa.Table) -> pa.Table:
        j = pa.table({"p": left.column("pred"), "q": right.column("pred"),
                      "_i": np.arange(left.num_rows)}).join(
            rule_t, ["p", "q"], join_type="inner").sort_by("_i")
        left, right = left.take(j.column("_i")), right.take(j.column("_i"))
        score = pc.multiply(pc.multiply(left.column("score"),
                                        right.column("score")), damping)
        return pa.Table.from_arrays(
            [left.column("subj"), left.column("subj_type"),
             j.column("head"), right.column("obj"),
             right.column("obj_type"), score, left.column("doc_id"),
             left.column("sent_idx"), left.column("subj_span"),
             right.column("obj_span")], schema=FILLS_SCHEMA)

    return _max_combine(bridge_paths(
        fills, join, left_preds={p for p, _q, _h in rules},
        right_preds={q for _p, q, _h in rules}))
