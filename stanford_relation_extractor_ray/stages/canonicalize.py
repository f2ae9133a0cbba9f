"""Surface-form canonicalization and graph materialization.

Ray-Data shape of the reference's entity merging
(``GraphConsistencyPostProcessors.java:53-131`` — all-pairs linking →
equivalence classes → representative → merge edges; SURVEY.md §2.8).
``pipelines.kg.build_graph`` gates between two size tiers that run ONE
copy of each step:

1. **Surfaces** (``surface_weights``): distinct (name, type) over
   subjects + entity-typed objects, weight = Σ fill score — one Arrow
   ``group_by`` sum.
2. **Blocking** (``_explode_blocks`` → ``_pairs_in_partition``): every
   surface gets block keys (its alphabetically-first normalized token,
   plus acronym expansion blocks); the package's one bucket-pair
   kernel, ``dedup.bucket_pairs``, lists the pairs inside each block
   (the same candidate step as MinHash LSH and SimHash), and the
   linker verdict runs per candidate — never corpus-wide all-pairs.
3. **Components**: driver union-find (``dedup.connected_components``)
   below the gate; distributed min-label propagation
   (``propagate_components_ds``) above it.
4. **Representative** (``pick_rep``) = highest total incoming fill
   score, tie-broken by longest then lexicographically-smallest name
   (the reference picks by entity priority = sum of incoming scores,
   ``GraphConsistencyPostProcessors.java:68-77``). The canonical map
   is a ``(name, type, rep)`` table.
5. **Rewrite + merge** (``canonical_rewrite``): subj/obj surfaces map
   to their representative and edges merge per canonical triple with
   noisy-or scores (MAX/NOISY_OR merge strategies,
   ``GraphConsistencyPostProcessors.java:201-229``). Losing surface
   forms become node aliases (``make_nodes``).

The driver tier (``driver_graph``) runs each kernel once over one
Arrow table with zero Ray executions. The Dataset tier
(``materialize_graph_ds``) runs the same kernels per batch / per
coarse-pid partition, so nothing entity-universe-bounded lands on the
driver.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import is_acronym_of, normalize_tokens, same_entity
from ..runtime import by_key, collect_table, renamed, table_dataset
from ..schemas import EDGES_SCHEMA, FILLS_SCHEMA, NODES_SCHEMA
from .classify import _rank_codes, combine_fills, merge_fills_table
from .dedup import bucket_pairs, connected_components

ENTITY_TYPES = ("PERSON", "ORGANIZATION")

# propagate_components_ds: max adjacency entries a node may accumulate
# before the round fails loudly (degenerate-linker guard; entity-name
# variant clusters are orders of magnitude smaller than this)
MAX_COMPONENT_ADJ = 10_000

# distinct-surface count up to which the whole graph build runs on the
# driver in one process (``build_graph`` bounds it by 2·fills, since a
# fill names ≤ 2 surfaces); above it every step runs as a Dataset
SMALL_SURFACES = 100_000

CMAP_SCHEMA = pa.schema([("name", pa.string()), ("type", pa.string()),
                         ("rep", pa.string())])


def _key(t: pa.Table, name_col: str = "name", type_col: str = "type"):
    """``name|type`` join key per row (types never contain ``|``)."""
    return pc.binary_join_element_wise(
        t.column(name_col).cast(pa.string()),
        t.column(type_col).cast(pa.string()), "|")


def _blocks_of(name: str) -> list[str]:
    toks = normalize_tokens(name)
    blocks = [min(toks)]
    if name.isupper() and len(name) <= 6:      # acronym → block per letter
        blocks.append(name[0].lower())
    return blocks


# --- 1. surfaces ----------------------------------------------------------

def _sum_weights(t: pa.Table) -> pa.Table:
    """(name, type, weight) rows → Σweight per distinct (name, type).
    Single-threaded so the float summation order is the row order."""
    return (t.select(["name", "type", "weight"])
            .group_by(["name", "type"], use_threads=False)
            .aggregate([("weight", "sum")])
            .rename_columns(["name", "type", "weight"]))


def surface_weights(fills: pa.Table) -> pa.Table:
    """fills → distinct (name, type, weight) over subjects +
    entity-typed objects, weight = Σ score of the fills naming it."""
    both = pa.concat_tables([
        fills.select([col, f"{col}_type", "score"])
        .rename_columns(["name", "type", "weight"])
        for col in ("subj", "obj")])
    return _sum_weights(both.filter(pc.is_in(
        both.column("type"), value_set=pa.array(ENTITY_TYPES))))


def _surface_table(fills):
    """Dataset form of ``surface_weights``: the same aggregate per
    batch, then per coarse name-hash partition. Downstream consumers
    compare weights only through ``round(w, 9)``, so the
    partition-local float summation order is below the comparison
    resolution."""
    return by_key(fills.map_batches(surface_weights,
                                    batch_format="pyarrow"),
                  "name", _sum_weights)


# --- 2. blocking + in-block linking ---------------------------------------

def _explode_blocks(surfaces: pa.Table) -> pa.Table:
    """surfaces (name, type, ...) → one (name, type, block) row per
    block key of each surface."""
    bn, bt, bb = [], [], []
    for n, t in zip(surfaces.column("name").to_pylist(),
                    surfaces.column("type").to_pylist()):
        for blk in _blocks_of(n):
            bn.append(n)
            bt.append(t)
            bb.append(f"{t}:{blk}")
    return pa.table({"name": pa.array(bn, pa.string()),
                     "type": pa.array(bt, pa.string()),
                     "block": pa.array(bb, pa.string())})


def _pairs_in_partition(group: pa.Table) -> pa.Table:
    """Blocks (whole ones: a coarse partition, or every block on the
    driver) → same-entity pairs ``(a, b, type)``, ``a < b``. The
    candidates are ``dedup.bucket_pairs`` over block codes, ids the
    names' rank codes, so ``a`` is the lexicographically smaller name
    (``approx_match_score``'s greedy token match is not symmetric);
    the linker verdict runs once per candidate. (One Ray group per
    block would pay per-group overhead on thousands of tiny blocks.)"""
    names = group.column("name")
    left, right = bucket_pairs(_rank_codes(group.column("block")),
                               _rank_codes(names))
    a = names.take(pa.array(left)).to_pylist()
    b = names.take(pa.array(right)).to_pylist()
    types = group.column("type").take(pa.array(left)).to_pylist()
    keep = [same_entity(x, y, t) or is_acronym_of(x, y)
            or is_acronym_of(y, x) for x, y, t in zip(a, b, types)]
    return pa.table({"a": pa.array(a, pa.string()),
                     "b": pa.array(b, pa.string()),
                     "type": pa.array(types, pa.string())}) \
        .filter(pa.array(keep, pa.bool_()))


def _block_pairs_ds(surfaces):
    """surfaces Dataset → candidate same-entity pair Dataset: whole
    blocks co-partitioned by block-key hash, ``_pairs_in_partition``
    inside each partition."""
    return by_key(surfaces.map_batches(_explode_blocks,
                                       batch_format="pyarrow"),
                  "block", _pairs_in_partition)


# --- 3. components (Dataset tier) -----------------------------------------

def propagate_components_ds(pairs, *, max_iter: int = 50):
    """Distributed connected components over the same-entity edge list
    by iterative min-label (hash-to-min) propagation — the successor to
    driver union-find above the surface gate (SURVEY.md §7.2 step 7;
    the clusters are entity-name variant sets, so the graph diameter is
    tiny and the loop converges in a handful of rounds).

    Each round is ONE destination-addressed shuffle. State rows carry
    the node's current label AND its adjacency list; the per-round map
    emits min-label messages straight to their destination pid (no
    label-lookup co-partition pass — the label rides with the
    adjacency), and a single ``groupby(pid)`` reduce takes the per-node
    min, re-assembles the adjacency, and counts changes. Pointer
    jumping is expressed as edge ADDITION: each round a node links to
    its current label node (both directions — the reverse edge arrives
    via the message's ``add`` field), so chains collapse in
    O(log diameter) rounds (golden-ratio base: the reverse link lands
    one round late). Adding intra-component edges never changes the
    fixpoint (min label per component), so equality with union-find is
    preserved; accumulated adjacency is bounded by component size,
    which for entity-variant clusters is tiny.

    Returns the final (node → root) assignment as a DATASET of
    ``(node, label)`` rows (``a``/``b`` name|type keys → root) —
    nothing lands on the driver.
    """
    def to_edges(batch: pa.Table) -> pa.Table:
        ka, kb = _key(batch, "a"), _key(batch, "b")
        return pa.table({
            "ka": pa.chunked_array(ka.chunks + kb.chunks, pa.string()),
            "kb": pa.chunked_array(kb.chunks + ka.chunks, pa.string())})

    def init_group(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.drop_duplicates(["ka", "kb"])
             .sort_values(["ka", "kb"])
             .groupby("ka", sort=True)["kb"].agg(list))
        return pd.DataFrame({"node": g.index.to_numpy(),
                             "label": g.index.to_numpy(),
                             "nbrs": g.to_numpy()})

    # state: (node, label, nbrs) — one init shuffle groups the
    # bidirectional edge list into per-node adjacency
    state = by_key(pairs.map_batches(to_edges, batch_format="pyarrow"),
                   "ka", init_group, batch_format="pandas").materialize()

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        """One state row → destination-addressed messages:
        - self rows (own=label) re-seed the node, carrying its
          adjacency (plus the new label link) in ``add``;
        - neighbour rows send the label across each edge and carry the
          reverse edge in ``add``;
        - pointer rows link node ↔ current label (edge addition)."""
        ex = df[["node", "label", "nbrs"]].explode("nbrs")
        ex = ex[ex["nbrs"].notna()]
        ptr = df[df["label"] != df["node"]]
        out = pd.concat([
            pd.DataFrame({"dest": df["node"], "cand": df["label"],
                          "own": df["label"], "add": ""}),
            pd.DataFrame({"dest": ex["node"], "cand": ex["label"],
                          "own": ex["label"], "add": ex["nbrs"]}),
            pd.DataFrame({"dest": ptr["node"], "cand": ptr["label"],
                          "own": ptr["label"], "add": ptr["label"]}),
            pd.DataFrame({"dest": ex["nbrs"], "cand": ex["label"],
                          "own": "", "add": ex["node"]}),
            pd.DataFrame({"dest": ptr["label"], "cand": ptr["label"],
                          "own": "", "add": ptr["node"]}),
        ], ignore_index=True)
        return out

    def reduce_min(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("dest", sort=True)
        new = g["cand"].min()
        old = g["own"].max()          # "" sorts below any label
        adds = (df.loc[(df["add"] != "") & (df["add"] != df["dest"]),
                       ["dest", "add"]]
                .drop_duplicates()
                .sort_values(["dest", "add"])
                .groupby("dest", sort=True)["add"].agg(list)
                .reindex(new.index))
        nbrs = [a if isinstance(a, list) else [] for a in adds]
        # hot-component guard: pointer-jump edge additions grow each
        # node's adjacency toward O(component size), so a degenerate
        # linker (one block matching everything) would go quadratic in
        # message volume. Entity-variant clusters are tiny by design —
        # fail loudly instead of silently melting the shuffle.
        worst = max((len(a) for a in nbrs), default=0)
        if worst > MAX_COMPONENT_ADJ:
            raise RuntimeError(
                f"propagate_components_ds: a node accumulated {worst} "
                f"adjacency entries (> MAX_COMPONENT_ADJ="
                f"{MAX_COMPONENT_ADJ}) — a same-entity component is "
                "pathologically large; check the blocking/linker "
                "before rerunning (or raise the cap for genuinely "
                "huge clusters)")
        return pd.DataFrame({
            "node": new.index.to_numpy(), "label": new.to_numpy(),
            "nbrs": nbrs,
            "changed": (new.to_numpy() != old.to_numpy())
            .astype("int64")})

    converged = False
    for _ in range(max_iter):
        state = by_key(state.map_batches(emit, batch_format="pandas"),
                       "dest", reduce_min,
                       batch_format="pandas").materialize()
        if not state.sum("changed"):
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"propagate_components_ds did not reach a fixpoint in "
            f"{max_iter} rounds — component diameter exceeds the "
            f"pointer-jumping bound; raise max_iter")
    return state.select_columns(["node", "label"])


# --- 4. representative → canonical map ------------------------------------

def pick_rep(df: pd.DataFrame) -> pd.DataFrame:
    """(name, type, weight, root) rows, whole roots → canonical map
    ``(name, type, rep)``: per root, the member with the max
    (round(weight, 9), name length), then the smallest name."""
    df = df.assign(rw=df["weight"].round(9), ln=df["name"].str.len())
    df = df.sort_values(["root", "rw", "ln", "name"],
                        ascending=[True, False, False, True],
                        kind="mergesort")
    first = df.drop_duplicates("root")
    rep_of = dict(zip(first["root"], first["name"]))
    return pd.DataFrame({"name": df["name"], "type": df["type"],
                         "rep": df["root"].map(rep_of)})


def canonical_map(surfaces: pa.Table) -> pa.Table:
    """Driver tier: surfaces (name, type, weight) → canonical map
    ``(name, type, rep)`` in one process — blocking + in-block linking,
    union-find, representative pick. Same clusters and representatives
    as ``canonical_map_ds`` (pinned by tests/test_canonicalize_scale.py).
    """
    pairs = _pairs_in_partition(_explode_blocks(surfaces))
    root_of = connected_components(list(zip(
        _key(pairs, "a").to_pylist(), _key(pairs, "b").to_pylist())))
    df = surfaces.to_pandas()
    key = _key(surfaces).to_pandas()
    df["root"] = key.map(root_of).fillna(key)
    return pa.Table.from_pandas(pick_rep(df), schema=CMAP_SCHEMA,
                                preserve_index=False) \
        .replace_schema_metadata(None)


def canonical_map_ds(surfaces):
    """Dataset tier: surfaces Dataset (name, type, weight) → canonical
    map Dataset ``(name, type, rep)`` — distributed blocking,
    components by label propagation, a co-partition root join, then
    ``pick_rep`` per root partition; no driver materialization of the
    surface universe."""
    surfaces = surfaces.materialize()      # blocking + root join
    labels = propagate_components_ds(_block_pairs_ds(surfaces))

    # root join: surfaces ⋈ component labels on the name|type key;
    # unpaired surfaces are their own root
    def with_key(batch: pa.Table) -> pa.Table:
        return batch.append_column("key", _key(batch))

    def join_root(w: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        root = w["key"].map(dict(zip(lab["key"], lab["root"]))) \
            .fillna(w["key"])
        return pd.DataFrame({
            "name": w["name"], "type": w["type"],
            "weight": w["weight"], "root": root})

    rooted = by_key(
        [(surfaces.map_batches(with_key, batch_format="pyarrow"),
          pa.schema([("key", pa.string()), ("name", pa.string()),
                     ("type", pa.string()), ("weight", pa.float64())])),
         (renamed(labels, {"node": "key", "label": "root"}),
          pa.schema([("key", pa.string()), ("root", pa.string())]))],
        "key", join_root, batch_format="pandas")
    # co-partitioned by root, so every cluster member is local
    return by_key(rooted, "root", pick_rep, batch_format="pandas")


# --- 5. rewrite, nodes, edges ---------------------------------------------

def canonical_rewrite(fills: pa.Table, cmap: pa.Table,
                      cols=("subj", "obj")) -> pa.Table:
    """fills → FILLS-schema fills with each ``cols`` surface replaced
    by its representative from the ``(name, type, rep)`` canonical
    map: subjects always; objects only when entity-typed and not an
    alternate_names value. The map is a pandas index lookup on the
    name|type key — no per-row Python."""
    fills = fills.select(FILLS_SCHEMA.names).cast(FILLS_SCHEMA)
    lut = pd.Series(cmap.column("rep").to_pandas().to_numpy(),
                    index=_key(cmap).to_pandas().to_numpy())
    for col in cols:
        tcol = f"{col}_type"
        new = _key(fills, col, tcol).to_pandas().map(lut)
        if col == "obj":
            new = new.where(
                fills.column(tcol).to_pandas().isin(ENTITY_TYPES)
                & ~fills.column("pred").to_pandas()
                .str.endswith("alternate_names"))
        new = new.fillna(fills.column(col).to_pandas())
        fills = fills.set_column(fills.schema.get_field_index(col), col,
                                 pa.array(new.to_numpy(), pa.string(),
                                          from_pandas=True))
    return fills


def make_nodes(cmap: pa.Table) -> pa.Table:
    """Canonical map rows, whole (rep, type) groups → nodes: one per
    (rep, type), sorted, with the merged-away names as sorted
    aliases."""
    df = (cmap.select(["name", "type", "rep"]).to_pandas()
          .sort_values(["rep", "type", "name"], kind="mergesort"))
    head = ~df.duplicated(["rep", "type"]).to_numpy()
    node_of = np.cumsum(head) - 1
    alias = (df["name"] != df["rep"]).to_numpy()
    counts = np.bincount(node_of[alias], minlength=int(head.sum()))
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype("int32")
    reps = pa.array(df["rep"].to_numpy()[head], pa.string())
    types = pa.array(df["type"].to_numpy()[head], pa.string())
    return pa.Table.from_arrays(
        [_entity_id_column(reps, types), reps, types,
         pa.ListArray.from_arrays(
             pa.array(offsets),
             pa.array(df["name"].to_numpy()[alias], pa.string()))],
        schema=NODES_SCHEMA)


def _entity_id_column(names, types, *, gate=None) -> pa.Array:
    """``e<crc32(name|type)>`` per row: crc32 once per DISTINCT
    (name, type) via dictionary encoding, gathered back per row — the
    edges table is the KG's widest output, so the id hash must not run
    per row. ``gate`` (optional bool ndarray) blanks ids where False
    (non-entity objects)."""
    key = pc.binary_join_element_wise(names, types, "|")
    if isinstance(key, pa.ChunkedArray):
        key = key.combine_chunks()
    enc = key.dictionary_encode()
    dvals = [f"e{zlib.crc32(s.encode()):08x}"
             for s in enc.dictionary.to_pylist()]
    ids = np.asarray(dvals, dtype=object)[
        enc.indices.to_numpy(zero_copy_only=False)]
    if gate is not None:
        ids = np.where(gate, ids, "")
    return pa.array(ids, pa.string())


def _to_edges(batch: pa.Table) -> pa.Table:
    obj_is_entity = pc.is_in(
        batch.column("obj_type"),
        value_set=pa.array(list(ENTITY_TYPES))) \
        .to_numpy(zero_copy_only=False)
    return pa.Table.from_arrays(
        [_entity_id_column(batch.column("subj"),
                           batch.column("subj_type")),
         batch.column("subj"), batch.column("subj_type"),
         batch.column("pred"),
         _entity_id_column(batch.column("obj"),
                           batch.column("obj_type"),
                           gate=obj_is_entity),
         batch.column("obj"), batch.column("obj_type"),
         batch.column("score"),
         batch.column("doc_id"), batch.column("sent_idx")],
        schema=EDGES_SCHEMA)


# --- the two tiers ----------------------------------------------------------

def driver_graph(fills):
    """Driver tier with ZERO Ray executions: the (materialized,
    entity-universe-bounded) fills are collected into one Arrow table
    and every kernel runs once → (nodes pa.Table, edges materialized
    Dataset, whose blocks read back with no execution either). One
    global ``merge_fills_table`` equals ``combine_fills``'s two-level
    merge (noisy-or is associative). A shuffle per step here was pure
    task overhead on a ~5k-row table and measured ANTI-scaling
    (0.9 s at 8 CPUs → 2.1 s at 32)."""
    tbl = collect_table(fills, FILLS_SCHEMA)
    cmap = canonical_map(surface_weights(tbl))
    merged = merge_fills_table(canonical_rewrite(tbl, cmap)) \
        .select(FILLS_SCHEMA.names).combine_chunks()
    return make_nodes(cmap), table_dataset(_to_edges(merged))


def apply_canonical_join(fills, cmap_ds):
    """Dataset-tier canonical rewrite: per column (subj, then obj) one
    two-sided ``by_key`` join of the fills with the canonical-map
    Dataset on name|type (the map's name and type renamed to the
    joined column pair), each partition running ``canonical_rewrite``
    on its own rows."""
    def one_join(ds, col: str):
        tcol = f"{col}_type"

        def rewrite(part: pa.Table, cmap: pa.Table) -> pa.Table:
            return canonical_rewrite(
                part, cmap.rename_columns(CMAP_SCHEMA.names), cols=(col,))

        return by_key([(ds, FILLS_SCHEMA),
                       (renamed(cmap_ds, {"name": col, "type": tcol}),
                        pa.schema([(col, pa.string()), (tcol, pa.string()),
                                   ("rep", pa.string())]))],
                      [col, tcol], rewrite)

    return one_join(one_join(fills, "subj"), "obj")


def materialize_graph_ds(fills):
    """Dataset tier: fills Dataset → (nodes_ds, edges_ds), both
    Datasets — nothing entity-universe-bounded on the driver."""
    cmap_ds = canonical_map_ds(_surface_table(fills)).materialize()
    merged = combine_fills(apply_canonical_join(fills, cmap_ds))

    nodes = by_key(cmap_ds, ["rep", "type"], make_nodes)
    edges = merged.map_batches(_to_edges, batch_format="pyarrow")
    return nodes, edges
