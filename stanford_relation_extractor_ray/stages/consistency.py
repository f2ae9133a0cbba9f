"""Per-entity combine + greedy consistency: partial fills → consistent
fills.

Ray-Data shape of the reference's combine and consistency steps
(SURVEY.md §2.9, ``HeuristicSlotfillPostProcessor.java:68-114``
filterStep + ``HeuristicSlotfillPostProcessors.java`` filter/rewrite
chain): noisy-or per triple, then the greedy pass per entity. One Arrow
kernel, ``finalize_partition``, does both for any table holding every
partial of its subjects. ``pipelines.kg.finalize_fills`` runs it, with
the unary chain after it, inside its own finalize kernel: once on the
driver below a size gate, per ``hash(subj)`` partition behind one
shuffle above it.

Greedy pass: sort the entity's fills by (score desc, obj token count
**desc** — longer slot values first — then pred asc, obj asc) — the
reference's ``KBPSlotFill.compareTo`` (score desc, MORE slot-value
tokens first, longer entity name first, then lexicographic on the
triple key, ``kbp/common/KBPSlotFill.java:68-91``). Within a
per-entity group the entity-name length is constant, so the effective
chain is (-score, -obj_tokens, key-lexicographic). Two checks need
only the fill itself and run as one Arrow mask over the table before
the sort (``_valid``):

- RespectRelationTypes (NER validity per relation,
  ``HeuristicSlotfillPostProcessors.java:47``)
- SanityCheck: subj != obj, non-empty value

The valid fills are sorted once, subjects ascending and each subject's
fills in comparator order (``_comparator_order``). The greedy pass then
accepts one fill at a time iff no already-accepted fill of its subject
conflicts with it:

- NoDuplicates (exact) + NoDuplicatesApproximate (near-dup slot values
  via linker scoring, ``:655-739``)
- DuplicateRelationOnlyInListRelations (one value per SINGLE-cardinality
  relation, ``:742-754``)
- RespectDeclaredIncompatibilities (pairwise, ``:766-``)

The accepted set is indexed by relation and by value (``_Accepted``),
so a candidate meets only the fills it could conflict with, and each
distinct (accepted value, candidate value, type) pair gets one
near-duplicate verdict per call. The TOP (greedy) and SUM (Gibbs
restarts) engines share this kernel.
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import normalize_tokens, same_entity
from ..runtime import by_key, map_distinct
from ..schemas import FILLS_SCHEMA
from ..vocab import INCOMPATIBLE_RELATIONS, RELATIONS, SINGLE_RELATIONS


def _value_dup(a: str, b: str, obj_type: str, tokens) -> bool:
    if a == b or a.lower() == b.lower():
        return True
    if obj_type in ("PERSON", "ORGANIZATION"):
        return same_entity(a, b, obj_type, tokens=tokens)
    return False


# every valid (pred, obj_type, subj_type), "\x00"-joined: relation
# names and NER tags carry no "\x00", so a joined row key with exactly
# two of them matches only its own triple
_VALID_KEYS = pa.array(sorted(
    "\x00".join((name, slot, spec.entity_type))
    for name, spec in RELATIONS.items() for slot in spec.slot_types))


def _valid(tbl: pa.Table) -> pa.Array:
    """RespectRelationTypes + SanityCheck per row, as a boolean mask: a
    known relation, a slot type it allows, its subject type, and a
    non-empty value that is not the subject."""
    obj = tbl.column("obj")
    typed = pc.is_in(pc.binary_join_element_wise(
        tbl.column("pred"), tbl.column("obj_type"), tbl.column("subj_type"),
        "\x00"), value_set=_VALID_KEYS)
    return pc.and_(pc.fill_null(pc.and_(typed, pc.greater(
        pc.utf8_length(obj), 0)), False), pc.fill_null(
        pc.not_equal(obj, tbl.column("subj")), True)).combine_chunks()


def _comparator_order(fills: pa.Table) -> pa.Array:
    """Row order of the greedy pass: subjects ascending, each subject's
    fills by the partition-invariant comparator (``KBPSlotFill.
    compareTo``, ``kbp/common/KBPSlotFill.java:68-91``, made
    ulp-robust) — (-score, -obj tokens, pred, obj, raw_obj, doc_id,
    sent_idx) ascending.

    The noisy-or combine groups float products by batch boundaries, so
    two near-dup fills can differ by an ulp depending on block layout
    (round 2's one red driver cell). The score participates ROUNDED to
    1e-9 (Python's ``round``, once per distinct score) so block-layout
    jitter cannot reorder ties, and the chain ends in a fully
    deterministic tie-break on the raw pre-link object (the two fills'
    canonical objects are equal by construction when they compete; the
    object itself when there is no ``raw_obj``) and the provenance
    ``(doc_id, sent_idx)``. Strings sort by code point, as Python
    compares them, and the sort is stable."""
    obj = fills.column("obj")
    raw = fills.column("raw_obj") if "raw_obj" in fills.column_names \
        else obj
    keys = pa.table({
        "subj": fills.column("subj"),
        "score": map_distinct(lambda s: -round(s, 9),
                              fills.column("score"), type=pa.float64()),
        "tokens": map_distinct(lambda o: -len(o.split()), obj,
                               type=pa.int64()),
        "pred": fills.column("pred"), "obj": obj,
        "raw": pc.if_else(pc.fill_null(pc.equal(raw, ""), True), obj, raw),
        "doc_id": fills.column("doc_id"),
        "sent_idx": fills.column("sent_idx")})
    return pc.sort_indices(keys, [(c, "ascending")
                                  for c in keys.column_names])


def _codes(col) -> tuple[list, list]:
    """(dictionary values, per-row codes) of a column, as Python lists."""
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    return enc.dictionary.to_pylist(), \
        enc.indices.to_numpy(zero_copy_only=False).tolist()


class _Kernel:
    """What the engines read of one ``consistent_fills`` call: the
    dictionary codes of ``pred``, ``obj`` and ``obj_type``, the scores,
    the codes of the SINGLE, incompatible and location-of-death
    relations, and a ``_value_dup`` memo with one verdict per distinct
    (accepted obj, candidate obj, obj_type) triple of codes, over the
    normalized tokens of each distinct obj."""

    def __init__(self, fills: pa.Table):
        preds, self.pred = _codes(fills.column("pred"))
        self.objs, self.obj = _codes(fills.column("obj"))
        self.types, self.obj_type = _codes(fills.column("obj_type"))
        self.score = fills.column("score").to_pylist()
        code = {p: i for i, p in enumerate(preds)}
        self.single = {code[p] for p in SINGLE_RELATIONS if p in code}
        self.incompatible = {(code[a], code[b])
                             for pair in INCOMPATIBLE_RELATIONS
                             if len(pair) == 2
                             and all(p in code for p in pair)
                             for a, b in (tuple(pair), tuple(pair)[::-1])}
        self.loc_of_death = {code[p] for p in LOC_OF_DEATH if p in code}
        self.date_of_death = code.get("per:date_of_death")
        self._dup: dict = {}
        self._tokens: dict = {}

    def tokens(self, surface: str) -> list[str]:
        """``normalize_tokens`` once per distinct surface."""
        toks = self._tokens.get(surface)
        if toks is None:
            toks = self._tokens[surface] = normalize_tokens(surface)
        return toks

    def dup(self, a: int, b: int, t: int) -> bool:
        verdict = self._dup.get((a, b, t))
        if verdict is None:
            verdict = self._dup[a, b, t] = _value_dup(
                self.objs[a], self.objs[b], self.types[t], self.tokens)
        return verdict


class _Accepted:
    """One entity's accepted fills, indexed by pred and by obj, so a
    candidate is checked only against the fills it can conflict with:
    same pred (DuplicateRelationOnlyInListRelations, NoDuplicates and
    NoDuplicatesApproximate) or same obj under another pred
    (RespectDeclaredIncompatibilities)."""

    __slots__ = ("k", "by_pred", "by_obj")

    def __init__(self, k: _Kernel):
        self.k, self.by_pred, self.by_obj = k, {}, {}

    def admit(self, i: int) -> bool:
        """Accept row ``i`` iff no accepted fill conflicts with it."""
        k = self.k
        p, o = k.pred[i], k.obj[i]
        same = self.by_pred.get(p)
        if same is not None:
            if p in k.single:
                return False
            t = k.obj_type[i]
            for a in same:
                if k.dup(a, o, t):
                    return False
        for q in self.by_obj.get(o, ()):
            if (q, p) in k.incompatible:
                return False
        self.by_pred.setdefault(p, []).append(o)
        self.by_obj.setdefault(o, []).append(p)
        return True


def _greedy(k: _Kernel, rows: range) -> list[int]:
    """The per-entity greedy filterStep over comparator-ordered
    ``rows``."""
    acc = _Accepted(k)
    return [i for i in rows if acc.admit(i)]


def gibbs_greedy(k: _Kernel, rows: range, *, mixing_time: int = 10,
                 seed: int = 42) -> list[int]:
    """Gibbs-restart consistency with the SUM objective
    (``HeuristicSlotfillPostProcessor.java:145-204``): pass 1 is the
    comparator-ordered greedy; then ``mixing_time`` seeded random-restart
    greedy passes (``Random(seed)`` shuffle of the enable order), keeping
    the assignment maximizing Σ accepted scores. The default engine is
    the plain greedy (the reference's GibbsObjective.TOP mode)."""
    best = _greedy(k, rows)
    # objectives rounded to 1e-9: assignment choice must not flip on
    # an ulp of the batch-grouped noisy-or product (see
    # _comparator_order)
    best_obj = round(sum(k.score[i] for i in best), 9)
    rng = random.Random(seed)
    order = list(rows)
    for _ in range(mixing_time):
        rng.shuffle(order)
        acc = _Accepted(k)
        accepted = [i for i in order if acc.admit(i)]
        obj = round(sum(k.score[i] for i in accepted), 9)
        if obj > best_obj:
            best, best_obj = accepted, obj
    # stable output order: the comparator order
    return sorted(best)


def consistent_fills(tbl: pa.Table, engine) -> pa.Table:
    """fills → the consistent fills of every subject in ``tbl``:
    subjects in sorted order, each in its engine's output order. The
    valid rows (``_valid``) are sorted once (``_comparator_order``);
    the engine then runs per subject over row positions into that
    order, and the accepted rows are gathered with one ``take``."""
    fills = tbl.filter(_valid(tbl))
    fills = fills.take(_comparator_order(fills))
    subj = fills.column("subj").combine_chunks()
    cuts = np.flatnonzero(pc.not_equal(subj[1:], subj[:-1]).to_numpy(
        zero_copy_only=False)) + 1
    bounds = np.concatenate([[0], cuts, [fills.num_rows]]).tolist() \
        if fills.num_rows else [0]
    k = _Kernel(fills)
    take = [i for lo, hi in zip(bounds, bounds[1:])
            for i in engine(k, range(lo, hi))]
    return fills.select(FILLS_SCHEMA.names) \
        .take(pa.array(take, pa.int64())).cast(FILLS_SCHEMA)


LOC_OF_DEATH = frozenset({"per:city_of_death",
                          "per:stateorprovince_of_death",
                          "per:country_of_death"})


def mitigate_loc_of_death(k: _Kernel, accepted: list[int]) -> list[int]:
    """Exact MitigateLocOfDeath
    (``HeuristicSlotfillPostProcessors.java:792-812``): a location-of-
    death fill survives only if the entity also has a
    per:date_of_death fill in the accepted set."""
    if not any(k.pred[i] in k.loc_of_death for i in accepted) or any(
            k.pred[i] == k.date_of_death for i in accepted):
        return accepted
    return [i for i in accepted if k.pred[i] not in k.loc_of_death]


def make_engine(objective: str, mixing_time: int, seed: int):
    """TOP (plain greedy) vs SUM (Gibbs restarts) per-entity engine
    over one subject's comparator-ordered rows of a ``_Kernel``; both
    run the nonlocal MitigateLocOfDeath prune over the accepted set (the
    reference applies it as a leave-one-out post-processor after the
    greedy filterStep)."""
    if objective == "TOP":
        return lambda k, rows: mitigate_loc_of_death(k, _greedy(k, rows))
    if objective == "SUM":
        return lambda k, rows: mitigate_loc_of_death(k, gibbs_greedy(
            k, rows, mixing_time=mixing_time, seed=seed))
    raise ValueError(f"unknown Gibbs objective: {objective}")


def enforce(fills, *, objective: str = "TOP", mixing_time: int = 10,
            seed: int = 42):
    """fills Dataset → consistent fills Dataset.

    The greedy pass is per-entity, but one Ray group per entity pays
    per-group overhead on thousands of tiny groups. Rows are routed to
    coarse ``hash(subj)`` partitions (``runtime.by_key``: every fill of
    an entity lands in one partition, which is the only property the
    greedy pass needs); each partition runs ``consistent_fills``.
    ``objective`` selects the per-entity engine (TOP = greedy, SUM =
    seeded Gibbs restarts — test.consistency.gibbsobjective).
    """
    engine = make_engine(objective, mixing_time, seed)

    def run_partition(group: pa.Table) -> pa.Table:
        return consistent_fills(group, engine)

    return by_key(fills, "subj", run_partition)


def finalize_partition(tbl: pa.Table, *, linker, engine) -> pa.Table:
    """Partial fills holding every partial of their subjects →
    consistent, object-linked fills: the consistency half of
    ``pipelines.kg``'s finalize kernel. In exact unfused order: (1) the
    noisy-or merge per RAW triple (``classify.merge_fills_table``), (2)
    object linking (``link.link_objects``), (3) the per-subject engine
    (``consistent_fills``) — which also dedups triples whose raw
    objects linked to the same canonical, keeping the higher-scored
    one exactly as the unfused ``combine_fills → link → enforce``
    chain does."""
    from .classify import merge_fills_table
    from .link import link_objects
    if tbl.num_rows == 0:
        return FILLS_SCHEMA.empty_table()
    return consistent_fills(link_objects(merge_fills_table(tbl), linker),
                            engine)
