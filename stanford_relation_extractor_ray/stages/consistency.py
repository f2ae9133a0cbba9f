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
chain is (-score, -obj_tokens, key-lexicographic). Accept one fill at a time iff every check
passes against the already-accepted set:

- RespectRelationTypes (NER validity per relation,
  ``HeuristicSlotfillPostProcessors.java:47``)
- SanityCheck: subj != obj, non-empty value
- NoDuplicates (exact) + NoDuplicatesApproximate (near-dup slot values
  via linker scoring, ``:655-739``)
- DuplicateRelationOnlyInListRelations (one value per SINGLE-cardinality
  relation, ``:742-754``)
- RespectDeclaredIncompatibilities (pairwise, ``:766-``)
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.text import same_entity
from ..runtime import by_key
from ..schemas import FILLS_SCHEMA
from ..vocab import INCOMPATIBLE_RELATIONS, RELATIONS, SINGLE_RELATIONS


def _value_dup(a: str, b: str, obj_type: str) -> bool:
    if a == b or a.lower() == b.lower():
        return True
    if obj_type in ("PERSON", "ORGANIZATION"):
        return same_entity(a, b, obj_type)
    return False


def _valid(r: dict) -> bool:
    spec = RELATIONS.get(r["pred"])
    if spec is None:
        return False
    if r["obj_type"] not in spec.slot_types \
            or spec.entity_type != r["subj_type"]:
        return False
    return bool(r["obj"]) and r["obj"] != r["subj"]


def _can_accept(r: dict, accepted: list[dict]) -> bool:
    for a in accepted:
        if a["pred"] == r["pred"]:
            if r["pred"] in SINGLE_RELATIONS:
                return False
            if _value_dup(a["obj"], r["obj"], r["obj_type"]):
                return False
        elif a["obj"] == r["obj"] and frozenset(
                (a["pred"], r["pred"])) in INCOMPATIBLE_RELATIONS:
            return False
    return True


def _sort_key(r: dict):
    """Partition-invariant comparator key (``KBPSlotFill.compareTo``,
    ``kbp/common/KBPSlotFill.java:68-91``, made ulp-robust).

    The noisy-or combine groups float products by batch boundaries, so
    two near-dup fills can differ by an ulp depending on block layout
    (round 2's one red driver cell). The score participates ROUNDED to
    1e-9 so block-layout jitter cannot reorder ties, and the chain ends
    in a fully deterministic tie-break on the raw pre-link object (the
    two fills' canonical objects are equal by construction when they
    compete) and the provenance ``(doc_id, sent_idx)``."""
    return (-round(r["score"], 9), -len(r["obj"].split()),
            r["pred"], r["obj"], r.get("raw_obj") or r["obj"],
            r["doc_id"], r["sent_idx"])


def _greedy(rows: list[dict]) -> list[dict]:
    """The per-entity greedy filterStep over row dicts (sorted here)."""
    rows.sort(key=_sort_key)
    accepted: list[dict] = []
    for r in rows:
        if _valid(r) and _can_accept(r, accepted):
            accepted.append(r)
    return accepted


def gibbs_greedy(rows: list[dict], *, mixing_time: int = 10,
                 seed: int = 42) -> list[dict]:
    """Gibbs-restart consistency with the SUM objective
    (``HeuristicSlotfillPostProcessor.java:145-204``): pass 1 is the
    score-sorted greedy; then ``mixing_time`` seeded random-restart
    greedy passes (``Random(42)`` shuffle of the enable order), keeping
    the assignment maximizing Σ accepted scores. The default engine is
    the plain greedy (the reference's GibbsObjective.TOP mode)."""
    import random

    base = _greedy(rows)             # rows is now comparator-sorted
    valid = [r for r in rows if _valid(r)]
    # objectives rounded to 1e-9: assignment choice must not flip on
    # an ulp of the batch-grouped noisy-or product (see _sort_key)
    best, best_obj = base, round(sum(r["score"] for r in base), 9)
    rng = random.Random(seed)
    order = list(range(len(valid)))
    for _ in range(mixing_time):
        rng.shuffle(order)
        accepted: list[dict] = []
        for i in order:
            if _can_accept(valid[i], accepted):
                accepted.append(valid[i])
        obj = round(sum(r["score"] for r in accepted), 9)
        if obj > best_obj:
            best, best_obj = accepted, obj
    # stable output order: the comparator order
    chosen = {id(r) for r in best}
    return [r for r in rows if id(r) in chosen]


# what the engine reads of a fill (``raw_obj`` once linking added it)
_ENGINE_COLS = ("subj", "subj_type", "pred", "obj", "obj_type", "score",
                "raw_obj", "doc_id", "sent_idx")


def consistent_fills(tbl: pa.Table, engine) -> pa.Table:
    """fills → the consistent fills of every subject in ``tbl``:
    subjects in sorted order, each in its engine's output order. The
    engine sees one row dict per fill (``_ENGINE_COLS`` only), and the
    accepted rows are gathered back from ``tbl`` with one ``take``."""
    names = [c for c in _ENGINE_COLS if c in tbl.column_names]
    keys = names + ["_row"]
    by_subj: dict[str, list[dict]] = {}
    for vals in zip(*(tbl.column(c).to_pylist() for c in names),
                    range(tbl.num_rows)):
        r = dict(zip(keys, vals))
        by_subj.setdefault(r["subj"], []).append(r)
    take = [r["_row"] for subj in sorted(by_subj)
            for r in engine(by_subj[subj])]
    return tbl.select(FILLS_SCHEMA.names) \
        .take(pa.array(take, pa.int64())).cast(FILLS_SCHEMA)


LOC_OF_DEATH = frozenset({"per:city_of_death",
                          "per:stateorprovince_of_death",
                          "per:country_of_death"})


def mitigate_loc_of_death(accepted: list[dict]) -> list[dict]:
    """Exact MitigateLocOfDeath
    (``HeuristicSlotfillPostProcessors.java:792-812``): a location-of-
    death fill survives only if the entity also has a
    per:date_of_death fill in the accepted set."""
    if not any(r["pred"] in LOC_OF_DEATH for r in accepted):
        return accepted
    has_date = any(r["pred"] == "per:date_of_death" for r in accepted)
    if has_date:
        return accepted
    return [r for r in accepted if r["pred"] not in LOC_OF_DEATH]


def make_engine(objective: str, mixing_time: int, seed: int):
    """TOP (plain greedy) vs SUM (Gibbs restarts) per-entity engine;
    both run the nonlocal MitigateLocOfDeath prune over the accepted
    set (the reference applies it as a leave-one-out post-processor
    after the greedy filterStep)."""
    if objective == "TOP":
        return lambda rows: mitigate_loc_of_death(_greedy(rows))
    if objective == "SUM":
        return lambda rows: mitigate_loc_of_death(
            gibbs_greedy(rows, mixing_time=mixing_time, seed=seed))
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
