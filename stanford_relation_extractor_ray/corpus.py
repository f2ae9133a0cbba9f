"""Deterministic synthetic interleaved text+media corpus.

Produces the driver ``input_hint`` shape exactly:

    documents(doc_id: string,
              spans: list<struct<kind: string, text: string,
                                 media_ref: string, offset: int32>>)

plus the parallel gold-triple table (FIXTURES.md §5). Every document is a
pure function of ``(seed, doc_id)`` — generation runs distributed as
``ray.data.range(n).map_batches(...)`` and is reproducible under any
partitioning. Anchor entities are drawn Zipf-style so hot-entity skew is
real and the salted-key mitigation (stages/bags.py) is exercised.

Media spans (kind != "text") are interleaved at seeded positions; they
carry ``media_ref`` and empty text and must pass through every pipeline
stage untouched (per-row span-sequence invariant).
"""

from __future__ import annotations

import random
from bisect import bisect

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .world import (DISTRACTOR_PHRASES, NOISE_SENTENCES, World, get_world)
from .vocab import RELATIONS

SPAN_STRUCT = pa.struct([
    pa.field("kind", pa.string()),
    pa.field("text", pa.string()),
    pa.field("media_ref", pa.string()),
    pa.field("offset", pa.int32()),
])
DOCUMENTS_SCHEMA = pa.schema([
    pa.field("doc_id", pa.string()),
    pa.field("spans", pa.list_(SPAN_STRUCT)),
])

PREFIXES = ["", "", "", "According to the filing ,",
            "In a statement on Monday ,"]
MEDIA_KINDS = ["image", "audio", "table"]
PRONOUN_FEMALE_FIRSTS = {"Julie", "Margaret", "Elena", "Sofia", "Amara",
                         "Ingrid", "Mei", "Priya", "Fatima", "Hannah"}


def _pronoun(entity) -> str:
    if entity.type == "ORGANIZATION":
        return "It"
    return "She" if entity.canonical.split()[0] in PRONOUN_FEMALE_FIRSTS \
        else "He"


#: per-(n_ent, rotation) cumulative anchor weights. The Zipf-ish weight
#: vector ``1/(1+((doc_id*31+i) % n_ent))`` depends on doc_id only via
#: ``r = doc_id*31 % n_ent`` — n_ent distinct rotations total — so the
#: O(n_ent) list build + accumulate per document collapses to a dict
#: hit. itertools.accumulate matches random.choices' internal cum-weight
#: construction bit-for-bit, and choices(cum_weights=...) consumes the
#: same single rng.random() draw, so document plans are byte-identical.
_CUM_W: dict[tuple[int, int], list[float]] = {}


def _anchor_cum_weights(doc_id: int, n_ent: int) -> list[float]:
    r = (doc_id * 31) % n_ent
    cw = _CUM_W.get((n_ent, r))
    if cw is None:
        from itertools import accumulate
        cw = list(accumulate(
            1.0 / (1 + ((r + i) % n_ent)) for i in range(n_ent)))
        _CUM_W[(n_ent, r)] = cw
    return cw


#: memoized token counts for the small closed vocabulary of prefixes,
#: phrases, and entity surfaces that recur across every document
_TOKC: dict[str, int] = {}


def _ntok(s: str) -> int:
    n = _TOKC.get(s)
    if n is None:
        if len(_TOKC) >= 200_000:
            _TOKC.clear()
        n = _TOKC[s] = len(s.split())
    return n


def doc_plan(doc_id: int, world: World, with_gold: bool = True,
             out_cols: tuple | None = None):
    """The full deterministic plan for one document.

    Returns ``(spans, gold)`` where ``spans`` is the ordered list of span
    dicts (text + media interleaved) and ``gold`` the list of gold triple
    dicts asserted by the text spans (subjects/objects canonicalized).

    ``with_gold=False`` (the corpus-generation hot path) skips building
    the gold dicts and returns ``(spans, None)`` — the ONLY control-flow
    use of ``gold`` is the has-date-of-death check, tracked as a flag,
    and no rng draw depends on the dicts, so the span stream is
    byte-identical either way (pinned in tests/test_corpus.py).
    ``rng.choice`` is inlined as ``seq[rng._randbelow(len(seq))]`` —
    exactly CPython's implementation — so the draw sequence is
    unchanged while skipping the method-dispatch layer."""
    rng = random.Random((world.seed << 32) ^ (doc_id * 2654435761 % (1 << 61)))
    _rb = rng._randbelow
    n_ent = len(world.entities)
    # Zipf-ish anchor choice → hot entities exist by construction:
    # inlined random.choices(cum_weights=..., k=1) — one random() draw
    # + bisect, identical to the library call
    cw = _anchor_cum_weights(doc_id, n_ent)
    anchor = world.entities[bisect(cw, rng.random() * (cw[-1] + 0.0),
                                   0, n_ent - 1)]

    n_sent = 2 + _rb(5)             # randint(2, 6), inlined
    sentences: list[str] = []       # realized text spans
    gold: list[dict] = []
    docid_str = f"d{doc_id:09d}"
    anchor_mentioned = False
    has_dod = False                 # any per:date_of_death gold so far
    facts = world.facts[anchor.canonical]

    for si in range(n_sent):
        roll = rng.random()
        kind = ("fact" if roll < 0.6 and facts else
                "coref" if roll < 0.7 and anchor_mentioned and facts else
                "distract" if roll < 0.9 else "noise")
        if kind == "noise":
            sentences.append(NOISE_SENTENCES[_rb(len(NOISE_SENTENCES))])
            continue
        if kind == "distract":
            other = world.entities[_rb(n_ent)]
            phrase = DISTRACTOR_PHRASES[_rb(len(DISTRACTOR_PHRASES))]
            subj_surface = anchor.canonical
            sentences.append(
                f"{subj_surface} {phrase} {other.canonical} .")
            anchor_mentioned = True
            continue

        rel_name, obj, obj_type = facts[_rb(len(facts))]
        rel = RELATIONS[rel_name]
        phrase = rel.phrases[_rb(len(rel.phrases))]
        prefix = PREFIXES[_rb(len(PREFIXES))]

        if kind == "coref":
            # pronoun OR a doc-coref-able short reference (unique
            # last name / non-alias acronym) — exercising the
            # PostIRAnnotator-style document-level coref slice
            short = world.short_refs.get(anchor.canonical)
            if short is not None and rng.random() < 0.5:
                subj_surface = short
            else:
                subj_surface = _pronoun(anchor)
        else:
            use_alias = anchor.aliases and rng.random() < 0.2 \
                and not rel_name.endswith("alternate_names")
            subj_surface = anchor.aliases[_rb(len(anchor.aliases))] \
                if use_alias else anchor.canonical
            anchor_mentioned = True

        obj_surface = obj
        obj_canonical = obj
        obj_ent = world.by_name.get(obj)
        if obj_ent is not None and obj_ent.aliases and rng.random() < 0.2 \
                and not rel_name.endswith("alternate_names"):
            obj_surface = obj_ent.aliases[_rb(len(obj_ent.aliases))]

        pieces = ([prefix] if prefix else []) + [subj_surface, phrase,
                                                 obj_surface, "."]
        sent = " ".join(pieces)
        sentences.append(sent)
        if rel_name == "per:date_of_death":
            has_dod = True
        if with_gold:
            p = _ntok(prefix) if prefix else 0
            subj_tok = _ntok(subj_surface)
            phr_tok = _ntok(phrase)
            obj_tok = _ntok(obj_surface)
            gold.append({
                "subj": anchor.canonical,
                "subj_type": anchor.type,
                "pred": rel_name,
                "obj": obj_canonical,
                "obj_type": obj_type,
                "doc_id": docid_str,
                "sent_idx": len(sentences) - 1,
                "subj_span": [p, p + subj_tok],
                "obj_span": [p + subj_tok + phr_tok,
                             p + subj_tok + phr_tok + obj_tok],
            })

        # obituary-style coherence: a doc asserting a location of
        # death also asserts the date of death (the MitigateLocOfDeath
        # consistency rule drops location-of-death fills whose entity
        # has no date-of-death fill — real obituaries carry both).
        # Every gold row's subj IS the anchor, so the reference scan
        # over gold reduces to the has_dod flag.
        if rel_name in ("per:city_of_death",
                        "per:stateorprovince_of_death",
                        "per:country_of_death") and not has_dod:
            dd = next((f for f in facts
                       if f[0] == "per:date_of_death"), None)
            if dd is not None:
                phrases2 = RELATIONS[dd[0]].phrases
                phrase2 = phrases2[_rb(len(phrases2))]
                sent2 = " ".join([anchor.canonical, phrase2, dd[1],
                                  "."])
                sentences.append(sent2)
                has_dod = True
                if with_gold:
                    subj2_tok = _ntok(anchor.canonical)
                    phr2_tok = _ntok(phrase2)
                    gold.append({
                        "subj": anchor.canonical,
                        "subj_type": anchor.type,
                        "pred": dd[0],
                        "obj": dd[1],
                        "obj_type": dd[2],
                        "doc_id": docid_str,
                        "sent_idx": len(sentences) - 1,
                        "subj_span": [0, subj2_tok],
                        "obj_span": [subj2_tok + phr2_tok,
                                     subj2_tok + phr2_tok
                                     + _ntok(dd[1])],
                    })

    # interleave media spans at seeded positions. randint and sample
    # are inlined draw-for-draw: randint(0,3) is _randbelow(4)+0, and
    # sample(range(n), k) with n ≤ 13 < setsize always takes stdlib's
    # pool branch — j = _randbelow(n-i); take pool[j]; backfill with
    # pool[n-i-1] (pinned byte-identical in tests/test_corpus.py)
    offset = 0
    n_media = _rb(4)
    n_pos = len(sentences) + 1
    k_media = min(n_media, n_pos)
    pool = list(range(n_pos))
    picks = []
    for i in range(k_media):
        j = _rb(n_pos - i)
        picks.append(pool[j])
        pool[j] = pool[n_pos - i - 1]
    media_pos = sorted(picks)
    mi = 0
    if out_cols is not None:
        # columnar fast path (``_docs_batch``): append each span's
        # fields to the caller's four flat column lists and return the
        # span COUNT — no per-span dict, and the Arrow conversion
        # upstream is four flat pa.array calls instead of a
        # list-of-dicts walk. Field order/content byte-identical to
        # the dict path (pinned in tests/test_corpus.py).
        kinds_l, texts_l, refs_l, offs_l = out_cols
        n_spans = 0
        for si, sent in enumerate(sentences):
            while mi < len(media_pos) and media_pos[mi] == si:
                mk = MEDIA_KINDS[_rb(len(MEDIA_KINDS))]
                kinds_l.append(mk)
                texts_l.append("")
                refs_l.append(f"media://{docid_str}/{mi}.{mk}")
                offs_l.append(offset)
                n_spans += 1
                mi += 1
            kinds_l.append("text")
            texts_l.append(sent)
            refs_l.append("")
            offs_l.append(offset)
            n_spans += 1
            offset += len(sent) + 1
        while mi < len(media_pos):
            mk = MEDIA_KINDS[_rb(len(MEDIA_KINDS))]
            kinds_l.append(mk)
            texts_l.append("")
            refs_l.append(f"media://{docid_str}/{mi}.{mk}")
            offs_l.append(offset)
            n_spans += 1
            mi += 1
        return n_spans, (gold if with_gold else None)

    spans: list[dict] = []
    for si, sent in enumerate(sentences):
        while mi < len(media_pos) and media_pos[mi] == si:
            mk = MEDIA_KINDS[_rb(len(MEDIA_KINDS))]
            spans.append({"kind": mk, "text": "",
                          "media_ref": f"media://d{doc_id:09d}/{mi}.{mk}",
                          "offset": offset})
            mi += 1
        spans.append({"kind": "text", "text": sent,
                      "media_ref": "", "offset": offset})
        offset += len(sent) + 1
    while mi < len(media_pos):
        mk = MEDIA_KINDS[_rb(len(MEDIA_KINDS))]
        spans.append({"kind": mk, "text": "",
                      "media_ref": f"media://d{doc_id:09d}/{mi}.{mk}",
                      "offset": offset})
        mi += 1
    return spans, (gold if with_gold else None)


def parse_doc_ids(doc_ids) -> pa.Array:
    """Generator doc number (int64) per doc id; null for any id not in
    the exact ``d%09d`` format ``_docs_batch`` writes. An external
    corpus's ids must never be "recovered" from the generator: the
    join would attach a wrong document's text."""
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    m = pc.extract_regex(doc_ids, r"^d(?P<n>\d{9})$")
    return pc.struct_field(m, [0]).cast(pa.int64())


def _docs_batch(batch: dict, seed: int) -> pa.Table:
    world = get_world(seed)
    ids = batch["id"]
    doc_ids: list[str] = []
    counts: list[int] = []
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    offs: list[int] = []
    cols = (kinds, texts, refs, offs)
    for did in ids.tolist() if isinstance(ids, np.ndarray) else list(ids):
        n_spans, _ = doc_plan(int(did), world, with_gold=False,
                              out_cols=cols)
        doc_ids.append(f"d{int(did):09d}")
        counts.append(n_spans)
    offsets = np.zeros(len(counts) + 1, np.int32)
    np.cumsum(counts, out=offsets[1:])
    struct = pa.StructArray.from_arrays(
        [pa.array(kinds, pa.string()), pa.array(texts, pa.string()),
         pa.array(refs, pa.string()),
         pa.array(np.asarray(offs, np.int32), pa.int32())],
        fields=list(SPAN_STRUCT))
    spans_arr = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         struct)
    return pa.Table.from_arrays(
        [pa.array(doc_ids, pa.string()), spans_arr],
        schema=DOCUMENTS_SCHEMA)


def documents_dataset(n_docs: int, seed: int = 42, *,
                      override_num_blocks: int | None = None):
    """The interleaved corpus as a streaming ``ray.data.Dataset``.

    Block count sets the extract-stage task granularity (map stages
    fuse into per-block tasks): target ~4k docs/task for large runs,
    at least 2 tasks per CPU so extraction never quantizes to 1-2
    waves (measured with the former extract actor pool: Ray's default
    sizing gave 65 blocks for a 500k-doc range → 2.6 tasks/actor at
    32 CPUs and a straggler-bound tail)."""
    import ray.data as rd
    if override_num_blocks is None:
        from .runtime import cluster_cpus
        cpus = cluster_cpus()
        override_num_blocks = max(
            1, min(4096, max(n_docs // 8192, min(cpus * 2,
                                                 n_docs // 64))))
    ds = rd.range(n_docs, override_num_blocks=override_num_blocks)
    return ds.map_batches(lambda b: _docs_batch(b, seed),
                          batch_format="numpy", batch_size=512)


def gold_triple_set(n_docs: int, seed: int = 42, *,
                    timex_dates: bool = False) -> set:
    """Distinct gold (subj, pred, obj) triples, driver-side (small).

    ``timex_dates=True`` normalizes DATE slot values to timex form —
    the comparison key when scoring the postprocessed pipeline (the
    reference scorer compares timex-normalized values; the unary
    rewrite chain is on by default in ``finalize_fills``)."""
    from .vocab import RELATIONS
    world = get_world(seed)
    out = set()
    for did in range(n_docs):
        _, gold = doc_plan(did, world)
        for g in gold:
            obj = g["obj"]
            if timex_dates:
                spec = RELATIONS.get(g["pred"])
                if spec is not None and "DATE" in spec.slot_types:
                    from .functions.text import timex_normalize
                    obj = timex_normalize(obj) or obj
            out.add((g["subj"], g["pred"], obj))
    return out
