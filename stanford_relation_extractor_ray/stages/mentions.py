"""Relation-mention pairing: sentences → candidate (entity, slot) rows.

Ray-Data shape of the reference's EntityMention / SlotMention /
RelationMention annotators (``kbp/slotfilling/process/
EntityMentionAnnotator.java:49-132``, ``SlotMentionAnnotator.java:83-272``,
``RelationMentionAnnotator.java:95-296`` ALL_PAIRS mode): a stateless
``map_batches`` that emits one output row per (entity mention, slot
mention) pair — a vectorized flat_map. ``pair_sentence`` is the one
per-sentence kernel and ``_pair_batch`` its one Arrow emission; the
sentences-table path (``pair_mentions``) and the fused documents path
(``pair_candidates_fused``) differ only in where sentences come from.

Semantics preserved:
- entity mentions are PERSON/ORGANIZATION (pronouns resolved to their
  antecedent surface);
- slot mentions are every typed mention, including PERSON/ORGANIZATION
  (ALL_PAIRS, RelationMentionAnnotator.java:214-222);
- a distance gate drops pairs further apart than MAX_DISTANCE tokens
  (Utils.closeEnough, kbp/common/Utils.java:353-365);
- at most one candidate per (subj, obj) pair per sentence, keeping the
  nearest-span pair (extractedPairs dedup,
  RelationMentionAnnotator.java:109,177-183).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import CANDIDATES_SCHEMA
from .deps import pos_tag
from .featurize import context_features

MAX_DISTANCE = 12

#: POS tags a slot mention may neither start nor end on
#: (``SlotMentionAnnotator.java:148-152,168-171``)
_INVALID_SLOT_POS = frozenset({"IN", "DT", "RB", "EX", "POS"})


def scan_slot_mentions(tokens: list[str], pos: list[str],
                       ner: list[str], ante: list[str],
                       entity_mask: list[bool],
                       entity_ner: str | None) -> list[tuple]:
    """Maximal same-NER-run slot-mention scan with POS fixups — the
    ``SlotMentionAnnotator.extractSlotMentions`` token loop
    (``SlotMentionAnnotator.java:134-192``), over token-level layers
    instead of a value lexicon:

    - a run starts on a non-blank NER tag, outside the (query) entity
      mask, never on IN/DT/RB/EX/POS;
    - it extends while the NER tag matches and the token is unmasked;
    - trailing IN/DT/RB/EX/POS tokens are trimmed (POS fixup);
    - a run whose last NER tag equals the entity's and which abuts a
      masked token is dropped (dangling edge of the entity mention,
      the "[George Bush] Sr." rule, ``:174-176``);
    - the first antecedent seen inside the run is carried (normalized
      name), except for DATE/NUMBER (``:183``).

    Returns (begin, end, ner_tag, antecedent) tuples. With a model NER
    swapped into ``NLPAnnotator`` this scan is what frees slot
    mentions from the lexicon; over the deterministic stand-in's
    layers it reproduces the lexicon mention spans (runs of one
    value's tokens) plus the merge/trim/dangling rules.
    """
    n = len(tokens)
    out: list[tuple] = []
    start = 0
    while start < n:
        tag = ner[start]
        if not tag or entity_mask[start] \
                or pos[start] in _INVALID_SLOT_POS:
            start += 1
            continue
        a = ante[start]
        end = start + 1
        while end < n:
            if ner[end] != tag or entity_mask[end]:
                break       # token `end` is outside the run — its
                            # antecedent must not leak onto it
            if not a:
                a = ante[end]
            end += 1
        while end > start + 1 and pos[end - 1] in _INVALID_SLOT_POS:
            end -= 1
        if end < n and entity_mask[end] and entity_ner is not None \
                and ner[end - 1] == entity_ner:
            start = end
            continue
        out.append((start, end, tag,
                    a if tag not in ("DATE", "NUMBER") else ""))
        start = end
    return out


def _token_layers(n: int, mention_tuples) -> tuple[list, list]:
    """Per-token (ner, antecedent) layers from mention tuples
    (surface, ner, begin, end, antecedent)."""
    ner = [""] * n
    ante = [""] * n
    for _s, tag, b, e, a in mention_tuples:
        for i in range(b, min(e, n)):
            ner[i] = tag
            if a:
                ante[i] = a
    return ner, ante


def slots_for_subject(tokens: list[str], pos: list[str],
                      mention_tuples, subj_resolved: str,
                      layers: tuple | None = None) -> list[tuple]:
    """Slot mentions for one subject: the same-NER-run scan with the
    subject's mentions (every mention resolving to the same surface —
    the reference's per-query entityMentions) masked out. Returns
    mention-shaped tuples (surface, ner, begin, end, antecedent).
    ``layers`` lets callers reuse per-sentence ``_token_layers``."""
    n = len(tokens)
    ner, ante = layers if layers is not None \
        else _token_layers(n, mention_tuples)
    mask = [False] * n
    entity_ner = None
    for s, tag, b, e, a in mention_tuples:
        if (a or s) == subj_resolved:
            entity_ner = tag
            for i in range(b, min(e, n)):
                mask[i] = True
    return [(" ".join(tokens[b:e]), tag, b, e, a)
            for b, e, tag, a in scan_slot_mentions(
                tokens, pos, ner, ante, mask, entity_ner)]


def pair_sentence(tokens: list[str], mentions: list[tuple], pos,
                  edges, with_ctx: bool) -> list[tuple]:
    """One sentence's candidate rows: every (entity mention, slot
    mention) pair within ``MAX_DISTANCE`` tokens, the nearest one per
    (subj, obj). ``mentions`` are (surface, ner, begin, end,
    antecedent) tuples, ``pos`` the sentence's tags and ``edges`` its
    (head, dep, label) parse, read only ``with_ctx``. Rows are
    (subj, subj_type, obj, obj_type, subj_begin, subj_end, obj_begin,
    obj_end, between, ctx_features); ``ctx_features`` is ``[]``
    unless ``with_ctx``."""
    layers = _token_layers(len(tokens), mentions)
    best: dict[tuple, tuple] = {}
    for em in mentions:
        e_surf, e_ner, e_b, e_e, e_ante = em
        if e_ner != "PERSON" and e_ner != "ORGANIZATION":
            continue
        subj_surface = e_ante or e_surf
        # slot side: same-NER-run scan, this subject masked
        for sm in slots_for_subject(tokens, pos, mentions,
                                    subj_surface, layers=layers):
            if sm[4]:
                continue                  # slot can't be a pronoun
            s_b, s_e = sm[2], sm[3]
            if e_e <= s_b:
                gap = s_b - e_e
            elif s_e <= e_b:
                gap = e_b - s_e
            else:
                continue                  # overlapping spans
            if gap > MAX_DISTANCE:
                continue
            key = (subj_surface, sm[0])
            prev = best.get(key)
            if prev is not None and prev[0] <= gap:
                continue
            lo, hi = (e_e, s_b) if e_e <= s_b else (s_e, e_b)
            between = " ".join(tokens[lo:hi])
            best[key] = (gap, em, sm, subj_surface, between)
    ment_spans = [(m[2], m[3], m[1]) for m in mentions] if with_ctx \
        else None
    return [
        (subj_surface, em[1], sm[0], sm[1], em[2], em[3],
         sm[2], sm[3], between,
         context_features(tokens, pos, edges, ment_spans,
                          (em[2], em[3]), (sm[2], sm[3]))
         if with_ctx else [])
        for gap, em, sm, subj_surface, between in best.values()]


def _pair_batch(sentences, analyze, memo: dict,
                with_ctx: bool) -> pa.Table:
    """Candidates table for ``sentences`` — (doc_id, sent_idx, tokens,
    mention tuples, text) in order — through ``pair_sentence``;
    ``analyze(i, tokens)`` gives the i-th sentence's (pos, edges).

    A sentence with no resolved antecedent pairs identically every time
    its text recurs: its mentions are its text's static scan, and pos
    and edges are functions of its tokens. Its rows are computed once
    per text (``memo``, which may outlive the batch) and go into a row
    POOL once per distinct text in the batch; sentences with an
    antecedent get one-off pool entries. Each occurrence records only
    its pool slot + (doc_id, sent_idx), and every output column is one
    Arrow gather over numpy-built indices. Occurrence order and
    within-sentence row order are preserved."""
    pool: list[tuple] = []                   # candidate rows, pool-major
    pool_starts: list[int] = [0]             # per-entry start offsets
    key_slot: dict[str, int] = {}            # text → pool entry
    occ_slot: list[int] = []
    occ_doc: list[str] = []
    occ_sent: list[int] = []

    def add_pool(rows) -> int:
        pool.extend(rows)
        pool_starts.append(len(pool))
        return len(pool_starts) - 2

    for i, (doc_id, sent_idx, tokens, mentions, text) in \
            enumerate(sentences):
        if len(mentions) < 2:
            continue
        if any(m[4] for m in mentions):       # resolved antecedent
            rows = pair_sentence(tokens, mentions, *analyze(i, tokens),
                                 with_ctx)
            if not rows:
                continue
            slot = add_pool(rows)
        else:
            slot = key_slot.get(text)
            if slot is None:
                rows = memo.get(text)
                if rows is None:
                    if len(memo) >= 500_000:
                        memo.clear()
                    rows = memo[text] = pair_sentence(
                        tokens, mentions, *analyze(i, tokens), with_ctx)
                slot = key_slot[text] = add_pool(rows)
        occ_slot.append(slot)
        occ_doc.append(doc_id)
        occ_sent.append(sent_idx)

    starts_np = np.asarray(pool_starts, np.int64)
    slots = np.asarray(occ_slot, np.int64)
    counts = starts_np[slots + 1] - starts_np[slots]
    win_starts = np.cumsum(counts) - counts
    within = np.arange(int(counts.sum())) - np.repeat(win_starts, counts)
    idx = pa.array(np.repeat(starts_np[slots], counts) + within,
                   pa.int64())
    occ_idx = pa.array(np.repeat(np.arange(len(slots)), counts),
                       pa.int64())
    pool_fields = ["subj", "subj_type", "obj", "obj_type",
                   "subj_begin", "subj_end", "obj_begin", "obj_end",
                   "between", "ctx_features"]   # row-tuple field order
    cols = zip(*pool) if pool else [()] * len(pool_fields)
    gathered = {
        nm: pa.array(col, CANDIDATES_SCHEMA.field(nm).type).take(idx)
        for nm, col in zip(pool_fields, cols)}
    gathered["doc_id"] = pa.array(occ_doc, pa.string()).take(occ_idx)
    gathered["sent_idx"] = pa.array(occ_sent, pa.int32()).take(occ_idx)
    return pa.Table.from_arrays(
        [gathered[n] for n in CANDIDATES_SCHEMA.names],
        schema=CANDIDATES_SCHEMA)


def _row_lists(col, fields: tuple = ()) -> list[list]:
    """Per-row Python lists of a list column (tuples over the struct
    ``fields``, if given): one conversion per child array and no dict
    per struct. ``list_value_length`` and ``flatten`` respect slices."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten()
    items = list(zip(*[flat.field(f).to_pylist() for f in fields])) \
        if fields else flat.to_pylist()
    ends = np.cumsum(pc.list_value_length(col).fill_null(0)
                     .to_numpy(zero_copy_only=False))
    return [items[e - n:e] for n, e in
            zip(np.diff(ends, prepend=0).tolist(), ends.tolist())]


def pair_mentions(batch: pa.Table) -> pa.Table:
    """Sentences table (``SENTENCES_SCHEMA``) → candidates table, with
    context features from its ``pos`` and ``dep_edges`` columns. The
    kernel and emission of ``pair_candidates_fused``, over a memo that
    lives for this batch."""
    texts = batch.column("text").to_pylist()
    pos = _row_lists(batch.column("pos"))
    edges = _row_lists(batch.column("dep_edges"), ("head", "dep", "label"))
    sentences = zip(
        batch.column("doc_id").to_pylist(),
        batch.column("sent_idx").to_pylist(),
        (t.split(" ") for t in texts),
        _row_lists(batch.column("mentions"),
                   ("surface", "ner", "begin", "end", "antecedent")),
        texts)
    return _pair_batch(sentences, lambda i, _tokens: (pos[i], edges[i]),
                       {}, True)


def pair_candidates_fused(annotator, batch: pa.Table,
                          with_ctx: bool = False) -> pa.Table:
    """Fused path: documents batch → candidates table directly, no
    intermediate Arrow sentences table and no per-mention dicts
    (mention tuples come from ``NLPAnnotator.iter_sentences``). The
    kernel and emission of ``pair_mentions``; with ``with_ctx`` the
    output equals ``pair_mentions(annotator(batch))``, pinned by
    tests/test_pairing_kernel.py. ``with_ctx`` runs the tagger/parser
    and attaches sentence-context features (needed only when an LR
    model consumes them — the pattern-only path skips the parse).

    The candidate-row memo stays on the annotator across batches, one
    per ``with_ctx`` (pattern-only rows carry no ``ctx_features``), so
    one warm annotator serves both paths. On template-generated /
    dedup-bearing corpora it skips the O(m²) pairing loop for the vast
    majority of sentences (97% duplicate rate measured on the bench
    corpus)."""
    memos = annotator.__dict__.setdefault("_pair_memo", {})
    if with_ctx:
        def analyze(_i, tokens):
            return annotator.analyze(tokens)
    else:
        def analyze(_i, tokens):
            return pos_tag(tokens), None
    return _pair_batch(annotator.iter_sentences(batch), analyze,
                       memos.setdefault(with_ctx, {}), with_ctx)


def vote_span_ner(mentions, span: tuple[int, int]) -> str | None:
    """NER vote over a token span (``RelationMentionAnnotator.java:
    368-376`` voteOnSpanNEType): each typed mention votes with its
    token overlap; argmax wins, ties broken by tag name for
    determinism. ``mentions`` iterates (begin, end, ner) triples or
    mention dicts."""
    b, e = span
    votes: dict[str, int] = {}
    for m in mentions:
        if isinstance(m, dict):
            mb, me, ner = m["begin"], m["end"], m["ner"]
        else:
            mb, me, ner = m[0], m[1], m[2]
        ov = min(e, me) - max(b, mb)
        if ov > 0:
            votes[ner] = votes.get(ner, 0) + ov
    if not votes:
        return None
    return min(votes, key=lambda t: (-votes[t], t))


def pair(sentences, *, batch_size: int = 1024):
    """sentences Dataset → candidates Dataset (stateless tasks)."""
    return sentences.map_batches(pair_mentions, batch_format="pyarrow",
                                 batch_size=batch_size)
