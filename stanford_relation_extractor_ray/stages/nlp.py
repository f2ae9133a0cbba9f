"""NLP annotation stage: documents → sentences with typed mentions.

The Ray-Data shape of the reference's CoreNLP + PostIR step
(``SimpleSlotFiller.java:360-429``, ``PostIRAnnotator.java:291-322``):
stateless ``map_batches`` tasks over a per-worker cached
``NLPAnnotator`` (``runtime.map_cached``). All expensive setup — the
NER token trie, the date/number/url recognizers — happens once per
worker process in ``__init__``, and the scan memos stay warm across
tasks; ``__call__`` is a per-batch pass.

The annotator is a deterministic stand-in with the same record contract
as a real model (SURVEY.md §7.0): swap the class, keep the pipeline.

Mention detection = longest-match lexicon NER (priority URL > DATE >
lexicon > NUMBER > pronoun, no overlaps) and pronoun antecedent
resolution = most recent preceding PERSON (He/She) or ORGANIZATION (It)
mention in the document — the high-precision slice of the reference's
``PostIRAnnotator`` antecedent computation.

Media spans (kind != "text") are not consumed here; the pipeline carries
the original ``documents`` dataset through untouched for the span-sequence
invariant (see pipelines/kg.py).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..schemas import MENTION_STRUCT, SENTENCES_SCHEMA
from ..world import get_world

PRONOUNS = {"He": "PERSON", "She": "PERSON", "It": "ORGANIZATION"}


_MONTHS = frozenset([
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December"])


class NLPAnnotator:
    """Batch transform: documents table → sentences table.

    Mention detection is a single greedy left-to-right token scan with a
    token-trie of lexicon surfaces (longest match wins) plus token-level
    date/number/url/pronoun recognizers — O(tokens) dict lookups per
    sentence, no regex alternation scan (a 150-way ``re`` alternation
    measured ~40× slower on the bench corpus).
    """

    def __init__(self, seed: int = 42,
                 max_sentence_tokens: int | None = None):
        # max-sentence-length gate (reference: index.maxsentencelength
        # = 50 train/parse, 150 provenance, StanfordMIMLRE.properties
        # :24,73; TextOps.java:426,452) — None disables the gate
        self.max_sentence_tokens = max_sentence_tokens
        world = get_world(seed)
        self.lexicon = world.ner_lexicon()
        # token trie: first token → [(n_tokens, tail tokens, tag,
        # surface)], longest first; the tail is matched token-by-token
        # with early exit (no per-candidate tuple allocation — the
        # tuple slice compare was ~15% of the mention scan)
        self.trie: dict[str, list[tuple[int, list, str, str]]] = {}
        for surface, tag in self.lexicon.items():
            toks = surface.split(" ")
            self.trie.setdefault(toks[0], []).append(
                (len(toks), toks[1:], tag, surface))
        for cands in self.trie.values():
            cands.sort(key=lambda c: -c[0])
        # doc-coref candidate token universe: the per-document
        # first/last-name and acronym maps are keyed by tokens derived
        # from mention SURFACES, and surfaces come from this same
        # lexicon — so a capitalized token outside this set can never
        # resolve. Filtering U events on it is EXACT (not heuristic)
        # and keeps ordinary capitalized words ("Officials", "The")
        # from forcing a per-doc stats build. Coupled to the stand-in
        # NER by construction; a model NER swap re-derives this set
        # from its own entity vocabulary.
        from ..world import acronym_of
        self.short_candidates: set[str] = set()
        for surface, tag in self.lexicon.items():
            toks = surface.split(" ")
            if tag == "PERSON" and len(toks) >= 2:
                self.short_candidates.add(toks[0])
                self.short_candidates.add(toks[-1])
            elif tag == "ORGANIZATION":
                ac = acronym_of(surface)
                if ac is not None:
                    self.short_candidates.add(ac)
        # sentence-scan memo: the corpus repeats sentence TEXTS heavily
        # (template-generated and dedup-bearing corpora alike — 97%
        # duplicate rate measured on the bench corpus), and the scan is
        # state-free once pronoun resolution is deferred to replay
        # time. Keyed by text; bounded (cleared at _MEMO_CAP).
        self._scan_memo: dict[str, tuple] = {}

    _MEMO_CAP = 500_000

    def _scan(self, tokens: list[str]) -> list[tuple]:
        """State-free scan → ordered event list: ("M", surface, tag,
        b, e) for typed mentions, ("P", tok, tag, i) for pronouns
        (resolved against document state at replay)."""
        out = []
        n = len(tokens)
        trie_get = self.trie.get
        i = 0
        while i < n:
            tok = tokens[i]
            cands = trie_get(tok)
            matched = False
            if cands is not None:
                for ln, tail, tag, surface in cands:
                    if i + ln > n:
                        continue
                    ok = True
                    for k, t in enumerate(tail, start=i + 1):
                        if tokens[k] != t:
                            ok = False
                            break
                    if ok:
                        out.append(("M", surface, tag, i, i + ln))
                        i += ln
                        matched = True
                        break
            if matched:
                continue
            if tok in _MONTHS and i + 3 < n and tokens[i + 1].isdigit() \
                    and tokens[i + 2] == "," and tokens[i + 3].isdigit():
                out.append(("M", " ".join(tokens[i:i + 4]), "DATE",
                            i, i + 4))
                i += 4
                continue
            if tok.startswith("www.") and "." in tok[4:]:
                out.append(("M", tok, "URL", i, i + 1))
                i += 1
                continue
            if tok.isdigit():
                out.append(("M", tok, "NUMBER", i, i + 1))
                i += 1
                continue
            tag = PRONOUNS.get(tok)
            if tag is not None:
                out.append(("P", tok, tag, i))
            elif tok in self.short_candidates:
                # unmatched token from the short-reference universe: a
                # doc-level coref candidate (partial name / acronym),
                # resolved against the document's mention inventory at
                # replay time
                out.append(("U", tok, i))
            i += 1
        return out

    @staticmethod
    def doc_stats(events_list) -> tuple[dict, dict, dict]:
        """Document-level mention inventory for approximate/acronym
        coref (``PostIRAnnotator.java:940-1038`` annotateLiteralCoref
        + ``:1103-1118`` partialNameMatchesEntity): first-name →
        {full person surfaces}, last-name → {full person surfaces},
        acronym → {org surfaces} over every typed mention in the
        document."""
        from ..world import acronym_of
        first: dict[str, set] = {}
        last: dict[str, set] = {}
        acro: dict[str, set] = {}
        for events in events_list:
            for ev in events:
                if ev[0] != "M":
                    continue
                _, surface, tag, _b, _e = ev
                if tag == "PERSON":
                    toks = surface.split(" ")
                    if len(toks) >= 2:
                        first.setdefault(toks[0], set()).add(surface)
                        last.setdefault(toks[-1], set()).add(surface)
                elif tag == "ORGANIZATION":
                    ac = acronym_of(surface)
                    if ac is not None:
                        acro.setdefault(ac, set()).add(surface)
        return first, last, acro

    def scan_text(self, text: str) -> tuple:
        """Memoized (tokens, scan events, has_short_ref, static) for
        one sentence text. ``static`` is the pre-replayed
        (mentions, last_seen_updates) pair for sentences whose events
        are ALL "M" — their replay is independent of document coref
        state except for the last-seen updates they emit, so it is
        computed once per distinct text instead of per occurrence
        (``None`` for sentences with P/U events, which replay
        dynamically)."""
        hit = self._scan_memo.get(text)
        if hit is None:
            tokens = text.split(" ") if text else []
            events = self._scan(tokens)
            has_u = any(ev[0] == "U" for ev in events)
            static = None
            if all(ev[0] == "M" for ev in events):  # implies not has_u
                updates: dict[str, str] = {}
                out = self.replay(events, updates)
                static = (out, updates)
            hit = (tokens, events, has_u, static)
            if len(self._scan_memo) >= self._MEMO_CAP:
                self._scan_memo.clear()
            self._scan_memo[text] = hit
        return hit

    @staticmethod
    def replay(events: list[tuple], last_seen: dict[str, str],
               stats: tuple | None = None) -> list[tuple]:
        """Replay memoized scan events against the document's coref
        state → (surface, ner, begin, end, antecedent) tuples. Tuples,
        not dicts: the fused extraction path consumes these directly
        in the pairing loop and dict construction/lookup was a
        measured ~15% of annotator CPU.

        ``stats`` (``doc_stats``) enables the document-level
        approximate/acronym coref slice: an unmatched capitalized
        token resolves to a full mention iff exactly ONE document
        mention could take it as a first name, last name, or acronym
        (the reference's iff-unambiguous-in-article rule). Resolved
        short references carry the full surface as antecedent, like
        pronouns — subject-capable, never a slot value."""
        out = []
        for ev in events:
            kind = ev[0]
            if kind == "M":
                _, surface, tag, b, e = ev
                out.append((surface, tag, b, e, ""))
                if tag == "PERSON" or tag == "ORGANIZATION":
                    last_seen[tag] = surface
            elif kind == "P":
                _, tok, tag, i = ev
                ante = last_seen.get(tag, "")
                if ante:
                    out.append((tok, tag, i, i + 1, ante))
            elif stats is not None:
                _, tok, i = ev
                first, last, acro = stats
                full = tag = None
                fc = first.get(tok)
                lc = last.get(tok)
                if fc is not None and len(fc) == 1:
                    full, tag = next(iter(fc)), "PERSON"
                elif lc is not None and len(lc) == 1:
                    full, tag = next(iter(lc)), "PERSON"
                elif len(tok) >= 3 and tok.isupper():
                    oc = acro.get(tok)
                    if oc is not None and len(oc) == 1:
                        full, tag = next(iter(oc)), "ORGANIZATION"
                if full is not None and full != tok:
                    out.append((tok, tag, i, i + 1, full))
                    last_seen[tag] = full
        return out

    def _mentions(self, tokens: list[str], last_seen: dict[str, str],
                  stats: tuple | None = None) -> list[tuple]:
        """Unmemoized scan+replay (test surface)."""
        return self.replay(self._scan(tokens), last_seen, stats)

    def iter_sentences(self, batch: pa.Table):
        """Yield (doc_id, sent_idx, tokens, mention_tuples, text) per
        text span — the fused path's dict-free surface.

        Span access is columnar: the list<struct> column is flattened
        once and only the kind/text child arrays are converted —
        to_pylist of the nested struct built a throwaway dict per span
        (~20% of annotator CPU)."""
        doc_ids = batch.column("doc_id").to_pylist()
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        kinds = flat.field("kind").to_pylist()
        texts = flat.field("text").to_pylist()
        import pyarrow.compute as pc
        lengths = pc.list_value_length(spans).to_pylist()
        cap = self.max_sentence_tokens
        pos = 0
        for doc_id, ln in zip(doc_ids, lengths):
            # single pass with LAZY doc stats: sentences without a
            # short-reference token replay identically with or without
            # the doc inventory, so it is built (over the memoized
            # scans of the WHOLE document — forward references
            # included) only when the first U event is hit. Most docs
            # never pay.
            text_ks = [k for k in range(pos, pos + ln)
                       if kinds[k] == "text"]
            stats = None
            stats_built = False
            last_seen: dict[str, str] = {}
            sent_idx = 0
            for k in text_ks:
                tokens, events, has_u, static = self.scan_text(texts[k])
                if cap is not None and len(tokens) > cap:
                    sent_idx += 1    # gate long sentences, keep indices
                    continue
                if static is not None:
                    # M-only sentence: pre-replayed once per distinct
                    # text; only its last-seen updates touch doc state
                    out, upd = static
                    if upd:
                        last_seen.update(upd)
                    yield doc_id, sent_idx, tokens, out, texts[k]
                    sent_idx += 1
                    continue
                if has_u and not stats_built:
                    stats = self.doc_stats(
                        [self.scan_text(texts[k2])[1]
                         for k2 in text_ks])
                    stats_built = True
                yield doc_id, sent_idx, tokens, \
                    self.replay(events, last_seen, stats), texts[k]
                sent_idx += 1
            pos += ln

    def analyze(self, tokens: list[str]):
        """→ (pos, dep_edges) via the deterministic tagger/parser
        stand-in (stages/deps.py; reference: CoreNLP pos + parse
        annotators, ``StanfordMIMLRE.properties:6``)."""
        from .deps import parse, pos_tag
        pos = pos_tag(tokens)
        return pos, parse(tokens, pos)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_doc, out_idx, out_text, out_ntok, out_mentions = \
            [], [], [], [], []
        out_pos, out_deps = [], []
        for doc_id, sent_idx, tokens, ments, _text in \
                self.iter_sentences(batch):
            out_doc.append(doc_id)
            out_idx.append(sent_idx)
            out_text.append(" ".join(tokens))
            out_ntok.append(len(tokens))
            out_mentions.append(
                [{"surface": s, "ner": t, "begin": b, "end": e,
                  "antecedent": a} for s, t, b, e, a in ments])
            pos, edges = self.analyze(tokens)
            out_pos.append(pos)
            out_deps.append([{"head": h, "dep": d, "label": l}
                             for h, d, l in edges])
        from ..schemas import DEP_EDGE_STRUCT
        return pa.Table.from_arrays(
            [pa.array(out_doc, pa.string()),
             pa.array(out_idx, pa.int32()),
             pa.array(out_text, pa.string()),
             pa.array(out_ntok, pa.int32()),
             pa.array(out_mentions, pa.list_(MENTION_STRUCT)),
             pa.array(out_pos, pa.list_(pa.string())),
             pa.array(out_deps, pa.list_(DEP_EDGE_STRUCT))],
            schema=SENTENCES_SCHEMA)


def annotate(documents, *, seed: int = 42, batch_size: int = 512,
             max_sentence_tokens: int | None = None):
    """documents Dataset → sentences Dataset (cached-component tasks)."""
    from ..runtime import map_cached
    return map_cached(documents, NLPAnnotator, batch_size=batch_size,
                      seed=seed, max_sentence_tokens=max_sentence_tokens)
