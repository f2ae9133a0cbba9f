"""ReVerb-style open information extraction (SURVEY.md §2.4 ReVerb /
OpenIE row; reference ``ReverbRelationExtractor.java`` + per-thread
extractor instances at ``TextOps.java:437-443``).

Open (NP, relation-phrase, NP) triples via the ReVerb syntactic
constraint (Fader et al., EMNLP 2011 — public method): the relation
phrase between two noun phrases must START with a verb and consist
only of verb/adverb/particle/determiner/preposition tokens, ending in
a verb or preposition. The POS tagger and NP chunking come from the
deterministic stand-in (stages/deps.py), so extraction is reproducible
and model-free; the stage runs as stateless tasks over one cached
``OpenIE`` per worker process (``runtime.map_cached`` — Ray's analog of
ReVerb's per-thread instances).
"""

from __future__ import annotations

import pyarrow as pa

from .deps import _CHUNK_TAGS, _VERBISH, pos_tag

OPEN_TRIPLES_SCHEMA = pa.schema([
    ("subj", pa.string()),
    ("rel", pa.string()),
    ("obj", pa.string()),
    ("doc_id", pa.string()),
    ("sent_idx", pa.int32()),
])

_REL_INNER = frozenset({"IN", "RB", "DT", "WP", "CC"}) | _VERBISH


def open_triples_in_sentence(tokens: list[str],
                             pos: list[str] | None = None) -> list[tuple]:
    """→ [(subj, rel_phrase, obj)] for every adjacent NP–VP–NP span
    satisfying the ReVerb constraint."""
    if pos is None:
        pos = pos_tag(tokens)
    n = len(tokens)
    # NP chunks (same maximal runs as the parser)
    chunks = []
    i = 0
    while i < n:
        if pos[i] in _CHUNK_TAGS:
            j = i
            while j + 1 < n and pos[j + 1] in _CHUNK_TAGS:
                j += 1
            chunks.append((i, j + 1))
            i = j + 1
        else:
            i += 1
    out = []
    for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
        rel_pos = pos[a1:b0]
        if not rel_pos:
            continue
        if rel_pos[0] not in _VERBISH:
            continue                      # must start with a verb
        if rel_pos[-1] not in _VERBISH and rel_pos[-1] != "IN":
            continue                      # must end verb or preposition
        if any(p not in _REL_INNER for p in rel_pos):
            continue                      # V (W* P)? constraint
        out.append((" ".join(tokens[a0:a1]),
                    " ".join(tokens[a1:b0]),
                    " ".join(tokens[b0:b1])))
    return out


class OpenIE:
    """sentences batch → open triples batch."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        docs = batch.column("doc_id").to_pylist()
        idxs = batch.column("sent_idx").to_pylist()
        texts = batch.column("text").to_pylist()
        pos_col = batch.column("pos").to_pylist() \
            if "pos" in batch.column_names else [None] * len(docs)
        cols: dict[str, list] = {n: [] for n in OPEN_TRIPLES_SCHEMA.names}
        for d, si, t, pos in zip(docs, idxs, texts, pos_col):
            tokens = t.split(" ") if t else []
            if not tokens:
                continue
            for s, r, o in open_triples_in_sentence(tokens, pos):
                cols["subj"].append(s)
                cols["rel"].append(r)
                cols["obj"].append(o)
                cols["doc_id"].append(d)
                cols["sent_idx"].append(si)
        return pa.Table.from_arrays(
            [pa.array(cols[n], ty) for n, ty in
             zip(OPEN_TRIPLES_SCHEMA.names, OPEN_TRIPLES_SCHEMA.types)],
            schema=OPEN_TRIPLES_SCHEMA)


def extract_open_triples(sentences, *, batch_size: int = 1024):
    """sentences Dataset → open triples Dataset."""
    from ..runtime import map_cached
    return map_cached(sentences, OpenIE, batch_size=batch_size)
