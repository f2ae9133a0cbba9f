"""Reference-semantics oracle: a single-threaded, pure-Python
re-implementation of the extraction pipeline (SURVEY.md §5 rebuild test
plan). It shares the *vocabularies* (world, relation patterns) with the
Ray pipeline but none of its execution machinery — mention detection,
pairing, classification, linking, consistency are re-derived
independently here with simple loops, so a pipeline bug cannot hide in
shared code paths. Tests assert triple-set parity P/R ≥ 0.95.
"""

from __future__ import annotations

import re

from stanford_relation_extractor_ray.corpus import doc_plan
from stanford_relation_extractor_ray.functions.text import same_entity
from stanford_relation_extractor_ray.vocab import (
    INCOMPATIBLE_RELATIONS, RELATIONS, SINGLE_RELATIONS,
    resolve_relation)
from stanford_relation_extractor_ray.world import World, get_world

_PRONOUNS = {"He": "PERSON", "She": "PERSON", "It": "ORGANIZATION"}

_MONTHS = {m: i + 1 for i, m in enumerate(
    ("January", "February", "March", "April", "May", "June", "July",
     "August", "September", "October", "November", "December"))}


def _oracle_date_iso(value: str) -> str:
    """Independent date → ISO re-derivation (the CanonicalMention
    timex rewrite's contract, NOT its code): 'May 3 , 1970' →
    '1970-05-03'. Unparseable values pass through."""
    toks = value.split()
    month = next((_MONTHS[t] for t in toks if t in _MONTHS), None)
    year = next((t for t in toks
                 if t.isdigit() and len(t) == 4 and t[0] in "12"), None)
    day = next((int(t) for t in toks
                if t.isdigit() and 1 <= int(t) <= 31), None)
    if year is None:
        return value
    if month is None:
        return f"{year}-XX-XX"
    if day is None:
        return f"{year}-{month:02d}-XX"
    return f"{year}-{month:02d}-{day:02d}"


def _oracle_url_related(name: str, url: str) -> bool:
    """Independent FilterUnrelatedURL contract: the org name (spaces
    stripped) must share a ≥4-char substring with the URL."""
    name = name.lower().replace(" ", "")
    url = url.lower()
    need = min(4, len(name))
    return any(name[i:i + need] in url
               for i in range(len(name) - need + 1))


class OracleExtractor:
    def __init__(self, seed: int = 42):
        self.world = get_world(seed)
        self.lex = self.world.ner_lexicon()
        self.surfaces = sorted(self.lex, key=len, reverse=True)
        self.canon = {}
        for ent in self.world.entities:
            self.canon[(ent.canonical, ent.type)] = ent.canonical
            for al in ent.aliases:
                self.canon[(al, ent.type)] = ent.canonical
        self.date_re = re.compile(
            r"(?:January|February|March|April|May|June|July|August|"
            r"September|October|November|December) \d{1,2} , \d{4}")
        self.url_re = re.compile(r"www\.[a-z0-9.\-]+\.[a-z]{2,}")
        self.num_re = re.compile(r"\b\d+\b")

    def _sentence_mentions(self, sent: str):
        """Greedy left-to-right longest-match scan over tokens."""
        spans = []      # (char_a, char_b, surface, tag)
        covered = [False] * len(sent)

        def claim(a, b, surface, tag):
            if any(covered[a:b]):
                return
            for i in range(a, b):
                covered[i] = True
            spans.append((a, b, surface, tag))

        for m in self.url_re.finditer(sent):
            claim(*m.span(), m.group(0), "URL")
        for m in self.date_re.finditer(sent):
            claim(*m.span(), m.group(0), "DATE")
        for surf in self.surfaces:
            start = 0
            while True:
                i = sent.find(surf, start)
                if i < 0:
                    break
                # word boundaries
                ok_l = i == 0 or sent[i - 1] == " "
                j = i + len(surf)
                ok_r = j == len(sent) or not (sent[j].isalnum())
                if ok_l and ok_r:
                    claim(i, j, surf, self.lex[surf])
                start = i + 1
        for m in self.num_re.finditer(sent):
            claim(*m.span(), m.group(0), "NUMBER")
        for pron, tag in _PRONOUNS.items():
            for m in re.finditer(r"\b" + pron + r"\b", sent):
                claim(*m.span(), pron, "PRON:" + tag)
        spans.sort()
        return spans

    def _doc_name_stats(self, sentences: list[str]):
        """Independent doc-level name inventory: (first→names,
        last→names, acronym→org surfaces) over full typed mentions."""
        first: dict[str, set] = {}
        last: dict[str, set] = {}
        acro: dict[str, set] = {}
        for sent in sentences:
            for _a, _b, surf, tag in self._sentence_mentions(sent):
                if tag == "PERSON" and " " in surf:
                    toks = surf.split(" ")
                    first.setdefault(toks[0], set()).add(surf)
                    last.setdefault(toks[-1], set()).add(surf)
                elif tag == "ORGANIZATION":
                    toks = [t for t in surf.split(" ") if t.lower()
                            not in ("of", "the", "and", "for")]
                    if len(toks) >= 3:
                        acro.setdefault(
                            "".join(t[0].upper() for t in toks),
                            set()).add(surf)
        return first, last, acro

    def extract_doc(self, doc_id: int):
        spans, _ = doc_plan(doc_id, self.world)
        triples = []
        last = {}
        sent_texts = [s["text"] for s in spans if s["kind"] == "text"]
        nstats = self._doc_name_stats(sent_texts)
        for sent in sent_texts:
            ments = self._sentence_mentions(sent)
            claimed = [False] * len(sent)
            for a, b, _s, _t in ments:
                for i in range(a, b):
                    claimed[i] = True
            resolved = []
            short_refs = []      # (a, b, full, tag) partial/acronym
            for m in re.finditer(r"[A-Za-z]{2,}", sent):
                a, b = m.span()
                if any(claimed[a:b]) or not m.group(0)[0].isupper():
                    continue
                tok = m.group(0)
                fc, lc, ac = (nstats[0].get(tok), nstats[1].get(tok),
                              nstats[2].get(tok))
                if fc is not None and len(fc) == 1:
                    short_refs.append((a, b, next(iter(fc)), "PERSON"))
                elif lc is not None and len(lc) == 1:
                    short_refs.append((a, b, next(iter(lc)), "PERSON"))
                elif tok.isupper() and len(tok) >= 3 \
                        and ac is not None and len(ac) == 1:
                    short_refs.append(
                        (a, b, next(iter(ac)), "ORGANIZATION"))
            events = sorted(
                [(a, b, surf, tag, False) for a, b, surf, tag in ments]
                + [(a, b, full, tag, True)
                   for a, b, full, tag in short_refs
                   if full != sent[a:b]])
            for a, b, surf, tag, is_short in events:
                if tag.startswith("PRON:"):
                    t = tag[5:]
                    if t in last:
                        resolved.append((a, b, last[t], t, True))
                    continue
                if is_short:
                    resolved.append((a, b, surf, tag, True))
                    last[tag] = surf
                    continue
                resolved.append((a, b, surf, tag, False))
                if tag in ("PERSON", "ORGANIZATION"):
                    last[tag] = surf
            for i, (a1, b1, s1, t1, _p1) in enumerate(resolved):
                if t1 not in ("PERSON", "ORGANIZATION"):
                    continue
                for j, (a2, b2, s2, t2, p2) in enumerate(resolved):
                    if i == j or p2:
                        continue
                    if b1 > a2:     # subject must precede object (SO)
                        continue
                    between = sent[b1:a2].strip()
                    rel = resolve_relation(between, t1, t2)
                    if rel is None:
                        continue
                    subj = self.canon.get((s1, t1), s1)
                    obj = s2 if rel.endswith("alternate_names") \
                        else self.canon.get((s2, t2), s2)
                    if subj != obj or rel.endswith("alternate_names"):
                        triples.append((subj, t1, rel, obj, t2))
        return triples

    def extract(self, n_docs: int) -> set[tuple[str, str, str]]:
        """Consistency-filtered distinct triple set over the corpus."""
        raw: dict[tuple, int] = {}
        for d in range(n_docs):
            for t in self.extract_doc(d):
                raw[t] = raw.get(t, 0) + 1
        per_entity: dict[str, list] = {}
        for (subj, st, rel, obj, ot), cnt in raw.items():
            per_entity.setdefault(subj, []).append(
                (cnt, subj, st, rel, obj, ot))
        out = set()
        for subj, rows in per_entity.items():
            # KBPSlotFill.compareTo: score desc, MORE obj tokens first,
            # then lexicographic on the triple key (pred, obj).
            rows.sort(key=lambda r: (-r[0], -len(r[4].split()),
                                     r[3], r[4]))
            accepted = []
            for cnt, s, st, rel, obj, ot in rows:
                spec = RELATIONS[rel]
                if ot not in spec.slot_types or spec.entity_type != st:
                    continue
                ok = True
                for _, _, _, arel, aobj, aot in accepted:
                    if arel == rel:
                        if rel in SINGLE_RELATIONS:
                            ok = False
                            break
                        if aobj == obj or (
                                ot in ("PERSON", "ORGANIZATION")
                                and same_entity(aobj, obj, ot)):
                            ok = False
                            break
                    elif aobj == obj and frozenset((arel, rel)) in \
                            INCOMPATIBLE_RELATIONS:
                        ok = False
                        break
                if ok:
                    accepted.append((cnt, s, st, rel, obj, ot))
            # independent MitigateLocOfDeath re-derivation: a
            # location-of-death slot needs a date-of-death sibling
            loc_death = ("per:city_of_death",
                         "per:stateorprovince_of_death",
                         "per:country_of_death")
            if not any(rel == "per:date_of_death"
                       for _c, _s, _st, rel, _o, _ot in accepted):
                accepted = [a for a in accepted
                            if a[3] not in loc_death]
            for _cnt, s, _st, rel, obj, _ot in accepted:
                post = self._postprocess(s, rel, obj)
                if post is not None:
                    out.add(post)
        return out

    def _postprocess(self, subj: str, rel: str, obj: str):
        """Independent re-derivation of the unary rewrite/filter
        chain's effect on this corpus (``SlotfillPostProcessor.java:
        83-141`` semantics, none of stages/postprocess.py's code):
        DATE slots normalize to ISO, implausible ages drop, unrelated
        org:website values drop."""
        spec = RELATIONS.get(rel)
        if spec is not None and "DATE" in spec.slot_types:
            obj = _oracle_date_iso(obj)
        if rel == "per:age":
            try:
                if not (0 < int(obj) <= 125):
                    return None
            except ValueError:
                pass
        if rel == "org:website" and not _oracle_url_related(subj, obj):
            return None
        return (subj, rel, obj)
