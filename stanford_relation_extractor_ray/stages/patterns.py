"""Token- and dependency-pattern engines + NER tweak rules.

The reference's rule extractors compile TokensRegex files per relation
(``kbp/slotfilling/classify/TokensRegexExtractor.java:31-59``) and
Semgrex dependency patterns (``SemgrexExtractor.java``, batch parser
``semgraph/semgrex/SemgrexBatchParser.java``); ``PostIRAnnotator``
additionally runs TokensRegex NER-rewrite rules ("University of X" →
ORGANIZATION, bad TITLEs → O, ``PostIRAnnotator.java:100-128``). This
module is a from-scratch pattern language covering the subset those
rule files use, over this engine's annotations:

- **token patterns** — a sequence of per-token constraint groups
  ``[attr:value]`` with attrs ``word`` (exact), ``lower``
  (case-folded), ``tag`` (POS), ``ner``, ``re`` (anchored regex on the
  word), plus the special groups ``[$ENTITY]`` / ``[$SLOT]`` binding
  the candidate's argument spans and an optional trailing quantifier
  ``?`` on any group;
- **dependency patterns** — fnmatch-style globs over the
  direction-labeled shortest dependency path between the argument
  heads (the ``dependencyPathAsList`` string this engine already
  computes), e.g. ``_nsubj->__<-prep_in_`` or ``*<-prep_in_``.

Rule hits score 1.0 — the analog of the reference's +∞ pattern scores
(``HeuristicRelationExtractor.java:38-86``: patterns always win).
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase

# ---------------------------------------------------------------------------
# token patterns
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(r"\[([^\]]*)\](\?)?")


class TokenPattern:
    """Compiled ``[attr:value]...`` sequence."""

    def __init__(self, pattern: str):
        self.source = pattern
        self.groups: list[tuple[dict, bool]] = []   # (constraints, opt)
        for m in _GROUP_RE.finditer(pattern):
            body, opt = m.group(1).strip(), bool(m.group(2))
            if body in ("$ENTITY", "$SLOT"):
                self.groups.append(({"$": body}, opt))
                continue
            cons: dict[str, object] = {}
            for part in body.split(";"):
                part = part.strip()
                if not part:
                    continue
                attr, _, val = part.partition(":")
                attr, val = attr.strip(), val.strip()
                if attr == "re":
                    cons["re"] = re.compile(val)
                elif attr in ("word", "lower", "tag", "ner"):
                    cons[attr] = val
                else:
                    raise ValueError(
                        f"unknown token-pattern attr: {attr!r}")
            self.groups.append((cons, opt))
        if not self.groups:
            raise ValueError(f"empty token pattern: {pattern!r}")

    @staticmethod
    def _tok_match(cons: dict, word: str, tag: str, ner: str) -> bool:
        for attr, val in cons.items():
            if attr == "word":
                if word != val:
                    return False
            elif attr == "lower":
                if word.lower() != val:
                    return False
            elif attr == "tag":
                if tag != val:
                    return False
            elif attr == "ner":
                if ner != val:
                    return False
            elif attr == "re":
                if not val.fullmatch(word):
                    return False
        return True

    def match(self, tokens: list[str], pos: list[str], ner: list[str],
              entity_span: tuple[int, int] | None = None,
              slot_span: tuple[int, int] | None = None) -> bool:
        """True iff the group sequence matches anywhere in the
        sentence. ``$ENTITY``/``$SLOT`` groups consume exactly their
        bound span (and fail when unbound)."""
        n = len(tokens)

        def rec(gi: int, ti: int) -> bool:
            if gi == len(self.groups):
                return True
            cons, opt = self.groups[gi]
            if opt and rec(gi + 1, ti):
                return True
            if "$" in cons:
                span = entity_span if cons["$"] == "$ENTITY" \
                    else slot_span
                if span is None or ti != span[0]:
                    return False
                return rec(gi + 1, span[1])
            if ti >= n:
                return False
            if self._tok_match(cons, tokens[ti], pos[ti], ner[ti]):
                return rec(gi + 1, ti + 1)
            return False

        anchored = any("$" in c for c, _ in self.groups)
        if anchored:
            # anchor on the first group's possible starts cheaply: try
            # every offset (sentences are short; rule files are small)
            return any(rec(0, s) for s in range(n + 1))
        return any(rec(0, s) for s in range(n))


class TokensRegexExtractor:
    """Per-relation token-pattern rules → relation hits
    (``TokensRegexExtractor.java:66-``). ``rules``:
    {relation: [pattern strings]}; compiled once per instance."""

    def __init__(self, rules: dict[str, list[str]]):
        self.rules = {rel: [TokenPattern(p) for p in pats]
                      for rel, pats in rules.items()}

    def extract(self, tokens, pos, ner, entity_span=None,
                slot_span=None) -> dict[str, float]:
        out: dict[str, float] = {}
        for rel, pats in self.rules.items():
            for p in pats:
                if p.match(tokens, pos, ner, entity_span, slot_span):
                    out[rel] = 1.0
                    break
        return out


# ---------------------------------------------------------------------------
# dependency-path patterns (Semgrex-subset)
# ---------------------------------------------------------------------------

class SemgrexExtractor:
    """Per-relation glob patterns over the direction-labeled dependency
    path between the argument heads (``SemgrexExtractor.java``
    restricted to the path shapes the reference's rule files use)."""

    def __init__(self, rules: dict[str, list[str]]):
        self.rules = {rel: list(pats) for rel, pats in rules.items()}

    def extract(self, tokens, edges, subj_span, obj_span
                ) -> dict[str, float]:
        from .deps import path_string, shortest_path
        _nodes, parts = shortest_path(
            edges, len(tokens), subj_span[1] - 1, obj_span[1] - 1)
        if not parts:
            return {}
        path = path_string(parts)
        out: dict[str, float] = {}
        for rel, pats in self.rules.items():
            if any(fnmatchcase(path, p) for p in pats):
                out[rel] = 1.0
        return out


# ---------------------------------------------------------------------------
# NER tweak rules (PostIRAnnotator.java:100-128)
# ---------------------------------------------------------------------------

#: (pattern, new_ner) — a matched span's mentions are re-tagged;
#: new_ner "O" deletes the mention. Defaults mirror the reference's
#: hacks: "University of <place>" is an ORGANIZATION, determiner-like
#: TITLE tokens are not titles.
DEFAULT_NER_TWEAKS: list[tuple[str, str]] = [
    ("[word:University] [lower:of] [ner:CITY]", "ORGANIZATION"),
    ("[word:University] [lower:of] [ner:COUNTRY]", "ORGANIZATION"),
    ("[lower:the;ner:TITLE]", "O"),
]


def apply_ner_tweaks(tokens: list[str], pos: list[str],
                     mentions: list[tuple],
                     tweaks: list[tuple[str, str]] | None = None
                     ) -> list[tuple]:
    """mentions (surface, ner, begin, end, antecedent) → re-tagged
    mentions. A tweak fires when its pattern matches starting at a
    mention-overlapping offset; "O" drops the mention, any other tag
    replaces it (and widens the surface to the matched span when the
    pattern is longer than the mention)."""
    rules = [(TokenPattern(p), tag)
             for p, tag in (tweaks or DEFAULT_NER_TWEAKS)]
    ner_by_tok = ["O"] * len(tokens)
    for surf, tag, b, e, _a in mentions:
        for i in range(b, e):
            ner_by_tok[i] = tag
    out = []
    for m in mentions:
        surf, tag, b, e, ante = m
        replaced = False
        for pat, new_tag in rules:
            # try anchoring the pattern so that it covers the mention
            width = len(pat.groups)
            for start in range(max(0, b - width + 1), b + 1):
                sub_t = tokens[start:start + width]
                sub_p = pos[start:start + width]
                sub_n = ner_by_tok[start:start + width]
                if len(sub_t) < width:
                    continue
                if pat.match(sub_t, sub_p, sub_n):
                    if new_tag == "O":
                        replaced = True     # drop
                    else:
                        lo, hi = min(start, b), max(start + width, e)
                        out.append((" ".join(tokens[lo:hi]), new_tag,
                                    lo, hi, ante))
                        replaced = True
                    break
            if replaced:
                break
        if not replaced:
            out.append(m)
    return out
