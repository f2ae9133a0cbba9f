"""Slot-fill rewrite chain + unary filters.

Ray-Data re-expression of the reference's heuristic post-processors
(``kbp/slotfilling/evaluate/HeuristicSlotfillPostProcessors.java``,
chained per ``SlotfillPostProcessor.java:83-141``) over a fills table,
applied in the reference's order — rewrites FIRST (``unaryRewrites``,
``SlotfillPostProcessor.java:104-112``), then filters (``unaryFilters``,
``:83-94``), then the KB anti-join (``FilterAlreadyKnownSlots``,
2009-2012 era ``unary(ir)`` ``:135-141``). Each row stops at the first
rule that drops it.

One kernel, ``unary_verdicts``, runs the chain in two kinds of step:
- column rules run over every alive row as Arrow masks: the ignored
  slots, the number/timex rewrite, FilterUnrelatedURL, the sanity
  check, the date and title clauses of ConformToGuidelines, the
  low-probability filter and the KB anti-join. Their string tests
  that Arrow cannot reproduce exactly (Python's ``int``, ``re`` and
  ``lower``) run once per distinct value (``runtime.map_distinct``);
- gloss rules (``GLOSS_REWRITES``, ``GLOSS_FILTERS``) read the
  *containing sentence* (the reference's ``containingSentenceLossy``)
  from a ``gloss`` column. They run per row, in chain order, only over
  the alive rows whose relation they read (``GLOSS_RELATIONS``) and
  whose gloss is non-empty; the pred, obj and obj_span they rewrite go
  back into the columns before the next column rule reads them.
  Without a gloss they no-op, mirroring the reference's
  ``provenance.isDefined()`` guards.

``unary_verdicts`` also names the rule that dropped each row;
``unary_chain`` keeps the surviving rows. ``pipelines.kg``'s finalize
kernel glosses only the fills of a ``GLOSS_RELATIONS`` relation, from
their regenerated provenance documents; ``apply_unary`` (the pipeline
stage of the official eval and virtual IR) attaches glosses from a
sentences Dataset with ``attach_gloss`` — a distributed two-sided
``by_key`` join on (doc_id, sent_idx) — and runs the same kernel per
batch.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..runtime import map_distinct
from ..schemas import FILLS_SCHEMA
from ..vocab import RELATIONS
from .deps import pos_tag

# --- reference word lists (ConformToGuidelinesFilter,
#     HeuristicSlotfillPostProcessors.java:173-208) ---------------------
INVALID_TOP_EMPLOYEE_JUSTIFICATION = frozenset({
    "spokesperson", "spokesman", "spokeswoman", "chief customer officer",
    "cco", "information officer", "chief compliance officer", "frontman",
    "secretary of information", "supreme court justice",
    "house minority leader", "press secretary", "representative",
    "senior advisor", "senior editor", "member"})
INVALID_ORG_ALT_NAMES = frozenset({
    "association", "society", "group", "corporation", "corp", "corp.",
    "llc"})
INVALID_TITLES = frozenset({
    "senior leader", "leader", "member", "hero", "socialite", "rep."})
DIVISION_KEYWORDS = ("division", "Division", "department", "Department",
                     "branch", "Branch", "Unit", "Office")

_YEAR = re.compile(r"[12][0-9]{3}")
_YEAR_ONLY = re.compile(r"^[12][0-9X]{3}$")
_YEAR_MONTH = re.compile(r"^[12X][0-9X]{3}-[0-9X]{2}$")
_INTEGER = re.compile(r"([0-9]+)")
_BASE_URL = re.compile(r"(?:(?:.*)://(?:[wW]{3}\.)?|[wW]{3}\.)([^:/]*)/?")

BIRTH_TO_RESIDENCE = {
    "per:city_of_birth": "per:cities_of_residence",
    "per:stateorprovince_of_birth":
        "per:statesorprovinces_of_residence",
    "per:country_of_birth": "per:countries_of_residence"}
BIRTH_RELATIONS = frozenset(BIRTH_TO_RESIDENCE)
RESIDENCE_RELATIONS = frozenset(BIRTH_TO_RESIDENCE.values())
DATE_RELATIONS = frozenset(
    n for n, r in RELATIONS.items() if "DATE" in r.slot_types)
NUMBER_RELATIONS = frozenset(
    n for n, r in RELATIONS.items() if "NUMBER" in r.slot_types)

LOW_PROBABILITY_THRESHOLD = 0.01   # FilterVeryLowProbabilitySlots :139


def _between(gloss_tokens, subj_span, obj_span):
    lo = min(subj_span[1], obj_span[1])
    hi = max(subj_span[0], obj_span[0])
    return gloss_tokens[lo:hi]


class Fill(dict):
    """One gloss row's pred, obj and spans; the gloss rules rewrite it
    in place and name the rule that drops it in ``drop``."""


# ---------------------------------------------------------------------------
# gloss rules: per row, in chain order, only on the rows whose relation
# one of them reads and whose gloss is non-empty
# ---------------------------------------------------------------------------

def expand_to_maximal_phrase(f: Fill, gloss_tokens, geo=None):
    """ExpandToMaximalPhraseRewrite (:405-450): per:title only — absorb
    preceding common nouns (tag n*, not ending p) into the fill."""
    if f["pred"] != "per:title" or not gloss_tokens:
        return
    b, e = f["obj_span"]
    if not (0 <= b < e <= len(gloss_tokens)):
        return
    pos = pos_tag(gloss_tokens)
    new_start = b
    for i in range(b - 1, -1, -1):
        t = pos[i].lower()
        if t.startswith("n") and not t.endswith("p"):
            new_start = i
        else:
            break
    if new_start != b:
        f["obj"] = " ".join(gloss_tokens[new_start:b]) + " " + f["obj"]
        f["obj_span"] = [new_start, e]


def top_employee_to_founder(f: Fill, gloss_tokens, geo=None):
    """TopEmployeeToFounderRewrite (:451-480)."""
    if f["pred"] != "org:top_members/employees" or not gloss_tokens:
        return
    for w in _between(gloss_tokens, f["subj_span"], f["obj_span"]):
        if w.lower() in ("founded", "founder", "created", "creator"):
            f["pred"] = "org:founded_by"
            return


def born_in_rewrite(f: Fill, gloss_tokens, geo=None):
    """BornInRewrite (:516-565): birth fills need lexical support —
    keep on birth keywords, rewrite to residence on residence keywords,
    keep if close (<8 middle tokens), else drop."""
    if f["pred"] not in BIRTH_RELATIONS:
        return
    if not gloss_tokens:
        return
    middle = _between(gloss_tokens, f["subj_span"], f["obj_span"])
    for w in middle:
        lw = w.lower()
        if lw == "born" or "birth" in lw or "origin" in lw \
                or lw == "from" or "native" in lw:
            return
    for w in middle:
        lw = w.lower()
        if lw.startswith("reside") or lw.startswith("live") \
                or "home" in lw or lw.startswith("raise") \
                or "brought" in lw or lw.startswith("left"):
            f["pred"] = BIRTH_TO_RESIDENCE[f["pred"]]
            return
    if len(middle) < 8:
        return
    f["drop"] = "BornInRewrite"


def died_in_rewrite(f: Fill, gloss_tokens, geo=None):
    """DiedInRewrite (:566-616): birth/residence place fills with
    died/death nearby become *_of_death at the right geographic level
    (world-knowledge lookup for the untyped fallbacks)."""
    pred = f["pred"]
    if pred not in BIRTH_RELATIONS and pred not in RESIDENCE_RELATIONS \
            and pred != "per:employee_of":
        return
    if not gloss_tokens:
        return
    middle = _between(gloss_tokens, f["subj_span"], f["obj_span"])
    if len(middle) >= 10:
        return
    if not any(w in ("died", "death") for w in middle):
        return
    if "city" in pred:
        f["pred"] = "per:city_of_death"
    elif "stateorprovince" in pred or "statesorprovinces" in pred:
        f["pred"] = "per:stateorprovince_of_death"
    elif "countr" in pred:
        f["pred"] = "per:country_of_death"
    elif geo is not None and geo.is_country(f["obj"]):
        f["pred"] = "per:country_of_death"
    elif geo is not None and geo.is_region(f["obj"]):
        f["pred"] = "per:stateorprovince_of_death"
    elif geo is not None and geo.is_city(f["obj"]):
        f["pred"] = "per:city_of_death"


def age_rewrite(f: Fill, gloss_tokens, geo=None):
    """AgeRewrite (:481-515): unit words within 5 tokens after the
    value rescale it to years."""
    if f["pred"] != "per:age" or not gloss_tokens:
        return
    try:
        val = int(f["obj"])
    except ValueError:
        return
    e = f["obj_span"][1]
    for i in range(e, min(len(gloss_tokens), e + 5)):
        unit = gloss_tokens[i].lower().rstrip("s")
        if unit == "decade":
            f["obj"] = str(val * 10)
            return
        if unit == "month":
            f["obj"] = str(val // 12)
            return
        if unit == "week":
            f["obj"] = str(val * 7 // 365)
            return
        if unit == "day":
            f["obj"] = str(val // 365)
            return


GLOSS_REWRITES = (expand_to_maximal_phrase, top_employee_to_founder,
                  born_in_rewrite, died_in_rewrite, age_rewrite)


def conform_to_guidelines_gloss(f: Fill, gloss_tokens, geo=None):
    """The gloss clauses of ConformToGuidelinesFilter (:173-289); its
    date and title clauses are column rules (``_chain``)."""
    if not gloss_tokens:
        return
    pred = f["pred"]
    span = " ".join(_between(gloss_tokens, f["subj_span"],
                             f["obj_span"])).lower()
    if pred == "org:top_members/employees":
        if span in INVALID_TOP_EMPLOYEE_JUSTIFICATION:
            f["drop"] = "ConformToGuidelines"
            return
        gloss = " ".join(gloss_tokens)
        if any(k in gloss for k in DIVISION_KEYWORDS):
            f["drop"] = "ConformToGuidelines"
    elif pred == "org:alternate_names" and span in INVALID_ORG_ALT_NAMES:
        f["drop"] = "ConformToGuidelines"
    elif pred == "per:employee_of" and f["obj"].lower() == "house":
        f["drop"] = "ConformToGuidelines"


def employee_filter(f: Fill, gloss_tokens, geo=None):
    """EmployeeFilter (:617-648): said/told/called/quoted between the
    spans kills employee fills (unless followed by a TITLE token —
    approximated by a next-token capitalization check here, as the
    lossy gloss carries no NER)."""
    if f["pred"] not in ("org:top_members/employees", "per:employee_of"):
        return
    if not gloss_tokens:
        return
    lo = min(f["subj_span"][1], f["obj_span"][1])
    hi = min(max(f["subj_span"][0], f["obj_span"][0]),
             len(gloss_tokens))      # spans may outrun a foreign gloss
    for i in range(lo, hi):
        if gloss_tokens[i].lower() in ("said", "told", "called",
                                       "quoted"):
            if i + 1 >= len(gloss_tokens) \
                    or not gloss_tokens[i + 1][:1].isupper():
                f["drop"] = "EmployeeFilter"
                return


GLOSS_FILTERS = (conform_to_guidelines_gloss, employee_filter)

# the relations the gloss rewrites and the gloss filters read: only
# fills of these need a gloss
REWRITE_RELATIONS = frozenset({
    "per:title", "org:top_members/employees", "per:employee_of",
    "per:age"}) | BIRTH_RELATIONS | RESIDENCE_RELATIONS
FILTER_RELATIONS = frozenset({
    "org:top_members/employees", "org:alternate_names", "per:employee_of"})
GLOSS_RELATIONS = REWRITE_RELATIONS | FILTER_RELATIONS


# ---------------------------------------------------------------------------
# column rules: Arrow masks, with the string tests that Arrow cannot
# reproduce exactly run once per distinct value (``runtime.map_distinct``)
# ---------------------------------------------------------------------------

def _number_value(obj: str) -> str:
    """CanonicalMentionRewrite's number clause (:333-404): the first
    integer of a value that is not all digits."""
    if obj.isdigit():
        return obj
    m = _INTEGER.search(obj)
    return m.group(1) if m else obj


def _timex_value(obj: str) -> str:
    """CanonicalMentionRewrite's date clause: the normalized timex
    (pronoun antecedents are resolved upstream, stages/nlp.py)."""
    from ..functions.text import timex_normalize
    tx = timex_normalize(obj)
    return obj if tx is None else tx


def _ngram_overlap(name: str, url: str, min_n: int = 4) -> bool:
    """FilterUnrelatedURL.hasOverlap (:290-310): any common substring of
    length ≥ min(4, len(name))."""
    name, url = name.lower(), url.lower()
    need = min(min_n, len(name))
    for length in range(min(len(name), len(url)), need - 1, -1):
        for i in range(len(name) - length + 1):
            if name[i:i + length] in url:
                return True
    return False


def _website(subj: str, obj: str) -> str | None:
    """FilterUnrelatedURL (:290-332): an org:website value must overlap
    the entity name (direct / acronym / stopword-stripped acronym) → its
    base URL, or None to drop it."""
    name = subj.lower()
    url = obj.lower()
    acronym = re.sub(r"(^| )([a-z])[^ ]*", r"\2", name)
    acronym2 = re.sub(r"(^| +)([a-z])[^ ]*", r"\2",
                      re.sub(r"and|or|of|the", "", name))
    if not (_ngram_overlap(name.replace(" ", ""), url)
            or _ngram_overlap(acronym, url)
            or _ngram_overlap(acronym2, url)):
        return None
    m = _BASE_URL.search(obj)
    return m.group(0) if m else None


def _bad_count(obj: str, lo: int, hi: int) -> bool:
    """SanityCheckFilter's (:148-172) test of an age or employee count:
    a decimal point, or an integer outside [lo, hi]."""
    if "." in obj:
        return True
    try:
        return not lo <= int(obj) <= hi
    except ValueError:
        return False


def _guideline_date(obj: str) -> str | None:
    """ConformToGuidelinesFilter's date clause: None (drop) without a
    year; a bare year or year-month padded with X to YYYY-MM-DD."""
    if not _YEAR.search(obj):
        return None
    if _YEAR_ONLY.match(obj):
        return obj + "-XX-XX"
    if _YEAR_MONTH.match(obj):
        return obj + "-XX"
    return obj


def _already_known(subj: str, subj_type: str, pred: str, obj: str,
                   known: dict) -> bool:
    """FilterAlreadyKnownSlots (:103-138): the value exactly matches or
    token-contains / is-contained-by a KB value for the same entity; an
    alternate name must differ from the entity name (single-token
    prefixes/suffixes of a PERSON name also fail)."""
    cand = obj.lower()
    ctoks = cand.split()
    for v in known.get(subj, ()):
        lv = v.lower()
        vtoks = lv.split()
        if cand == lv or _contains(ctoks, vtoks) \
                or _contains(vtoks, ctoks):
            return True
    if pred.endswith("alternate_names"):
        name = subj.lower()
        return cand == name or (subj_type == "PERSON" and " " not in obj
                                and (name.startswith(cand)
                                     or name.endswith(cand)))
    return False


def _contains(haystack: list, needle: list) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i:i + len(needle)] == needle:
            return True
    return False


# ---------------------------------------------------------------------------
# chain + pipeline stage
# ---------------------------------------------------------------------------

class _Chain:
    """A batch of fills on its way through the chain: the columns as
    rewritten so far, and each row's drop reason (None while alive).
    Every rule reads only the rows still alive."""

    def __init__(self, batch: pa.Table):
        self.t = batch.combine_chunks()
        self.reason = np.full(batch.num_rows, None, object)
        self.alive = np.ones(batch.num_rows, bool)

    def col(self, name: str) -> pa.Array:
        return self.t.column(name).combine_chunks()

    def rows(self, mask) -> np.ndarray:
        """The alive rows where the Arrow boolean ``mask`` holds."""
        return np.flatnonzero(self.alive & pc.fill_null(mask, False)
                              .to_numpy(zero_copy_only=False))

    def of(self, preds) -> np.ndarray:
        """The alive rows whose relation is in ``preds``."""
        return self.rows(pc.is_in(self.col("pred"),
                                  value_set=pa.array(sorted(preds))))

    def drop(self, rows: np.ndarray, rule: str) -> None:
        self.reason[rows] = rule
        self.alive[rows] = False

    def assign(self, name: str, rows: np.ndarray, values) -> None:
        """Column ``name`` with ``values`` at ``rows``."""
        col = self.col(name)
        values = pa.array(values, col.type)
        at = np.arange(len(col))
        at[rows] = len(col) + np.arange(len(rows))
        self.t = self.t.set_column(
            self.t.schema.get_field_index(name), name,
            pa.concat_arrays([col, values]).take(at))

    def rewrite(self, name: str, rows: np.ndarray, fn) -> pa.Array:
        """``fn`` over the distinct values of column ``name`` at
        ``rows`` → the results at ``rows``."""
        return map_distinct(fn, self.col(name).take(rows),
                            type=self.t.schema.field(name).type)

    def per_row(self, rules, preds, geo) -> None:
        """The gloss ``rules`` in order, each row stopping at its first
        drop, over the alive rows whose relation is in ``preds`` (the
        relations the rules read) and whose gloss is non-empty; the
        pred, obj and obj_span they rewrote go back into the columns."""
        if "gloss" not in self.t.column_names:
            return
        rows = self.rows(pc.and_(
            pc.is_in(self.col("pred"), value_set=pa.array(sorted(preds))),
            pc.greater(pc.utf8_length(self.col("gloss")), 0)))
        if not len(rows):
            return
        cols = {n: _pylist(self.col(n).take(rows)) for n in
                ("pred", "obj", "subj_span", "obj_span", "gloss")}
        fills = [Fill(pred=p, obj=o, subj_span=s, obj_span=e)
                 for p, o, s, e in zip(cols["pred"], cols["obj"],
                                       cols["subj_span"], cols["obj_span"])]
        for i, f, gloss in zip(rows.tolist(), fills, cols["gloss"]):
            tokens = gloss.split(" ")
            for rule in rules:
                rule(f, tokens, geo)
                if f.get("drop"):
                    self.drop(i, f["drop"])
                    break
        for name in ("pred", "obj", "obj_span"):
            new = [f[name] for f in fills]
            if new != cols[name]:
                self.assign(name, rows, new)


def _pylist(arr: pa.Array) -> list:
    """``arr.to_pylist()`` without a scalar per value: strings through
    numpy, a list column by slicing its flattened values."""
    if pa.types.is_list(arr.type):
        values = pc.list_flatten(arr).to_numpy(zero_copy_only=False)
        ends = np.cumsum(pc.list_value_length(arr).to_numpy(
            zero_copy_only=False)).tolist()
        return [values[a:b].tolist() for a, b in zip([0] + ends, ends)]
    return arr.to_numpy(zero_copy_only=False).tolist()


def unary_verdicts(batch: pa.Table, *, known: dict | None = None,
                   ignored: dict | None = None, geo=None):
    """One batch of fills through rewrites → filters → KB anti-join, in
    the reference's order → (every row of ``batch`` with the rewrites
    applied, each row's drop reason: the name of the rule that dropped
    it, None for a kept row).

    ``known``: {entity → [known slot values]} broadcast dict;
    ``ignored``: {entity → set(ignored relations)} (FilterIgnoredSlots,
    driven by the query XML's ignoredSlots in the official eval)."""
    c = _Chain(batch)
    subj, pred = c.col("subj"), c.col("pred")
    if ignored:
        for s in pc.unique(subj).to_pylist():
            if s in ignored:
                c.drop(c.rows(pc.and_(pc.equal(subj, s), pc.is_in(
                    pred, value_set=pa.array(list(ignored[s]),
                                             pa.string())))),
                       "FilterIgnoredSlots")
    # rewrites (unaryRewrites order, SlotfillPostProcessor.java:104-112)
    for preds, fn in ((NUMBER_RELATIONS, _number_value),
                      (DATE_RELATIONS, _timex_value)):
        rows = c.of(preds)
        c.assign("obj", rows, c.rewrite("obj", rows, fn))
    c.per_row(GLOSS_REWRITES, REWRITE_RELATIONS, geo)
    # filters (unaryFilters order, SlotfillPostProcessor.java:83-94)
    rows = c.of({"org:website"})
    url = map_distinct(_website, c.col("subj").take(rows),
                       c.col("obj").take(rows), type=pa.string())
    c.drop(rows[pc.is_null(url).to_numpy(zero_copy_only=False)],
           "FilterUnrelatedURL")
    c.assign("obj", rows, pc.coalesce(url, c.col("obj").take(rows)))
    obj = c.col("obj")
    c.drop(c.rows(pc.or_(pc.greater(pc.utf8_length(obj), 80),
                         pc.equal(c.col("subj"), obj))), "SanityCheck")
    for rel, lo, hi in (("per:age", 1, 125),
                        ("org:number_of_employees/members", 25, 500_000)):
        rows = c.of({rel})
        bad = map_distinct(lambda o: _bad_count(o, lo, hi),
                           obj.take(rows), type=pa.bool_())
        c.drop(rows[bad.to_numpy(zero_copy_only=False)], "SanityCheck")
    rows = c.of(DATE_RELATIONS)
    date = c.rewrite("obj", rows, _guideline_date)
    c.drop(rows[pc.is_null(date).to_numpy(zero_copy_only=False)],
           "ConformToGuidelines")
    c.assign("obj", rows, pc.coalesce(date, c.col("obj").take(rows)))
    c.drop(c.rows(pc.and_(pc.equal(c.col("pred"), "per:title"), pc.is_in(
        c.col("obj"), value_set=pa.array(sorted(INVALID_TITLES))))),
           "ConformToGuidelines")
    c.per_row(GLOSS_FILTERS, FILTER_RELATIONS, geo)
    c.drop(c.rows(pc.less(c.col("score"), LOW_PROBABILITY_THRESHOLD)),
           "FilterVeryLowProbability")
    # the KB anti-join (FilterAlreadyKnownSlots, unary(ir) :135-141)
    if known is not None:
        rows = c.rows(pc.or_(
            pc.is_in(c.col("subj"), value_set=pa.array(list(known),
                                                       pa.string())),
            pc.ends_with(c.col("pred"), "alternate_names")))
        hit = map_distinct(
            lambda s, st, p, o: _already_known(s, st, p, o, known),
            *(c.col(n).take(rows)
              for n in ("subj", "subj_type", "pred", "obj")),
            type=pa.bool_())
        c.drop(rows[hit.to_numpy(zero_copy_only=False)],
               "FilterAlreadyKnownSlots")
    return c.t, c.reason


def unary_chain(batch: pa.Table, *, known: dict | None = None,
                ignored: dict | None = None, geo=None) -> pa.Table:
    """The rows of ``batch`` the chain keeps, rewritten
    (``unary_verdicts``)."""
    t, reason = unary_verdicts(batch, known=known, ignored=ignored,
                               geo=geo)
    return t.filter(pa.array(np.equal(reason, None)))


def glosses(fills: pa.Table, sentences: pa.Table):
    """Each fill's containing sentence text, looked up in
    ``sentences``' (doc_id, sent_idx, text) rows on (doc_id, sent_idx)
    by one Arrow ``index_in`` ("" when absent) — the gloss join of both
    size tiers."""
    import pyarrow.compute as pc

    def key(t: pa.Table):
        return pc.binary_join_element_wise(
            t.column("doc_id"), t.column("sent_idx").cast(pa.string()),
            "|")

    at = pc.index_in(key(fills),
                     value_set=key(sentences).combine_chunks())
    return pc.fill_null(sentences.column("text").take(at), "")


def attach_gloss(fills, sentences):
    """Distributed fills ⋈ sentences on (doc_id, sent_idx): adds a
    ``gloss`` string column (the containing sentence text). One
    two-sided ``by_key`` shuffle, then ``glosses`` per partition; the
    provenance-recovery shape of ``SimpleSlotFiller.java:484-676``
    restructured per SURVEY.md §7.4."""
    from ..runtime import by_key
    from ..schemas import SENTENCES_SCHEMA

    def join(f: pa.Table, s: pa.Table) -> pa.Table:
        return f.append_column("gloss", glosses(f, s))

    sent_side = pa.schema([SENTENCES_SCHEMA.field(c)
                           for c in ("doc_id", "sent_idx", "text")])
    return by_key([(fills, FILLS_SCHEMA), (sentences, sent_side)],
                  ["doc_id", "sent_idx"], join)


def repair_provenance(fills, sentences, *, aliases=None):
    """Provenance-recovery pass (``SimpleSlotFiller.java:484-676``
    restructured per SURVEY §7.4: the reference re-queries the index
    and re-classifies up to 25 candidate sentences, then falls back to
    the shortest sentence mentioning entity and value; here one gloss
    join + one streaming corpus scan replace the per-fill query loop).

    1. ``attach_gloss`` marks WEAK fills — provenance sentence missing,
       or not containing both a subject surface and the slot value.
    2. The weak set is tiny (⊆ the entity-universe-bounded fills
       table): its (subject surfaces, value) probes broadcast via
       ``ray.put``; ONE streaming pass over the sentences emits
       per-batch best supporting hits (no quadratic join).
    3. Per-fill global best — the reference's fallback rule: shortest
       supporting sentence, ties by (doc_id, sent_idx) — patches the
       fill's provenance. Fills with no supporting sentence keep their
       original provenance (the reference emits them unrepaired too).

    ``aliases``: optional iterable of (surface, canonical, score) rows
    (the broadcast alias table) so a canonicalized subject matches its
    surface forms in text.
    """
    import ray

    glossed = attach_gloss(fills, sentences).materialize()

    rev_alias: dict[str, list[str]] = {}
    if aliases is not None:
        for surface, canonical, _s in aliases:
            rev_alias.setdefault(canonical, []).append(surface)

    def surfaces_of(subj: str) -> list[str]:
        return [subj] + rev_alias.get(subj, [])

    def is_weak(row: dict) -> bool:
        gloss = row.get("gloss") or ""
        if not gloss:
            return True
        return not (any(s in gloss for s in surfaces_of(row["subj"]))
                    and row["obj"] in gloss)

    weak = [r for r in glossed.to_pandas().to_dict("records")
            if is_weak(r)]          # columnar collect (take_all on
    # non-arrow blocks pays per-row pandas indexing)
    out = glossed.drop_columns(["gloss"])
    if not weak:
        return out

    probes = {}        # key -> (subject surfaces, value)
    for r in weak:
        key = (r["subj"], r["pred"], r["obj"])
        probes[key] = (surfaces_of(r["subj"]), r["obj"])
    probes_ref = ray.put(probes)

    def scan(batch: pa.Table) -> pa.Table:
        pr = ray.get(probes_ref)
        docs = batch.column("doc_id").to_pylist()
        sents = batch.column("sent_idx").to_pylist()
        texts = batch.column("text").to_pylist()
        best: dict[tuple, tuple] = {}     # per-batch partial min
        for d, si, tx in zip(docs, sents, texts):
            for key, (subj_surfs, obj) in pr.items():
                if obj in tx and any(s in tx for s in subj_surfs):
                    cand = (len(tx), d, si)
                    if key not in best or cand < best[key]:
                        best[key] = cand
        ks = list(best)
        return pa.table({
            "subj": pa.array([k[0] for k in ks], pa.string()),
            "pred": pa.array([k[1] for k in ks], pa.string()),
            "obj": pa.array([k[2] for k in ks], pa.string()),
            "slen": pa.array([best[k][0] for k in ks], pa.int64()),
            "doc_id": pa.array([best[k][1] for k in ks], pa.string()),
            "sent_idx": pa.array([best[k][2] for k in ks],
                                 pa.int32())})

    # global best per fill: ≤ |weak| rows after the per-batch min —
    # driver-side reduce over a tiny table
    repaired: dict[tuple, tuple] = {}
    for r in sentences.map_batches(scan,
                                   batch_format="pyarrow").take_all():
        key = (r["subj"], r["pred"], r["obj"])
        cand = (r["slen"], r["doc_id"], r["sent_idx"])
        if key not in repaired or cand < repaired[key]:
            repaired[key] = cand
    if not repaired:
        return out
    # patch ONLY the rows found weak — keyed by the full
    # (triple, original provenance) identity, so a duplicate triple
    # whose own provenance was already strong keeps it instead of
    # being overwritten by its weak sibling's repair
    weak_ids = {(r["subj"], r["pred"], r["obj"],
                 r["doc_id"], r["sent_idx"]) for r in weak}
    repaired_ref = ray.put((repaired, weak_ids))

    def patch(batch: pa.Table) -> pa.Table:
        rep, wids = ray.get(repaired_ref)
        subj = batch.column("subj").to_pylist()
        pred = batch.column("pred").to_pylist()
        obj = batch.column("obj").to_pylist()
        docs = batch.column("doc_id").to_pylist()
        sents = batch.column("sent_idx").to_pylist()
        for i, key in enumerate(zip(subj, pred, obj)):
            if key + (docs[i], sents[i]) not in wids:
                continue
            hit = rep.get(key)
            if hit is not None:
                docs[i] = hit[1]
                sents[i] = hit[2]
        t = batch.set_column(batch.column_names.index("doc_id"),
                             "doc_id", pa.array(docs, pa.string()))
        return t.set_column(t.column_names.index("sent_idx"),
                            "sent_idx", pa.array(sents, pa.int32()))

    return out.map_batches(patch, batch_format="pyarrow")


def apply_unary(fills, sentences=None, *, known: dict | None = None,
                ignored: dict | None = None):
    """The pipeline stage: optional gloss attach, then ``unary_chain``
    per batch with the world-knowledge geography. ``known`` should be a
    plain dict (broadcast it small) — the KB side of
    FilterAlreadyKnownSlots."""
    from .worldknowledge import get_geography
    geo = get_geography()
    if sentences is not None:
        fills = attach_gloss(fills, sentences)

    def fn(batch: pa.Table) -> pa.Table:
        return unary_chain(batch, known=known, ignored=ignored, geo=geo)

    out = fills.map_batches(fn, batch_format="pyarrow")
    if sentences is not None:
        out = out.drop_columns(["gloss"])
    return out
