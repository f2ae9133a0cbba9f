"""Slot-fill rewrite chain + unary filters.

Ray-Data re-expression of the reference's heuristic post-processors
(``kbp/slotfilling/evaluate/HeuristicSlotfillPostProcessors.java``,
chained per ``SlotfillPostProcessor.java:83-141``): per-row functions
over the fills table, applied in the reference's order — rewrites
FIRST (``unaryRewrites``, ``SlotfillPostProcessor.java:104-112``), then
filters (``unaryFilters``, ``:83-94``), then the KB anti-join
(``FilterAlreadyKnownSlots``, 2009-2012 era ``unary(ir)`` ``:135-141``).

Rewrites/filters that need the *containing sentence* (the reference's
``containingSentenceLossy``) read a ``gloss`` column attached by
``attach_gloss`` — a distributed two-sided ``by_key`` join of fills
against the sentences table on (doc_id, sent_idx) with coarse-pid
partitions (nothing lands on the driver). Without a gloss the
sentence-dependent clauses no-op, mirroring the reference's
``provenance.isDefined()`` guards.

Chain entry: ``unary_chain(fills_batch, ...)`` (pure, per-batch) and
``apply_unary(fills_ds, sentences_ds, ...)`` (the pipeline stage).
"""

from __future__ import annotations

import re

import pyarrow as pa

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

LOW_PROBABILITY_THRESHOLD = 0.01   # FilterVeryLowProbabilitySlots :139


def _between(gloss_tokens, subj_span, obj_span):
    lo = min(subj_span[1], obj_span[1])
    hi = max(subj_span[0], obj_span[0])
    return gloss_tokens[lo:hi]


class Fill(dict):
    """Row-dict with .drop flag; chain steps mutate in place."""


# ---------------------------------------------------------------------------
# rewrites (unaryRewrites order, SlotfillPostProcessor.java:104-112)
# ---------------------------------------------------------------------------

def canonical_mention_rewrite(f: Fill, gloss_tokens, geo=None):
    """CanonicalMentionRewrite (:333-404): pronoun antecedents are
    resolved upstream in this engine (stages/nlp.py), so the live
    clauses here are number extraction and date/timex normalization."""
    spec = RELATIONS.get(f["pred"])
    if spec is None:
        return
    if "NUMBER" in spec.slot_types and not f["obj"].isdigit():
        m = _INTEGER.search(f["obj"])
        if m:
            f["obj"] = m.group(1)
    if "DATE" in spec.slot_types:
        from ..functions.text import timex_normalize
        tx = timex_normalize(f["obj"])
        if tx is not None:
            f["obj"] = tx


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


REWRITES = (canonical_mention_rewrite, expand_to_maximal_phrase,
            top_employee_to_founder, born_in_rewrite, died_in_rewrite,
            age_rewrite)


# ---------------------------------------------------------------------------
# filters (unaryFilters order, SlotfillPostProcessor.java:83-94)
# ---------------------------------------------------------------------------

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


def filter_unrelated_url(f: Fill, gloss_tokens, geo=None):
    """FilterUnrelatedURL (:290-332): org:website must overlap the
    entity name (direct / acronym / stopword-stripped acronym); the
    value is rewritten to its base URL."""
    if f["pred"] != "org:website":
        return
    name = f["subj"].lower()
    url = f["obj"].lower()
    acronym = re.sub(r"(^| )([a-z])[^ ]*", r"\2", name)
    acronym2 = re.sub(r"(^| +)([a-z])[^ ]*", r"\2",
                      re.sub(r"and|or|of|the", "", name))
    if not (_ngram_overlap(name.replace(" ", ""), url)
            or _ngram_overlap(acronym, url)
            or _ngram_overlap(acronym2, url)):
        f["drop"] = "FilterUnrelatedURL"
        return
    m = _BASE_URL.search(f["obj"])
    if m:
        f["obj"] = m.group(0)
    else:
        f["drop"] = "FilterUnrelatedURL"


def sanity_check_filter(f: Fill, gloss_tokens, geo=None):
    """SanityCheckFilter (:148-172): length cap, age bounds, employee
    count bounds, subj == obj."""
    if len(f["obj"]) > 80:
        f["drop"] = "SanityCheck"
        return
    if f["pred"] == "per:age":
        if "." in f["obj"]:
            f["drop"] = "SanityCheck"
            return
        try:
            v = int(f["obj"])
            if v > 125 or v <= 0:
                f["drop"] = "SanityCheck"
                return
        except ValueError:
            pass
    if f["pred"] == "org:number_of_employees/members":
        if "." in f["obj"]:
            f["drop"] = "SanityCheck"
            return
        try:
            v = int(f["obj"])
            if v > 500_000 or v < 25:
                f["drop"] = "SanityCheck"
                return
        except ValueError:
            pass
    if f["subj"] == f["obj"]:
        f["drop"] = "SanityCheck"


def conform_to_guidelines_filter(f: Fill, gloss_tokens, geo=None):
    """ConformToGuidelinesFilter (:173-289)."""
    pred = f["pred"]
    if gloss_tokens:
        span = " ".join(_between(gloss_tokens, f["subj_span"],
                                 f["obj_span"])).lower()
        if pred == "org:top_members/employees":
            if span in INVALID_TOP_EMPLOYEE_JUSTIFICATION:
                f["drop"] = "ConformToGuidelines"
                return
            gloss = " ".join(gloss_tokens)
            if any(k in gloss for k in DIVISION_KEYWORDS):
                f["drop"] = "ConformToGuidelines"
                return
        elif pred == "org:alternate_names" \
                and span in INVALID_ORG_ALT_NAMES:
            f["drop"] = "ConformToGuidelines"
            return
        elif pred == "per:employee_of" and f["obj"].lower() == "house":
            f["drop"] = "ConformToGuidelines"
            return
    if pred in DATE_RELATIONS:
        if not _YEAR.search(f["obj"]):
            f["drop"] = "ConformToGuidelines"
            return
        if _YEAR_ONLY.match(f["obj"]):
            f["obj"] = f["obj"] + "-XX-XX"
        elif _YEAR_MONTH.match(f["obj"]):
            f["obj"] = f["obj"] + "-XX"
    if pred == "per:title" and f["obj"] in INVALID_TITLES:
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


def very_low_probability_filter(f: Fill, gloss_tokens, geo=None):
    """FilterVeryLowProbabilitySlots (:139-147): score ≥ 1%."""
    if f["score"] < LOW_PROBABILITY_THRESHOLD:
        f["drop"] = "FilterVeryLowProbability"


FILTERS = (filter_unrelated_url, sanity_check_filter,
           conform_to_guidelines_filter, employee_filter,
           very_low_probability_filter)


def filter_already_known(f: Fill, known: dict):
    """FilterAlreadyKnownSlots (:103-138): drop fills whose value
    exactly matches or token-contains / is-contained-by a KB value for
    the same entity; alternate names must differ from the entity name
    (single-token prefixes/suffixes of a PERSON name also fail)."""
    vals = known.get(f["subj"], ())
    cand = f["obj"].lower()
    ctoks = cand.split()
    for v in vals:
        lv = v.lower()
        if cand == lv:
            f["drop"] = "FilterAlreadyKnownSlots"
            return
        vtoks = lv.split()
        if _contains(ctoks, vtoks) or _contains(vtoks, ctoks):
            f["drop"] = "FilterAlreadyKnownSlots"
            return
    if f["pred"].endswith("alternate_names"):
        name = f["subj"].lower()
        if cand == name:
            f["drop"] = "FilterAlreadyKnownSlots"
            return
        if f["subj_type"] == "PERSON" and " " not in f["obj"] and (
                name.startswith(cand) or name.endswith(cand)):
            f["drop"] = "FilterAlreadyKnownSlots"


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

def unary_chain(batch: pa.Table, *, known: dict | None = None,
                ignored: dict | None = None, geo=None) -> pa.Table:
    """One batch of fills through rewrites → filters → KB anti-join.

    ``known``: {entity → [known slot values]} broadcast dict;
    ``ignored``: {entity → set(ignored relations)} (FilterIgnoredSlots,
    driven by the query XML's ignoredSlots in the official eval)."""
    names = [n for n in batch.column_names]
    cols = {n: batch.column(n).to_pylist() for n in names}
    glosses = cols.get("gloss")
    out_rows = []
    for r in range(batch.num_rows):
        f = Fill({n: cols[n][r] for n in names})
        gloss_tokens = glosses[r].split(" ") if glosses and glosses[r] \
            else []
        if ignored and f["pred"] in ignored.get(f["subj"], ()):
            continue
        for rw in REWRITES:
            rw(f, gloss_tokens, geo)
            if f.get("drop"):
                break
        if not f.get("drop"):
            for fl in FILTERS:
                fl(f, gloss_tokens, geo)
                if f.get("drop"):
                    break
        if not f.get("drop") and known is not None:
            filter_already_known(f, known)
        if not f.get("drop"):
            out_rows.append(f)
    keep = [n for n in names]
    if not out_rows:
        return batch.slice(0, 0)
    return pa.table({n: pa.array([f[n] for f in out_rows],
                                 batch.schema.field(n).type)
                     for n in keep})


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
    """The pipeline stage: optional gloss attach, then the per-row
    chain with the world-knowledge geography. ``known`` should be a
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
