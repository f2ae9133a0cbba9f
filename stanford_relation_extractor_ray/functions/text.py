"""Scalar string / date helpers shared by the linker, dedup operators and
consistency checks.

Behavioral parity targets (no code copied): ``levenshtein`` mirrors
``kbp/common/Utils.java:241-267``; ``is_acronym_of`` mirrors
``kbp/entitylinking/AcronymMatcher.java:70-86``; ``strip_corporate``
mirrors the suffix/determiner stripping of
``kbp/entitylinking/EntityLinker.java:114-133``; ``approx_match_score``
mirrors the token-overlap scoring of ``EntityLinker.java:293-330``
(GaborsHackyBaseline: thresholds .49 PERSON / .79 ORGANIZATION).
"""

from __future__ import annotations

import re

CORPORATE_SUFFIXES = frozenset([
    "corp", "corp.", "corporation", "inc", "inc.", "incorporated", "ltd",
    "ltd.", "limited", "llc", "group", "holdings", "partners",
    "foundation", "institute", "laboratories", "co", "co.", "company",
])
DETERMINERS = frozenset(["the", "a", "an"])
YEAR_RE = re.compile(r"[12]\d\d\d")


def levenshtein(a: str, b: str) -> int:
    """Edit distance (iterative two-row DP)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def within_one_edit(a: str, b: str) -> bool:
    """``levenshtein(a, b) <= 1`` in one O(n) scan: past the common
    prefix, the rest must differ by one substitution, insertion or
    deletion."""
    if len(a) < len(b):
        a, b = b, a
    if len(a) - len(b) > 1:
        return False
    i = 0
    while i < len(b) and a[i] == b[i]:
        i += 1
    return a[i + 1:] == b[i + (len(a) == len(b)):]


def normalize_tokens(name: str) -> list[str]:
    """Lowercase tokens with determiners / corporate suffixes stripped."""
    toks = [t for t in name.lower().split() if t]
    toks = [t for t in toks if t not in DETERMINERS]
    while toks and toks[-1] in CORPORATE_SUFFIXES:
        toks = toks[:-1]
    return toks or [name.lower()]


def is_acronym_of(short: str, long_name: str) -> bool:
    """True iff ``short`` is the initialism of ``long_name``'s tokens."""
    if not short.isupper() or len(short) < 2:
        return False
    toks = [t for t in long_name.split() if t and t[0].isalpha()]
    return len(toks) >= 2 and short == "".join(t[0].upper() for t in toks)


def approx_match_score(a: str, b: str,
                       nicknames: dict[str, str] | None = None, *,
                       tokens=normalize_tokens,
                       floor: float = -1.0) -> float:
    """Token-overlap similarity in [0, 1] between two surface forms.

    Tokens match exactly, via the nickname map, or at edit distance ≤ 1
    when both are length ≥ 5. Score = |matched| / max(|A|, |B|); acronym
    pairs score 1.0. ``tokens`` normalizes one surface (a caller scoring
    many pairs passes a memoized ``normalize_tokens``). The score is at
    most min(|A|, |B|) / max(|A|, |B|), so a pair whose token counts
    bound it at or below ``floor`` scores 0.0 without matching a token
    (the size filter of TokenJoin, VLDB 2022).
    """
    if a == b:
        return 1.0
    if is_acronym_of(a, b) or is_acronym_of(b, a):
        return 1.0
    ta, tb = tokens(a), tokens(b)
    if not ta or not tb:
        return 0.0
    if min(len(ta), len(tb)) / max(len(ta), len(tb)) <= floor:
        return 0.0
    nick = nicknames or {}

    def tok_eq(x: str, y: str) -> bool:
        if x == y or nick.get(x) == y or nick.get(y) == x:
            return True
        return len(x) >= 5 and len(y) >= 5 and within_one_edit(x, y)

    used = [False] * len(tb)
    matched = 0
    for x in ta:
        for j, y in enumerate(tb):
            if not used[j] and tok_eq(x, y):
                used[j] = True
                matched += 1
                break
    return matched / max(len(ta), len(tb))


def same_entity(a: str, b: str, entity_type: str,
                nicknames: dict[str, str] | None = None, *,
                tokens=normalize_tokens) -> bool:
    """Near-duplicate verdict with the reference's per-type thresholds;
    a pair whose token counts alone keep the score at or below the
    threshold is rejected without matching tokens."""
    threshold = 0.49 if entity_type == "PERSON" else 0.79
    return approx_match_score(a, b, nicknames, tokens=tokens,
                              floor=threshold) > threshold


def extract_year(s: str) -> str | None:
    m = YEAR_RE.search(s)
    return m.group(0) if m else None


_MONTH_NUM = {m: i + 1 for i, m in enumerate([
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December"])}
# month-name abbreviations ("Jan", "Jan.", "Sept", ...)
for _m, _n in list(_MONTH_NUM.items()):
    _MONTH_NUM[_m[:3]] = _n
    _MONTH_NUM[_m[:3] + "."] = _n
_MONTH_NUM["Sept"] = _MONTH_NUM["Sept."] = 9

_ORDINAL_RE = re.compile(r"^([0-9]{1,2})(?:st|nd|rd|th)$",
                         re.IGNORECASE)
_NUMERIC_DATE_RE = re.compile(
    r"^([0-9]{1,2})[/-]([0-9]{1,2})[/-]([12][0-9]{3})$")
_ISO_RE = re.compile(
    r"^[12][0-9X]{3}-[0-9X]{2}(?:-[0-9X]{2})?$")
_DECADE_RE = re.compile(r"^(?:the )?([12][0-9]{2})0s$")
_SEASONS = {"spring": "SP", "summer": "SU", "fall": "FA",
            "autumn": "FA", "winter": "WI"}


_NUM_WORDS = {"a": 1, "an": 1, "one": 1, "two": 2, "three": 3,
              "four": 4, "five": 5, "six": 6, "seven": 7, "eight": 8,
              "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
              "twenty": 20, "thirty": 30, "forty": 40, "fifty": 50}
# ISO-8601 duration designators; True = time component (PT...)
_DUR_UNITS = {"second": ("S", True), "minute": ("M", True),
              "hour": ("H", True), "day": ("D", False),
              "week": ("W", False), "month": ("M", False),
              "year": ("Y", False)}
_DURATION_RE = re.compile(
    r"^(?:about |around |approximately |some )?"
    r"([0-9]+|[a-z]+)[ -]"
    r"(second|minute|hour|day|week|month|year|decade|centur)"
    r"(?:s|y|ies)?$", re.IGNORECASE)
_WEEKDAYS = {d: i for i, d in enumerate(
    ["monday", "tuesday", "wednesday", "thursday", "friday",
     "saturday", "sunday"])}
# fixed-date holidays (SUTime's holiday grammar tail); Thanksgiving
# and Easter are computed (4th Thursday of November / computus)
_HOLIDAYS_FIXED = {
    "christmas": (12, 25), "christmas day": (12, 25),
    "christmas eve": (12, 24), "new year's day": (1, 1),
    "new year's eve": (12, 31), "new years day": (1, 1),
    "independence day": (7, 4), "fourth of july": (7, 4),
    "halloween": (10, 31), "valentine's day": (2, 14),
    "st. patrick's day": (3, 17), "veterans day": (11, 11),
    "april fools' day": (4, 1)}
_AGO_RE = re.compile(
    r"^([0-9]+|[a-z]+) (day|week|month|year)s? ago$", re.IGNORECASE)
_IN_RE = re.compile(
    r"^in ([0-9]+|[a-z]+) (day|week|month|year)s?$", re.IGNORECASE)
_REL_UNIT_RE = re.compile(
    r"^(last|this|next) (week|month|year|"
    r"monday|tuesday|wednesday|thursday|friday|saturday|sunday)$",
    re.IGNORECASE)


def _num_of(tok: str) -> int | None:
    if tok.isdigit():
        return int(tok)
    return _NUM_WORDS.get(tok.lower())


def _easter(year: int):
    """Gregorian computus (Anonymous algorithm) → (month, day)."""
    a = year % 19
    b, c = divmod(year, 100)
    d, e = divmod(b, 4)
    g = (8 * b + 13) // 25
    h = (19 * a + b - d - g + 15) % 30
    i, k = divmod(c, 4)
    l = (32 + 2 * e + 2 * i - h - k) % 7
    m = (a + 11 * h + 22 * l) // 451
    month, day = divmod(h + l - 7 * m + 114, 31)
    return month, day + 1


def _thanksgiving(year: int):
    import datetime
    d = datetime.date(year, 11, 1)
    first_thu = 1 + (3 - d.weekday()) % 7
    return 11, first_thu + 21


def _holiday_of(phrase: str, year: int) -> str | None:
    p = phrase.lower().strip()
    if p in _HOLIDAYS_FIXED:
        mm, dd = _HOLIDAYS_FIXED[p]
    elif p in ("thanksgiving", "thanksgiving day"):
        mm, dd = _thanksgiving(year)
    elif p in ("easter", "easter sunday"):
        mm, dd = _easter(year)
    else:
        return None
    return f"{year}-{mm:02d}-{dd:02d}"


def _shift_months(d, months: int):
    """Calendar month shift with day clamping (SUTime semantics)."""
    import calendar
    import datetime
    y = d.year + (d.month - 1 + months) // 12
    m = (d.month - 1 + months) % 12 + 1
    return datetime.date(y, m, min(d.day, calendar.monthrange(y, m)[1]))


def _relative_to(s: str, anchor) -> str | None:
    """Resolve a relative expression against an anchor date."""
    import datetime
    low = s.lower()
    if low in ("today", "tonight"):
        return anchor.isoformat()
    if low == "yesterday":
        return (anchor - datetime.timedelta(days=1)).isoformat()
    if low == "tomorrow":
        return (anchor + datetime.timedelta(days=1)).isoformat()
    if low in _WEEKDAYS:
        # bare weekday: the upcoming occurrence (today included) —
        # SUTime's default forward resolution
        delta = (_WEEKDAYS[low] - anchor.weekday()) % 7
        return (anchor + datetime.timedelta(days=delta)).isoformat()
    m = _REL_UNIT_RE.match(low)
    if m is not None:
        which, unit = m.group(1), m.group(2)
        if unit in _WEEKDAYS:
            off = _WEEKDAYS[unit] - anchor.weekday()
            if which == "last":
                off = off - 7 if off >= 0 else off
            elif which == "next":
                off = off + 7 if off <= 0 else off
            return (anchor + datetime.timedelta(days=off)).isoformat()
        step = {"last": -1, "this": 0, "next": 1}[which]
        if unit == "week":
            d = anchor + datetime.timedelta(days=7 * step)
            iso = d.isocalendar()
            return f"{iso[0]}-W{iso[1]:02d}"
        if unit == "month":
            d = _shift_months(anchor, step)
            return f"{d.year}-{d.month:02d}-XX"
        d = datetime.date(anchor.year + step, 1, 1)
        return f"{d.year}-XX-XX"
    for rx, sign in ((_AGO_RE, -1), (_IN_RE, 1)):
        m = rx.match(low)
        if m is None:
            continue
        n = _num_of(m.group(1))
        if n is None:
            return None
        unit = m.group(2).lower()
        if unit == "day":
            d = anchor + datetime.timedelta(days=sign * n)
        elif unit == "week":
            d = anchor + datetime.timedelta(days=7 * sign * n)
        elif unit == "month":
            d = _shift_months(anchor, sign * n)
        else:
            d = _shift_months(anchor, 12 * sign * n)
        return d.isoformat()
    return None


def timex_normalize(s: str, doc_date: str | None = None) -> str | None:
    """SUTime-depth timex normalization (the reference parses slot
    values through SUTime, ``time/SUTimeSimpleParser.java:68-88``;
    canonical values consumed by CanonicalMentionRewrite,
    ``HeuristicSlotfillPostProcessors.java:388``). Covered shapes:

    - "May 3 , 1970" / "3 May 1970" / "May 3rd , 1970" → "1970-05-03"
    - month abbreviations: "Jan. 3 , 1970" → "1970-01-03"
    - "May 1970" → "1970-05-XX";  "1970" → "1970-XX-XX"
    - numeric US order: "05/03/1970" → "1970-05-03"
    - decades: "the 1970s" → "197X" (SUTime decade convention)
    - seasons: "Summer 1970" → "1970-SU"
    - durations: "three weeks" → "P3W", "an hour" → "PT1H",
      "two decades" → "P20Y" (ISO-8601, SUTime's duration output)
    - holidays: "Christmas 1970" → "1970-12-25"; Thanksgiving is the
      computed 4th Thursday, Easter the Gregorian computus
    - relative (only when ``doc_date="YYYY-MM-DD"`` anchors them):
      "yesterday", "last Tuesday", "next month", "three weeks ago",
      "in two months"; bare weekdays resolve forward (SUTime default)
    - already-ISO values pass through unchanged

    Returns None when no year anchor is present and no ``doc_date``
    is supplied (relative expressions need a document date; the
    reference's per-string parser drops them the same way)."""
    s = s.strip()
    if _ISO_RE.match(s):
        return s
    m = _DECADE_RE.match(s)
    if m is not None:
        return f"{m.group(1)}X"
    m = _DURATION_RE.match(s)
    if m is not None:
        n = _num_of(m.group(1))
        unit = m.group(2).lower()
        if n is not None:
            if unit == "decade":
                return f"P{10 * n}Y"
            if unit == "centur":
                return f"P{100 * n}Y"
            if unit in _DUR_UNITS:
                desig, is_time = _DUR_UNITS[unit]
                return f"PT{n}{desig}" if is_time else f"P{n}{desig}"
    low = s.lower()
    hol_year = None
    hol_phrase = low
    toks = s.split(" ")
    if toks and len(toks[-1]) == 4 and toks[-1].isdigit() \
            and toks[-1][0] in "12":
        hol_year = int(toks[-1])
        hol_phrase = " ".join(toks[:-1]).lower().rstrip(" ,")
    if doc_date is not None:
        import datetime
        try:
            anchor = datetime.date.fromisoformat(doc_date)
        except ValueError:
            anchor = None
        if anchor is not None:
            rel = _relative_to(s, anchor)
            if rel is not None:
                return rel
            if hol_year is None:
                hol = _holiday_of(hol_phrase, anchor.year)
                if hol is not None:
                    return hol
    if hol_year is not None:
        hol = _holiday_of(hol_phrase, hol_year)
        if hol is not None:
            return hol
    m = _NUMERIC_DATE_RE.match(s)
    if m is not None:
        mm, dd, yyyy = int(m.group(1)), int(m.group(2)), m.group(3)
        if mm > 12 and dd <= 12:        # unambiguous DD/MM/YYYY
            mm, dd = dd, mm
        if 1 <= mm <= 12 and 1 <= dd <= 31:
            return f"{yyyy}-{mm:02d}-{dd:02d}"
        return f"{yyyy}-XX-XX"
    toks = s.split(" ")
    month = day = season = None
    year = None
    for t in toks:
        if t in _MONTH_NUM:
            month = _MONTH_NUM[t]
        elif t.isdigit() and len(t) == 4 and t[0] in "12":
            year = t
        elif t.isdigit() and 1 <= int(t) <= 31 and day is None:
            day = int(t)
        elif t.lower() in _SEASONS:
            season = _SEASONS[t.lower()]
        else:
            om = _ORDINAL_RE.match(t)
            if om is not None and day is None \
                    and 1 <= int(om.group(1)) <= 31:
                day = int(om.group(1))
    if year is None:
        return None
    if month is None:
        if season is not None:
            return f"{year}-{season}"
        return f"{year}-XX-XX"
    if day is None:
        return f"{year}-{month:02d}-XX"
    return f"{year}-{month:02d}-{day:02d}"


_JSON_INT_RES: dict = {}


def json_int_field(strings, field: str):
    """Vectorized extraction of an integer field from a flat-JSON
    string column: returns a pandas nullable-Int64 Series (null where
    the field is absent or non-integer). Regex-based on purpose — a
    per-row ``json.loads`` is a Python-loop anti-pattern in a
    ``map_batches`` hot path, and the single-level key:number shape
    covers event ``props`` payloads; nested documents should be
    decoded once into typed columns at ingest instead."""
    import re as _re

    import pandas as pd
    rx = _JSON_INT_RES.get(field)
    if rx is None:
        rx = _JSON_INT_RES[field] = _re.compile(
            r'"' + _re.escape(field) + r'"\s*:\s*(-?\d+)\s*[,}]')
    s = strings if isinstance(strings, pd.Series) \
        else pd.Series(strings)
    return s.str.extract(rx, expand=False).astype("Int64")
