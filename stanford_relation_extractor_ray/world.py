"""Deterministic closed world for the synthetic interleaved corpus.

The world is built once from a seed (default 42): ~50 PERSON/ORGANIZATION
entities with aliases (nicknames, acronyms, corporate-suffix variants),
typed slot-value vocabularies for every NER tag the 42 relations use, and
a consistent fact table (relation cardinality respected). The corpus
generator (corpus.py), the NER lexicon (stages/nlp.py), the entity linker
(stages/link.py) and the pure-Python test oracle
(tests/oracle_extractor.py) all derive from this one object, so
extraction parity is a property of the pipeline, not of shared lookups
into gold data.

Mirrors the reference fixtures' world (FIXTURES.md; reference test
fixtures ``PostProcessorsData.java``) in spirit: closed entity set, alias
dictionary with acronym/nickname/suffix variants, facts for distant
supervision (``kbp/slotfilling/ir/KBPIR.java:165-178`` KB shape).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .vocab import RELATIONS

FIRST_NAMES = [
    "Robert", "Julie", "Margaret", "William", "Elena", "Thomas", "Sofia",
    "Henry", "Amara", "David", "Ingrid", "Carlos", "Mei", "Samuel",
    "Priya", "Oliver", "Fatima", "George", "Hannah", "Victor",
]
NICKNAMES = {"Robert": "Bob", "William": "Bill", "Margaret": "Peggy",
             "Thomas": "Tom", "Henry": "Hank", "David": "Dave",
             "Samuel": "Sam", "George": "Geo"}
LAST_NAMES = [
    "Smith", "Okafor", "Johansson", "Marquez", "Tanaka", "Novak",
    "Abebe", "Laurent", "Petrov", "Kaur", "Whitfield", "Osei",
    "Lindqvist", "Moreau", "Castellanos",
]
ORG_ADJ = ["Acme", "Borealis", "Cascade", "Meridian", "Quantum",
           "Vanguard", "Zenith", "Pinnacle", "Harbor", "Sterling"]
ORG_NOUN = ["Dynamics", "Holdings", "Industries", "Systems", "Logistics",
            "Analytics", "Robotics", "Energy"]
ORG_SUFFIX = ["Corporation", "Group", "Institute", "Foundation",
              "Partners", "Laboratories"]
SCHOOL_NAMES = ["Northfield University", "Lakeside College",
                "Westbrook Institute of Technology", "Eastgate University",
                "Southern Polytechnic Academy", "Riverton University"]
CITIES = ["Toronto", "Marseille", "Osaka", "Cartagena", "Tbilisi",
          "Porto", "Adelaide", "Windhoek", "Krakow", "Tampere",
          "Valparaiso", "Galway"]
COUNTRIES = ["Canada", "France", "Japan", "Colombia", "Georgia",
             "Portugal", "Australia", "Namibia", "Poland", "Finland"]
NATIONALITIES = {"Canada": "Canadian", "France": "French",
                 "Japan": "Japanese", "Colombia": "Colombian",
                 "Georgia": "Georgian", "Portugal": "Portuguese",
                 "Australia": "Australian", "Namibia": "Namibian",
                 "Poland": "Polish", "Finland": "Finnish"}
STATES = ["Ontario", "Provence", "Kansai", "Bolivar", "Kakheti",
          "Alentejo", "Queensland", "Mazovia"]
TITLES = ["chief executive", "senior engineer", "spokesperson",
          "treasurer", "professor", "curator", "violinist", "surgeon"]
RELIGIONS = ["Buddhism", "Catholicism", "Islam", "Judaism", "Hinduism"]
IDEOLOGIES = ["environmentalism", "federalism", "mutualism",
              "cooperativism"]
CHARGES = ["tax evasion", "insider trading", "embezzlement", "fraud",
           "perjury", "bribery"]
# no determiner-initial values: the same-NER-run slot scan's POS rules
# (SlotMentionAnnotator.java:148-152) never start a slot on DT
CAUSES = ["pneumonia", "heart failure", "malaria", "sepsis",
          "complications of influenza", "stroke"]
MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]

# sentences that mention entities but assert no KBP relation (distractors)
DISTRACTOR_PHRASES = [
    "met with", "commented on reports about", "visited the offices of",
    "spoke at length about", "was photographed near",
    "declined to answer questions regarding",
]
NOISE_SENTENCES = [
    "Markets were mixed across the region on Tuesday .",
    "The weather forecast calls for rain later this week .",
    "Officials did not respond to requests for comment .",
    "The quarterly report is expected next month .",
    "Traffic along the coastal highway remained heavy .",
]


# stopwords skipped when deriving an acronym (PostIRAnnotator.java:
# 1002-1010 skips dictionary stopwords when matching acronym chars)
ACRONYM_STOPWORDS = frozenset({"of", "the", "and", "for"})


def acronym_of(surface: str) -> str | None:
    """Stopword-skipping initialism of a ≥3-content-token surface
    ("Westbrook Institute of Technology" → "WIT"); None when too short
    (the reference requires ≥3 entity tokens and a ≥3-char acronym,
    ``PostIRAnnotator.java:999``)."""
    toks = [t for t in surface.split() if t.lower() not in
            ACRONYM_STOPWORDS]
    if len(toks) < 3:
        return None
    ac = "".join(t[0].upper() for t in toks if t)
    return ac if len(ac) >= 3 else None


@dataclass
class Entity:
    canonical: str
    type: str                       # PERSON | ORGANIZATION
    aliases: list = field(default_factory=list)   # non-canonical surfaces
    is_school: bool = False


class World:
    """The deterministic closed world (seeded; default seed 42)."""

    def __init__(self, seed: int = 42):
        rng = random.Random(seed)
        self.seed = seed
        self.persons: list[Entity] = []
        self.orgs: list[Entity] = []

        used = set()
        for i in range(28):
            first = FIRST_NAMES[i % len(FIRST_NAMES)]
            last = LAST_NAMES[(i * 7 + i // len(FIRST_NAMES))
                              % len(LAST_NAMES)]
            name = f"{first} {last}"
            if name in used:
                continue
            used.add(name)
            aliases = []
            if first in NICKNAMES:
                aliases.append(f"{NICKNAMES[first]} {last}")
            self.persons.append(Entity(name, "PERSON", aliases))

        for i in range(14):
            adj = ORG_ADJ[i % len(ORG_ADJ)]
            noun = ORG_NOUN[(i * 3) % len(ORG_NOUN)]
            suffix = ORG_SUFFIX[i % len(ORG_SUFFIX)]
            name = f"{adj} {noun} {suffix}"
            acronym = "".join(w[0] for w in name.split())
            # corporate-suffix variant ("Acme Dynamics") + acronym ("ADC")
            aliases = [f"{adj} {noun}", acronym]
            self.orgs.append(Entity(name, "ORGANIZATION", aliases))
        for name in SCHOOL_NAMES:
            self.orgs.append(Entity(name, "ORGANIZATION", [], True))

        self.entities: list[Entity] = self.persons + self.orgs
        self.by_name = {e.canonical: e for e in self.entities}

        # slot-value vocabulary per NER tag
        self.slot_values: dict[str, list[str]] = {
            "CITY": CITIES,
            "COUNTRY": COUNTRIES,
            "STATE_OR_PROVINCE": STATES,
            "NATIONALITY": sorted(NATIONALITIES.values()),
            "TITLE": TITLES,
            "RELIGION": RELIGIONS,
            "IDEOLOGY": IDEOLOGIES,
            "CRIMINAL_CHARGE": CHARGES,
            "CAUSE_OF_DEATH": CAUSES,
            "DATE": [f"{MONTHS[rng.randrange(12)]} "
                     f"{rng.randrange(1, 29)} , {rng.randrange(1930, 2010)}"
                     for _ in range(40)],
            "NUMBER": [str(n) for n in
                       sorted(rng.sample(range(18, 99000), 40))],
            "URL": [f"www.{e.canonical.split()[0].lower()}"
                    f"{e.canonical.split()[1].lower()}.example.org"
                    for e in self.orgs],
        }

        # consistent fact table: entity canonical -> [(relation, obj, obj_type)]
        self.facts: dict[str, list[tuple[str, str, str]]] = {}
        for ent in self.entities:
            facts = []
            rels = [r for r in RELATIONS.values()
                    if r.entity_type == ent.type
                    and not r.name.endswith("alternate_names")]
            for rel in rels:
                # deterministic subset: ~55% of applicable relations
                if rng.random() > 0.55:
                    continue
                n_vals = 1 if rel.cardinality == "SINGLE" \
                    else rng.choice([1, 1, 2])
                chosen: set[str] = set()
                for _ in range(n_vals):
                    obj_type = rng.choice(rel.slot_types)
                    obj = self._pick_value(rng, ent, rel.name, obj_type)
                    if obj is None or obj in chosen:
                        continue
                    chosen.add(obj)
                    facts.append((rel.name, obj, obj_type))
            # KB coherence: a location of death implies a (known)
            # date of death — the MitigateLocOfDeath consistency rule
            # (HeuristicSlotfillPostProcessors.java:792-812) drops
            # loc-of-death fills without one, so a coherent world
            # never plans the unsupported case
            has_loc_death = any("_of_death" in r and "date" not in r
                                and "cause" not in r
                                for r, _o, _t in facts)
            has_date_death = any(r == "per:date_of_death"
                                 for r, _o, _t in facts)
            if has_loc_death and not has_date_death:
                facts.append(
                    ("per:date_of_death",
                     rng.choice(self.slot_values["DATE"]), "DATE"))
            # alternate-names facts from aliases
            for al in ent.aliases:
                rel_name = ("per:alternate_names" if ent.type == "PERSON"
                            else "org:alternate_names")
                facts.append((rel_name, al, ent.type))
            self.facts[ent.canonical] = facts

        # doc-coref-able short references (the surfaces
        # PostIRAnnotator-style document coref can recover): a
        # world-unique person last name, or a world-unique stopword-
        # skipping acronym of an org whose acronym is NOT already an
        # alias (i.e. not in the NER lexicon — schools here). The
        # corpus generator only plants these, so every planted short
        # reference is resolvable by doc-level uniqueness.
        lex = self.ner_lexicon()
        last_counts: dict[str, int] = {}
        for p in self.persons:
            ln = p.canonical.split()[-1]
            last_counts[ln] = last_counts.get(ln, 0) + 1
        self.short_refs: dict[str, str] = {}
        for p in self.persons:
            ln = p.canonical.split()[-1]
            if last_counts[ln] == 1 and ln not in lex \
                    and ln not in FIRST_NAMES:
                self.short_refs[p.canonical] = ln
        acro_counts: dict[str, int] = {}
        canon_acro: dict[str, str] = {}
        for o in self.orgs:
            for s in [o.canonical] + o.aliases:
                ac = acronym_of(s)
                if ac is not None:
                    acro_counts[ac] = acro_counts.get(ac, 0) + 1
                    if s == o.canonical:
                        canon_acro[o.canonical] = ac
        for o in self.orgs:
            ac = canon_acro.get(o.canonical)
            if ac is not None and acro_counts[ac] == 1 \
                    and ac not in lex:
                self.short_refs[o.canonical] = ac

    def _pick_value(self, rng, ent, rel_name, obj_type):
        if rel_name == "per:age":
            # plausible human ages — the generic NUMBER pool (18..99k)
            # planted gold ages the reference's SanityCheckFilter
            # (age ≤ 125) correctly rejects
            return str(rng.randrange(18, 100))
        if obj_type in ("PERSON", "ORGANIZATION"):
            pool = self.persons if obj_type == "PERSON" else self.orgs
            if rel_name == "per:schools_attended":
                pool = [o for o in self.orgs if o.is_school]
            elif obj_type == "ORGANIZATION":
                pool = [o for o in pool if not o.is_school]
            cands = [e.canonical for e in pool if e.canonical != ent.canonical]
            return rng.choice(cands) if cands else None
        if obj_type == "URL":
            base = ent.canonical.split()
            return (f"www.{base[0].lower()}{base[1].lower()}.example.org"
                    if len(base) > 1 else None)
        return rng.choice(self.slot_values[obj_type])

    # ---- derived lookup tables (broadcast to workers) -------------------

    def word_clusters(self) -> dict[str, str]:
        """word → cluster id: the deterministic stand-in for the
        reference's Brown-cluster side file (``egw4-reut.512.clusters``
        loaded at ``FeatureFactory.java:64-77``). Brown clusters group
        distributionally-similar words; this rebuild derives the same
        *shape* of grouping from the closed world's semantic classes
        (all city tokens cluster together, all title tokens together,
        first/last name tokens by role), sub-bucketed by a stable
        crc32 so cluster granularity resembles a 512-cluster file.
        Partial by design — the reference map also only covers its
        vocabulary (``clusters.containsKey`` guards every use)."""
        if getattr(self, "_word_clusters", None) is not None:
            return self._word_clusters
        import zlib
        out: dict[str, str] = {}

        def put(word: str, klass: str):
            out.setdefault(
                word, f"{klass}{zlib.crc32(word.encode()) % 8}")

        for tag, values in self.slot_values.items():
            if tag in ("DATE", "NUMBER", "URL"):
                continue
            for v in values:
                for tok in v.split():
                    put(tok, tag.lower())
        for p in self.persons:
            first, last = p.canonical.split()[0], p.canonical.split()[-1]
            put(first, "firstname")
            put(last, "lastname")
        for o in self.orgs:
            for tok in o.canonical.split():
                put(tok, "orgword")
        self._word_clusters = out
        return out

    def ner_lexicon(self) -> dict[str, str]:
        """surface → NER tag, for the longest-match lexicon NER stage."""
        lex: dict[str, str] = {}
        for tag, values in self.slot_values.items():
            if tag in ("DATE", "NUMBER", "URL"):
                continue        # matched by regex, not lexicon
            for v in values:
                lex[v] = tag
        for ent in self.entities:
            lex[ent.canonical] = ent.type
            for al in ent.aliases:
                lex[al] = ent.type
        return lex

    def alias_table(self) -> list[tuple[str, str, float]]:
        """(surface, canonical, score) rows — the broadcast linking dict
        (reference: WikidictEntityLinker.java:79-126 + nickname maps)."""
        rows = []
        for ent in self.entities:
            rows.append((ent.canonical, ent.canonical, 1.0))
            for al in ent.aliases:
                rows.append((al, ent.canonical, 0.9))
        return rows

    def kb_triples(self) -> list[tuple[str, str, str, str, str]]:
        """(entity_name, entity_type, relation, slot_value, slot_type) —
        the distant-supervision KB (reference: KBPIR.java:165-178)."""
        rows = []
        for ent in self.entities:
            for rel, obj, obj_type in self.facts[ent.canonical]:
                rows.append((ent.canonical, ent.type, rel, obj, obj_type))
        return rows


_WORLD_CACHE: dict[int, World] = {}


def get_world(seed: int = 42) -> World:
    """Memoized world constructor (cheap, but called in every worker)."""
    if seed not in _WORLD_CACHE:
        _WORLD_CACHE[seed] = World(seed)
    return _WORLD_CACHE[seed]
