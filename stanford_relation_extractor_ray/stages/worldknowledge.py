"""Geographic world-knowledge post-processing (SURVEY.md §2.2).

Ray-Data shape of the reference's ``WorldKnowledgePostProcessor``
(``kbp/slotfilling/evaluate/WorldKnowledgePostProcessor.java`` —
city→region→country maps, validity checks & rewrites; RD note:
"broadcast side tables + per-row fn"): the side tables below are
module constants (equivalently a ``ray.put`` broadcast at real scale),
every transform is a stateless ``map_batches``.

Operations (each opt-in — they trade recall for precision exactly as
the reference gates them behind config):

- ``normalize_origin`` — rewrite nationality slot values to their
  country (``per:origin``: "Canadian" → "Canada"), the reference's
  demonym normalization.
- ``infer_country_fills`` — a city/state birth/death/residence/
  headquarters fill whose city has a known country implies the
  corresponding country relation (damped score) when absent.
- ``geo_consistency`` — drop location fills of one subject whose
  city and country (for the same event: birth, death, headquarters)
  contradict the city→country table, keeping the higher-scored side.
"""

from __future__ import annotations

import pyarrow as pa

from ..schemas import FILLS_SCHEMA
from ..world import NATIONALITIES

CITY_TO_COUNTRY = {
    "Toronto": "Canada", "Marseille": "France", "Osaka": "Japan",
    "Cartagena": "Colombia", "Tbilisi": "Georgia", "Porto": "Portugal",
    "Adelaide": "Australia", "Windhoek": "Namibia", "Krakow": "Poland",
    "Tampere": "Finland",
}
STATE_TO_COUNTRY = {
    "Ontario": "Canada", "Provence": "France", "Kansai": "Japan",
    "Bolivar": "Colombia", "Kakheti": "Georgia", "Alentejo": "Portugal",
    "Queensland": "Australia", "Mazovia": "Poland",
}
NATIONALITY_TO_COUNTRY = {v: k for k, v in NATIONALITIES.items()}

# (city_relation, country_relation) pairs describing the same event
GEO_PAIRS = [
    ("per:city_of_birth", "per:country_of_birth"),
    ("per:city_of_death", "per:country_of_death"),
    ("per:cities_of_residence", "per:countries_of_residence"),
    ("org:city_of_headquarters", "org:country_of_headquarters"),
]
INFER_DAMPING = 0.85


def normalize_origin(fills):
    """per:origin nationality values → country names (vectorized)."""

    def fn(batch: pa.Table) -> pa.Table:
        pred = batch.column("pred").to_pylist()
        obj = batch.column("obj").to_pylist()
        objt = batch.column("obj_type").to_pylist()
        new_obj, new_t = [], []
        for p, o, t in zip(pred, obj, objt):
            if p == "per:origin" and o in NATIONALITY_TO_COUNTRY:
                new_obj.append(NATIONALITY_TO_COUNTRY[o])
                new_t.append("COUNTRY")
            else:
                new_obj.append(o)
                new_t.append(t)
        i = batch.column_names.index("obj")
        batch = batch.set_column(i, "obj", pa.array(new_obj, pa.string()))
        i = batch.column_names.index("obj_type")
        return batch.set_column(i, "obj_type",
                                pa.array(new_t, pa.string()))

    return fills.map_batches(fn, batch_format="pyarrow")


def infer_country_fills(fills):
    """Emit damped country fills implied by city fills (flat-map; the
    per-triple dedup against existing fills is the caller's combine)."""
    city_to_country_rel = dict(GEO_PAIRS)

    def fn(batch: pa.Table) -> pa.Table:
        names = FILLS_SCHEMA.names
        cols = {n: batch.column(n).to_pylist() for n in names}
        out = {n: [] for n in names}
        for i in range(batch.num_rows):
            crel = city_to_country_rel.get(cols["pred"][i])
            country = CITY_TO_COUNTRY.get(cols["obj"][i])
            if crel is None or country is None:
                continue
            out["subj"].append(cols["subj"][i])
            out["subj_type"].append(cols["subj_type"][i])
            out["pred"].append(crel)
            out["obj"].append(country)
            out["obj_type"].append("COUNTRY")
            out["score"].append(cols["score"][i] * INFER_DAMPING)
            out["doc_id"].append(cols["doc_id"][i])
            out["sent_idx"].append(cols["sent_idx"][i])
            out["subj_span"].append(cols["subj_span"][i])
            out["obj_span"].append(cols["obj_span"][i])
        return pa.Table.from_arrays(
            [pa.array(out[n], t) for n, t in
             zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
            schema=FILLS_SCHEMA)

    return fills.map_batches(fn, batch_format="pyarrow")


def geo_consistency(fills):
    """Per-subject: where a city fill and a country fill describe the
    same event but the city's known country differs, drop the
    lower-scored side. Coarse hash(subj) partitions (the consistency
    pattern)."""
    from ..runtime import by_key

    def run_partition(group: pa.Table) -> pa.Table:
        names = [n for n in group.column_names if n != "pid"]
        rows = [dict(zip(names, vals))
                for vals in zip(*(group.column(c).to_pylist()
                                  for c in names))]
        by_subj: dict[str, list[dict]] = {}
        for r in rows:
            by_subj.setdefault(r["subj"], []).append(r)
        drop = set()
        for subj, rs in by_subj.items():
            for city_rel, country_rel in GEO_PAIRS:
                cities = [r for r in rs if r["pred"] == city_rel]
                countries = [r for r in rs if r["pred"] == country_rel]
                for c in cities:
                    known = CITY_TO_COUNTRY.get(c["obj"])
                    if known is None:
                        continue
                    for k in countries:
                        if k["obj"] != known:
                            loser = c if c["score"] < k["score"] else k
                            drop.add(id(loser))
        kept = [r for r in rows if id(r) not in drop]
        if not kept:
            return FILLS_SCHEMA.empty_table()
        return pa.Table.from_arrays(
            [pa.array([r[n] for r in kept], t) for n, t in
             zip(FILLS_SCHEMA.names, FILLS_SCHEMA.types)],
            schema=FILLS_SCHEMA)

    return by_key(fills, "subj", run_partition)


class Geography:
    """Level lookups over the broadcast geo tables — the reference's
    ``Utils.geography().isValidCountry/Region/City`` surface
    (``WorldKnowledgePostProcessor.java`` validity checks)."""

    def __init__(self):
        from ..world import CITIES, COUNTRIES, STATES
        self._cities = frozenset(CITIES)
        self._countries = frozenset(COUNTRIES)
        self._regions = frozenset(STATES)

    def is_country(self, name: str) -> bool:
        return name in self._countries

    def is_region(self, name: str) -> bool:
        return name in self._regions

    def is_city(self, name: str) -> bool:
        return name in self._cities


_GEO = None


def get_geography() -> Geography:
    global _GEO
    if _GEO is None:
        _GEO = Geography()
    return _GEO
