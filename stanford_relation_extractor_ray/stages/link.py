"""Entity linking: map observed surface forms to canonical entities.

Ray-Data shape of the reference's entity linker
(``kbp/entitylinking/EntityLinker.java:293-330`` token-overlap scoring,
``WikidictEntityLinker.java:79-126`` alias index, nickname maps
``EntityLinker.java:51-55``, acronyms ``AcronymMatcher.java:70-86``):
the broadcast alias dictionary is ``ray.put`` once on the driver and
turned into an ``EntityLinker`` once per worker process
(``_cached_linker``, NOT per batch), with token-blocked candidate
scoring per unknown surface and a per-linker memo cache.

Subjects (always PERSON/ORGANIZATION) and PERSON/ORGANIZATION slot
values are canonicalized; other slot types pass through unchanged.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import approx_match_score, is_acronym_of, \
    normalize_tokens
from ..world import NICKNAMES, get_world


def build_alias_ref(seed: int = 42):
    """Driver-side: broadcast the alias table once (``ray.put``)."""
    import ray
    return ray.put(get_world(seed).alias_table())


class EntityLinker:
    """Batch transform canonicalizing candidate rows."""

    THRESHOLDS = {"PERSON": 0.49, "ORGANIZATION": 0.79}

    def __init__(self, aliases_ref=None, seed: int = 42,
                 keep_raw: bool = False):
        self.keep_raw = keep_raw
        if aliases_ref is not None:
            import ray
            alias_rows = ray.get(aliases_ref)
        else:
            alias_rows = get_world(seed).alias_table()
        self.exact: dict[tuple[str, str], str] = {}
        self.by_token: dict[str, set[str]] = {}
        self.types: dict[str, str] = {}
        world = get_world(seed)
        for surface, canonical, _score in alias_rows:
            ent = world.by_name.get(canonical)
            etype = ent.type if ent else "ORGANIZATION"
            self.exact[(surface, etype)] = canonical
            self.types[canonical] = etype
            for tok in normalize_tokens(surface):
                self.by_token.setdefault(tok, set()).add(canonical)
        self.nicknames = {v.lower(): k.lower()
                          for k, v in NICKNAMES.items()}
        self._memo: dict[tuple[str, str], str] = {}

    def resolve(self, surface: str, etype: str) -> str:
        hit = self.exact.get((surface, etype))
        if hit is not None:
            return hit
        key = (surface, etype)
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        # token/acronym blocking → candidate set → overlap scoring
        cands: set[str] = set()
        for tok in normalize_tokens(surface):
            cands |= self.by_token.get(tok, set())
            nick = self.nicknames.get(tok)
            if nick:
                cands |= self.by_token.get(nick, set())
        if surface.isupper():
            cands |= {c for toks in (surface,) for c in self.types
                      if is_acronym_of(surface, c)}
        best, best_score = surface, self.THRESHOLDS.get(etype, 0.79)
        for cand in sorted(cands):
            if self.types.get(cand) != etype:
                continue
            s = approx_match_score(surface, cand, self.nicknames)
            if s > best_score or (s == best_score and best != surface
                                  and cand < best):
                best, best_score = cand, s
        self._memo[key] = best
        return best

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Canonicalize subjects always; canonicalize PERSON/ORG objects
        only when a ``pred`` column is present (i.e. post-classification,
        mirroring the reference's postprocessing-time linking) and the
        relation is not ``*:alternate_names`` — an alternate-name value IS
        the alias and must stay a surface form.

        With ``self.keep_raw`` the pre-linking subject surface is kept
        as a ``raw_subj`` column (alternate-names evidence,
        stages/altnames.py).
        """
        subj = batch.column("subj").to_pylist()
        subj_t = batch.column("subj_type").to_pylist()
        new_subj = [self.resolve(s, t) for s, t in zip(subj, subj_t)]
        out = batch.set_column(batch.schema.get_field_index("subj"),
                               "subj", pa.array(new_subj, pa.string()))
        if getattr(self, "keep_raw", False):
            out = out.append_column("raw_subj", pa.array(subj, pa.string()))
        return link_objects(out, self) if "pred" in out.column_names \
            else out


LINKABLE_TYPES = ("PERSON", "ORGANIZATION")


def link_objects(tbl: pa.Table, linker) -> pa.Table:
    """Canonicalize PERSON/ORGANIZATION objects — not
    ``*alternate_names`` values, which ARE the alias — with
    ``linker.resolve`` once per DISTINCT (obj, obj_type): dictionary-
    encode, resolve the dictionary, gather back (the scorer's
    ``_resolve_memo`` idiom). The pre-link object is kept as
    ``raw_obj``: the greedy comparator's deterministic tie-break
    between fills whose objects link to one canonical."""
    obj = tbl.column("obj").combine_chunks()
    linkable = pc.fill_null(pc.and_(
        pc.is_in(tbl.column("obj_type"),
                 value_set=pa.array(LINKABLE_TYPES)),
        pc.invert(pc.ends_with(tbl.column("pred"), "alternate_names"))),
        False).combine_chunks()
    sel = tbl.filter(linkable)
    # types carry no \x1f, so splitting at the first one is exact
    key = pc.binary_join_element_wise(
        sel.column("obj_type"), sel.column("obj"), "\x1f") \
        .combine_chunks().dictionary_encode()
    canon = [linker.resolve(o, t) for t, o in
             (k.split("\x1f", 1) for k in key.dictionary.to_pylist())]
    linked = pa.array(canon, obj.type).take(key.indices)
    return tbl.set_column(tbl.schema.get_field_index("obj"), "obj",
                          pc.replace_with_mask(obj, linkable, linked)) \
        .append_column("raw_obj", obj)


def _cached_linker(aliases_ref, seed: int,
                   keep_raw: bool = False) -> EntityLinker:
    """This worker process's linker over ``aliases_ref``."""
    from ..runtime import ref_key, worker_cached
    return worker_cached(
        "linker", (ref_key(aliases_ref), seed, keep_raw),
        lambda: EntityLinker(aliases_ref, seed, keep_raw=keep_raw))


def alias_dataset(seed: int = 42):
    """The alias table as a Dataset (surface, canonical, type) — the
    wikidict-scale form: when the index is too big to broadcast
    (the reference's wikidict is a Lucene index for this reason,
    ``WikidictEntityLinker.java:79-126``), linking becomes a
    distributed join against this table instead of a ``ray.put``."""
    import ray.data as rd
    world = get_world(seed)
    rows = []
    for surface, canonical, _score in world.alias_table():
        ent = world.by_name.get(canonical)
        rows.append({"surface": surface, "canonical": canonical,
                     "type": ent.type if ent else "ORGANIZATION"})
    return rd.from_items(rows)


def link_via_join(candidates, aliases, *, surface_col: str = "subj",
                  type_col: str = "subj_type"):
    """Sharded exact-alias linking: candidates ⋈ aliases on the
    surface form via a two-sided coarse-pid ``by_key`` join — the
    scale path when the alias index exceeds broadcast size. Exact hits
    are rewritten to their canonical; misses pass through unchanged
    (fuzzy resolution stays in the per-worker linker, which handles
    the small residue). Wikidict-faithful: the reference's wikidict is
    likewise an exact surface → article index."""
    from ..runtime import by_key, renamed

    def join(cands: pa.Table, alias: pa.Table) -> pa.Table:
        # deterministic on ambiguous surfaces (the norm at wikidict
        # scale): smallest canonical wins, independent of the
        # group-internal row order Ray does not guarantee
        amap: dict[tuple, str] = {}
        for s, t, c in zip(alias.column(surface_col).to_pylist(),
                           alias.column(type_col).to_pylist(),
                           alias.column("canonical").to_pylist()):
            if (s, t) not in amap or c < amap[(s, t)]:
                amap[(s, t)] = c
        new_subj = [amap.get((s, t)) or s for s, t in zip(
            cands.column(surface_col).to_pylist(),
            cands.column(type_col).to_pylist())]
        return cands.set_column(
            cands.schema.get_field_index(surface_col), surface_col,
            pa.array(new_subj, pa.string()))

    # the candidate schema is open: whatever columns the caller has
    cand_schema = candidates.schema().base_schema
    alias_side = pa.schema([(surface_col, pa.string()),
                            (type_col, pa.string()),
                            ("canonical", pa.string())])
    return by_key([(candidates, cand_schema),
                   (renamed(aliases, {"surface": surface_col,
                                      "type": type_col}), alias_side)],
                  surface_col, join)


def linking_features(surface: str, candidate: str,
                     nicknames: dict) -> list[float]:
    """Feature vector for a (surface, candidate-entity) pair — the
    ``EntityLinkingFeaturizer`` analog (reference: 1,359 LoC of
    features; this covers the families its trained linker weights most:
    overlap score, acronym, edit distance, nickname, boundary-token
    agreement, length difference)."""
    from ..functions.text import approx_match_score, is_acronym_of, \
        levenshtein
    s_toks = surface.lower().split()
    c_toks = candidate.lower().split()
    overlap = approx_match_score(surface, candidate, nicknames)
    acro = 1.0 if (is_acronym_of(surface, candidate)
                   or is_acronym_of(candidate, surface)) else 0.0
    dist = levenshtein(surface.lower(), candidate.lower())
    nick = 1.0 if any(nicknames.get(a) == b or nicknames.get(b) == a
                      for a in s_toks for b in c_toks) else 0.0
    return [
        overlap,
        acro,
        1.0 if dist <= 1 else 0.0,
        min(dist, 10) / 10.0,
        nick,
        1.0 if s_toks and c_toks and s_toks[0] == c_toks[0] else 0.0,
        1.0 if s_toks and c_toks and s_toks[-1] == c_toks[-1] else 0.0,
        abs(len(s_toks) - len(c_toks)) / 5.0,
    ]


class TrainedLinker(EntityLinker):
    """EntityLinker whose accept/reject decision is a trained binary
    LR over ``linking_features`` instead of fixed per-type thresholds —
    the ``TrainedEntityLinker`` analog (``kbp/entitylinking/
    TrainedEntityLinker.java``). Training pairs come from the broadcast
    alias table itself: (alias, canonical) positives vs (alias, other
    same-type entity) negatives; deterministic seeded SGD in
    ``__init__`` (once per worker)."""

    def __init__(self, aliases_ref=None, seed: int = 42,
                 keep_raw: bool = False, epochs: int = 20):
        super().__init__(aliases_ref, seed, keep_raw)
        import numpy as np
        rng = np.random.default_rng(seed)
        by_type: dict[str, list[str]] = {}
        for canon, etype in self.types.items():
            by_type.setdefault(etype, []).append(canon)
        X, y = [], []
        for (surface, etype), canon in sorted(self.exact.items()):
            if surface == canon:
                continue
            X.append(linking_features(surface, canon, self.nicknames))
            y.append(1.0)
            others = [c for c in by_type.get(etype, ()) if c != canon]
            if others:
                neg = others[int(rng.integers(len(others)))]
                X.append(linking_features(surface, neg, self.nicknames))
                y.append(0.0)
        Xm = np.array(X) if X else np.zeros((0, 8))
        ym = np.array(y)
        w = np.zeros(Xm.shape[1])
        b = 0.0
        lr = 0.5
        for _ in range(epochs):
            for i in rng.permutation(len(ym)):
                p = 1.0 / (1.0 + np.exp(-np.clip(
                    b + Xm[i] @ w, -30, 30)))
                g = lr * (p - ym[i])
                b -= g
                w -= g * Xm[i]
            lr *= 0.9
        self._w, self._b = w, b

    def _accept_prob(self, surface: str, cand: str) -> float:
        import numpy as np
        f = np.array(linking_features(surface, cand, self.nicknames))
        return 1.0 / (1.0 + np.exp(-np.clip(
            self._b + f @ self._w, -30, 30)))

    def resolve(self, surface: str, etype: str) -> str:
        hit = self.exact.get((surface, etype))
        if hit is not None:
            return hit
        key = (surface, etype)
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        cands: set[str] = set()
        for tok in normalize_tokens(surface):
            cands |= self.by_token.get(tok, set())
            nick = self.nicknames.get(tok)
            if nick:
                cands |= self.by_token.get(nick, set())
        best, best_p = surface, 0.5
        for cand in sorted(cands):
            if self.types.get(cand) != etype:
                continue
            p = self._accept_prob(surface, cand)
            if p > best_p or (p == best_p and best != surface
                              and cand < best):
                best, best_p = cand, p
        self._memo[key] = best
        return best


def link(ds, *, aliases_ref=None, seed: int = 42,
         batch_size: int = 4096):
    """Link a candidates dataset (subjects) or a fills dataset
    (subjects + objects; detected via the ``pred`` column).

    Stateless tasks, not an actor pool: the alias dictionary is built
    once per WORKER PROCESS (``_cached_linker`` — Ray reuses worker
    processes across tasks) from the broadcast ``aliases_ref``. A
    dedicated pool here reserved CPUs for the whole pipeline lifetime
    and added ~1 s of pool spin-up to every run, while the post-combine
    fills table this stage usually sees is tiny; plain tasks use
    whatever CPUs the moment offers.
    """
    def fn(batch: pa.Table) -> pa.Table:
        return _cached_linker(aliases_ref, seed)(batch)

    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size)
