"""Probabilistic graph inference (the MLN / BLN family) — SURVEY.md
§2.10's secondary path: reference ``evaluate/inference/BayesNet.java``
(binary-variable net, seeded multi-chain Gibbs MAP/marginals with
random restarts and periodic deterministic hill-climb),
``BayesNetBuilder.java`` (entailment factors: all-antecedents-true →
a CPT on the consequent, rule weight → probability through a clipped
log-odds transform), ``BayesianLogicNetwork.java`` (greedy acyclic
rule selection) and ``ProbabilisticGraphInferenceEngine.java``
(evidence → weighted priors, per-query-entity rule filtering). The
path is OFF by default in the reference (``test.graph.inference.do``)
and was graded out of scope for parity — this module implements it
anyway as a first-class Ray stage.

Ray-Data shape: inference pivots on a query entity over its bounded
neighborhood (``InferentialSlotFiller`` prunes to graph distance ≤ 4
before inferring), so the dataflow is

1. ``graph_infer.neighborhood`` with one label per query entity: the
   ``(node, q)`` membership of every query's ``max_dist`` neighborhood,
   one Arrow join round per hop, held on the driver and re-broadcast
   each round. It raises once it exceeds ``graph_infer.MAX_MEMBERSHIP``
   pairs, because the tag step below copies a fill once per query whose
   neighborhood holds its subject or object (5,859 pairs over 217 nodes
   for 48 queries turn 781 fills into 36,995 tagged rows);
2. a columnar tag (the fills joined with the membership on ``subj``
   and on ``obj``, distinct per (row, q)) and ONE coarse-pid shuffle
   co-locating each query's subgraph,
3. per-query grounding + seeded Gibbs MAP inside the group. Seeds are
   content-derived (crc32 of the query) and each query's edges are
   sorted by ``EDGE_ORDER`` before grounding, which numbers literals
   and walks them in edge order: the result is the same whatever order,
   blocking, partitioning or cluster size the fills arrive with, and
4. a per-triple max combine over the union of inferred edges.

Every inferred fill carries provenance from its strongest supporting
antecedent edge, score = rule probability × min(antecedent scores)
(the ``transitive_infer`` damping convention; the reference leaves
the MAP score at +∞ and has no concrete ``apply`` in-tree).
"""

from __future__ import annotations

import itertools
import math
import re
import zlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..schemas import FILLS_SCHEMA

# BayesNetBuilder.clipLogProb bounds: rule probabilities live in
# [1e-4, 1 - 1e-4] so no factor is ever infinitely strong
_P_MIN, _P_MAX = 1e-4, 1.0 - 1e-4
# BayesNet default prior for unseen (inferred-candidate) literals
DEFAULT_PRIOR = 0.2
# probabilistic_infer grounds each query's edges in this order; rows
# equal on every one of these columns differ at most in their spans
EDGE_ORDER = ("subj", "pred", "obj", "doc_id", "sent_idx", "score",
              "subj_type", "obj_type")


@dataclass(frozen=True)
class Rule:
    """Weighted Horn clause: antecedents ⇒ consequent.

    ``weight`` is a log-odds (MLNText.Rule.weight); each literal is a
    (predicate, var1, var2) triple over variables bound within the
    rule. Clause text form: ``w  !p(x,y) v !q(y,z) v r(x,z)`` —
    negated literals are the antecedents, the single positive literal
    is the consequent (MLNReader clause convention)."""
    weight: float
    antecedents: tuple
    consequent: tuple

    @property
    def prob(self) -> float:
        return min(_P_MAX, max(_P_MIN,
                               1.0 / (1.0 + math.exp(-self.weight))))


_LIT_RE = re.compile(r"(!?)\s*([\w:._-]+)\s*\(\s*([\w'-]+)\s*,"
                     r"\s*([\w'-]+)\s*\)")


def parse_mln_rules(text: str) -> list[Rule]:
    """Parse MLN clause lines ``<weight>  !p(x,y) v !q(y,z) v r(x,z)``
    (comment lines ``//`` and bare predicate declarations skipped).
    Exactly one positive literal per clause (the consequent)."""
    rules: list[Rule] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        # weight = any float form (plain, leading/trailing dot,
        # scientific); a non-numeric first token marks a predicate
        # declaration line. A numeric weight followed by an unparsable
        # clause must ERROR, never silently drop the rule.
        head = line.split(None, 1)
        try:
            weight = float(head[0])
        except ValueError:
            continue                       # predicate declaration etc.
        if len(head) < 2:
            raise ValueError(f"weight without clause: {line!r}")
        # every ``v``-separated term must be one whole literal: a
        # partial match (``p(x,,y)``, ``p(x y)``) must not drop a term
        terms = [_LIT_RE.fullmatch(t)
                 for t in re.split(r"\s+v\s+", head[1].strip())]
        if not all(terms):
            raise ValueError(f"malformed literal in clause: {line!r}")
        ants, cons = [], []
        for neg, pred, a, b in (m.groups() for m in terms):
            (ants if neg else cons).append((pred, a, b))
        if len(cons) != 1:
            raise ValueError(
                f"clause needs exactly one positive literal: {line!r}")
        rules.append(Rule(weight, tuple(ants), cons[0]))
    return rules


def make_acyclic(rules: list[Rule], *,
                 ascending: bool = True) -> list[Rule]:
    """Greedy acyclic subset (BayesianLogicNetwork.makeAcyclic): walk
    the rules in weight order, reject any rule whose antecedent's
    ancestor set already contains its consequent predicate, fold the
    accepted rule into the ancestor map. ``ascending=True`` replicates
    the reference comparator (smallest weights first —
    ``BayesianLogicNetwork.java:36-41``); pass ``False`` to prefer
    strong rules when mining order matters more than parity."""
    orderd = sorted(rules, key=lambda r: r.weight,
                    reverse=not ascending)
    ancestors: dict[str, set[str]] = {}

    def anc(p: str) -> set[str]:
        return ancestors.setdefault(p, {p})

    kept: list[Rule] = []
    for rule in orderd:
        cons = rule.consequent[0]
        if any(cons in anc(a[0]) for a in rule.antecedents):
            continue                        # would close a loop
        kept.append(rule)
        # transitive-closure update: the reference only folds the
        # antecedents' ancestors into the consequent's set
        # (BayesianLogicNetwork.java:66-69), which leaves STALE sets
        # for predicates already downstream of the consequent and
        # admits 3-cycles like b⇒c, a⇒b, c⇒a. Propagate into every
        # set that contains the consequent so acyclicity actually
        # holds (pinned in tests/test_mln.py).
        new_anc = set()
        for a in rule.antecedents:
            new_anc |= anc(a[0])
        for p in list(ancestors) + [cons]:
            if cons in anc(p):
                anc(p).update(new_anc)
    return kept


def rules_from_mined(mined, *, min_confidence: float = 0.5) -> list[Rule]:
    """Mined length-2 Horn rules (``graph_infer.mine_rules`` output:
    p, q, head, confidence) → weighted MLN rules, weight = the
    confidence's clipped log-odds — the ``MineInferentialPaths`` →
    rules-file → ``ProbabilisticGraphInferenceEngine`` handoff as one
    in-process step."""
    out: list[Rule] = []
    for row in (mined.to_dict("records")
                if hasattr(mined, "to_dict") else mined):
        c = min(_P_MAX, max(_P_MIN, float(row["confidence"])))
        if c < min_confidence:
            continue
        out.append(Rule(
            math.log(c / (1.0 - c)),
            ((row["p"], "x", "y"), (row["q"], "y", "z")),
            (row["head"], "x", "z")))
    return out


# --------------------------------------------------------------------------
# grounding + Gibbs over one (small) query subgraph
# --------------------------------------------------------------------------


def ground_network(edges: list[dict], rules: list[Rule], *,
                   max_chain: int = 3, soft_evidence: bool = False):
    """Ground the rules against one subgraph's evidence edges.

    Forward-chains rule consequents to depth ``max_chain`` (new
    consequent literals become candidate variables that later rounds
    may bind as antecedents). Returns ``(literals, priors, fixed,
    init, factors, meta)`` where each factor is ``(antecedent_idxs,
    consequent_idx, log_p_true, log_p_false, rule_prob)`` —
    BayesNetBuilder.EntailmentFactor semantics: the factor scores the
    consequent ONLY when every antecedent is true, else 0.

    Evidence literals are fixed true (the reference's closed-world
    +∞ prior); with ``soft_evidence`` they instead get the rescaled
    prior 0.5 + 0.4·score as a single-literal factor
    (``ProbabilisticGraphInferenceEngine.graphToMLN``'s SOFT_PRIORS
    rescale — ties break toward the classifier score while the prior
    stays in [0.5, 0.9]). ``meta`` carries entity types and per-literal best
    provenance for emitting fills."""
    lit_index: dict[tuple, int] = {}
    literals: list[tuple] = []
    priors: list[float] = []
    fixed: list[bool] = []
    init: list[bool] = []
    ent_type: dict[str, str] = {}
    prov: dict[int, tuple] = {}            # lit idx → provenance row

    def add_literal(lit: tuple, *, prior: float, fix: bool,
                    start: bool) -> int:
        if lit in lit_index:
            return lit_index[lit]
        lit_index[lit] = len(literals)
        literals.append(lit)
        priors.append(prior)
        fixed.append(fix)
        init.append(start)
        return lit_index[lit]

    best_score: dict[tuple, float] = {}
    for e in edges:
        lit = (e["pred"], e["subj"], e["obj"])
        s = float(e.get("score", 1.0))
        if lit not in best_score or s > best_score[lit]:
            best_score[lit] = s
            i = add_literal(
                lit,
                prior=(0.5 + 0.4 * s) if soft_evidence else 1.0,
                fix=not soft_evidence, start=True)
            # a later duplicate edge with a higher score must refresh
            # the soft prior too — add_literal early-returns for known
            # literals, leaving the stale value otherwise
            priors[i] = (0.5 + 0.4 * s) if soft_evidence else 1.0
            prov[i] = (e.get("doc_id", ""), int(e.get("sent_idx", 0)),
                       list(e.get("subj_span") or []),
                       list(e.get("obj_span") or []))
        ent_type.setdefault(e["subj"], e.get("subj_type", "MISC"))
        ent_type.setdefault(e["obj"], e.get("obj_type", "MISC"))

    factors: list[tuple] = []
    seen_factors: set[tuple] = set()
    by_pred: dict[str, list[tuple]] = {}
    for lit in literals:
        by_pred.setdefault(lit[0], []).append(lit)

    def bindings(ants: tuple, bound: dict, pos: int):
        """Recursive antecedent unification against known literals."""
        if pos == len(ants):
            yield dict(bound)
            return
        pred, v1, v2 = ants[pos]
        for _, c1, c2 in by_pred.get(pred, ()):
            if v1 == v2 and c1 != c2:       # p(x,x) needs c1 == c2
                continue
            b1, b2 = bound.get(v1), bound.get(v2)
            if (b1 is not None and b1 != c1) or \
                    (b2 is not None and b2 != c2):
                continue
            bound[v1], bound[v2] = c1, c2
            yield from bindings(ants, bound, pos + 1)
            if b1 is None:
                del bound[v1]
            if b2 is None:
                bound.pop(v2, None)

    for _depth in range(max_chain):
        new_lits: list[tuple] = []
        for rule in rules:
            lp_t = math.log(rule.prob)
            lp_f = math.log(1.0 - rule.prob)
            for bound in bindings(rule.antecedents, {}, 0):
                cp, cv1, cv2 = rule.consequent
                if cv1 not in bound or cv2 not in bound:
                    continue                # unbound head variable
                c1, c2 = bound[cv1], bound[cv2]
                if c1 == c2:
                    continue
                head = (cp, c1, c2)
                a_idx = tuple(sorted({
                    lit_index[(p, bound[x], bound[y])]
                    for p, x, y in rule.antecedents}))
                if head not in lit_index:
                    add_literal(head, prior=DEFAULT_PRIOR, fix=False,
                                start=False)
                    new_lits.append(head)
                key = (a_idx, lit_index[head], rule.weight)
                if key in seen_factors or lit_index[head] in a_idx:
                    continue
                seen_factors.add(key)
                factors.append((a_idx, lit_index[head], lp_t, lp_f,
                                rule.prob))
        if not new_lits:
            break
        for lit in new_lits:
            by_pred.setdefault(lit[0], []).append(lit)

    meta = {"ent_type": ent_type, "prov": prov,
            "evidence": set(best_score), "scores": best_score}
    return (literals, np.array(priors), np.array(fixed, bool),
            np.array(init, bool), factors, meta)


def gibbs_map(n_lits: int, priors: np.ndarray, fixed: np.ndarray,
              init: np.ndarray, factors: list[tuple], *,
              n_chains: int = 2, n_iters: int = 2000,
              seed: int = 42) -> np.ndarray:
    """Seeded multi-chain binary Gibbs MAP (BayesNet.gibbsMAP shape:
    per-chain seeds, best-assignment tracking, a deterministic
    hill-climb sweep every ``hill_every`` steps, and a full final
    hill-climb to polish the winner). Factor log-score: entailment
    factors fire only when all antecedents are true; every non-fixed
    literal also carries its prior as a single-literal factor.

    Deterministic given (net, seed) — callers derive the seed from
    the query entity so the output is independent of partitioning."""
    if n_lits == 0:
        return np.zeros(0, bool)
    adjustable = np.flatnonzero(~fixed)
    if len(adjustable) == 0:
        return init.copy()

    by_lit: list[list[int]] = [[] for _ in range(n_lits)]
    for fi, (a_idx, c, _t, _f, _p) in enumerate(factors):
        for a in a_idx:
            by_lit[a].append(fi)
        by_lit[c].append(fi)
    logp = np.log(np.clip(priors, _P_MIN, _P_MAX))
    log1mp = np.log(np.clip(1.0 - priors, _P_MIN, _P_MAX))

    def factor_score(fi: int, x: np.ndarray) -> float:
        a_idx, c, lp_t, lp_f, _p = factors[fi]
        if all(x[a] for a in a_idx):
            return lp_t if x[c] else lp_f
        return 0.0

    def full_score(x: np.ndarray) -> float:
        s = float(np.where(x[~fixed], logp[~fixed],
                           log1mp[~fixed]).sum())
        return s + sum(factor_score(fi, x)
                       for fi in range(len(factors)))

    def flip_gain(i: int, x: np.ndarray) -> float:
        """score(x with x[i]=True) - score(x with x[i]=False)."""
        g = logp[i] - log1mp[i]
        old = x[i]
        for fi in by_lit[i]:
            x[i] = True
            st = factor_score(fi, x)
            x[i] = False
            g += st - factor_score(fi, x)
        x[i] = old
        return g

    best_x, best_s = init.copy(), full_score(init)
    hill_every = max(1, n_iters // 4)
    for chain in range(n_chains):
        rng = np.random.RandomState(seed + chain)
        x = init.copy()
        x[adjustable] = rng.random_sample(len(adjustable)) \
            < priors[adjustable]
        for it in range(n_iters):
            if it % hill_every == hill_every - 1:
                for i in adjustable:        # deterministic sweep
                    x[i] = flip_gain(i, x) > 0
                s = full_score(x)
                if s > best_s:
                    best_s, best_x = s, x.copy()
            i = adjustable[rng.randint(len(adjustable))]
            g = flip_gain(i, x)
            p_true = 1.0 / (1.0 + math.exp(-max(-500.0, min(500.0, g))))
            x[i] = rng.random_sample() < p_true
        s = full_score(x)
        if s > best_s:
            best_s, best_x = s, x.copy()
    # final polish: hill-climb the winner to a local optimum
    improved = True
    while improved:
        improved = False
        for i in adjustable:
            want = flip_gain(i, best_x) > 0
            if best_x[i] != want:
                best_x[i] = want
                improved = True
    return best_x


def infer_subgraph(edges: list[dict], rules: list[Rule], *,
                   n_iters: int = 2000, n_chains: int = 2,
                   max_chain: int = 3, seed: int = 42) -> list[dict]:
    """Ground + Gibbs-MAP one subgraph; return the inferred
    (non-evidence, MAP-true) fills. Score = rule prob × min(antecedent
    evidence scores) over the strongest all-evidence supporting
    factor; provenance rides from its first antecedent."""
    literals, priors, fixed, init, factors, meta = ground_network(
        edges, rules, max_chain=max_chain)
    assign = gibbs_map(len(literals), priors, fixed, init, factors,
                       n_chains=n_chains, n_iters=n_iters, seed=seed)
    out: list[dict] = []
    scores, prov = meta["scores"], meta["prov"]
    for idx, lit in enumerate(literals):
        if not assign[idx] or lit in meta["evidence"]:
            continue
        best = None
        for a_idx, c, _t, _f, p in factors:
            if c != idx or not all(assign[a] for a in a_idx):
                continue
            ant_scores = [scores.get(literals[a]) for a in a_idx]
            if any(s is None for s in ant_scores):
                continue                    # chained, not all evidence
            cand = (p * min(ant_scores), a_idx[0])
            if best is None or cand[0] > best[0]:
                best = cand
        if best is None:
            continue                        # only chained support
        score, src = best
        pred, subj, obj = lit
        doc_id, sent_idx, s_span, o_span = prov.get(
            src, ("", 0, [], []))
        out.append({
            "subj": subj,
            "subj_type": meta["ent_type"].get(subj, "MISC"),
            "pred": pred,
            "obj": obj,
            "obj_type": meta["ent_type"].get(obj, "MISC"),
            "score": score, "doc_id": doc_id, "sent_idx": sent_idx,
            "subj_span": s_span, "obj_span": o_span})
    out.sort(key=lambda r: (r["subj"], r["pred"], r["obj"]))
    return out


# --------------------------------------------------------------------------
# the Ray dataflow
# --------------------------------------------------------------------------


def probabilistic_infer(fills, query_entities, rules: list[Rule], *,
                        max_dist: int = 2, n_iters: int = 2000,
                        n_chains: int = 2, acyclic: bool = False):
    """fills × query entities → inferred fills Dataset (NOT unioned
    with the input; callers union + combine like ``transitive_infer``).

    Per-query neighborhoods (``graph_infer.neighborhood``, capped at
    ``graph_infer.MAX_MEMBERSHIP`` pairs), then one coarse-pid shuffle
    groups each query's subgraph for ground + Gibbs (seed = crc32 of the
    query, edges in ``EDGE_ORDER``, so the result depends neither on
    partitioning nor on input row order), and a per-triple max combine
    collapses cross-query duplicates.

    ``acyclic`` applies the BLN predicate-level filter
    (``make_acyclic``) first — note it rejects TRANSITIVE rules by
    construction (the consequent predicate is its own antecedent),
    exactly as ``BayesianLogicNetwork.makeAcyclic`` would; leave it
    off (the MLN default) when the rule set carries transitivity —
    Gibbs over the grounded net handles cyclic predicate dependencies
    fine."""
    import ray

    from ..runtime import by_key
    from .graph_infer import (MEMBER_SCHEMA, _distinct, _fills,
                              _max_combine, neighborhood)
    if acyclic:
        rules = make_acyclic(rules)

    qs = [str(q) for q in query_entities]
    members = neighborhood(fills, pa.table({"node": qs, "q": qs},
                                           schema=MEMBER_SCHEMA), max_dist)
    member_ref = ray.put(members)

    def tag(batch: pa.Table) -> pa.Table:
        """One row per (fill, query) whose neighborhood holds the
        fill's subject or object: the fills with a ``q`` column."""
        batch = _fills(batch)
        m = ray.get(member_ref)
        row = np.arange(batch.num_rows)
        hits = _distinct(pa.concat_tables([
            pa.table({"node": batch.column(end), "_row": row}).join(
                m, "node", join_type="inner").select(["_row", "q"])
            for end in ("subj", "obj")]), ["_row", "q"])
        return batch.take(hits.column("_row")).append_column(
            "q", hits.column("q"))

    def infer_group(group: pa.Table) -> pa.Table:
        # each query's edges in one total order: grounding numbers the
        # literals and Gibbs walks them in edge order
        rows = group.sort_by([("q", "ascending")] + [
            (c, "ascending") for c in EDGE_ORDER]).to_pylist()
        out: list[dict] = []
        for q, edges in itertools.groupby(rows, key=lambda r: r["q"]):
            out.extend(infer_subgraph(
                list(edges), rules, n_iters=n_iters, n_chains=n_chains,
                seed=zlib.crc32(q.encode()) & 0x7FFFFFFF))
        return pa.Table.from_pylist(out, schema=FILLS_SCHEMA)

    return _max_combine(by_key(fills.map_batches(tag,
                                                 batch_format="pyarrow"),
                               "q", infer_group))
