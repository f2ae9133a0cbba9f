"""Probabilistic graph inference (stages/mln.py): rule parsing, BLN
acyclic selection, grounding, Gibbs MAP, and the distributed per-query
dataflow. Reference semantics: BayesNet.java / BayesNetBuilder.java /
BayesianLogicNetwork.java (off by default there; first-class here)."""

import math

import pytest

from stanford_relation_extractor_ray.stages.mln import (
    Rule, ground_network, gibbs_map, infer_subgraph, make_acyclic,
    parse_mln_rules, probabilistic_infer)


def _edge(s, p, o, score=0.9, st="PERSON", ot="PERSON"):
    return {"subj": s, "subj_type": st, "pred": p, "obj": o,
            "obj_type": ot, "score": score, "doc_id": f"d-{s}-{o}",
            "sent_idx": 1, "subj_span": [0, 1], "obj_span": [2, 3]}


GRANDPARENT = Rule(
    3.0,
    (("per:parents", "x", "y"), ("per:parents", "y", "z")),
    ("per:grandparents", "x", "z"))


def test_parse_mln_rules():
    rules = parse_mln_rules("""
        // a comment
        per:parents(PERSON, PERSON)
        3.0  !per:parents(x,y) v !per:parents(y,z) v per:grandparents(x,z)
        -1.5 !org:member_of(a,b) v per:spouse(a,b)
    """)
    assert len(rules) == 2
    assert rules[0] == GRANDPARENT
    assert rules[1].weight == -1.5
    assert rules[1].antecedents == (("org:member_of", "a", "b"),)
    # weight → clipped probability (log-odds through a sigmoid)
    assert abs(rules[0].prob - 1 / (1 + math.exp(-3.0))) < 1e-12
    with pytest.raises(ValueError):
        parse_mln_rules("1.0 !p(x,y) v q(x,y) v r(x,y)")


def test_make_acyclic_rejects_loops():
    a_to_b = Rule(1.0, (("a", "x", "y"),), ("b", "x", "y"))
    b_to_a = Rule(2.0, (("b", "x", "y"),), ("a", "x", "y"))
    # reference order (ascending weight): a→b enters first, b→a loops
    kept = make_acyclic([a_to_b, b_to_a])
    assert kept == [a_to_b]
    # strong-first order keeps the heavier rule instead
    kept = make_acyclic([a_to_b, b_to_a], ascending=False)
    assert kept == [b_to_a]
    # self-loop is always rejected
    assert make_acyclic([Rule(1.0, (("a", "x", "y"),),
                              ("a", "y", "x"))]) == []


def test_grounding_chains_consequents():
    edges = [_edge("a", "per:parents", "b"),
             _edge("b", "per:parents", "c"),
             _edge("c", "per:parents", "d")]
    chain = Rule(3.0,
                 (("per:parents", "x", "y"),
                  ("per:grandparents", "y", "z")),
                 ("per:greatgrand", "x", "z"))
    lits, priors, fixed, init, factors, meta = ground_network(
        edges, [GRANDPARENT, chain])
    names = set(lits)
    assert ("per:grandparents", "a", "c") in names
    assert ("per:grandparents", "b", "d") in names
    # depth-2 chaining: greatgrand needs a grandparents literal bound
    assert ("per:greatgrand", "a", "d") in names
    assert fixed.sum() == 3 and init.sum() == 3
    assert meta["evidence"] == {("per:parents", "a", "b"),
                                ("per:parents", "b", "c"),
                                ("per:parents", "c", "d")}


def test_gibbs_map_strong_rule_fires():
    """With fixed-true evidence and a strong rule, MAP sets the
    consequent true; with a strongly negative rule it stays false."""
    for weight, want in ((4.0, True), (-4.0, False)):
        rule = Rule(weight,
                    (("per:parents", "x", "y"),
                     ("per:parents", "y", "z")),
                    ("per:grandparents", "x", "z"))
        edges = [_edge("a", "per:parents", "b"),
                 _edge("b", "per:parents", "c")]
        lits, priors, fixed, init, factors, _ = ground_network(
            edges, [rule])
        assign = gibbs_map(len(lits), priors, fixed, init, factors,
                           n_iters=400, seed=7)
        idx = lits.index(("per:grandparents", "a", "c"))
        assert bool(assign[idx]) is want, weight


def test_infer_subgraph_scores_and_provenance():
    edges = [_edge("a", "per:parents", "b", score=0.8),
             _edge("b", "per:parents", "c", score=0.6)]
    out = infer_subgraph(edges, [GRANDPARENT], n_iters=400, seed=3)
    assert [(r["subj"], r["pred"], r["obj"]) for r in out] == \
        [("a", "per:grandparents", "c")]
    r = out[0]
    # score = rule prob × min(antecedent scores)
    assert abs(r["score"] - GRANDPARENT.prob * 0.6) < 1e-9
    # provenance rides from an antecedent evidence edge
    assert r["doc_id"] in ("d-a-b", "d-b-c")
    assert r["subj_type"] == "PERSON" and r["obj_type"] == "PERSON"


def test_probabilistic_infer_distributed(ray_session):
    """End-to-end dataflow: per-query neighborhoods, grouped Gibbs,
    max combine — and partitioning invariance (content-derived
    seeds)."""
    import ray.data as rd

    rows = [_edge("a", "per:parents", "b"),
            _edge("b", "per:parents", "c"),
            _edge("x", "per:parents", "y"),       # other neighborhood
            _edge("p", "org:member_of", "q")]     # irrelevant pred

    def run(n_blocks):
        ds = rd.from_items(rows).repartition(n_blocks)
        out = probabilistic_infer(ds, ["a", "x"], [GRANDPARENT],
                                  max_dist=2, n_iters=300)
        return sorted((r["subj"], r["pred"], r["obj"], round(r["score"], 9))
                      for r in out.take_all())

    got = run(1)
    assert got == [("a", "per:grandparents", "c",
                    round(GRANDPARENT.prob * 0.9, 9))]
    assert run(4) == got


def test_rules_from_mined_and_end_to_end(ray_session):
    """mine_rules → rules_from_mined → probabilistic_infer: the mined
    transitive pattern re-infers the direct edge family it was mined
    from, weighted by its confidence log-odds."""
    import math

    import ray.data as rd

    from stanford_relation_extractor_ray.stages.graph_infer import \
        mine_rules
    from stanford_relation_extractor_ray.stages.mln import \
        rules_from_mined

    # p∘p ⇒ p holds on 5 of 6 bridge paths (g→h→i lacks g→i) →
    # confidence 5/6, logit ≈ 1.609 — strong enough to beat the 0.2
    # default prior (logit 1.386); a 2/3-confidence rule would
    # CORRECTLY not fire under MAP
    supported = (("a", "b", "c"), ("d", "e", "f"), ("j", "k", "l"),
                 ("m", "n", "o"), ("u", "v", "w"))
    rows = []
    for s, m, o in supported:
        rows += [_edge(s, "org:parents", m, st="ORGANIZATION",
                       ot="ORGANIZATION"),
                 _edge(m, "org:parents", o, st="ORGANIZATION",
                       ot="ORGANIZATION"),
                 _edge(s, "org:parents", o, st="ORGANIZATION",
                       ot="ORGANIZATION")]
    rows += [_edge("g", "org:parents", "h", st="ORGANIZATION",
                   ot="ORGANIZATION"),
             _edge("h", "org:parents", "i", st="ORGANIZATION",
                   ot="ORGANIZATION")]
    mined = mine_rules(rd.from_items(rows), min_support=2,
                       min_confidence=0.5)
    rules = rules_from_mined(mined)
    assert len(rules) == 1
    r = rules[0]
    assert r.consequent == ("org:parents", "x", "z")
    assert abs(r.weight - math.log((5 / 6) / (1 / 6))) < 1e-9
    inferred = probabilistic_infer(
        rd.from_items(rows), ["g"], rules, max_dist=2,
        n_iters=300).take_all()
    assert [(x["subj"], x["pred"], x["obj"]) for x in inferred] == \
        [("g", "org:parents", "i")]


def test_probabilistic_infer_empty_inputs(ray_session):
    """No query entities / no matching rules → empty result, not a
    crash (the empty-partition paths through tag/infer/combine)."""
    import ray.data as rd

    rows = [_edge("a", "per:parents", "b")]
    assert probabilistic_infer(rd.from_items(rows), [], [GRANDPARENT],
                               max_dist=1, n_iters=50).count() == 0
    assert probabilistic_infer(rd.from_items(rows), ["zz"],
                               [GRANDPARENT], max_dist=1,
                               n_iters=50).count() == 0


def test_make_acyclic_transitive_closure():
    """3-cycle through stale ancestor sets must be rejected: after
    accepting b⇒c and a⇒b, the rule c⇒a closes a→b→c→a and the
    transitive-closure update must catch it (code-review r5)."""
    b_to_c = Rule(1.0, (("b", "x", "y"),), ("c", "x", "y"))
    a_to_b = Rule(2.0, (("a", "x", "y"),), ("b", "x", "y"))
    c_to_a = Rule(3.0, (("c", "x", "y"),), ("a", "x", "y"))
    kept = make_acyclic([b_to_c, a_to_b, c_to_a])
    assert kept == [b_to_c, a_to_b]


def test_parse_mln_rules_float_forms_and_errors():
    """Scientific/leading-dot weights parse; a numeric weight with a
    garbage clause raises instead of silently dropping the rule."""
    rules = parse_mln_rules("""
        1.5e-1  !p(x,y) v q(x,y)
        .5      !p(x,y) v r(x,y)
    """)
    assert [r.weight for r in rules] == [0.15, 0.5]
    with pytest.raises(ValueError):
        parse_mln_rules("2.0 not a clause at all")
    with pytest.raises(ValueError):
        parse_mln_rules("2.0")
    # a malformed literal must not be dropped from the clause
    with pytest.raises(ValueError):
        parse_mln_rules("1.0 !p(x,,y) v q(x,y)")
    with pytest.raises(ValueError):
        parse_mln_rules("1.0 !p(x y) v !r(y,z) v q(x,z)")


def _full_rows(ds) -> list:
    return sorted(repr({k: v.tolist() if hasattr(v, "tolist") else v
                        for k, v in r.items()}) for r in ds.take_all())


def test_probabilistic_infer_ignores_input_row_order(ray_session):
    """Each query's edges reach grounding in one total order, so the
    literal numbering, the Gibbs walk and the provenance of every
    inferred fill are the same whatever order and blocking the fills
    arrive in. In arrival order, the reversed rows gave the inferred
    fill the other antecedent's provenance."""
    import ray.data as rd

    weak = Rule(0.5, GRANDPARENT.antecedents, GRANDPARENT.consequent)
    rows = [_edge("a", "per:parents", "b", 0.9),
            _edge("b", "per:parents", "c", 0.9),
            _edge("b", "per:parents", "d", 0.6),
            _edge("c", "per:parents", "e", 0.7),
            _edge("d", "per:parents", "e", 0.8),
            _edge("x", "per:parents", "b", 0.5)]

    def run(order, n_blocks):
        ds = rd.from_items([rows[i] for i in order]).repartition(n_blocks)
        return _full_rows(probabilistic_infer(
            ds, ["a", "b", "x"], [GRANDPARENT, weak], max_dist=2,
            n_iters=300))

    want = run(range(len(rows)), 1)
    assert want
    for order in ([5, 4, 3, 2, 1, 0], [2, 0, 5, 3, 1, 4]):
        for n_blocks in (1, 3):
            assert run(order, n_blocks) == want


def test_probabilistic_infer_membership_cap(ray_session, monkeypatch):
    """The broadcast (node, query) membership fails loudly, naming its
    size, once it exceeds graph_infer.MAX_MEMBERSHIP."""
    import ray.data as rd

    from stanford_relation_extractor_ray.stages import graph_infer

    monkeypatch.setattr(graph_infer, "MAX_MEMBERSHIP", 3)
    rows = [_edge("a", "per:parents", "b"), _edge("b", "per:parents", "c"),
            _edge("c", "per:parents", "d")]
    # seeds a:a, b:b; one hop adds b:a, a:b, c:b → 5 pairs
    with pytest.raises(RuntimeError, match=r"5 \(node, query\) pairs "
                       r"\(> MAX_MEMBERSHIP=3\)"):
        probabilistic_infer(rd.from_items(rows), ["a", "b"],
                            [GRANDPARENT], max_dist=2, n_iters=50)
