"""Deterministic POS tagging + dependency parsing stand-in.

The reference runs CoreNLP's tagger/parser and featurizes over the
COLLAPSED_CCPROCESSED dependency graph
(``kbp/slotfilling/process/FeatureFactory.java:44-46,660-680``). This
module is the deterministic, model-free stand-in SURVEY.md §7.0
specifies: rule POS tags over the token stream and a head-rule parser
emitting a *collapsed-style* edge list (prepositions collapse into
``prep_<word>`` edges between content words, the Stanford collapsed
convention), so dependency-path features have the same shape they
would with a real parser. The operator contract (``pos: list<string>``,
``dep_edges: list<struct<head,dep,label>>`` on the sentences table,
SURVEY.md §1.1) is what a real model would fill; swap the class, keep
the pipeline.

Path-string format matches ``FeatureFactory.dependencyPathAsList``
(``FeatureFactory.java:1015-1050``): walking the shortest undirected
path from arg0, an edge where the current node is the DEPENDENT
contributes ``label->`` (moving to the governor), an edge where it is
the GOVERNOR contributes ``<-label`` (moving to the dependent); the
reference then replaces whitespace runs with ``_``
(``postProcessFeature``, ``FeatureFactory.java:133-137``).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# rule POS tagger
# ---------------------------------------------------------------------------

AUX = {"was": "VBD", "were": "VBD", "is": "VBZ", "are": "VBP",
       "has": "VBZ", "had": "VBD"}

_VERB_TAGS = {
    "born": "VBN", "aged": "VBN", "celebrated": "VBD", "turning": "VBG",
    "holds": "VBZ", "died": "VBD", "passed": "VBD", "succumbed": "VBD",
    "lives": "VBZ", "resides": "VBZ", "studied": "VBD",
    "graduated": "VBD", "serves": "VBZ", "works": "VBZ",
    "employed": "VBN", "practices": "VBZ", "adheres": "VBZ",
    "married": "VBN", "wed": "VBD", "named": "VBN", "raised": "VBN",
    "grew": "VBD", "related": "VBN", "charged": "VBN", "accused": "VBN",
    "stands": "VBZ", "known": "VBN", "goes": "VBZ", "led": "VBN",
    "chaired": "VBN", "employs": "VBZ", "counts": "VBZ", "owns": "VBZ",
    "operates": "VBZ", "founded": "VBN", "established": "VBN",
    "dissolved": "VBN", "shut": "VBN", "headquartered": "VBN",
    "based": "VBN", "owned": "VBN", "maintains": "VBZ",
    "publishes": "VBZ", "trading": "VBG",
}

_IN = {"in", "of", "at", "on", "for", "by", "to", "from", "with", "as",
       "among", "alongside", "into"}
_DT = {"the", "a", "an", "its"}
_RB = {"also", "now", "partly", "up", "down", "away"}

_LEMMA = {
    "was": "be", "were": "be", "is": "be", "are": "be",
    "has": "have", "had": "have", "goes": "go", "grew": "grow",
    "led": "lead", "died": "die", "lives": "live", "works": "work",
    "resides": "reside", "studied": "study", "graduated": "graduate",
    "serves": "serve", "employs": "employ", "counts": "count",
    "owns": "own", "operates": "operate", "maintains": "maintain",
    "publishes": "publish", "practices": "practice",
    "adheres": "adhere", "holds": "hold", "stands": "stand",
    "celebrated": "celebrate", "passed": "pass",
    "succumbed": "succumb", "charges": "charge", "members": "member",
    "chaired": "chair", "founded": "found", "owned": "own",
    "employed": "employ",
}

_NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "CD"})
_CHUNK_TAGS = frozenset({"DT", "JJ", "NN", "NNS", "NNP", "CD"})
_VERBISH = frozenset({"VB", "VBD", "VBN", "VBZ", "VBG", "VBP"})


def lemma(word: str) -> str:
    """Cheap deterministic lemma (irregular map + lowercase)."""
    w = word.lower()
    return _LEMMA.get(w, w)


def pos_tag(tokens: list[str]) -> list[str]:
    out = []
    for tok in tokens:
        if tok == "," or tok == ".":
            out.append(tok)
        elif tok in AUX:
            out.append(AUX[tok])
        elif tok in _VERB_TAGS:
            out.append(_VERB_TAGS[tok])
        elif tok in _IN:
            out.append("IN")
        elif tok in _DT:
            out.append("DT")
        elif tok in _RB:
            out.append("RB")
        elif tok == "and":
            out.append("CC")
        elif tok == "who":
            out.append("WP")
        elif tok[:1].isdigit():
            out.append("CD")
        elif tok[:1].isupper():
            out.append("NNP")
        else:
            out.append("NN")
    return out


# ---------------------------------------------------------------------------
# head-rule parser (collapsed-style edges)
# ---------------------------------------------------------------------------

def parse(tokens: list[str], pos: list[str]) -> list[tuple[int, int, str]]:
    """→ list of (head_idx, dep_idx, label); head −1 marks the root.

    Deterministic head rules producing a connected, collapsed-style
    graph: NP chunks head-final (det/num/nn internals), nearest
    pre-verbal chunk → nsubj, auxiliary → aux of the content verb,
    preposition objects collapse into ``prep_<word>`` edges from the
    nearest preceding attachment site (noun if one directly precedes
    the preposition, else the current verb), verb-adjacent chunks →
    dobj, post-WP verbs → rcmod of the preceding noun, chunks after
    ``and`` → conj_and.
    """
    n = len(tokens)
    if n == 0:
        return []
    head = [None] * n           # type: list[int | None]
    label = [""] * n

    # --- NP chunks: maximal runs of _CHUNK_TAGS; head = last token ----
    chunk_head = [-1] * n       # token idx -> its chunk head idx
    chunk_start = {}            # head idx -> chunk start idx
    chunks = []                 # (start, end, head_idx)
    i = 0
    while i < n:
        if pos[i] in _CHUNK_TAGS:
            j = i
            while j + 1 < n and pos[j + 1] in _CHUNK_TAGS:
                j += 1
            chunks.append((i, j + 1, j))
            chunk_start[j] = i
            for k in range(i, j + 1):
                chunk_head[k] = j
                if k == j:
                    continue
                if pos[k] == "DT":
                    head[k], label[k] = j, "det"
                elif pos[k] == "CD":
                    head[k], label[k] = j, "num"
                else:
                    head[k], label[k] = j, "nn"
            i = j + 1
        else:
            i = i + 1

    # --- root: first content verb; aux attaches to it ------------------
    root = -1
    for i in range(n):
        if pos[i] in _VERBISH and tokens[i] not in AUX:
            root = i
            break
    if root < 0:                           # copula-only or verbless
        for i in range(n):
            if tokens[i] in AUX:
                root = i
                break
    if root < 0:
        root = chunks[0][2] if chunks else 0
    head[root], label[root] = -1, "root"
    for i in range(n):
        if tokens[i] in AUX and i != root and head[i] is None:
            # auxiliary of the nearest following content verb, else root
            gov = root
            for j in range(i + 1, n):
                if pos[j] in _VERBISH and tokens[j] not in AUX:
                    gov = j
                    break
            head[i], label[i] = gov, "aux"

    # --- nsubj: nearest chunk ending before the root -------------------
    for s, e, h in reversed(chunks):
        if e <= root and head[h] is None:
            head[h], label[h] = root, "nsubj"
            break

    # --- left-to-right attachment after the root -----------------------
    cur_verb = root
    last_noun = -1              # most recent attached noun-chunk head
    i = 0
    while i < n:
        if i == root or head[i] is not None:
            if chunk_head[i] == i and head[i] is not None:
                last_noun = i
            i += 1
            continue
        p = pos[i]
        if p in _VERBISH:
            # post-root verb: relative clause on the preceding noun if a
            # WP intervenes, else clausal complement of the current verb
            if i >= 1 and pos[i - 1] == "WP" and last_noun >= 0:
                head[i], label[i] = last_noun, "rcmod"
            else:
                head[i], label[i] = cur_verb, "xcomp"
            cur_verb = i
            i += 1
            continue
        if p == "IN":
            # collapsed prep: find the next chunk head after i
            obj = -1
            for j in range(i + 1, n):
                if chunk_head[j] == j and head[j] is None:
                    obj = j
                    break
                if pos[j] == "IN" or pos[j] in _VERBISH:
                    break
            # attachment site: noun directly before the IN, else verb
            k = i - 1
            while k >= 0 and pos[k] in ("RB", ","):
                k -= 1
            gov = chunk_head[k] if k >= 0 and chunk_head[k] >= 0 \
                and pos[k] in _NOUN_TAGS else cur_verb
            if obj >= 0:
                head[obj], label[obj] = gov, "prep_" + tokens[i].lower()
                head[i], label[i] = obj, "case"
                last_noun = obj
                i = obj + 1
            else:
                head[i], label[i] = gov, "prep"
                i += 1
            continue
        if p == "CC":
            # conjunct = next verb OR chunk head, whichever comes first
            nxt, nxt_is_verb = -1, False
            for j in range(i + 1, n):
                if pos[j] in _VERBISH and tokens[j] not in AUX:
                    nxt, nxt_is_verb = j, True
                    break
                if chunk_head[j] == j and head[j] is None:
                    nxt = j
                    break
            if nxt >= 0 and nxt_is_verb:
                head[nxt], label[nxt] = cur_verb, \
                    "conj_" + tokens[i].lower()
                head[i], label[i] = cur_verb, "cc"
                cur_verb = nxt
                i = nxt + 1
            elif nxt >= 0 and last_noun >= 0:
                head[nxt], label[nxt] = last_noun, \
                    "conj_" + tokens[i].lower()
                head[i], label[i] = last_noun, "cc"
                last_noun = nxt
                i = nxt + 1
            else:
                head[i], label[i] = cur_verb, "cc"
                i += 1
            continue
        if chunk_head[i] == i:
            # bare chunk after a verb → dobj; elsewhere → dep of root
            k = chunk_start.get(i, i) - 1
            while k >= 0 and pos[k] == "RB":
                k -= 1
            if k >= 0 and pos[k] in _VERBISH:
                head[i], label[i] = (k if tokens[k] not in AUX
                                     else cur_verb), "dobj"
            else:
                head[i], label[i] = cur_verb, "dep"
            last_noun = i
            i += 1
            continue
        if p == "RB":
            head[i], label[i] = cur_verb, "advmod"
        elif p in (",", "."):
            head[i], label[i] = root, "punct"
        elif p == "WP":
            head[i], label[i] = cur_verb, "dep"
        else:
            head[i], label[i] = cur_verb, "dep"
        i += 1

    return [(int(h), d, label[d]) for d, h in enumerate(head)
            if h is not None and h >= 0]


# ---------------------------------------------------------------------------
# shortest undirected path + reference path-string format
# ---------------------------------------------------------------------------

def shortest_path(edges: list[tuple[int, int, str]], n_tokens: int,
                  a: int, b: int):
    """BFS shortest undirected path a→b over the edge list.

    → (nodes, path_parts) where nodes is the token-index path
    [a, ..., b] and path_parts the reference-format direction-labeled
    edge strings; (None, None) if disconnected or a == b.
    """
    if a == b:
        return None, None
    adj: dict[int, list[tuple[int, str, bool]]] = {}
    for h, d, lab in edges:
        # (neighbor, label, cur_is_dependent)
        adj.setdefault(d, []).append((h, lab, True))
        adj.setdefault(h, []).append((d, lab, False))
    prev: dict[int, tuple[int, str, bool]] = {a: (-1, "", False)}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for u in frontier:
            for v, lab, dep_side in sorted(adj.get(u, ())):
                if v not in prev:
                    prev[v] = (u, lab, dep_side)
                    nxt.append(v)
        frontier = nxt
    if b not in prev:
        return None, None
    nodes = [b]
    while nodes[-1] != a:
        nodes.append(prev[nodes[-1]][0])
    nodes.reverse()
    parts = []
    for u, v in zip(nodes, nodes[1:]):
        _pu, lab, dep_side = prev[v]
        # walking u→v: if u was the dependent of the edge, we move up
        # to the governor ("label->"); else down ("<-label")
        parts.append(lab + "->" if dep_side else "<-" + lab)
    return nodes, parts


def path_string(parts: list[str]) -> str:
    """``FeatureFactory.dependencyPath`` join + whitespace→_ cleanup."""
    raw = " " + "  ".join(parts) + " "
    return raw.replace(" ", "_")


def generalize(label: str) -> str:
    """High-level relation for the generalized path
    (``FeatureFactory.generalizeRelation``): collapsed prep/conj lose
    their word, subjects/objects collapse to subj/obj."""
    if label.startswith("prep"):
        return "prep"
    if label.startswith("conj"):
        return "conj"
    if label.endswith("subj"):
        return "subj"
    if label.endswith("obj"):
        return "obj"
    return label


ALL_DEP_TEMPLATES = (
    "dependency_path", "dependency_path_lowlevel",
    "dependency_path_length", "dependency_path_words",
    "dependency_path_POS_unigrams", "dependency_path_word_n_grams",
    "dependency_path_POS_n_grams", "dependency_path_edge_n_grams",
    "dependency_path_edge_lowlevel_n_grams",
    "dependency_path_node-edge-node-grams",
    "dependency_path_node-edge-node-grams_lowlevel",
    "dependency_path_edge-node-edge-grams",
    "dependency_path_edge-node-edge-grams_lowlevel",
    "dependency_path_directed_bigrams",
    "dependency_path_edge_unigrams", "verb_in_dependency_path",
    "dependency_paths_to_verb", "dependency_path_stubs_to_verb",
    "dependency_path_clusters", "dependency_path_trigger",
    "full_tree_path")


def dep_template_features(tokens: list[str], pos: list[str],
                          edges: list[tuple[int, int, str]],
                          subj_span: tuple[int, int],
                          obj_span: tuple[int, int],
                          templates=ALL_DEP_TEMPLATES) -> list[str]:
    """The full dependency-template library of
    ``FeatureFactory.addDependencyPathFeatures``
    (``FeatureFactory.java:660-930`` — all dep-path variants; the
    word-cluster family reads the deterministic Brown-cluster stand-in
    ``world.word_clusters`` in place of the ``egw4-reut.512.clusters``
    side file). ``dep_features`` below emits the
    ACTIVE subset; this function serves any requested template set.
    Path words are lemmatized with the deterministic stand-in lemma;
    whitespace in emitted strings becomes ``_`` (postProcessFeature).
    """
    want = set(templates)
    h0, h1 = subj_span[1] - 1, obj_span[1] - 1
    nodes, parts = shortest_path(edges, len(tokens), h0, h1)
    if not parts:
        return []
    feats: list[str] = []

    def _clean(s: str) -> str:
        return s.replace(" ", "_")

    gen_steps = []
    for p in parts:
        if p.endswith("->"):
            gen_steps.append(generalize(p[:-2]) + "->")
        else:
            gen_steps.append("<-" + generalize(p[2:]))
    if "dependency_path" in want:
        feats.append("dep_path:" + path_string(gen_steps))
    if "dependency_path_lowlevel" in want:
        feats.append("dep_path_lowlevel:" + path_string(parts))
    if "dependency_path_length" in want:
        feats.append(f"dependency_path_length_{len(parts)}")

    # path node word/tag lists; arg-span nodes excluded where specified
    in_arg = set(range(*subj_span)) | set(range(*obj_span))
    path_lemmas = [lemma(tokens[i]) for i in nodes]
    noarg = [i for i in nodes if i not in in_arg]
    if "dependency_path_words" in want:
        feats.extend("word_in_dependency_path:" + lemma(tokens[i])
                     for i in noarg)
    if "dependency_path_clusters" in want:
        # word-cluster variant (``FeatureFactory.java:844-852``): one
        # feature per path word found in the cluster map (the
        # deterministic Brown-cluster stand-in, world.word_clusters)
        from ..world import get_world
        clusters = get_world().word_clusters()
        feats.extend("cluster_in_dependency_path:" + clusters[tokens[i]]
                     for i in noarg if tokens[i] in clusters)
    if "dependency_path_trigger" in want:
        # FeatureFactory.java:972-983 — relation label of trigger
        # phrases whose B- mark lands on a non-arg path node
        from .triggers import trigger_marks
        marks = trigger_marks(tokens)
        feats.extend("dependency_path_trigger=" + marks[i][2:]
                     for i in noarg
                     if marks[i] is not None and marks[i].startswith("B-"))
    if "dependency_path_POS_unigrams" in want:
        feats.extend("POS_in_dependency_path:_" + pos[i]
                     for i in nodes[1:-1])
    for n in (2, 3, 4):
        if len(nodes) < n:
            break
        for k in range(len(nodes) - n + 1):
            if "dependency_path_word_n_grams" in want:
                feats.append(f"dependency_path_{n}-gram:_"
                             + "_".join(path_lemmas[k:k + n]) + "_")
            if "dependency_path_POS_n_grams" in want:
                feats.append(f"dependency_path_POS_{n}-gram:_"
                             + "_".join(pos[i]
                                        for i in nodes[k:k + n]) + "_")
    raw_labels = [p[:-2] if p.endswith("->") else p[2:] for p in parts]
    gen_labels = [generalize(lb) for lb in raw_labels]
    for n in (2, 3, 4):
        if len(parts) < n:
            break
        for k in range(len(parts) - n + 1):
            if "dependency_path_edge_n_grams" in want:
                feats.append(_clean("dep_edge_" + str(n) + "-gram: "
                                    + " -- ".join(gen_labels[k:k + n])))
            if "dependency_path_edge_lowlevel_n_grams" in want:
                feats.append(_clean("dep_edge_lowlevel_" + str(n)
                                    + "-gram: "
                                    + " -- ".join(raw_labels[k:k + n])))
    for k in range(len(parts) - 1):
        w = path_lemmas[k + 1]          # node between two edges
        if "dependency_path_edge-node-edge-grams" in want:
            feats.append(_clean(
                f"ene: {gen_labels[k]} -- {w} -- {gen_labels[k + 1]}"))
        if "dependency_path_edge-node-edge-grams_lowlevel" in want:
            feats.append(_clean(
                f"ene_lowlevel: {raw_labels[k]} -- {w} -- "
                f"{raw_labels[k + 1]}"))
    for k, p in enumerate(parts):
        a, b = path_lemmas[k], path_lemmas[k + 1]
        if "dependency_path_node-edge-node-grams" in want:
            feats.append(_clean(f"nen: {a} -- {gen_labels[k]} -- {b}"))
        if "dependency_path_node-edge-node-grams_lowlevel" in want:
            feats.append(_clean(
                f"nen_lowlevel: {a} -- {raw_labels[k]} -- {b}"))
        if "dependency_path_directed_bigrams" in want:
            arrow = "->" if p.endswith("->") else "<-"
            feats.append(_clean(f"directed_bigram: {a} {arrow} {b}"))
        if "dependency_path_edge_unigrams" in want:
            where = ("left" if k == 0 else
                     "right" if k == len(parts) - 1 else "interior")
            arrow = "->" if p.endswith("->") else "<-"
            feats.append(_clean(
                f"dep_edge_unigram: {raw_labels[k]} {arrow} {where}"))

    # verb-anchored families (:740-840): interior verbs on the path
    interior_verbs = [i for i in nodes[1:-1]
                      if pos[i].startswith("VB")]
    for vi in interior_verbs:
        vlem = lemma(tokens[vi])
        k = nodes.index(vi)
        left = parts[:k]                # arg0 → verb
        right = parts[k:]               # verb → arg1
        gen_left = path_string([generalize(p[:-2]) + "->"
                                if p.endswith("->")
                                else "<-" + generalize(p[2:])
                                for p in left]) if left else "_"
        gen_right = path_string([generalize(p[:-2]) + "->"
                                 if p.endswith("->")
                                 else "<-" + generalize(p[2:])
                                 for p in right]) if right else "_"
        if "dependency_paths_to_verb" in want:
            feats.append(_clean(f"{gen_left} {vlem}"))
            feats.append(_clean(f"{vlem} {gen_right}"))
            feats.append(_clean(f"{gen_left} {vlem} {gen_right}"))
        if "dependency_path_stubs_to_verb" in want and parts:
            stub0 = gen_steps[0]
            stub1 = gen_steps[-1]
            feats.append(_clean(f"stub: {stub0} {vlem}"))
            feats.append(_clean(f"stub: {vlem} {stub1}"))
            feats.append(_clean(f"stub: {stub0} {vlem} {stub1}"))
        if "verb_in_dependency_path" in want:
            if left:
                feats.append(_clean(
                    f"verb: {gen_steps[len(left) - 1]} {vlem}"))
            if right:
                feats.append(_clean(f"verb: {vlem} {gen_steps[k]}"))
            if left and right:
                feats.append(_clean(
                    f"verb: {gen_steps[len(left) - 1]} {vlem} "
                    f"{gen_steps[k]}"))

    if "full_tree_path" in want:
        tree = [pos[nodes[0]]]
        for part, idx in zip(parts, nodes[1:]):
            arrow = "_->_" if part.endswith("->") else "_<-_"
            tree.append(arrow)
            tree.append(pos[idx])
        feats.append("full_tree_path:" + "".join(tree))
    return feats


def dep_features(tokens: list[str], pos: list[str],
                 edges: list[tuple[int, int, str]],
                 subj_span: tuple[int, int],
                 obj_span: tuple[int, int]) -> list[str]:
    """The active dependency feature templates
    (``/root/reference/StanfordMIMLRE.properties:89``):

    - ``dependency_path_lowlevel`` — the direction-labeled path string
      (``FeatureFactory.java:715-718``);
    - ``dependency_path_words`` — ``word_in_dependency_path:<lemma>``
      per path node outside both arg spans (``:843-849``);
    - ``full_tree_path`` — constituency-tree path stand-in: the POS
      tags of the dependency-path nodes with the same arrows (no
      constituency parser by design, SURVEY.md §7.0; reference
      ``:193-215`` walks the phrase-structure tree).

    Args are located by their syntactic head = last token of the span
    (head-final chunks, matching ``getSyntacticHeadTokenPosition``).

    Round 3 added the word-cluster family to the active set (the
    Brown-cluster stand-in, completing the reference's template
    library). A wider structural activation (generalized path, length,
    POS/edge unigrams, verb-in-path) was MEASURED and rejected: LR
    precision 0.806 → 0.716 at equal recall on the 400-doc training /
    200-doc eval split — the extra sparse templates overfit the
    distant-supervision labels (numbers recorded in BASELINE.md).
    Feature-set changes bump ``pipelines.train.FEATURE_VERSION``.
    """
    return dep_template_features(
        tokens, pos, edges, subj_span, obj_span,
        templates=("dependency_path_lowlevel", "dependency_path_words",
                   "dependency_path_clusters", "full_tree_path"))
