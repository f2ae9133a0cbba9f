"""Featurization: candidate rows → feature-string lists.

Ray-Data shape of the reference's FeatureFactory template application
(``kbp/slotfilling/process/FeatureFactory.java``) as a stateless
``map_batches``, covering the ACTIVE template set of
``/root/reference/StanfordMIMLRE.properties:89``::

    arg_words, arg_type, arg_order, full_tree_path,
    surface_distance_binary, surface_distance_bins, adjacent_words,
    entities_between_args, entity_counts_binary, entity_counts_bins,
    span_words_unigrams, dependency_path_lowlevel, dependency_path_words

Two halves, split by what context they need:

- ``context_features`` — templates needing the WHOLE sentence (tokens,
  POS, dep graph, all mentions): adjacent_words
  (``FeatureFactory.java:363-377``), entities_between_args
  (``:400-413``), entity_counts_binary/bins (``:415-446``), and the
  dependency templates (stages/deps.py). Computed at PAIRING time
  (stages/mentions.py) where the sentence is in hand, carried on the
  candidate row as ``ctx_features``.
- row-local templates — registered per name in ``FEATURE_PROVIDERS``
  (the reference's NEW featurizer shape: a ``Feature`` enum of
  independent providers, ``kbp/slotfilling/process/Feature.java:30-56``
  + ``FeatureProviders.java``; a user adds a template by registering a
  provider, SURVEY.md §2.12). ``featurize_batch`` applies
  ``ACTIVE_FEATURES`` in order and appends ``ctx_features``.

``featurize_batch`` is columnar around the per-row provider API. A
provider sees only the ``Featurizable`` view, a pure function of the
row's (subj, subj_type, obj, obj_type, between, subj_end, obj_end), so
the providers run once per DISTINCT key in the batch, with the
word-cluster map resolved once per call. The per-key lists go back to
the rows with one ``take``, and each row's ``ctx_features`` is
appended at the offsets level; ``ctx_features`` never becomes Python
lists. The per-row loop it replaced is the test oracle
``featurize_loop`` in tests/oracles.py.

Feature strings keep the reference's whitespace→``_`` post-processing
(``FeatureFactory.java:133-137``) so a real template library drops into
the same column contract (``features: list<string>``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import FEATURIZED_SCHEMA
from .deps import dep_features


class Featurizable(NamedTuple):
    """Row view handed to providers (``Featurizable.java`` analog)."""

    subj: str
    subj_type: str
    obj: str
    obj_type: str
    between: str
    between_tokens: list[str]
    subj_head: int        # last span token (head-final chunks)
    obj_head: int
    distance: int         # |subj_head - obj_head|
    clusters: dict        # word → cluster id, resolved once per batch


# --- providers (each: Featurizable → list[str]) ------------------------

def _p_legacy_conjunctions(f: Featurizable) -> list[str]:
    """Pattern-component surface (types/order/dist/between)."""
    order = "SO" if f.subj_head <= f.obj_head else "OS"
    return [
        f"types:{f.subj_type}:{f.obj_type}",
        f"order:{order}",
        f"dist:{min(len(f.between_tokens), 10)}",
        f"between:{f.between}",
        f"types_between:{f.subj_type}:{f.between}:{f.obj_type}",
    ]


def _p_arg_type(f: Featurizable) -> list[str]:
    """FeatureFactory.java:169-171."""
    return [f"arg1type={f.subj_type}_and_arg2type={f.obj_type}"]


def _p_surface_distance_binary(f: Featurizable) -> list[str]:
    return [f"surface_distance_{f.distance}"]


def _p_surface_distance_bins(f: Featurizable) -> list[str]:
    d = f.distance
    if d < 4:
        return [f"surface_distance_bin{d}"]
    if d < 6:
        return ["surface_distance_bin_lt6"]
    if d < 10:
        return ["surface_distance_bin_lt10"]
    return ["surface_distance_bin_ge10"]


def _p_arg_order(f: Featurizable) -> list[str]:
    return ["arg1BeforeArg2"] if f.subj_head < f.obj_head else []


def _p_arg_words(f: Featurizable) -> list[str]:
    """doNotLexicalizeFirstArg=true — the KBP config (:349-355)."""
    return [f"word_arg1:_{f.obj.rsplit(' ', 1)[-1]}"]


def _p_span_words_unigrams(f: Featurizable) -> list[str]:
    return [f"span_word:{t}" for t in f.between_tokens]


def _p_span_words_bigrams(f: Featurizable) -> list[str]:
    """FeatureFactory.java:505-510 (available, not in the active set)."""
    t = f.between_tokens
    return [f"span_bigram:{a}-{b}" for a, b in zip(t, t[1:])]


def _p_span_words_trigger(f: Featurizable) -> list[str]:
    """FeatureFactory.java:512-518 — relation labels of trigger
    phrases beginning inside the between-args span (available, not in
    the active set, matching relationFeatures line 89). The reference
    marks whole-sentence tokens and reads the span slice; connector
    phrases in this world always lie strictly between the args, so
    marking the span is equivalent."""
    from .triggers import trigger_marks
    return [f"span_words_trigger={m[2:]}"
            for m in trigger_marks(f.between_tokens)
            if m is not None and m.startswith("B-")]


def _clusters() -> dict[str, str]:
    from ..world import get_world
    return get_world().word_clusters()


def _p_arg_cluster(f: Featurizable) -> list[str]:
    """FeatureFactory.java:349-356: clusters of the two arg head
    words, separately and concatenated."""
    cl = f.clusters
    c0 = cl.get(f.subj.rsplit(" ", 1)[-1])
    c1 = cl.get(f.obj.rsplit(" ", 1)[-1])
    feats = []
    if c0 is not None:
        feats.append(f"cluster_arg0:_{c0}")
    if c1 is not None:
        feats.append(f"cluster_arg1:_{c1}")
    if c0 is not None and c1 is not None:
        feats.append(f"cluster_args:_{c0}__{c1}")
    return feats


def _p_span_clusters_unigrams(f: Featurizable) -> list[str]:
    """FeatureFactory.java:495-502: span words mapped to clusters."""
    cl = f.clusters
    return [f"span_cluster:{cl[t]}" for t in f.between_tokens
            if t in cl]


def _p_surface_path_clusters(f: Featurizable) -> list[str]:
    """FeatureFactory.java:450-476: concatenation of the between
    tokens mapped to word clusters (tokens without a cluster are
    skipped, exactly as the reference's containsKey guard does)."""
    cl = f.clusters
    path = "_".join(cl[t] for t in f.between_tokens if t in cl)
    return [f"surface_path_clusters:_{path}_"] if path else []


FEATURE_PROVIDERS: dict[str, object] = {
    "legacy_conjunctions": _p_legacy_conjunctions,
    "arg_type": _p_arg_type,
    "surface_distance_binary": _p_surface_distance_binary,
    "surface_distance_bins": _p_surface_distance_bins,
    "arg_order": _p_arg_order,
    "arg_words": _p_arg_words,
    "span_words_unigrams": _p_span_words_unigrams,
    "span_words_bigrams": _p_span_words_bigrams,
    "span_words_trigger": _p_span_words_trigger,
    "arg_cluster": _p_arg_cluster,
    "span_clusters_unigrams": _p_span_clusters_unigrams,
    "surface_path_clusters": _p_surface_path_clusters,
}

#: the default template set, in emission order (matches the active
#: relationFeatures list plus the word-cluster families; changing it
#: requires a trained-model cache version bump in pipelines/train.py)
ACTIVE_FEATURES: tuple[str, ...] = (
    "legacy_conjunctions", "arg_type", "surface_distance_binary",
    "surface_distance_bins", "arg_order", "arg_words",
    "span_words_unigrams", "arg_cluster", "span_clusters_unigrams",
    "surface_path_clusters")


def register_feature(name: str, provider) -> None:
    """Feature-enum extension point (``Feature.java:10-29``)."""
    FEATURE_PROVIDERS[name] = provider


def context_features(tokens: list[str], pos, edges,
                     mentions, em_span: tuple, sm_span: tuple) -> list[str]:
    """Sentence-context templates for one (entity, slot) candidate.

    ``mentions`` iterates (begin, end, ner) triples of ALL typed
    mentions in the sentence (entity + slot mentions, the reference's
    EntityMentionsAnnotation ∪ SlotMentionsAnnotation).
    """
    n = len(tokens)
    feats: list[str] = []
    cl = _clusters()
    # adjacent_words + adjacent_clusters: words (and their clusters,
    # FeatureFactory.java:382-395) immediately left/right of each arg
    for argn, (b, e) in enumerate((em_span, sm_span)):
        if b > 0:
            feats.append(f"leftarg{argn}-{tokens[b - 1]}")
            c = cl.get(tokens[b - 1])
            if c is not None:
                feats.append(f"leftarg{argn}-{c}")
        if e < n:
            feats.append(f"rightarg{argn}-{tokens[e]}")
            c = cl.get(tokens[e])
            if c is not None:
                feats.append(f"rightarg{argn}-{c}")
    # entities_between_args: NER type of every other mention whose head
    # lies strictly between the two arg heads
    h0, h1 = em_span[1] - 1, sm_span[1] - 1
    lo, hi = (h0, h1) if h0 < h1 else (h1, h0)
    counts: dict[str, int] = {}
    for mb, me, ner in mentions:
        counts[ner] = counts.get(ner, 0) + 1
        mh = me - 1
        if lo < mh < hi:
            feats.append(f"entity_between_args:_{ner}")
    # entity_counts_binary / entity_counts_bins per type present
    for ner in sorted(counts):
        c = counts[ner]
        feats.append(f"entity_counts_{ner}:_{c}")
        if c < 4:
            feats.append(f"entity_counts_bin{c}")
        elif c < 6:
            feats.append("entity_counts_bin_lt6")
        elif c < 10:
            feats.append("entity_counts_bin_lt10")
        else:
            feats.append("entity_counts_bin_ge10")
    # dependency templates (+ full_tree_path stand-in)
    if edges:
        feats.extend(dep_features(tokens, pos, edges, em_span, sm_span))
    return feats


def _distinct_rows(batch: pa.Table, cols) -> tuple[np.ndarray, list]:
    """→ (inverse, values): each row's code among the batch's distinct
    value tuples over ``cols`` (nulls are values too), and per column
    the Python value of every code. Per-column dictionary codes are
    folded into one mixed-radix key and re-densified after every
    column, so the key never overflows and no joined-string separator
    is assumed; values come from the small dictionaries, not from a
    per-row conversion."""
    key = np.zeros(batch.num_rows, np.int64)
    encs = []
    for name in cols:
        enc = pc.dictionary_encode(batch.column(name).combine_chunks(),
                                   null_encoding="encode")
        codes = enc.indices.to_numpy().astype(np.int64)
        encs.append((enc.dictionary, codes))
        key = key * len(enc.dictionary) + codes
        _, key = np.unique(key, return_inverse=True)
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    return inverse, [np.array(d.to_pylist(), dtype=object)[c[first]]
                     .tolist() for d, c in encs]


def _append_lists(a: pa.ListArray, b) -> pa.ListArray:
    """Row-wise ``a[i] + b[i]`` of two ``list<string>`` columns at the
    offsets level: the output offsets add the two length vectors, and
    one stable sort of the values' row ids places each row's ``a``
    values, then its ``b`` values — no per-row Python lists."""
    if b.null_count:
        raise ValueError(f"featurize: {b.null_count} candidate rows have "
                         "a null 'ctx_features' list")
    la = pc.list_value_length(a).to_numpy()
    lb = pc.list_value_length(b).to_numpy()
    rows = np.arange(len(la))
    order = np.argsort(np.concatenate([np.repeat(rows, la),
                                       np.repeat(rows, lb)]),
                       kind="stable")
    vb = pc.list_flatten(b)
    if isinstance(vb, pa.ChunkedArray):
        vb = vb.combine_chunks()
    values = pa.concat_arrays([pc.list_flatten(a), vb.cast(pa.string())])
    offsets = np.zeros(len(la) + 1, np.int32)
    np.cumsum(la + lb, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets),
                                    values.take(order))


def featurize_batch(batch: pa.Table,
                    features: tuple[str, ...] = ACTIVE_FEATURES
                    ) -> pa.Table:
    """candidates → candidates + ``features``: the providers' strings
    in ``features`` order, then ``ctx_features``. A provider sees only
    the ``Featurizable`` row view, a pure function of the columns it
    is built from, so the providers run once per distinct key (a
    4096-doc batch of the generated corpus has about 12.7k distinct
    keys among 23k rows) and the per-key lists are gathered back per
    row, then ``ctx_features`` appended (``_append_lists``)."""
    providers = [FEATURE_PROVIDERS[name] for name in features]
    inverse, values = _distinct_rows(batch, (
        "subj", "subj_type", "obj", "obj_type", "between", "subj_end",
        "obj_end"))
    clusters = _clusters()
    keyed: list[list[str]] = []
    for s, st, o, ot, bw, s1, o1 in zip(*values):
        row = Featurizable(
            subj=s, subj_type=st, obj=o, obj_type=ot, between=bw,
            between_tokens=bw.split(" ") if bw else [],
            subj_head=s1 - 1, obj_head=o1 - 1,
            distance=abs((s1 - 1) - (o1 - 1)), clusters=clusters)
        f: list[str] = []
        for p in providers:
            f.extend(p(row))
        keyed.append(f)
    feats = pa.array(keyed, pa.list_(pa.string())).take(inverse)
    if "ctx_features" in batch.column_names:
        feats = _append_lists(feats, batch.column("ctx_features"))

    names = [n for n in FEATURIZED_SCHEMA.names
             if n in batch.column_names and n != "features"]
    t = pa.Table.from_arrays([batch.column(n) for n in names],
                             names=names)
    return t.append_column("features", feats)


def featurize(candidates, *, batch_size: int = 4096,
              features: tuple[str, ...] = ACTIVE_FEATURES):
    def fn(batch: pa.Table) -> pa.Table:
        return featurize_batch(batch, features)

    return candidates.map_batches(fn, batch_format="pyarrow",
                                  batch_size=batch_size)
