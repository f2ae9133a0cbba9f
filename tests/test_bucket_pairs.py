"""``dedup.bucket_pairs``, the package's one bucket-mate enumeration,
and its three callers, each pinned to the per-run loop it replaced
(tests/oracles.py): MinHash LSH's distinct pairs, SimHash's
``(id_a, id_b, hamming)`` rows and canonicalization's same-entity
pairs with their orientation (``a`` is the smaller name, because the
linker's greedy token match is not symmetric).

The inputs repeat (bucket, id) rows, and include empty input, singleton
buckets, one hot bucket and int64 ids that do not fit 32 bits.

MinHash's exact-Jaccard verify (``dedup._verify_pairs``, one ragged
lexsort over every pair's digests) is pinned to its per-pair
``np.intersect1d`` loop the same way."""

import itertools

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stanford_relation_extractor_ray.stages import canonicalize, dedup

from oracles import (hamming_pairs_loop, lsh_pairs_loop,
                     pairs_in_partition_loop, verify_pairs_loop)

U64 = [0, 1, 5, 2**63 + 5, 2**64 - 1]
# simhashes a few bits apart, and far apart
HASHES = [0, 1, 0b111, 0b1111, 0xF0F0, 2**63 | 1, 2**64 - 1]
ids = st.one_of(st.integers(0, 9), st.integers(2**40, 2**40 + 9),
                st.integers(-2**63, 2**63 - 1))
rows = st.lists(st.tuples(st.sampled_from(U64), ids), max_size=40)
HOT = [(5, i) for i in range(30)] + [(0, 2**40), (1, -3)]
EXAMPLES = [[], [(0, 1), (1, 2), (5, 3)], [(0, 7), (0, 7), (0, 2**40)],
            HOT + HOT[:4]]


def _group(rs, **extra) -> pa.Table:
    return pa.table({"id": pa.array([r[1] for r in rs], pa.int64()),
                     "bucket": pa.array([r[0] for r in rs], pa.uint64()),
                     **extra})


def _with_examples(*args):
    def wrap(test):
        for rs in EXAMPLES:
            test = example(rs, *args)(test)
        return test
    return wrap


@settings(max_examples=150, deadline=None)
@given(rows)
@_with_examples()
def test_bucket_pairs_lists_every_bucket_mate_once_in_order(rs):
    b = np.array([r[0] for r in rs], np.uint64)
    i = np.array([r[1] for r in rs], np.int64)
    left, right = dedup.bucket_pairs(b, i)
    got = list(zip(b[left].tolist(), i[left].tolist(), i[right].tolist()))
    members: dict = {}
    for bb, ii in rs:
        members.setdefault(bb, set()).add(ii)
    want = sorted((bb, x, y) for bb, m in members.items()
                  for x, y in itertools.combinations(sorted(m), 2))
    assert got == want
    # a repeated (bucket, id) row counts as its first row
    first = {}
    for n, r in enumerate(rs):
        first.setdefault(r, n)
    assert all(first[rs[n]] == n for n in np.concatenate([left, right]))


@settings(max_examples=150, deadline=None)
@given(rows)
@_with_examples()
def test_minhash_pairs_equal_former_loop(rs):
    group = _group(rs)
    out = dedup._lsh_pairs(group)
    got = list(zip(out.column("id_a").to_pylist(),
                   out.column("id_b").to_pylist()))
    assert len(got) == len(set(got))
    assert set(got) == lsh_pairs_loop(group)


@settings(max_examples=150, deadline=None)
@given(rows, st.integers(0, 4))
@_with_examples(3)
def test_simhash_pairs_equal_former_loop(rs, radius):
    # one simhash per id, as one document has one text
    sh = pa.array([HASHES[r[1] % len(HASHES)] for r in rs], pa.uint64())
    group = _group(rs, sh=sh)
    out = dedup._hamming_pairs(group, radius)
    got = set(zip(out.column("id_a").to_pylist(),
                  out.column("id_b").to_pylist(),
                  out.column("hamming").to_pylist()))
    assert got == hamming_pairs_loop(group, radius)
    assert out.schema.field("hamming").type == pa.int64()


NAMES = ["Acme", "Acme Dynamics", "Acme Dynamics Corp", "Dynamics Acme",
         "AD", "ADC", "Bob Smith", "Robert Smith", "B. Smith", "Smith",
         "Bob Smith Jr", "IBM", "International Business Machines"]
surface = st.tuples(st.sampled_from(NAMES),
                    st.sampled_from(["PERSON", "ORGANIZATION"]),
                    st.sampled_from(["acme", "smith", "a", "i", "x"]))


@settings(max_examples=150, deadline=None)
@given(st.lists(surface, max_size=30))
@example([])
@example([("Acme", "ORGANIZATION", "x")])
@example([(n, "PERSON", "hot") for n in NAMES]
         + [("Acme", "PERSON", "hot"), ("AD", "PERSON", "a")])
def test_canonical_pairs_equal_former_loop(rs):
    group = pa.table({
        "name": pa.array([r[0] for r in rs], pa.string()),
        "type": pa.array([r[1] for r in rs], pa.string()),
        # a block key always carries its type, as _explode_blocks makes it
        "block": pa.array([f"{r[1]}:{r[2]}" for r in rs], pa.string())})
    out = canonicalize._pairs_in_partition(group)
    assert out.schema == pa.schema([("a", pa.string()), ("b", pa.string()),
                                    ("type", pa.string())])
    got = set(zip(*(out.column(c).to_pylist() for c in ("a", "b", "type"))))
    want = pairs_in_partition_loop(group)
    assert got == set(zip(*(want.column(c).to_pylist()
                            for c in ("a", "b", "type"))))
    assert all(a < b for a, b, _ in got)



DIGESTS = [0, 1, 2, 7, 2**32, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1]
digest_sets = st.lists(st.sampled_from(DIGESTS), unique=True).map(sorted)
VERIFY_EXAMPLES = [
    [],
    [([], [])],                                  # both empty
    [([], [1, 2]), ([2**63], [])],               # one side empty
    [([0, 1], [2, 2**63 + 5])],                  # disjoint
    [(DIGESTS, DIGESTS), ([2**64 - 1], [2**64 - 1])],   # identical
    [([1, 2, 7], [2, 7, 2**63]), ([0], [0, 1, 2])],     # j 1/2 and 1/3
]


def _with_verify_examples(test):
    for ex in VERIFY_EXAMPLES:
        for threshold in (0.0, 0.5):
            test = example(ex, threshold)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(digest_sets, digest_sets), max_size=12),
       st.sampled_from([0.0, 1 / 3, 0.5, 1.0]))
@_with_verify_examples
def test_verify_pairs_equals_intersect_loop(pairs, threshold):
    sets = pa.list_(pa.uint64())
    n = len(pairs)
    hit = pa.table({"id_a": pa.array(range(n), pa.int64()),
                    "id_b": pa.array(range(n, 2 * n), pa.int64()),
                    "sh_a": pa.array([p[0] for p in pairs], sets)})
    # a sliced, chunked digest column, as ``take`` hands it over
    sh_b = pa.chunked_array(
        [pa.array([[5]] + [p[1] for p in pairs], sets).slice(1)], sets)
    got = dedup._verify_pairs(hit, sh_b, threshold).combine_chunks()
    want = verify_pairs_loop(hit, sh_b, threshold)
    assert got.equals(want), (pairs, threshold)
