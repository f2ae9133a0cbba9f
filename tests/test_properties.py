"""Property-based invariants (hypothesis) over the pure kernels the
distributed operators are built from. Each property is the guarantee
the corresponding pipeline's docstring claims — checked over generated
inputs, not fixtures. No Ray session needed: these are the batch-level
kernels, so the suite stays fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stanford_relation_extractor_ray.functions.text import (
    levenshtein, timex_normalize, within_one_edit)
from stanford_relation_extractor_ray.stages.dedup import (
    _perm_params, minhash_signature, shingles, simhash64)
from stanford_relation_extractor_ray.stages.sketches import (
    CountMinSketch, hll_estimate, hll_registers)

_WORDS = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma",
     "tau", "zeta", "iota"])
_TEXTS = st.lists(_WORDS, min_size=0, max_size=60).map(" ".join)


# ---- MinHash ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(_TEXTS, _TEXTS)
def test_minhash_tracks_jaccard(a_text, b_text):
    """Signature agreement is an unbiased Jaccard estimator
    (σ = √(J(1−J)/k) ≈ 0.044 at k=128; bound at ~6σ so the property
    never flakes) and identical shingle sets give identical
    signatures."""
    a, b = _perm_params(128, seed=7)
    sa, sb = shingles(a_text), shingles(b_text)
    siga = minhash_signature(sa, a, b)
    sigb = minhash_signature(sb, a, b)
    if sa == sb:
        assert np.array_equal(siga, sigb)
        return
    true_j = len(sa & sb) / len(sa | sb)
    est = float(np.mean(siga == sigb))
    assert abs(est - true_j) <= 0.3


# ---- Count-Min -------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(_WORDS, min_size=1, max_size=200),
       st.integers(min_value=1, max_value=199))
def test_cms_one_sided_and_partition_invariant(tokens, cut):
    """CMS estimates never undercount, and the sketch of the whole
    equals the merge of the sketches of any partition — bit-equal,
    the property the map-side partial fold relies on."""
    cut = min(cut, len(tokens))
    whole = CountMinSketch(depth=4, width=256).add(tokens)
    left = CountMinSketch(depth=4, width=256).add(tokens[:cut])
    right = CountMinSketch(depth=4, width=256).add(tokens[cut:])
    assert np.array_equal(whole.table, left.merge(right).table)
    uniq, counts = np.unique(tokens, return_counts=True)
    assert (whole.query(list(uniq)) >= counts).all()


# ---- HyperLogLog -----------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4000),
       st.integers(min_value=0, max_value=3000))
def test_hll_merge_law_and_accuracy(n_a, n_b):
    """max-merge of per-partition registers is bit-equal to the
    registers of the union (the groupby fold's correctness), and the
    estimate stays within 10% at p=12 (σ ≈ 1.6%)."""
    a_vals = [f"u{i}" for i in range(n_a)]
    b_vals = [f"u{i}" for i in range(n_b)]          # overlapping
    union = hll_registers(list(set(a_vals) | set(b_vals)))
    merged = np.maximum(hll_registers(a_vals), hll_registers(b_vals))
    assert np.array_equal(union, merged)
    true_n = max(n_a, n_b)
    assert abs(hll_estimate(union) - true_n) <= 0.10 * true_n + 2


# ---- SimHash ---------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(_TEXTS)
def test_simhash_deterministic_and_band_pigeonhole(text):
    """simhash64 is process-independent-deterministic, and the
    4-band pigeonhole used by simhash_pairs holds: any two 64-bit
    values within Hamming distance 3 share at least one of 4 16-bit
    bands (flip ≤3 bits and check)."""
    h = simhash64(text)
    assert h == simhash64(text)
    assert 0 <= h < (1 << 64)
    rng = np.random.RandomState(len(text))
    flipped = h
    for bit in rng.choice(64, size=3, replace=False):
        flipped ^= 1 << int(bit)
    bands_a = [(h >> (16 * i)) & 0xFFFF for i in range(4)]
    bands_b = [(flipped >> (16 * i)) & 0xFFFF for i in range(4)]
    assert any(x == y for x, y in zip(bands_a, bands_b))


# ---- Levenshtein -----------------------------------------------------

_SHORT = st.text(alphabet="abcde", min_size=0, max_size=8)


@settings(max_examples=50, deadline=None)
@given(_SHORT, _SHORT, _SHORT)
def test_levenshtein_is_a_metric(a, b, c):
    assert levenshtein(a, a) == 0
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
    assert levenshtein(a, b) >= abs(len(a) - len(b))


_SHORT_UNI = st.text(alphabet="abé字", min_size=0, max_size=7)


@settings(max_examples=300, deadline=None)
@given(_SHORT_UNI, _SHORT_UNI)
def test_within_one_edit_equals_bounded_levenshtein(a, b):
    """The O(n) scan answers exactly ``levenshtein(a, b) <= 1``, on
    random pairs and on one-edit neighbours of ``a``."""
    assert within_one_edit(a, b) == (levenshtein(a, b) <= 1)
    i = len(b) % (len(a) + 1)
    for near in (a[:i] + a[i + 1:], a[:i] + "字" + a[i:],
                 a[:i] + "é" + a[i + 1:]):
        assert within_one_edit(a, near) == (levenshtein(a, near) <= 1)


# ---- timex -----------------------------------------------------------

_MONTHS = ["January", "February", "March", "April", "May", "June",
           "July", "August", "September", "October", "November",
           "December"]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=28),
       st.integers(min_value=1900, max_value=2099))
def test_timex_normalizes_generated_dates(m, d, y):
    """Any '<Month> <d> , <y>' surface normalizes to ISO, and the
    normal form is a fixpoint."""
    iso = f"{y:04d}-{m:02d}-{d:02d}"
    assert timex_normalize(f"{_MONTHS[m - 1]} {d} , {y}") == iso
    assert timex_normalize(iso) == iso


# ---- trigger marks ---------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(_WORDS, min_size=0, max_size=6),
       st.lists(_WORDS, min_size=0, max_size=6))
def test_trigger_marks_reconstruct_real_phrases(prefix, suffix):
    """Wherever a B- mark lands, the B/I run starting there spells a
    real connector phrase of the labeled relation (case-insensitive),
    for any surrounding context."""
    from stanford_relation_extractor_ray.stages.triggers import (
        trigger_marks, trigger_seqs)
    phrases = {}
    for label, seq in trigger_seqs():
        phrases.setdefault(label, set()).add(seq)
    toks = prefix + ["was", "born", "in"] + suffix
    marks = trigger_marks(toks)
    assert len(marks) == len(toks)
    for i, mk in enumerate(marks):
        if mk is None or not mk.startswith("B-"):
            continue
        label = mk[2:]
        j = i + 1
        while j < len(toks) and marks[j] == "I-" + label:
            j += 1
        run = tuple(t.lower() for t in toks[i:j])
        assert any(seq == run[:len(seq)]
                   for seq in phrases[label]), (run, label)


def test_doc_shingle_rows_matches_per_doc_sets():
    """The vectorized batch shingle kernel (`_doc_shingle_rows`) and
    the per-doc `shingles()` set builder agree on every edge shape:
    short docs (whole-text shingle), empty text, null text, duplicate
    windows, multi-space runs."""
    import numpy as np
    import pyarrow as pa

    from stanford_relation_extractor_ray.stages.dedup import (
        _doc_shingle_rows, shingles)

    texts = ["the quick brown fox jumps over the lazy dog",
             "a b", "", None, "x y x y x y x y", "a  b c   d e f",
             "one two three"]
    d, grams, seg = _doc_shingle_rows(pa.array(texts, pa.string()), 3)
    got = {}
    for di, g in zip(d, grams.to_pylist()):
        got.setdefault(int(di), set()).add(g)
    for i, t in enumerate(texts):
        assert got[i] == shingles(t or "", 3), f"doc {i}"
    # doc-contiguous, every doc owns >=1 row, seg offsets per doc
    assert list(np.diff(d) >= 0) == [True] * (len(d) - 1)
    assert len(seg) == len(texts)


def test_vectorized_minhash_signature_equality():
    """The reduceat signature path in `to_bands` equals the per-doc
    `minhash_signature` on the same shingle sets (same crc32 values →
    same per-perm minima)."""
    import numpy as np
    import pyarrow as pa
    import zlib

    from stanford_relation_extractor_ray.stages.dedup import (
        _MERSENNE, _doc_shingle_rows, _perm_params, minhash_signature,
        shingles)

    texts = ["the quick brown fox jumps over the dog",
             "a b", "", "x y x y x y", "one two three four five"]
    a, b = _perm_params(16, 7)
    d, grams, seg = _doc_shingle_rows(pa.array(texts, pa.string()), 3)
    enc = grams.dictionary_encode()
    dh = np.fromiter((zlib.crc32(s.encode())
                      for s in enc.dictionary.to_pylist()),
                     np.uint64, len(enc.dictionary))
    hv = dh[enc.indices.to_numpy(zero_copy_only=False)]
    sig = np.empty((len(texts), 16), np.uint64)
    for i in range(16):
        sig[:, i] = np.minimum.reduceat((a[i] * hv + b[i]) % _MERSENNE,
                                        seg)
    for i, t in enumerate(texts):
        want = minhash_signature(shingles(t, 3), a, b)
        assert np.array_equal(sig[i], want), f"doc {i}"


@given(st.lists(st.text(alphabet="ab ", min_size=0, max_size=40),
                min_size=1, max_size=12))
def test_simhash_batch_equals_per_doc(texts):
    """`_simhash64_batch` is bit-identical to per-doc `simhash64`."""
    import numpy as np
    import pyarrow as pa

    from stanford_relation_extractor_ray.stages.dedup import (
        _simhash64_batch, simhash64)

    got = _simhash64_batch(pa.array(texts, pa.string()), 1)
    want = np.array([simhash64(t, 1) for t in texts], np.uint64)
    assert np.array_equal(got, want)
