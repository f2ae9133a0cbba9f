"""Fused per-document extraction stage.

The modular stage chain (nlp → pair → link → featurize → score) is four
map stages. Every one of them is a pure per-row transform with no
shuffle between them, so ``extract`` runs the whole chain per batch in
ONE stateless ``map_batches`` task: documents in, per-batch partial
fills out. Intermediate tables never leave the worker, and the object
store carries only documents and (tiny) partial fills.

The chain's components are built once per worker process and kept in
the bounded worker cache (``runtime.worker_cached``). Ray reuses task
workers, so the annotator's scan/pair memos, the linker and the
scorer's relation memo stay warm from one batch, execution, shard or
``run_kg`` call to the next, as a long-lived actor's would, and a
worker that cannot import the package fails its task at once.

Every extract execution runs under its own ``DataContext`` copy
(``unreserved``). A documents read cannot fuse with the batched extract
map, and Ray Data's per-operator resource reservation would then hold
the map to one task until its first task ends while other CPUs idle.
The copy turns the reservation off and caps output blocks. It also
keeps block order: the per-batch partial noisy-or merges whichever read
blocks share a batch, so without it the partials of a streaming read
would depend on which read task finished first. It has to be a copy:
Datasets derived from one another share one context object, so setting
it in place would change the caller's documents Dataset too. Datasets
built on the extract output inherit the copy.

The cache keys are what keep reuse exact:
- annotator: ``seed`` — one warm annotator serves the pattern-only and
  the trained path, because its pair memo keys ``with_ctx`` itself
  (``mentions.pair_candidates_fused``);
- linker: ``(aliases ref, seed)``, shared with the other linking stages;
- scorer: the model ref.

``FusedExtractor`` composes the SAME components the modular stages use
(NLPAnnotator, EntityLinker, CandidateScorer, featurize_batch) and
pairs through ``pair_candidates_fused``, which shares its kernel and
emission with ``pair_mentions``; the candidates are pinned equal by
tests/test_pairing_kernel.py and the scores by
tests/test_pipeline_e2e.py.
"""

from __future__ import annotations

import pyarrow as pa

from ..runtime import ref_key, worker_cached
from .classify import CandidateScorer
from .featurize import featurize_batch
from .link import EntityLinker, _cached_linker
from .mentions import pair_candidates_fused
from .nlp import NLPAnnotator


class FusedExtractor:
    """documents batch → partial fills: pair → link → [featurize] →
    score, over the given components."""

    def __init__(self, nlp: NLPAnnotator, linker: EntityLinker,
                 scorer: CandidateScorer):
        self.nlp = nlp
        self.linker = linker
        self.scorer = scorer
        self.need_features = scorer.lr is not None

    @classmethod
    def cached(cls, seed: int, aliases_ref, model_ref):
        """This worker process's chain, from the worker cache."""
        scorer = worker_cached("scorer", ref_key(model_ref),
                               lambda: CandidateScorer(model_ref))
        nlp = worker_cached("annotator", seed, lambda: NLPAnnotator(seed))
        return cls(nlp, _cached_linker(aliases_ref, seed), scorer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cands = pair_candidates_fused(self.nlp, batch,
                                      with_ctx=self.need_features)
        cands = self.linker(cands)
        if self.need_features:
            cands = featurize_batch(cands)
        return self.scorer(cands)


# documents per extract task: the batch the per-batch partial noisy-or
# and the annotator's memos work over
EXTRACT_BATCH = 4096


# Ray Data's output-block bound in an extract execution's context.
# Until a fresh operator's first task finishes, Ray estimates each
# pending task's output at twice this bound; at the default 128 MiB a
# 512 MiB object store admits one extract task at a time. One 4096-doc
# batch emits 0.2-0.35 MB of partial fills (pattern-only and trained,
# seeds 42 and 7), so its output stays one block.
EXTRACT_BLOCK_BYTES = 8 << 20


def unreserved(ds):
    """``ds`` over its own copy of its ``DataContext``, with the
    per-operator resource reservation off and output blocks capped at
    ``EXTRACT_BLOCK_BYTES``, so every extract batch can start at once,
    and with block order preserved, so each batch holds the same
    documents in every run. The caller's Datasets and the process
    context keep their settings; Datasets derived from the result
    inherit the copy."""
    from ray.data import Dataset
    ds = Dataset.copy(ds, _deep_copy=True)
    ds.context.op_resource_reservation_enabled = False
    ds.context.target_max_block_size = EXTRACT_BLOCK_BYTES
    ds.context.execution_options.preserve_order = True
    return ds


def _extract_batch(batch: pa.Table, seed: int, aliases_ref,
                   model_ref) -> pa.Table:
    return FusedExtractor.cached(seed, aliases_ref, model_ref)(batch)


def extract(documents, *, seed: int = 42, aliases_ref=None,
            model_ref=None, batch_size: int = EXTRACT_BATCH):
    """documents Dataset → partial fills Dataset (stateless tasks).
    ``aliases_ref`` and ``model_ref`` are ``ray.put`` refs (or None)."""
    return unreserved(documents.map_batches(
        _extract_batch,
        fn_kwargs={"seed": seed, "aliases_ref": aliases_ref,
                   "model_ref": model_ref},
        batch_format="pyarrow", batch_size=batch_size))
