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
``run_kg`` call to the next, as a long-lived actor's would. Nothing
reserves CPUs while idle, so extraction uses every CPU the moment
offers, and a worker that cannot import the package fails its task at
once.

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


def _extract_batch(batch: pa.Table, seed: int, aliases_ref,
                   model_ref) -> pa.Table:
    return FusedExtractor.cached(seed, aliases_ref, model_ref)(batch)


def extract(documents, *, seed: int = 42, aliases_ref=None,
            model_ref=None, batch_size: int = EXTRACT_BATCH):
    """documents Dataset → partial fills Dataset (stateless tasks).
    ``aliases_ref`` and ``model_ref`` are ``ray.put`` refs (or None)."""
    return documents.map_batches(
        _extract_batch,
        fn_kwargs={"seed": seed, "aliases_ref": aliases_ref,
                   "model_ref": model_ref},
        batch_format="pyarrow", batch_size=batch_size)
