"""stanford_relation_extractor_ray — a Ray-Data-native knowledge-graph
construction engine.

Built from scratch with the query/data-processing capabilities of the
Stanford KBP slot-filling system (MIML-RE relation extraction; studied
read-only at /root/reference/ — see SURVEY.md), re-expressed as idiomatic
Ray Data: ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy
Arrow batches, stateless tasks over per-worker cached components for
stateful stages (NLP annotation, relation scoring, entity linking,
codecs; ``runtime.map_cached``), and explicit groupby shuffles (bag
assembly, blocking, canonical merge) with salted keys for hot entities.

Nothing here imports from or translates the reference's Java; reference
files are cited in docstrings only to document behavioral parity.
"""

__version__ = "0.1.0"
