"""sha256 digests (first 16 hex digits) and row counts of the graph
inference operators at one seed, to compare two checkouts. The input is
``finalize_fills(extract_fills(documents_dataset(2000, SEED)))``; the
operators are ``symmetric_inverse_rewrite``, ``transitive_infer``,
``prune_by_distance`` (the first 5 subjects, distance 4), ``mine_rules``
and ``probabilistic_infer`` (every subject, two transitive rules,
``max_dist=2``, ``n_iters=400``). Digests cover full rows, scores
included; rows are sorted before hashing, so only the row sets count.
Each operator's wall time goes to stderr, so stdout diffs cleanly.

Usage, from the root of a checkout:
    PYTHONPATH=. python scripts/graph_digests.py SEED
"""
import hashlib
import sys
import time

import ray

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from stanford_relation_extractor_ray.corpus import documents_dataset
from stanford_relation_extractor_ray.pipelines.kg import (extract_fills,
                                                          finalize_fills)
from stanford_relation_extractor_ray.stages import graph_infer, mln

seed = int(sys.argv[1])


def dig(rows) -> str:
    rows = sorted(repr(r) for r in rows)
    m = hashlib.sha256()
    for r in rows:
        m.update(r.encode() + b"\n")
    return m.hexdigest()[:16]


def records(df) -> list:
    return [tuple(r.values()) for r in df.to_dict("records")]


def show(name, run):
    t0 = time.perf_counter()
    out = run()
    rows = records(out if hasattr(out, "to_dict") else out.to_pandas())
    print(f"{name} time_s {time.perf_counter() - t0:.3f}",
          file=sys.stderr)
    print(name, len(rows), dig(rows))


fills = finalize_fills(extract_fills(documents_dataset(2000, seed),
                                     seed=seed), seed=seed).materialize()
subjects = sorted({r["subj"] for r in
                   fills.select_columns(["subj"]).take_all()})
rules = [mln.Rule(2.0, (("org:parents", "x", "y"),
                        ("org:parents", "y", "z")),
                  ("org:parents", "x", "z")),
         mln.Rule(2.0, (("per:member_of", "x", "y"),
                        ("org:member_of", "y", "z")),
                  ("per:member_of", "x", "z"))]
show("symmetric_inverse_rewrite",
     lambda: graph_infer.symmetric_inverse_rewrite(fills))
show("transitive_infer", lambda: graph_infer.transitive_infer(fills))
show("prune_by_distance",
     lambda: graph_infer.prune_by_distance(fills, subjects[:5],
                                           max_dist=4))
show("mine_rules", lambda: graph_infer.mine_rules(fills))
show("probabilistic_infer",
     lambda: mln.probabilistic_infer(fills, subjects, rules, max_dist=2,
                                     n_iters=400))
ray.shutdown()
