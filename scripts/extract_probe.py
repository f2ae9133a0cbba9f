"""Time the streaming extract and show when each of its tasks ran.

It writes an N_DOCS-document corpus with the generator (seed 42), then
times ``extract_fills(read_table(corpus)).materialize()`` REPEATS times
in a local Ray session of CPUS CPUs and an object store of STORE_MB MiB
(Ray's default when 0). For each repeat it prints the wall, then every
extract task as ``start..end`` in seconds after the repeat began, with
its worker pid. Tasks that all start near the first one ran at once; a
task that starts where another ended waited for it. The last line is
the median wall.

Usage, from the root of a checkout:
    PYTHONPATH=. python scripts/extract_probe.py N_DOCS CPUS \\
        [STORE_MB] [REPEATS]
"""
import os
import statistics
import sys
import tempfile
import time

import ray

n_docs, cpus = int(sys.argv[1]), int(sys.argv[2])
store_mb = int(sys.argv[3]) if len(sys.argv) > 3 else 0
repeats = int(sys.argv[4]) if len(sys.argv) > 4 else 6

ray.init(address="local", num_cpus=cpus, include_dashboard=False,
         logging_level="ERROR",
         object_store_memory=store_mb << 20 if store_mb else None)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from stanford_relation_extractor_ray.corpus import documents_dataset
from stanford_relation_extractor_ray.pipelines.kg import extract_fills
from stanford_relation_extractor_ray.stages import extract_fused, link
from stanford_relation_extractor_ray.storage import read_table, write_table

inner = extract_fused._extract_batch


def timed_batch(batch, seed, aliases_ref, model_ref, log_dir):
    """``_extract_batch`` that also leaves a ``start end pid`` file."""
    start = time.time()
    out = inner(batch, seed, aliases_ref, model_ref)
    with open(os.path.join(log_dir, f"{start:.6f}-{os.getpid()}"),
              "w") as f:
        f.write(f"{start} {time.time()} {os.getpid()}")
    return out


with tempfile.TemporaryDirectory() as d:
    corpus = write_table(documents_dataset(n_docs, 42),
                         os.path.join(d, "corpus"))
    aliases_ref = link.build_alias_ref(42)
    walls = []
    for rep in range(repeats):
        log_dir = os.path.join(d, f"log-{rep}")
        os.makedirs(log_dir)
        extract_fused._extract_batch = (
            lambda b, seed, aliases_ref, model_ref, log_dir=log_dir:
            timed_batch(b, seed, aliases_ref, model_ref, log_dir))
        t0 = time.time()
        rows = extract_fills(read_table(corpus),
                             aliases_ref=aliases_ref).materialize().count()
        walls.append(time.time() - t0)
        tasks = sorted(tuple(map(float, open(os.path.join(log_dir, n))
                                 .read().split()))
                       for n in os.listdir(log_dir))
        print(f"repeat {rep}: {walls[-1]:.3f} s, {rows} partial fills, "
              + ", ".join(f"+{a - t0:.2f}..+{b - t0:.2f} pid {int(p)}"
                          for a, b, p in tasks))
    print(f"median extract wall over {repeats}: "
          f"{statistics.median(walls):.3f} s")
ray.shutdown()
