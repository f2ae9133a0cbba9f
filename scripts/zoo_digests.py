"""sha256 digests (first 16 hex digits) of every trained classifier's
weights and bag scores at one seed, to compare two checkouts byte for
byte: the ``MODEL_REGISTRY`` models, ``JOINT_BAYES`` and
``LOCAL_BAYES`` on ``build_training_bags(200, seed)`` (with
``classify_bag`` over those bags), ``train_supervised`` on
``annotated_examples(200, seed)``, ``train_lr(400, seed)`` with a fresh
cache dir and ``train_bagged(400, seed)``. Run it in several fresh
processes to check that training does not depend on task timing.

Usage, from the root of a checkout:
    PYTHONPATH=. python scripts/zoo_digests.py SEED
"""
import copy
import hashlib
import sys
import tempfile

import numpy as np
import ray

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from stanford_relation_extractor_ray.pipelines import (
    classifiers, jointbayes, train)

seed = int(sys.argv[1])


def enc(o, m):
    """Feed ``o`` to ``m`` in a form that tells dtypes, shapes and float
    types apart (floats as their exact hex)."""
    if isinstance(o, np.ndarray):
        m.update(repr((str(o.dtype), o.shape)).encode())
        m.update(np.ascontiguousarray(o).tobytes())
    elif isinstance(o, dict):
        m.update(b"{")
        for k in sorted(o, key=repr):
            enc(k, m)
            enc(o[k], m)
        m.update(b"}")
    elif isinstance(o, (list, tuple)):
        m.update(b"[")
        for x in o:
            enc(x, m)
        m.update(b"]")
    elif isinstance(o, (float, np.floating)):
        m.update((type(o).__name__ + float(o).hex()).encode())
    else:
        m.update((type(o).__name__ + repr(o)).encode())


def dig(o):
    m = hashlib.sha256()
    enc(o, m)
    return m.hexdigest()[:16]


bags = jointbayes.build_training_bags(200, seed)
sfs = [b["sent_features"] for b in bags]
print("bags", len(bags), dig(bags))
for name in list(classifiers.MODEL_REGISTRY) + ["JOINT_BAYES",
                                                 "LOCAL_BAYES"]:
    if name == "SUPERVISED":
        continue
    m = classifiers.train_model(name, copy.deepcopy(bags), seed=seed)
    if name in ("JOINT_BAYES", "LOCAL_BAYES"):
        w = (m.z_single, m.y)
        s = [[jointbayes.classify_bag(m, sf, mode) for sf in sfs]
             for mode in ("Y_GIVEN_ZSTAR", "NOISY_OR", "Y_THEN_NOISY_OR")]
    elif name == "GOLD":
        w = m.memory
        s = [m.classify_pair(b["subj"], b["obj"]) for b in bags]
    else:
        w = vars(m)
        s = [m.classify_bag(sf) for sf in sfs]
    print(name, "weights", dig(w), "scores", dig(s))
datums = train.annotated_examples(200, seed).take_all()
m = classifiers.train_supervised(datums, seed=seed)
print("SUPERVISED", "datums", len(datums), dig(datums), "weights",
      dig((m.W, m.b, m.labels)), "scores",
      dig([m.classify_bag(sf) for sf in sfs]))
with tempfile.TemporaryDirectory() as d:
    print("train_lr", dig(train.train_lr(400, seed, cache_dir=d)))
print("train_bagged", dig(train.train_bagged(400, seed)))
ray.shutdown()
