"""One benchmark run in its own process: a fresh Ray session, timed
set-up, an untimed warm-up op that doubles as a self-test, then ops in
a closed loop from this single thread until ``--seconds`` have passed.

Progress goes to the supervisor (``run.py``) as JSON lines on
``--event-fd``; each line resets the supervisor's deadline, so a stalled
phase is cut off there, not here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
PACKAGE = "stanford_relation_extractor_ray"

SETUP_DEADLINE_S = 150


class Events:
    def __init__(self, fd: int):
        self.f = os.fdopen(fd, "w", buffering=1)

    def __call__(self, ev: str, **kw) -> None:
        self.f.write(json.dumps({"ev": ev, **kw}, default=str) + "\n")


def ray_init(num_cpus: int, temp: str) -> None:
    import ray
    from ray.data import DataContext
    # Ray's unix sockets live under the temp dir and are limited to 107
    # bytes; deep checkouts fall back to Ray's default location
    kw = {"_temp_dir": temp} if len(temp) <= 40 else {}
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, **kw)
    DataContext.get_current().enable_progress_bars = False


def cpu_times() -> list[int]:
    """The machine's cpu line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal (jiffies)."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def given(fn):
    """Call ``fn``; return (its result, wall s, share given).

    The share given is the part of the CPU time this machine wanted
    during the call that the hypervisor gave it: busy / (busy + steal).
    Other guests of the host take up to a third of it for minutes at a
    time, and op walls stretch by about 1 / share; a wall times the
    share is what the call costs on a quiet host."""
    before, t = cpu_times(), time.perf_counter()
    r = fn()
    wall = time.perf_counter() - t
    d = [end - start for start, end in zip(before, cpu_times())]
    busy = d[0] + d[1] + d[2] + d[5] + d[6]
    return r, wall, busy / (busy + d[7]) if busy + d[7] else 1.0


def host() -> dict:
    import pyarrow
    import ray
    h = hashlib.sha256()
    pkg = os.path.join(REPO, PACKAGE)
    for d, dirs, files in os.walk(pkg):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, pkg).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"affinity_cpus": len(os.sched_getaffinity(0)),
            "ram_gb": round(os.sysconf("SC_PAGE_SIZE")
                            * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "git_sha": sha,
            "package_sha256": h.hexdigest()[:16]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--ray-cpus", type=int, required=True)
    ap.add_argument("--op-deadline", type=float, required=True)
    ap.add_argument("--event-fd", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--ray-dir", required=True)
    a = ap.parse_args(argv)
    emit = Events(a.event_fd)

    import ray

    import spans
    import workloads
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    emit("ready", deadline_s=SETUP_DEADLINE_S)

    tracer = spans.Tracer(bool(a.trace))
    wl = workloads.WORKLOADS[a.workload](a.seed, a.work_dir, tracer, pins)
    try:
        return run(a, emit, spec, tracer, wl)
    finally:
        ray.shutdown()


def run(a, emit, spec, tracer, wl) -> int:
    from workloads import CheckFailed

    _, wall, share = given(lambda: ray_init(a.ray_cpus, a.ray_dir))
    init_s = wall * share
    walls = []
    for k in range(wl.setups):
        _, wall, share = given(lambda: wl.setup(k))
        walls.append(wall * share)
    setup_s = init_s + statistics.median(walls)
    emit("phase", name="prepare", deadline_s=SETUP_DEADLINE_S)
    wl.prepare()

    attempted = failed = 0
    results: list[dict] = []
    walls_by_mode: dict[bool, list[float]] = {True: [], False: []}
    errors: list[str] = []

    def attempt(op_id: str, fn) -> dict | None:
        nonlocal attempted, failed
        tracer.op_id = op_id
        emit("op_start", op=op_id, deadline_s=a.op_deadline)
        attempted += 1
        try:
            r = fn()
        except CheckFailed as e:
            failed += 1
            errors.append(f"{op_id}: {e}")
            r = None
        except Exception:          # an engine error is a failed op
            failed += 1
            errors.append(f"{op_id}: {traceback.format_exc(limit=3)}")
            r = None
        emit("op_end", op=op_id, ok=r is not None,
             deadline_s=a.op_deadline)
        return r

    attempt("warmup", lambda: wl.warmup() or {})

    def timed():
        r, _, share = given(wl.op)
        r["given"] = share
        wl.check(r)
        return r

    t0 = time.perf_counter()
    i = 0
    # a traced run alternates traced and untraced ops so the tracing
    # overhead is measured within one run; it needs one of each
    while (time.perf_counter() - t0 < a.seconds or i == 0
           or (a.trace and i < 2)):
        traced = bool(a.trace) and i % 2 == 0
        tracer.enabled = traced
        r = attempt(f"op{i}", timed)
        if r is not None:
            r["traced"] = traced
            results.append(r)
            walls_by_mode[traced].append(r["wall"])
        i += 1
    tracer.enabled = bool(a.trace)

    metrics: dict = {}
    report: dict = {"workload": a.workload, "seed": a.seed,
                    "ray_cpus": a.ray_cpus, "host": host(),
                    "op_walls_s": [round(r["wall"], 4) for r in results],
                    # per op, the share of the CPU time it wanted that
                    # the hypervisor gave (see ``given``)
                    "op_cpu_given": [round(r["given"], 4) for r in results],
                    "digests": wl.first,
                    "errors": errors}
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    if results and not a.trace:
        gated, named = wl.metrics(results)
        values = {"setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024, **gated}
        metrics = {m["name"]: values[m["name"]]
                   for m in spec["end_to_end"]}
        report["workload_metrics"] = named
    elif results:
        emit("phase", name="layers", deadline_s=a.op_deadline)
        traced = [r for r in results if r["traced"]] or results
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]),
                               0.0)
        values.update(wl.layers(traced))
        values.update(wl.probe())
        values["ray.init_s"] = init_s
        if walls_by_mode[True] and walls_by_mode[False]:
            values["trace.overhead_s"] = (
                statistics.median(walls_by_mode[True])
                - statistics.median(walls_by_mode[False]))
        metrics = {m["name"]: values[m["name"]] for m in spec["per_layer"]}
        with open(os.path.join(HERE, "layers.json")) as f:
            targets = json.load(f)["layers"]
        report["layers"] = {
            n: {"value": metrics[n], "unit": units[n],
                "moves": targets[n]["moves"],
                "on": targets[n]["workloads"]} for n in metrics}
        out = os.path.join(REPO, ".perfbench", "traces")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{a.workload}-{a.seed}.json")
        tracer.dump(path, {"report": report})
        report["trace_file"] = os.path.relpath(path, REPO)
    report["error_rate"] = {"value": failed / attempted,
                            "unit": "failed/attempted"}
    record = {"correct": failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    # the deadline now covers Ray's shutdown
    emit("result", record=record, report=report, deadline_s=30)
    return 0


if __name__ == "__main__":
    sys.exit(main())
