"""Benchmark of record for the KG engine.

    python3 perfbench/run.py --workload kg_stream --seed 1 --seconds 15 \
        --trace 0

Workloads: ``kg_stream``, ``kg_trained_job``, ``shuffle_ops`` (see
``workloads.py``). The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones (and a span file under
``.perfbench/traces/``). The line before it is a report with the host
fingerprint, per-op walls, errors and, for traced runs, which
end-to-end metric each layer metric should move.

Timings are taken on a virtual machine whose host lends its CPUs to
other guests: each timed call's wall is scaled by the share of the CPU
time the machine wanted during it that the hypervisor gave it
(``client.given``), and a run's throughput is that of its median op.

This process is only a supervisor: the run itself (``client.py``) is a
child in its own process group, together with every Ray process it
starts. A phase or op that misses its deadline is recorded as a failed
op, the whole group is killed and the run ends with that record instead
of hanging. The exit code is 0 only when every op passed its checks; it
is 2, with no record, when the package is not there to benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# Ray sizing is fixed, never taken from the host: one CPU livelocks (the
# extract actor pool reserves it and the read tasks never schedule), two
# give one extract actor plus one task slot and measured steady
RAY_CPUS = 2
OP_DEADLINE_S = 60
RUN_DEADLINE_S = 170


def group_pids(pgid: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(name))
    return pids


def stop_group(pgid: int, grace: float) -> None:
    """Give the process group ``grace`` seconds to exit, then SIGTERM,
    then SIGKILL it; return once it is empty."""
    for sig, wait in ((None, grace), (signal.SIGTERM, 5.0),
                      (signal.SIGKILL, 10.0)):
        try:
            if sig is not None:
                os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        end = time.monotonic() + wait
        while time.monotonic() < end:
            if not group_pids(pgid):
                return
            time.sleep(0.1)


def become_subreaper() -> None:
    """Orphans of the run (Ray processes whose parent was killed) are
    re-parented to this process, so ``reap`` can collect them."""
    import ctypes
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(36, 1, 0, 0, 0)              # PR_SET_CHILD_SUBREAPER


def reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["kg_stream", "kg_trained_job", "shuffle_ops"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ray-cpus", type=int, default=RAY_CPUS,
                    help="Ray CPUs (the stall self-test uses 1)")
    ap.add_argument("--op-deadline", type=float, default=OP_DEADLINE_S)
    a = ap.parse_args(argv)

    for need in ("BENCHMARK.json", "stanford_relation_extractor_ray"):
        if not os.path.exists(os.path.join(REPO, need)):
            print(f"perfbench: {need} not found next to perfbench/",
                  file=sys.stderr)
            return 2

    # per-run directories, so runs sharing a checkout never collide
    scratch = os.path.join(REPO, ".perfbench")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    ray_dir = os.path.join(REPO, ".pbr", str(os.getpid()))
    os.makedirs(work)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([REPO, HERE]),
               TMPDIR=scratch, RAY_USAGE_STATS_ENABLED="0",
               PYTHONDONTWRITEBYTECODE="1")
    become_subreaper()
    r, w = os.pipe()
    cmd = [sys.executable, os.path.join(HERE, "client.py"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--ray-cpus", str(a.ray_cpus),
           "--op-deadline", str(a.op_deadline), "--event-fd", str(w),
           "--work-dir", work, "--ray-dir", ray_dir]
    # the child's stdout is Ray's, not ours: send it to stderr
    child = subprocess.Popen(cmd, cwd=REPO, env=env, pass_fds=(w,),
                             stdout=sys.stderr, start_new_session=True)
    os.close(w)

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    ready = False
    result = None
    started = ended = failed = 0
    stalled = None
    last: dict = {}
    last_at = start
    buf = b""
    with os.fdopen(r, "rb", buffering=0) as pipe:
        while True:
            now = time.monotonic()
            if now >= deadline:
                if result is None:
                    where = last.get("op") or last.get("name") or ""
                    stalled = f"deadline missed after {last.get('ev')} " \
                        f"{where}".rstrip()
                break
            ready_fds, _, _ = select.select([pipe], [], [], deadline - now)
            if not ready_fds:
                continue
            chunk = pipe.read(65536)
            if not chunk:
                break                       # child closed its end
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                ev = json.loads(line)
                kind = ev["ev"]
                ready |= kind == "ready"
                started += kind == "op_start"
                if kind == "op_end":
                    ended += 1
                    failed += not ev["ok"]
                if kind == "result":
                    result = ev
                last_at = time.monotonic()
                deadline = min(start + RUN_DEADLINE_S,
                               last_at + ev.get("deadline_s", 0))
                last = ev
    stopped = time.monotonic()
    stop_group(child.pid, 0.0 if stalled else 10.0)
    code = child.wait()
    reap()
    for d in (work, ray_dir):
        shutil.rmtree(d, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(ray_dir))

    if result is None and not ready:
        print(f"perfbench: the run failed before it started (exit {code})",
              file=sys.stderr)
        return 2
    if result is None:
        # stalled or crashed: the op in flight, or else the phase, is
        # one more failed op
        record = {"correct": False,
                  "attempted": started + (started == ended),
                  "failed": failed + 1, "metrics": {}}
        report = {"workload": a.workload, "seed": a.seed,
                  "error": stalled or f"run exited with code {code}",
                  "silent_s": round(stopped - last_at, 3),
                  "elapsed_s": round(stopped - start, 3)}
    else:
        record, report = result["record"], result["report"]
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(record))
    return 0 if record["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
