"""Layered gate benchmark.

Drives the public gate API (``run_gate``) end to end over one named
workload, from one process, and checks every op's output against the
in-process ``GateStage``.

    python3 gatebench/run.py --workload html_gate --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced per-layer probes (``layers.py``) instead. ``--smoke`` shrinks the
workload, corrupts one op's output and is what ``test_gatebench.py``
runs. The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries the distributions and the host/config fingerprint, which are
also written under ``.gatebench/results``.

Set-up (``ray.init`` through one warm-up op) is measured several times
per run and reported as its median; every timed op runs on a warm
session. Input generation is cached in ``.gatebench/cache`` and never
timed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".gatebench")
SETUP_REPS = 3
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets
# ~64 bytes below its temp dir.
_RAY_SOCKET_SUFFIX = 64


def host_cpus() -> int:
    """The CPU count ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _proc_table() -> dict:
    """pid -> (ppid, state, cpu seconds) for every process in /proc."""
    tick = os.sysconf("SC_CLK_TCK")
    table = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        f = stat[stat.rfind(")") + 2:].split()
        table[int(pid)] = (int(f[1]), f[0], (int(f[11]) + int(f[12])) / tick)
    return table


def steal_ticks() -> tuple:
    """(steal ticks, all ticks) of the host's CPUs so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def descendants(table: dict | None = None) -> list:
    """Every process started, directly or not, by this one."""
    table = _proc_table() if table is None else table
    kids: dict = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _wait_gone(procs: list, seconds: float) -> list:
    """Wait until every pid in ``procs`` has exited; the ones still
    running after ``seconds``."""
    deadline = time.monotonic() + seconds
    while True:
        table = _proc_table()
        procs = [p for p in procs if p in table and table[p][1] != "Z"]
        if not procs or time.monotonic() > deadline:
            return procs
        time.sleep(0.05)


def session_cpu_s() -> float:
    """CPU seconds of this process plus every process it started (Ray's
    GCS, raylet and workers), read from /proc."""
    table = _proc_table()
    return sum(table[p][2] for p in [os.getpid()] + descendants(table) if p in table)


class RaySession:
    """One local Ray cluster sized to the host; ``stop`` waits until
    every process it started has ended."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        temp = os.path.join(WORK, "r")
        self.temp_dir = temp if len(temp) + _RAY_SOCKET_SUFFIX <= 107 else None
        self.stops: list = []

    def start(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        # workers import the package, and this directory's modules, from the checkout
        paths = [ROOT, os.path.dirname(os.path.abspath(__file__))] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        ray.init(address="local", num_cpus=self.num_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20, _temp_dir=self.temp_dir)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self) -> None:
        """Shut Ray down; a process still running 5 s later is killed.
        Each stop's seconds and killed command lines are kept in ``stops``."""
        import ray

        procs = descendants()
        session_dir = ray._private.worker._global_node.get_session_dir_path()
        t = time.perf_counter()
        ray.shutdown()
        lingering = _wait_gone(procs, 5)
        killed = []
        for p in lingering:
            try:
                with open(f"/proc/{p}/cmdline", "rb") as fh:
                    killed.append(fh.read().replace(b"\0", b" ").decode()[:120])
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        _wait_gone(lingering, 10)
        self.stops.append({"s": time.perf_counter() - t, "killed": killed})
        if self.temp_dir:
            shutil.rmtree(session_dir, ignore_errors=True)


def fingerprint(num_cpus: int, cfg) -> dict:
    import hashlib

    import numpy
    import pyarrow
    import ray

    from rsmetacheck_ray.functions.hashing import content_hash_fingerprint

    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "rsmetacheck_ray")
    for d, _, files in sorted(os.walk(pkg)):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    src.update(fh.read())
    return {
        "nproc": host_cpus(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": num_cpus, "ray": ray.__version__,
        "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
        "git_rev": git_rev(), "source_sha256": src.hexdigest()[:16],
        "batch_size": cfg.batch_size, "hash_fp": content_hash_fingerprint(),
    }


def git_rev() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(vals: list) -> dict:
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return {"median": v, "p25": v, "p75": v, "n": len(vals)}
    q = statistics.quantiles(vals, n=4)
    return {"median": q[1], "p25": q[0], "p75": q[2], "n": len(vals)}


class Gate:
    """Runs and checks ops of one workload; one op is one ``run_gate``
    call over all of the workload's fragments, in one partition."""

    def __init__(self, w, ins, ref, cfg, corrupt_op: int | None = None):
        self.w, self.ins, self.ref, self.cfg = w, ins, ref, cfg
        self.corrupt_op = corrupt_op
        self.ops = 0
        self.attempted = 0
        self.failed = 0

    def out_dir(self) -> str:
        return os.path.join(WORK, "out", f"{self.w.name}-{self.ops}")

    def count(self, problems: list, what: str) -> None:
        """Record one checked gate call; a failure never aborts the run."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"[gatebench] {self.w.name} {what}: {problems}", file=sys.stderr)

    def op(self, keep_output: bool = False) -> dict:
        """One measured and checked op into a fresh output directory."""
        import checks
        from rsmetacheck_ray.pipelines.quality_gate import run_gate

        out = self.out_dir()
        shutil.rmtree(out, ignore_errors=True)
        cpu0, steal0 = session_cpu_s(), steal_ticks()
        try:
            t = time.perf_counter()
            run_gate(self.ins.fragments, out, self.cfg, n_partitions=1)
            wall = time.perf_counter() - t
            cpu = session_cpu_s() - cpu0
            steal = [b - a for a, b in zip(steal0, steal_ticks())]
            if self.ops == self.corrupt_op:
                checks.corrupt(out)
            problems = checks.check_run_dir(out, self.ins.fragments, self.ref, self.ins.labels)
        except Exception:
            traceback.print_exc()
            wall, cpu, steal, problems = None, None, None, ["op raised"]
        self.count(problems, f"op {self.ops}")
        self.ops += 1
        rec = {"out": out, "wall": wall, "cpu_s": cpu, "steal": steal and steal[0] / steal[1],
               "bytes": checks.dir_bytes(out) if wall else None}
        if not keep_output:
            shutil.rmtree(out, ignore_errors=True)
        return rec


def setup_and_warm(session: RaySession, gate: Gate) -> float:
    t = time.perf_counter()
    session.start()
    gate.op()
    return time.perf_counter() - t


def e2e(gate: Gate, session: RaySession, seconds: float, setup_reps: int) -> dict:
    """``setup_reps`` sessions, each set up, warmed and then timed for an
    equal share of ``seconds``: the ops sample the whole run, not one
    stretch of it, so a slow spell on a shared host moves fewer of them."""
    setups, ops = [], []
    for _ in range(setup_reps):
        setups.append(setup_and_warm(session, gate))
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds / setup_reps:
            ops.append(gate.op())
        session.stop()
    good = [o for o in ops if o["wall"] is not None]
    docs = gate.ins.docs
    dist = {
        "docs_per_s": quartiles([docs / o["wall"] for o in good]),
        "setup_s": quartiles(setups),
        "op_walls_s": [o["wall"] for o in good],
        "op_steal_share": [o["steal"] for o in good],
    }
    metrics = {
        "docs_per_s": (dist["docs_per_s"]["median"], "1/s"),
        "cpu_us_per_doc": (1e6 * statistics.median(o["cpu_s"] for o in good) / docs
                           if good else float("nan"), "us"),
        "out_bytes_per_doc": (statistics.median(o["bytes"] for o in good) / docs
                              if good else float("nan"), "B"),
        "setup_s": (dist["setup_s"]["median"], "s"),
    }
    return {"metrics": metrics, "dist": dist}


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny input, one set-up, and one deliberately corrupted op")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "rsmetacheck_ray", "__init__.py")):
        print(f"gatebench: no rsmetacheck_ray package beside {os.path.dirname(__file__)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # temp files of this process and of every Ray process stay in the checkout
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    import inputs
    from rsmetacheck_ray.config import DEFAULT_CONFIG as cfg

    if args.workload not in inputs.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}")
    w = inputs.WORKLOADS[args.workload]
    if args.smoke:
        w = dataclasses.replace(w, name=w.name + "-smoke", docs=max(w.docs // 10, 8 * w.files))
    ins = inputs.prepare(w, args.seed, os.path.join(WORK, "cache"))

    import checks

    ref = checks.Reference(ins.fragments, cfg)
    num_cpus = host_cpus()
    session = RaySession(num_cpus)
    # smoke: the first op after the warm-up op gets a corrupted output
    gate = Gate(w, ins, ref, cfg, corrupt_op=1 if args.smoke else None)
    try:
        if args.trace:
            import layers

            res = layers.traced_run(gate, session, setup_and_warm)
        else:
            res = e2e(gate, session, args.seconds, 1 if args.smoke else SETUP_REPS)
    finally:
        import ray

        if ray.is_initialized():
            session.stop()

    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "fingerprint": fingerprint(num_cpus, cfg), **res, "ray_stops": session.stops,
              "run_wall_s": time.perf_counter() - started}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{w.name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
