"""Worker-loss resilience: SIGKILL a Ray worker process (never the
driver) while a shuffle-bearing dedup query is executing and assert
the output is identical to an undisturbed run — Ray's task retry plus
lineage re-execution must absorb the loss. This is the multi-node
failure mode the on-disk resume tests don't cover."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.01"


# Ray Data's long-lived session actors: their workers are never idle,
# and killing one kills no task of the run under test
_SESSION_ACTORS = ("ray::_StatsActor", "ray::AutoscalingRequester",
                   "ray::ActorLocationTracker")


def _active_worker_pids(task: str | tuple[str, ...] | None = None) -> list[int]:
    """PIDs of ray workers EXECUTING a task right now (cmdline
    'ray::<task>', not 'ray::IDLE' or a session actor), never the
    current process; only those running ``task`` (a name, or a tuple
    of names) when it is given."""
    names = (task,) if isinstance(task, str) else task
    me = os.getpid()
    out = []
    for pid_s in os.listdir("/proc"):
        if not pid_s.isdigit() or int(pid_s) == me:
            continue
        try:
            with open(f"/proc/{pid_s}/cmdline", "rb") as f:
                cmd = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if names is not None and cmd not in {f"ray::{t}" for t in names}:
            continue
        if cmd.startswith("ray::") and not cmd.startswith(
                ("ray::IDLE", *_SESSION_ACTORS)):
            out.append(int(pid_s))
    return out


class _Killer(threading.Thread):
    """Poll for ACTIVE ray workers (those running ``task``, if given)
    and SIGKILL up to ``n`` of them — a kill only counts when it lands
    on a worker mid-task."""

    def __init__(self, n: int = 1, task: str | tuple[str, ...] | None = None,
                 poll_s: float = 0.02):
        super().__init__(daemon=True)
        self.n = n
        self.task = task
        self.poll_s = poll_s
        self.killed: list[int] = []
        self.stop = threading.Event()

    def run(self):
        while len(self.killed) < self.n and not self.stop.is_set():
            for pid in _active_worker_pids(self.task):
                if pid in self.killed:
                    continue
                try:
                    os.kill(pid, signal.SIGKILL)
                    self.killed.append(pid)
                except OSError:
                    continue
                if len(self.killed) >= self.n:
                    break
            time.sleep(self.poll_s)


def _rows(ds):
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


def _run_with_kill(fn, want, n_kill: int, task: str | tuple[str, ...] | None = None):
    """Run ``fn`` repeatedly with a concurrent active-worker killer (of
    ``task`` workers only, when given) until a kill lands mid-execution
    (a warm run can finish before any task is observable); every
    attempt's output must equal ``want``."""
    for _ in range(8):
        killer = _Killer(n=n_kill, task=task)
        killer.start()
        try:
            got = _rows(fn(SF))
        finally:
            killer.stop.set()
            killer.join(timeout=12)
        assert got == want
        if killer.killed:
            return killer.killed
    return []


def test_worker_loss_mid_shuffle_identical_output(ray_session):
    from rsmetacheck_ray.pipelines.queries import registry

    fn = registry()["dedup_exact"][0]
    want = _rows(fn(SF))
    assert len(want) > 0
    killed = _run_with_kill(fn, want, n_kill=2)
    assert killed, "no kill ever landed on an executing worker"


def test_worker_loss_during_groupby_shuffle(ray_session):
    """Same check on a groupby-shuffle query (dataset diff: one
    hashed-partition all-to-all with per-group merges)."""
    from rsmetacheck_ray.pipelines.queries import registry

    fn = registry()["dataset_diff"][0]
    want = _rows(fn(SF))
    assert len(want) > 0
    killed = _run_with_kill(fn, want, n_kill=1)
    assert killed, "no kill ever landed on an executing worker"


def _active_gate_actor_pids() -> list[int]:
    """PIDs of GateStage ACTORS currently executing a submit call."""
    me = os.getpid()
    out = []
    for pid_s in os.listdir("/proc"):
        if not pid_s.isdigit() or int(pid_s) == me:
            continue
        try:
            with open(f"/proc/{pid_s}/cmdline", "rb") as f:
                cmd = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if cmd.startswith("ray::MapWorker(MapBatches(GateStage)).submit"):
            out.append(int(pid_s))
    return out


def test_actor_pool_member_loss(ray_session):
    """SIGKILL a GateStage ACTOR mid-batch on the actor-pool gate
    layout (build_gate(compute='actors')): Ray Data must replace the
    pool member and re-run its in-flight batch, with gate output
    identical to an undisturbed run — the stateful-stage counterpart
    of the task-retry tests above."""
    import pyarrow.compute as pc
    import ray.data as rd

    from rsmetacheck_ray.datagen import corpus_dir
    from rsmetacheck_ray.pipelines.quality_gate import build_gate

    pages_dir, _ = corpus_dir(20000, n_files=16)

    def gate_counts(kill: bool):
        out = build_gate(rd.read_parquet(pages_dir), compute="actors")
        killed: list[int] = []
        stop = threading.Event()

        def killer():
            deadline = time.time() + 20
            while (
                not killed and time.time() < deadline
                and not stop.is_set()
            ):
                for pid in _active_gate_actor_pids():
                    try:
                        os.kill(pid, signal.SIGKILL)
                        killed.append(pid)
                        break
                    except OSError:
                        continue
                time.sleep(0.02)

        th = None
        if kill:
            th = threading.Thread(target=killer, daemon=True)
            th.start()
        n = kept = 0
        for b in out.iter_batches(batch_format="pyarrow"):
            n += len(b)
            kept += pc.sum(pc.cast(b.column("keep"), "int64")).as_py()
        if th:
            stop.set()
            th.join(timeout=21)
        return n, kept, killed

    want = gate_counts(False)
    assert want[0] == 20000
    for _ in range(5):
        got = gate_counts(True)
        assert got[:2] == want[:2], (got, want)
        if got[2]:
            return  # a kill landed mid-batch and the run still matched
    raise AssertionError("no kill ever landed on an executing actor")


def test_worker_loss_during_bsp_bfs(ray_session):
    """SIGKILL a BFS shard task (``_bfs_scatter`` / ``_bfs_gather``)
    during the raw-Ray BSP min-plus BFS (dedup_graph_bfs): task retry +
    lineage reconstruction of the
    per-shard distance objects must reproduce the identical hop map —
    the bare-task counterpart of the Dataset-shuffle kill tests."""
    from rsmetacheck_ray.pipelines.queries import q_dedup_graph_bfs

    def fn(sf):
        t = q_dedup_graph_bfs(sf)
        return sorted(
            zip(
                t.column("doc_id").to_pylist(),
                t.column("component_id").to_pylist(),
                t.column("dist").to_pylist(),
            )
        )

    want = fn(SF)
    assert len(want) > 0
    for _ in range(8):
        # the shard tasks live a few ms each: poll fast enough to see one
        killer = _Killer(n=1, task=("_bfs_scatter", "_bfs_gather"), poll_s=0.002)
        killer.start()
        try:
            got = fn(SF)
        finally:
            killer.stop.set()
            killer.join(timeout=12)
        assert got == want
        if killer.killed:
            return
    raise AssertionError("no kill ever landed on an executing worker")


def test_worker_loss_during_knn_block_pair_tasks(ray_session):
    """Same check on the kNN JOIN's raw block-pair task stage (the
    from_arrow_refs escape hatch), killing a ``block_pair`` worker — a
    killed block-pair task must be
    retried by lineage, not silently dropped from the union."""
    from rsmetacheck_ray.pipelines.queries import registry

    fn = registry()["crosslingual_knn"][0]
    want = _rows(fn(SF))
    assert len(want) > 0
    killed = _run_with_kill(fn, want, n_kill=1, task="block_pair")
    assert killed, "no kill ever landed on an executing worker"


def _wait_to_be_killed(marker: str):
    """A function for a Ray worker that hands the worker's pid to the
    test through ``marker`` and sleeps until the test kills it. Only the
    first caller does (``os.link`` creates the marker atomically and
    fails once it exists), so the retried task and every other task run
    through."""

    def handshake() -> None:
        tmp = f"{marker}.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(str(os.getpid()))
        try:
            os.link(tmp, marker)
        except FileExistsError:
            return
        finally:
            os.unlink(tmp)
        time.sleep(120)

    return handshake


class _HandshakeKiller(threading.Thread):
    """SIGKILL the worker that names itself in ``marker``: the kill
    lands on a worker that is inside the task, by construction."""

    def __init__(self, marker: str):
        super().__init__(daemon=True)
        self.marker = marker
        self.killed: list[int] = []
        self.stop = threading.Event()

    def run(self):
        while not self.stop.is_set():
            if os.path.exists(self.marker):
                with open(self.marker) as fh:
                    pid = int(fh.read())
                os.kill(pid, signal.SIGKILL)
                self.killed.append(pid)
                return
            time.sleep(0.01)


def _run_killing_one(run, marker: str):
    """``run()`` with the worker that writes ``marker`` SIGKILLed; the
    kill must land."""
    killer = _HandshakeKiller(marker)
    killer.start()
    try:
        got = run()
    finally:
        killer.stop.set()
        killer.join(timeout=12)
    assert killer.killed, "no worker reached the handshake"
    return got


def _gate_docs(out):
    import pyarrow.parquet as pq

    return (pq.read_table(str(out / "docs")).to_pandas()
            .sort_values(["url", "content_hash"]).reset_index(drop=True))


def test_worker_loss_on_fused_gate_tasks(ray_session, small_corpus, tmp_path,
                                         monkeypatch):
    """SIGKILL a fused gate task (``_gate_work_item``) while it runs:
    Ray retries it, and metrics.json and the docs output equal a clean
    run, with one file per work item and no temporary file left behind.
    A fragment of no rows writes no file."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines import quality_gate as qg

    pages = pq.read_table(small_corpus[0]).select(
        ["url", "warc_ts", "html", "text", "lang"])
    lake = tmp_path / "lake"
    os.makedirs(lake)
    for i in range(2):  # 2000 rows each, in bounded row groups of 250
        pq.write_table(pages, lake / f"p{i}.parquet", row_group_size=250)
    pq.write_table(pages.slice(0, 0), lake / "z-empty.parquet")
    units = {}
    for f in sorted(glob.glob(str(lake / "*.parquet"))):
        md = pq.ParquetFile(f).metadata
        units[f] = [md.row_group(g).num_rows for g in range(md.num_row_groups)]
    plans = []
    for f, counts in units.items():  # n_partitions=3: one fragment each
        bs = qg._sized_cfg(DEFAULT_CONFIG, sum(counts)).batch_size
        assert qg._items_are_bounded([(f, "parquet", counts)], bs)
        plans.append(qg._work_items([(f, "parquet", counts)], bs))
    assert [len(p) for p in plans] == [2, 2, 1]

    clean_dir = tmp_path / "clean"
    clean = qg.run_gate(str(lake), str(clean_dir), n_partitions=3)
    assert clean["total_documents"] == 4000

    marker = str(tmp_path / "gate-pid")
    handshake = _wait_to_be_killed(marker)
    gate = qg._gate_work_item._function

    def killed_gate(*args):
        handshake()
        return gate(*args)

    monkeypatch.setattr(qg, "_gate_work_item", ray.remote(
        **qg._gate_work_item._default_options)(killed_gate))
    out = tmp_path / "kill"
    got = _run_killing_one(
        lambda: qg.run_gate(str(lake), str(out), n_partitions=3), marker)
    assert got == clean
    assert (out / "metrics.json").read_bytes() == (
        clean_dir / "metrics.json").read_bytes()
    pd.testing.assert_frame_equal(_gate_docs(out), _gate_docs(clean_dir))
    for pid, want in enumerate([2, 2, 0]):  # the empty fragment: none
        part = out / "docs" / f"partition={pid}"
        assert sorted(os.listdir(part)) == [
            f"part-{k:05d}.parquet" for k in range(want)]
    assert not [d for d in os.listdir(out / "docs")
                if not d.startswith("partition=")]


def test_worker_loss_on_reader_tasks(ray_session, small_corpus, tmp_path,
                                     monkeypatch):
    """SIGKILL a reader (``_read_work_item``, a streaming generator)
    before its second table: Ray re-runs it and hands on only the tables
    it had not yet yielded, so each table is gated and written once and
    metrics.json and the docs output equal a clean run."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines import quality_gate as qg

    pages = pq.read_table(small_corpus[0]).select(
        ["url", "warc_ts", "html", "text", "lang"])
    lake = tmp_path / "lake"
    os.makedirs(lake)
    pq.write_table(pa.concat_tables([pages, pages]), lake / "one.parquet")
    bs = qg._sized_cfg(DEFAULT_CONFIG, 4000).batch_size
    assert not qg._items_are_bounded([("one.parquet", "parquet", [4000])], bs)
    n = -(-4000 // bs)
    assert n >= 3

    clean_dir = tmp_path / "clean"
    clean = qg.run_gate(str(lake), str(clean_dir), n_partitions=1)
    assert clean["total_documents"] == 4000

    marker = str(tmp_path / "reader-pid")
    handshake = _wait_to_be_killed(marker)
    reader = qg._read_work_item._function

    def killed_reader(item):
        for j, t in enumerate(reader(item)):
            if j == 1:
                handshake()
            yield t

    monkeypatch.setattr(qg, "_read_work_item", ray.remote(
        **qg._read_work_item._default_options)(killed_reader))
    out = tmp_path / "kill"
    got = _run_killing_one(
        lambda: qg.run_gate(str(lake), str(out), n_partitions=1), marker)
    assert got == clean
    assert (out / "metrics.json").read_bytes() == (
        clean_dir / "metrics.json").read_bytes()
    pd.testing.assert_frame_equal(_gate_docs(out), _gate_docs(clean_dir))
    assert sorted(os.listdir(out / "docs" / "partition=0")) == [
        f"part-00000-{j:05d}.parquet" for j in range(n)]
    assert os.listdir(out / "docs") == ["partition=0"]
