"""The three closed-loop workloads and the state they share.

Every workload runs the same outer loop: set up (timed several times,
median reported), then rounds until the time budget is spent.  Each
round draws fresh seed blocks from the run seed, so its cold phase is
really cold, and runs the workload's phases in order.  Every phase is
timed with tracing off; in a traced run, rounds alternate between
untraced and traced so the overhead of tracing can be reported per
phase.  Correctness checks run between phases, untimed and untraced.

* ``dse_sweep`` — in-process ``run_sweep``: 7 architectures x the SPEC
  eight x queue depth {default, 16}, five seeds per block.  Phases
  ``compute`` (no store), ``cold`` (fresh store), ``warm`` (same spec,
  every cell a store hit), ``summary`` (same spec from an archival
  copy of the store without latency sidecars) and ``query`` (single
  ``ResultStore.get`` point lookups).
* ``daemon_query`` — one ``repro.sim serve`` subprocess and one
  ``EvalClient`` sending one cell per query.  Phases ``compute`` (the
  in-process reference ``run_sweep``), ``cold``, ``warm`` (seeded
  shuffled passes, all LRU hits) and ``summary`` (the warm sequence
  with ``latencies=False``).
* ``fabric_sweep`` — two daemon subprocesses driven by ``run_fabric``
  (``window=1``) from this process.  Phases ``compute`` (reference),
  ``cold``, ``warm`` and ``summary`` (``latencies=False``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import (Checker, Daemon, SeedPlan, WorkDir, fingerprint, nproc,
                     per_arch_depth_sample, pin_process, proc_hwm_mb,
                     results_digest, tree_bytes)
from spans import Tracer

from repro.errors import SimulationError
from repro.exp.fig9 import Fig9Result
from repro.sim import _fastloop, engine, fabric, sweep, tracegen
from repro.sim import controller as sim_controller
from repro.sim.client import AsyncEvalClient, EvalClient
from repro.sim.controller import MemoryController
from repro.sim.engine import EvalTask
from repro.sim.factory import ARCHITECTURE_NAMES
from repro.sim.simulator import summarize
from repro.sim.stats import SimStats
from repro.sim.store import ResultStore, task_digest
from repro.sim.sweep import SweepSpec
from repro.sim.tracegen import SPEC_WORKLOADS


@dataclass(frozen=True)
class Size:
    """How much work one round does."""

    num_requests: int = 20_000
    workloads: Tuple[str, ...] = tuple(sorted(SPEC_WORKLOADS))
    queue_depths: Tuple[Optional[int], ...] = (None, 16)
    #: Seeds per dse_sweep block: 5 x 8 workloads = 40 distinct traces,
    #: more than the 32-entry ``cached_trace_arrays`` cache holds.
    dse_seeds: int = 5
    #: Single-cell store lookups per dse_sweep round: every cell of the
    #: cold spec, so 28 lie beyond each round's p95; run back to back in
    #: batches of ``query_batch``.
    point_queries: int = 560
    query_batch: int = 112
    #: Shuffled warm passes per daemon_query round.
    warm_passes: int = 2
    #: dse_sweep warm and summary reruns per round (each one sample);
    #: fabric_sweep warm and summary reruns (``warm_reps`` each; two
    #: 112-cell warm reruns give 224 query samples per round).
    warm_reps: int = 2
    summary_reps: int = 4
    #: Queries per throughput window of a daemon_query phase.
    query_window: int = 16
    setup_reps: int = 3
    #: Round 0 only warms caches and pools: it is checked and digested
    #: but never reported.  A traced run alternates untraced and traced
    #: rounds after it.
    min_rounds: int = 4


FULL = Size()
SMOKE = Size(num_requests=2_000, workloads=("gcc", "mcf"), dse_seeds=2,
             point_queries=8, warm_passes=1, warm_reps=1, summary_reps=1,
             query_window=4, setup_reps=2, min_rounds=3)


class InjectedFailure(RuntimeError):
    """Raised by ``--fail-phase`` to prove daemons are shut down cleanly
    when a phase raises."""


@dataclass
class Phase:
    """One timed phase of one round, with every counter delta taken
    around it (outside the timed interval)."""

    name: str
    round: int
    traced: bool
    cells: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    daemon_cpu_s: float = 0.0
    kernel: Dict[str, int] = field(default_factory=dict)
    profile: Dict[str, float] = field(default_factory=dict)
    pool_wall_s: float = 0.0
    membership: Dict[str, int] = field(default_factory=dict)
    server: Dict[str, int] = field(default_factory=dict)
    samples_ms: List[float] = field(default_factory=list)
    #: Query loops only: ``perf_counter`` at the loop start, then after
    #: each query; see :meth:`rates`.
    marks: List[float] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def rates(self, width: int) -> List[float]:
        """Cells/s samples.  A query loop has no per-phase start-up
        cost, so it is cut into windows of ``width`` consecutive queries
        that partition it exactly; any other phase (one sweep or fabric
        call, start-up and tail included) is one sample."""
        marks = self.marks
        if len(marks) <= width:
            return [self.cells / self.wall_s]
        return [width / (marks[i + width] - marks[i])
                for i in range(0, len(marks) - width, width)]


def _delta(after: Dict[str, float], before: Dict[str, float]):
    return {key: value - before.get(key, 0) for key, value in after.items()}


class Bench:
    """State shared by a workload's set-up, rounds and report."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 traced: bool, size: Size,
                 fail_phase: Optional[str] = None) -> None:
        self._created = time.perf_counter()
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.traced_run = traced
        self.size = size
        self.fail_phase = fail_phase
        self.workers = nproc()
        self.plan = SeedPlan(workload, seed)
        self.work = WorkDir(root, workload)
        self.tracer = Tracer()
        self.checker = Checker(evaluate=engine.evaluate_cell)
        self.daemons: List[Daemon] = []
        self.closed_daemons: List[Daemon] = []
        self.phases: List[Phase] = []
        self.setup_s: List[float] = []
        self.store_kb_per_cell: List[float] = []
        self.bytes_written = 0
        self.round0: Dict[str, str] = {}
        self.model: Dict[str, float] = {}
        #: Peak RSS (MB) per process: the benchmark and each daemon.
        self.peak_rss: Dict[str, float] = {}
        #: Wall time of each stage of the run, for the stderr log.
        self.stages: Dict[str, float] = {}

    # -- grid ----------------------------------------------------------------

    def spec(self, seeds: Tuple[int, ...]) -> SweepSpec:
        return SweepSpec(architectures=ARCHITECTURE_NAMES,
                         workloads=self.size.workloads,
                         num_requests=(self.size.num_requests,),
                         seeds=seeds, queue_depths=self.size.queue_depths)

    def warmup_tasks(self) -> List[EvalTask]:
        """One cell per architecture on seed 0, outside every timed block."""
        return [EvalTask(arch, self.size.workloads[0],
                         self.size.num_requests, 0)
                for arch in ARCHITECTURE_NAMES]

    # -- lifecycle -----------------------------------------------------------

    def build(self) -> bool:
        """Build the compiled scheduler twin (cached across runs)."""
        return _fastloop.available()

    def prepare(self) -> None:
        """Untimed in-process preparation: every device and controller
        this process will use (the fabric coordinator needs devices for
        task digests; the reference and checks need controllers)."""
        for arch in ARCHITECTURE_NAMES:
            for depth in self.size.queue_depths:
                engine.controller_for(arch, depth)

    def spawn_daemons(self, count: int) -> List[Daemon]:
        daemons = [Daemon(self.root, self.work.fresh("daemon-store"))
                   for _ in range(count)]
        self.daemons.extend(daemons)
        for daemon in daemons:
            daemon.wait_ready()
        return daemons

    def close_daemon(self, daemon: Daemon) -> None:
        daemon.close()
        if daemon in self.daemons:
            self.daemons.remove(daemon)
        self.closed_daemons.append(daemon)

    def close(self) -> None:
        """Stop every daemon still running and remove the work dir."""
        for daemon in list(self.daemons):
            self.close_daemon(daemon)
        self.work.remove()

    def record_peak_rss(self) -> None:
        """Benchmark process plus every live daemon, read before any of
        them shuts down."""
        self.peak_rss = {"benchmark": proc_hwm_mb(os.getpid())}
        for daemon in self.daemons:
            self.peak_rss[f"daemon {daemon.pid}"] = daemon.hwm_mb()

    # -- rounds --------------------------------------------------------------

    def rounds(self):
        """Yield ``(round, traced)`` until the time budget is spent: a
        round starts only if one more of the last round's length fits."""
        start = time.perf_counter()
        index = 0
        last = 0.0
        self.stages["setup+prepare"] = start - self._created
        while index < self.size.min_rounds \
                or time.perf_counter() - start + last <= self.seconds:
            traced = self.traced_run and index % 2 == 0 and index > 0
            if traced:
                install_tracing(self.tracer)
            began = time.perf_counter()
            try:
                yield index, traced
            finally:
                if traced:
                    self.tracer.uninstall()
            last = time.perf_counter() - began
            index += 1
        self.stages["rounds"] = time.perf_counter() - start
        self.stages["round count"] = index

    def _snapshot(self) -> Dict[str, Any]:
        servers = {}
        for daemon in self.daemons:
            stats = EvalClient(daemon.address, retries=0).stats()
            servers[daemon.pid] = {key: value for key, value in stats.items()
                                   if isinstance(value, int)}
        return {
            "kernel": sim_controller.kernel_counters(),
            "profile": engine.profile_snapshot(),
            "pool": sum(entry["wall_s"] for entry
                        in engine.pool_profile_snapshot().values()),
            "membership": fabric.membership_counters(),
            "servers": servers,
            "daemon_cpu": sum(daemon.cpu_s() for daemon in self.daemons),
        }

    @contextlib.contextmanager
    def phase(self, name: str, round_index: int, traced: bool, cells: int):
        """Time one phase; counter snapshots sit outside the interval."""
        record = Phase(name, round_index, traced, cells)
        before = self._snapshot()
        self.tracer.enabled = traced
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with self.tracer.phase("phase." + name):
                if self.fail_phase == name:
                    raise InjectedFailure(f"injected failure in {name}")
                yield record
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            self.tracer.enabled = False
        after = self._snapshot()
        record.wall_s = t1 - t0
        record.cpu_s = cpu1 - cpu0
        record.daemon_cpu_s = after["daemon_cpu"] - before["daemon_cpu"]
        record.kernel = _delta(after["kernel"], before["kernel"])
        record.profile = _delta(after["profile"], before["profile"])
        record.pool_wall_s = after["pool"] - before["pool"]
        record.membership = _delta(after["membership"], before["membership"])
        server: Dict[str, int] = {}
        for pid, stats in after["servers"].items():
            for key, value in _delta(stats,
                                     before["servers"].get(pid, {})).items():
                server[key] = server.get(key, 0) + value
        record.server = server
        self.phases.append(record)

    def keep_round0(self, round_index: int, name: str,
                    results: Dict[EvalTask, SimStats]) -> None:
        """Round 0 runs whatever the time budget, so its results are
        the ones a fixed seed reproduces."""
        if round_index == 0:
            self.round0[name] = results_digest(results)

    def digest(self) -> str:
        """Digest of every simulated result of round 0, all phases."""
        total = hashlib.sha256()
        for name in sorted(self.round0):
            total.update(f"{name}:{self.round0[name]}".encode())
        return total.hexdigest()

    # -- correctness helpers ---------------------------------------------------

    def check_serial(self, label: str, results: Dict[EvalTask, SimStats],
                     tasks: List[EvalTask]) -> None:
        """One seeded cell per (architecture, queue depth), bit for bit
        against a serial in-process ``evaluate_cell``."""
        sample = per_arch_depth_sample(self.plan, tasks)
        self.checker.against_serial(label, results, sample)


def summary_fingerprints(results: Dict[EvalTask, SimStats]) \
        -> Dict[EvalTask, bytes]:
    """What a latency-free answer must equal: the full result with its
    samples replaced by the fixed-bin summary (``to_dict(False)``)."""
    return {task: fingerprint(SimStats.from_dict(stats.to_dict(False)))
            for task, stats in results.items()}


# -- tracing ------------------------------------------------------------------


def _digest_arg(position: int) -> Callable[..., Optional[str]]:
    def cell(*args, **kwargs):
        task = args[position] if len(args) > position else kwargs.get("task")
        return task_digest(task) if isinstance(task, EvalTask) else None
    return cell


def _batch_digest(*args, **kwargs):
    tasks = list(args[1]) if len(args) > 1 else list(kwargs.get("tasks", ()))
    return task_digest(tasks[0]) if len(tasks) == 1 else None


def _trace_key(*args, **kwargs):
    workload = args[0] if args else kwargs["workload_name"]
    n = args[1] if len(args) > 1 else kwargs.get("num_requests", 20_000)
    seed = args[2] if len(args) > 2 else kwargs.get("seed", 1)
    return (workload, n, seed)


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer this process calls."""
    tracer.wrap(sweep, "run_sweep", "sweep.run_sweep")
    tracer.wrap(fabric, "run_fabric", "fabric.run_fabric")
    tracer.wrap(sweep, "evaluate_tasks", "engine.evaluate_tasks")
    tracer.wrap(engine, "evaluate_cell", "engine.evaluate_cell",
                cell_of=_digest_arg(0))
    tracer.wrap(tracegen, "generate_trace_arrays",
                "tracegen.generate_trace_arrays", key_of=_trace_key)
    tracer.wrap(MemoryController, "run_arrays", "controller.run_arrays")
    tracer.wrap(SimStats, "to_dict", "stats.to_dict")
    tracer.wrap(SimStats, "from_dict", "stats.from_dict", kind="classmethod")
    tracer.wrap(ResultStore, "put", "store.put", cell_of=_digest_arg(1))
    tracer.wrap(ResultStore, "get", "store.get", cell_of=_digest_arg(1),
                result_key=lambda stats: stats is not None)
    tracer.wrap(EvalClient, "eval_cell", "client.eval_cell",
                cell_of=_digest_arg(1))
    tracer.wrap(AsyncEvalClient, "eval_tasks", "client.async_eval_tasks",
                cell_of=_batch_digest, kind="async")


@contextlib.contextmanager
def sample_async_requests(samples_ms: List[float]):
    """Time every ``AsyncEvalClient.eval_tasks`` call (one fabric cell)
    while the block runs; restores the method afterwards."""
    original = AsyncEvalClient.eval_tasks

    @functools.wraps(original)
    async def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            samples_ms.append((time.perf_counter() - t0) * 1e3)

    AsyncEvalClient.eval_tasks = timed
    try:
        yield
    finally:
        AsyncEvalClient.eval_tasks = original


# -- set-up ------------------------------------------------------------------


def _interpreter_setup(bench: Bench) -> float:
    """A fresh interpreter builds every device and controller the sweep
    uses; spawn to ready line."""
    depths = ", ".join(repr(depth) for depth in bench.size.queue_depths)
    code = ("from repro.sim import engine\n"
            "from repro.sim.factory import ARCHITECTURE_NAMES\n"
            "for arch in ARCHITECTURE_NAMES:\n"
            f"    for depth in ({depths},):\n"
            "        engine.controller_for(arch, depth)\n"
            "print('ready', flush=True)\n")
    env = dict(os.environ, PYTHONPATH=str(bench.root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=str(bench.root), capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("ready"):
        raise RuntimeError(f"device build process failed: {proc.stderr.strip()}")
    return elapsed


def _daemon_setup(bench: Bench, count: int, keep: bool) -> float:
    """Spawn ``count`` daemons, wait for their banners, send one warm-up
    query per architecture to each; closes them unless ``keep``."""
    t0 = time.perf_counter()
    daemons = bench.spawn_daemons(count)
    for daemon in daemons:
        client = EvalClient(daemon.address)
        for task in bench.warmup_tasks():
            client.eval_cell(task)
    elapsed = time.perf_counter() - t0
    if not keep:
        for daemon in daemons:
            bench.close_daemon(daemon)
    return elapsed


def setup(bench: Bench, daemons: int) -> None:
    """Set up ``setup_reps`` times (the last set of daemons is kept for
    the rounds), then prepare this process untimed."""
    for rep in range(bench.size.setup_reps):
        if daemons:
            keep = rep == bench.size.setup_reps - 1
            bench.setup_s.append(_daemon_setup(bench, daemons, keep))
        else:
            bench.setup_s.append(_interpreter_setup(bench))
    bench.prepare()


def _note_sweep(bench: Bench, ph: Phase, result) -> None:
    ph.extra["store_hits"] = result.store_hits
    ph.extra["computed"] = result.computed
    bench.checker.count(len(result.results))


def _compute(bench: Bench, index: int, traced: bool,
             spec: SweepSpec) -> Dict[EvalTask, SimStats]:
    """The ``compute`` phase: ``run_sweep`` in-process without a store.
    For the daemon workloads its results are the reference every daemon
    answer must equal."""
    with bench.phase("compute", index, traced, spec.num_cells) as ph:
        result = sweep.run_sweep(spec, store=None, workers=bench.workers)
    _note_sweep(bench, ph, result)
    bench.check_serial("compute", result.results, spec.tasks())
    bench.keep_round0(index, "compute", result.results)
    if index == 0:
        bench.model = model_ratios(result.results)
    return result.results


#: model.* metric -> (PAPER_CLAIMS key, Fig9Result ratio method, other arch)
MODEL_RATIOS = {
    "model.bw_vs_cosmos": ("bandwidth_vs_cosmos", "bw_ratio", "COSMOS"),
    "model.epb_vs_cosmos": ("epb_vs_cosmos", "epb_ratio", "COSMOS"),
    "model.latency_vs_cosmos": ("latency_vs_cosmos", "latency_ratio",
                                "COSMOS"),
    "model.bw_per_epb_vs_3d_ddr4": ("bw_per_epb_vs_3d_ddr4",
                                    "bw_per_epb_ratio", "3D_DDR4"),
}


def model_ratios(results: Dict[EvalTask, SimStats]) -> Dict[str, float]:
    """COMET's Fig. 9 ratios: geomean over every workload and seed of
    ``results`` at the default queue depth (simulated, not host time)."""
    grid: Dict[str, Dict[Any, SimStats]] = {}
    for task, stats in results.items():
        if task.queue_depth is None:
            grid.setdefault(task.architecture, {})[
                (task.workload, task.seed)] = stats
    fig9 = Fig9Result(results=grid, summary=summarize(grid))
    return {name: getattr(fig9, method)(other)
            for name, (_, method, other) in MODEL_RATIOS.items()}


def _prints(results: Dict[EvalTask, SimStats]) -> Dict[EvalTask, bytes]:
    return {task: fingerprint(stats) for task, stats in results.items()}


# -- dse_sweep -----------------------------------------------------------------


def dse_sweep(bench: Bench) -> None:
    setup(bench, daemons=0)
    size = bench.size
    for index, traced in bench.rounds():
        # Each result set is dropped as soon as its checks are done: a
        # 560-cell set holds 11M latency floats.
        _compute(bench, index, traced,
                 bench.spec(bench.plan.block(size.dse_seeds)))
        spec = bench.spec(bench.plan.block(size.dse_seeds))
        cells = spec.num_cells

        store_dir = bench.work.fresh("store")
        store = ResultStore(store_dir)
        with bench.phase("cold", index, traced, cells) as ph:
            cold = sweep.run_sweep(spec, store=store, workers=bench.workers)
        _note_sweep(bench, ph, cold)
        stored = tree_bytes(store_dir)
        bench.bytes_written += stored
        bench.store_kb_per_cell.append(stored / cells / 1024.0)
        bench.check_serial("cold", cold.results, spec.tasks())
        bench.keep_round0(index, "cold", cold.results)
        cold_prints = _prints(cold.results)
        summary_prints = summary_fingerprints(cold.results)
        archival_dir = bench.work.fresh("archival")
        archival = ResultStore(archival_dir)
        for task, stats in cold.results.items():
            archival.put(task, stats, latencies=False)
        del cold

        # Warm and summary reruns serve every cell from a store, so
        # they have no per-cell completions: each rerun is one sample.
        for name, rerun_store, expected, reps in (
                ("warm", store, cold_prints, size.warm_reps),
                ("summary", archival, summary_prints, size.summary_reps)):
            for _ in range(reps):
                with bench.phase(name, index, traced, cells) as ph:
                    rerun = sweep.run_sweep(spec, store=rerun_store,
                                            workers=bench.workers)
                _note_sweep(bench, ph, rerun)
                bench.checker.against(f"{name} vs cold", expected,
                                      rerun.results.items())
                # A rerun must be served entirely from the store.
                bench.checker.count(0, failures=rerun.computed)
                del rerun

        # Only the per-query latencies are reported here.  The queries run
        # back to back in batches; each batch is checked (outside the
        # samples) and dropped, so the answers never hold more than a
        # batch of latency lists.
        queries = bench.plan.sample(spec.tasks(), size.point_queries)
        with bench.phase("query", index, traced, len(queries)) as ph:
            for start in range(0, len(queries), size.query_batch):
                answers = []
                for task in queries[start:start + size.query_batch]:
                    t0 = time.perf_counter()
                    answers.append((task, store.get(task)))
                    ph.samples_ms.append((time.perf_counter() - t0) * 1e3)
                bench.checker.against("point query vs cold", cold_prints,
                                      answers)
        bench.checker.count(len(queries))

        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(archival_dir, ignore_errors=True)
    bench.record_peak_rss()


# -- daemon_query ----------------------------------------------------------------


def _query(bench: Bench, client: EvalClient, name: str, index: int,
           traced: bool, sequence: List[EvalTask], latencies: bool,
           expected: Dict[EvalTask, bytes]) \
        -> List[Tuple[EvalTask, SimStats]]:
    """One query per cell of ``sequence``; an error reply counts as a
    failed operation.  Checks every answer against ``expected``."""
    answers = []
    failures = 0
    # The query loop shares one CPU with the daemon (pinned in
    # daemon_query): each hand-off is then a local context switch, not a
    # wake-up of another virtual CPU, whose latency drifts with the load
    # on the host.
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(all_cpus)})
    try:
        with bench.phase(name, index, traced, len(sequence)) as ph:
            ph.marks.append(time.perf_counter())
            for task in sequence:
                t0 = time.perf_counter()
                try:
                    answers.append((task, client.eval_cell(
                        task, latencies=latencies)))
                except SimulationError:
                    failures += 1
                ph.marks.append(time.perf_counter())
                ph.samples_ms.append((ph.marks[-1] - t0) * 1e3)
    finally:
        os.sched_setaffinity(0, all_cpus)
    bench.checker.count(len(sequence), failures)
    bench.checker.against(f"{name} vs reference", expected, answers)
    return answers


def daemon_query(bench: Bench) -> None:
    setup(bench, daemons=1)
    daemon = bench.daemons[0]
    pin_process(daemon.pid, {min(os.sched_getaffinity(0))})
    client = EvalClient(daemon.address)
    for index, traced in bench.rounds():
        spec = bench.spec(bench.plan.block(1))
        tasks = spec.tasks()
        reference = _compute(bench, index, traced, spec)
        cold = dict(_query(bench, client, "cold", index, traced,
                           bench.plan.shuffled(tasks), True,
                           _prints(reference)))
        bench.keep_round0(index, "cold", cold)
        sequence = [task for _ in range(bench.size.warm_passes)
                    for task in bench.plan.shuffled(tasks)]
        _query(bench, client, "warm", index, traced, sequence, True,
               _prints(cold))
        _query(bench, client, "summary", index, traced, sequence, False,
               summary_fingerprints(reference))
        _drop_round_cells(bench, tasks)
    bench.record_peak_rss()


def _drop_round_cells(bench: Bench, tasks: List[EvalTask]) -> None:
    """Measure, then delete, the entries the daemons wrote for this
    round's cells.  No later round asks for them again, and deleting
    them before writeback keeps a run's disk traffic (about 200 MB of
    latency sidecars) from stalling the phases that follow."""
    stored = 0
    for daemon in bench.daemons:
        store = ResultStore(daemon.store)
        for task in tasks:
            entry = store.path_for(task)
            for path in (entry, entry.with_suffix(".lat")):
                try:
                    stored += path.stat().st_size
                    path.unlink()
                except FileNotFoundError:
                    pass
    bench.bytes_written += stored
    bench.store_kb_per_cell.append(stored / len(tasks) / 1024.0)


# -- fabric_sweep ------------------------------------------------------------


def fabric_sweep(bench: Bench) -> None:
    setup(bench, daemons=2)
    # One daemon per CPU, like one daemon per host; the coordinator
    # floats.
    for daemon, cpu in zip(bench.daemons, sorted(os.sched_getaffinity(0))):
        pin_process(daemon.pid, {cpu})
    hosts = [daemon.address for daemon in bench.daemons]
    for index, traced in bench.rounds():
        spec = bench.spec(bench.plan.block(1))
        reference = _compute(bench, index, traced, spec)
        # Warm answers are checked against the cold ones.
        expected = {"cold": _prints(reference),
                    "summary": summary_fingerprints(reference)}
        passes = [("cold", True)] + [("warm", True)] * bench.size.warm_reps \
            + [("summary", False)] * bench.size.warm_reps
        for name, latencies in passes:
            with bench.phase(name, index, traced, spec.num_cells) as ph:
                sampler = sample_async_requests(ph.samples_ms) \
                    if name == "warm" else contextlib.nullcontext()
                with sampler:
                    result = fabric.run_fabric(spec, hosts, store=None,
                                               window=1, latencies=latencies)
            ph.extra.update(completed=result.completed, stolen=result.stolen,
                            redispatched=result.redispatched,
                            per_host=dict(result.per_host))
            bench.checker.count(spec.num_cells)
            bench.checker.against(f"fabric {name}", expected[name],
                                  result.results.items())
            if name == "cold":
                bench.keep_round0(index, "cold", result.results)
                expected["warm"] = _prints(result.results)
        _drop_round_cells(bench, spec.tasks())
    bench.record_peak_rss()


WORKLOADS = {
    "dse_sweep": dse_sweep,
    "daemon_query": daemon_query,
    "fabric_sweep": fabric_sweep,
}
