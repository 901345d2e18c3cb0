"""Parallel evaluation engine: the (architecture x workload) grid runner.

The Fig. 9 evaluation — every architecture against every workload — is
embarrassingly parallel across grid cells, and each cell repeats two
expensive setups: generating the workload trace and building the device
model.  The engine removes both:

* **Per-process caches** — devices are built once per architecture and
  traces generated once per ``(workload, n, seed)`` (write-locked
  column arrays, shared read-only between cells).
* **Pool fan-out** — with ``workers > 1`` the grid is mapped over a
  persistent worker pool chosen by the ``pool`` argument (or the
  ``REPRO_POOL`` environment variable): ``"threads"``, ``"fork"`` or
  ``"serial"``.  The default resolves to **threads** whenever the
  compiled scheduler twin is available — every kernel class now runs
  in :mod:`._fastloop`, which releases the GIL for the whole
  recurrence, so threads share the device/controller/trace caches
  directly, pay no fork latency, ship results without pickling, and
  need no shared-memory trace plane at all.  Where the twin is
  unavailable (``REPRO_FASTLOOP=0``, no C toolchain) the default
  falls back to the fork pool, whose workers run the scalar/numpy
  tiers outside the parent's GIL.  Either pool survives across
  ``evaluate_tasks`` / ``run_evaluation`` / sweep calls (and server
  requests riding them); both are torn down on process exit, on
  :func:`shutdown_worker_pool`, and by :func:`clear_device_caches`.
  Results come back in task order, so the output is deterministic and
  bit-identical to the serial path regardless of pool kind, worker
  count or scheduling.
* **Zero-copy trace plane (fork pool only)** — before fanning out,
  the parent publishes each distinct ``(workload, n, seed)`` trace
  into shared memory and ships workers a tiny
  :class:`~repro.sim.tracegen.TraceDescriptor` per task instead of
  having every worker regenerate (or unpickle) the column arrays;
  workers attach each segment once and share the physical pages.
  Where shared memory is unavailable the descriptor is ``None`` and
  workers regenerate locally — identical results.  The thread pool
  bypasses the plane entirely: threads read the parent's trace cache.
* **Serial fallback** — ``workers=1`` (the default) runs the same cells
  in-process; if a pool cannot be created (restricted sandboxes), the
  engine degrades to serial rather than failing.

``REPRO_EVAL_WORKERS`` sets the default worker count; the controller's
fast-path scheduler kernel (:meth:`MemoryController.run_arrays`) is the
per-cell hot path.  :func:`profile_snapshot` exposes per-phase wall
times (trace fetch vs simulation vs store I/O) and
:func:`pool_profile_snapshot` per-pool fan-out timings for
``--profile``.  Fork workers return their dispatch-counter and
profile deltas with each result and the parent merges them, so the
kernel hit rate and phase times report the whole grid under every
pool kind.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import os
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Tuple)

from ..errors import ReproError, SimulationError, TraceError
from . import _fastloop
from .controller import (QUEUE_DEPTH_PER_CHANNEL, MemoryController,
                         kernel_counters, merge_kernel_counters)
from .factory import ARCHITECTURE_NAMES, build_device, known_architectures
from .stats import SimStats
from .tracegen import (SPEC_WORKLOADS, TraceDescriptor, attach_trace_arrays,
                       cached_trace_arrays, clear_trace_plane, get_workload,
                       share_trace_arrays)

if TYPE_CHECKING:   # avoid a runtime cycle: store imports EvalTask
    from .devices import MemoryDeviceModel
    from .store import ResultStore

#: Environment override for the default worker count.
WORKERS_ENV_VAR = "REPRO_EVAL_WORKERS"

#: Environment override for the executor kind: ``threads``, ``fork``
#: or ``serial`` (anything unset/empty resolves automatically — see
#: :func:`resolve_pool`).
POOL_ENV_VAR = "REPRO_POOL"

#: The executor kinds :func:`resolve_pool` accepts.
POOL_MODES: Tuple[str, ...] = ("threads", "fork", "serial")

#: Set to ``0`` to disable the shared-memory trace plane (fork workers
#: then regenerate traces locally, the pre-plane behaviour).  The
#: thread pool never uses the plane.
TRACE_PLANE_ENV_VAR = "REPRO_TRACE_PLANE"

# staticcheck: guarded-by[_CACHE_LOCK]
_DEVICE_CACHE: Dict[str, "MemoryDeviceModel"] = {}
# staticcheck: guarded-by[_CACHE_LOCK]
_CONTROLLER_CACHE: Dict[Tuple[str, Optional[int]], MemoryController] = {}

#: Guards the device/controller cache build: under the thread pool many
#: cells race to memoize the same architecture; double-checked locking
#: makes exactly one thread build (models are immutable once built, so
#: lock-free reads stay safe).
_CACHE_LOCK = threading.Lock()

#: The persistent fork worker pool: (pool, worker count).  Lazily built
#: by the first fork fan-out, reused by every later one with the same
#: size.
_WORKER_POOL: Optional[Tuple[Any, int]] = None

#: The persistent thread pool: (ThreadPoolExecutor, worker count), and
#: the number of batches running on each executor.  A fan-out with a
#: different worker count replaces the current pool, but an executor is
#: only shut down once no batch uses it any more (see
#: :func:`_leased_thread_pool`).
# staticcheck: guarded-by[_THREAD_POOL_LOCK]
_THREAD_POOL: Optional[Tuple[Any, int]] = None
# staticcheck: guarded-by[_THREAD_POOL_LOCK]
_THREAD_POOL_LEASES: Dict[Any, int] = {}
_THREAD_POOL_LOCK = threading.Lock()

#: Per-phase wall-clock accumulators for ``--profile``.  Thread-safe
#: (pool threads accumulate concurrently); fork workers accumulate in
#: their own process and return per-cell deltas the parent merges, so
#: the totals cover the whole grid under every pool kind (summed across
#: workers, they can exceed wall-clock).
# staticcheck: guarded-by[_PROFILE_LOCK, reads]
_PROFILE = {"trace_s": 0.0, "simulate_s": 0.0, "store_s": 0.0}
_PROFILE_LOCK = threading.Lock()

#: Per-pool fan-out accounting for ``--profile``: cells mapped and
#: wall-clock spent inside :func:`_map_tasks`, keyed by resolved pool
#: mode — one run with ``REPRO_POOL=fork`` and one with ``threads``
#: print side by side.
# staticcheck: guarded-by[_PROFILE_LOCK, reads]
_POOL_PROFILE: Dict[str, Dict[str, float]] = {}


def profile_snapshot() -> Dict[str, float]:
    """Copy of the per-phase wall-time accumulators (seconds)."""
    with _PROFILE_LOCK:
        return dict(_PROFILE)


def pool_profile_snapshot() -> Dict[str, Dict[str, float]]:
    """Per-pool fan-out accounting: ``{mode: {runs, cells, wall_s}}``."""
    with _PROFILE_LOCK:
        return {mode: dict(entry) for mode, entry in _POOL_PROFILE.items()}


def reset_profile() -> None:
    """Zero the per-phase and per-pool accumulators."""
    with _PROFILE_LOCK:
        for key in _PROFILE:
            _PROFILE[key] = 0.0
        _POOL_PROFILE.clear()


def _profile_add(key: str, seconds: float) -> None:
    with _PROFILE_LOCK:
        _PROFILE[key] = _PROFILE.get(key, 0.0) + seconds


def _note_pool_run(mode: str, cells: int, wall_s: float) -> None:
    with _PROFILE_LOCK:
        entry = _POOL_PROFILE.setdefault(
            mode, {"runs": 0, "cells": 0, "wall_s": 0.0})
        entry["runs"] += 1
        entry["cells"] += cells
        entry["wall_s"] += wall_s

#: ``on_result`` callback type: called with each (task, stats) pair as
#: soon as the cell completes, in task order (incremental checkpointing).
ResultCallback = Callable[["EvalTask", SimStats], None]

#: Process-wide count of grid cells actually *computed* by the engine
#: (store hits never increment it).  Counted in the parent as results
#: arrive, so it is accurate under process fan-out too; this is what the
#: zero-recompute pinning tests and ``run-all --expect-no-compute``
#: read.
_COMPUTED_CELLS = 0  # staticcheck: guarded-by[_COMPUTED_LOCK, reads]
_COMPUTED_LOCK = threading.Lock()


def computed_cell_count() -> int:
    """Cells computed by this process's engine since import (or the last
    :func:`reset_computed_cell_count`)."""
    with _COMPUTED_LOCK:
        return _COMPUTED_CELLS


def reset_computed_cell_count() -> None:
    """Zero the computed-cell counter (tests, warm-pass assertions)."""
    global _COMPUTED_CELLS
    with _COMPUTED_LOCK:
        _COMPUTED_CELLS = 0


@dataclass(frozen=True)
class EvalTask:
    """One grid cell: a workload trace run against one architecture.

    ``queue_depth`` optionally overrides the controller's transaction
    queue (``None`` keeps the per-channel default) — the sweep axis the
    queue-depth ablation explores.
    """

    architecture: str
    workload: str
    num_requests: int
    seed: int
    queue_depth: Optional[int] = None

    def describe(self) -> str:
        """Human-readable cell label for error messages and logs."""
        label = (f"{self.architecture} x {self.workload}, "
                 f"n={self.num_requests}, seed={self.seed}")
        if self.queue_depth is not None:
            label += f", queue_depth={self.queue_depth}"
        return label


#: Wire-format field names of one :class:`EvalTask`, in dataclass order.
TASK_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(EvalTask))


def task_to_dict(task: EvalTask) -> Dict[str, Any]:
    """JSON-serializable dict of one task (inverse of
    :func:`task_from_dict`)."""
    return dataclasses.asdict(task)


def _require_int(payload: Dict[str, Any], key: str, default: int) -> int:
    """Fetch an integer field from an untrusted payload.

    ``bool`` is an ``int`` subclass in Python, but ``"seed": true`` on
    the wire is a client bug, not a seed of 1 — reject it explicitly.
    """
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimulationError(f"task field {key!r} must be an integer, "
                              f"got {value!r}")
    return value


def task_from_dict(payload: Any) -> EvalTask:
    """Validated :class:`EvalTask` from an untrusted wire payload.

    This is the trust boundary of the evaluation service: every field is
    type- and range-checked so malformed queries surface as structured
    ``SimulationError`` messages (the server's 4xx path) instead of a
    worker traceback mid-compute.  ``num_requests`` defaults to 20000 and
    ``seed`` to 1, matching :func:`run_evaluation`; re-encoding the same
    task (dict round trip, any key order) yields an equal task and
    therefore the same store digest.
    """
    if not isinstance(payload, dict):
        raise SimulationError(
            f"task must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(TASK_FIELDS))
    if unknown:
        raise SimulationError(
            f"unknown task fields {unknown}; known: {list(TASK_FIELDS)}")
    architecture = payload.get("architecture")
    if not isinstance(architecture, str):
        raise SimulationError("task field 'architecture' must be a string")
    if architecture not in known_architectures():
        raise SimulationError(
            f"unknown architecture {architecture!r}; "
            f"known: {known_architectures()}")
    workload = payload.get("workload")
    if not isinstance(workload, str):
        raise SimulationError("task field 'workload' must be a string")
    try:
        get_workload(workload)
    except TraceError as error:
        raise SimulationError(str(error)) from None
    num_requests = _require_int(payload, "num_requests", 20_000)
    if num_requests < 1:
        raise SimulationError("task field 'num_requests' must be >= 1")
    seed = _require_int(payload, "seed", 1)
    if not 0 <= seed < 2 ** 32:
        # numpy's RandomState range; catching it here keeps it a 4xx
        # validation error instead of a mid-compute worker failure.
        raise SimulationError(
            "task field 'seed' must be in [0, 2**32)")
    queue_depth = payload.get("queue_depth")
    if queue_depth is not None:
        if isinstance(queue_depth, bool) or not isinstance(queue_depth, int):
            raise SimulationError(
                f"task field 'queue_depth' must be an integer or null, "
                f"got {queue_depth!r}")
        if queue_depth < 1:
            raise SimulationError("task field 'queue_depth' must be >= 1")
    return EvalTask(architecture, workload, num_requests, seed, queue_depth)


def device_for(architecture: str):
    """Per-process memoized device model, shared across every consumer
    (controllers at any queue depth, store fingerprinting).  The build
    is the costly part — COMET's involves the mode-solver stack."""
    device = _DEVICE_CACHE.get(architecture)
    if device is None:
        with _CACHE_LOCK:
            device = _DEVICE_CACHE.get(architecture)
            if device is None:
                device = build_device(architecture)
                _DEVICE_CACHE[architecture] = device
    return device


def clear_device_caches() -> None:
    """Drop every cache a model edit could leave stale.

    Clears the memoized devices and controllers (so the next use
    rebuilds from the current definitions), the per-process trace cache
    *and* the shared-memory trace plane (detaching every mapped segment
    and unlinking the ones this process published — a long-lived server
    must not leak ``/dev/shm`` segments across model edits), and shuts
    the persistent worker pool down (forked workers hold the same
    memoized state being invalidated here).

    For in-process model edits with a result store in play, call
    :func:`repro.sim.store.clear_fingerprint_cache` instead — it clears
    these caches *and* the memoized fingerprints/digests derived from
    them; clearing only here would leave the store addressing results
    computed under the old model.
    """
    # Under the lock: a concurrent device_for() build must not land its
    # double-checked insert between the two clears and survive with a
    # stale model.
    with _CACHE_LOCK:
        _DEVICE_CACHE.clear()
        _CONTROLLER_CACHE.clear()
    cached_trace_arrays.cache_clear()
    _ADOPTED_TRACES.clear()
    clear_trace_plane()
    shutdown_worker_pool()


def shutdown_worker_pool() -> None:
    """Terminate the persistent pools — fork and thread alike (the next
    fan-out rebuilds whichever it needs).  A thread pool that a batch
    is still running on is detached now and shut down when that batch
    ends."""
    global _THREAD_POOL
    _shutdown_fork_pool()
    with _THREAD_POOL_LOCK:
        idle = _unused_executor(_THREAD_POOL)
        _THREAD_POOL = None
    if idle is not None:
        _shutdown_executor(idle, wait=True)


def _shutdown_fork_pool() -> None:
    global _WORKER_POOL
    if _WORKER_POOL is not None:
        pool, _size = _WORKER_POOL
        _WORKER_POOL = None
        try:
            pool.terminate()
            pool.join()
        except (OSError, ValueError):
            pass


def _shutdown_executor(executor: Any, wait: bool) -> None:
    try:
        executor.shutdown(wait=wait, cancel_futures=True)
    except (OSError, RuntimeError, TypeError):
        # ``cancel_futures`` needs 3.9+; older interpreters retry the
        # plain shutdown.
        try:
            executor.shutdown(wait=wait)
        except (OSError, RuntimeError):
            pass


def _ensure_worker_pool(workers: int):
    """The persistent fork pool, built on first use and reused while the
    requested size matches; ``None`` where pools cannot be created."""
    global _WORKER_POOL
    if _WORKER_POOL is not None:
        pool, size = _WORKER_POOL
        if size == workers:
            return pool
        _shutdown_fork_pool()
    try:
        import multiprocessing

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        pool = context.Pool(processes=workers)
    except (ImportError, OSError, PermissionError):
        # Restricted environments (no /dev/shm, no fork): the caller
        # degrades to the serial path — identical results, no fan-out.
        return None
    _WORKER_POOL = (pool, workers)
    return pool


def _unused_executor(pool: Optional[Tuple[Any, int]]) -> Optional[Any]:
    """The executor of a thread pool being detached, if no batch uses
    it (the caller holds ``_THREAD_POOL_LOCK`` and shuts it down after
    releasing it); ``None`` otherwise — a pool still in use is shut
    down by its last batch."""
    if pool is None or _THREAD_POOL_LEASES.get(pool[0]):
        return None
    return pool[0]


@contextlib.contextmanager
def _leased_thread_pool(workers: int) -> Iterator[Any]:
    """The persistent thread pool, held for one batch.

    Rebuilt only when the requested size changes.  Creation and
    replacement happen under ``_THREAD_POOL_LOCK``, and every batch
    counts itself on the executor it submits to, so concurrent fan-outs
    with different worker counts never shut down an executor another
    batch is still waiting on: a replaced pool is shut down by the last
    batch that leaves it.
    """
    global _THREAD_POOL
    idle = None
    with _THREAD_POOL_LOCK:
        if _THREAD_POOL is None or _THREAD_POOL[1] != workers:
            from concurrent.futures import ThreadPoolExecutor

            idle = _unused_executor(_THREAD_POOL)
            _THREAD_POOL = (ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-eval"),
                workers)
        executor = _THREAD_POOL[0]
        _THREAD_POOL_LEASES[executor] = \
            _THREAD_POOL_LEASES.get(executor, 0) + 1
    if idle is not None:
        _shutdown_executor(idle, wait=True)
    try:
        yield executor
    finally:
        with _THREAD_POOL_LOCK:
            _THREAD_POOL_LEASES[executor] -= 1
            orphaned = not _THREAD_POOL_LEASES[executor] and (
                _THREAD_POOL is None or _THREAD_POOL[0] is not executor)
            if not _THREAD_POOL_LEASES[executor]:
                del _THREAD_POOL_LEASES[executor]
        if orphaned:
            _shutdown_executor(executor, wait=False)


def resolve_pool(pool: Optional[str] = None) -> str:
    """Normalize the executor kind: argument > ``REPRO_POOL`` > auto.

    Auto resolves to ``threads`` when the compiled scheduler twin is
    available in this process — every kernel class then runs outside
    the GIL, so threads scale with none of fork's costs — and to
    ``fork`` otherwise (the scalar/numpy tiers hold the GIL, so only
    processes parallelize them).
    """
    if pool is None:
        pool = os.environ.get(POOL_ENV_VAR) or None
    if pool is None or pool == "auto":
        return "threads" if _fastloop.available() else "fork"
    if pool not in POOL_MODES:
        raise SimulationError(
            f"unknown pool mode {pool!r}; known: {list(POOL_MODES)} "
            f"(or 'auto')")
    return pool


atexit.register(shutdown_worker_pool)

# A fork while another thread holds one of the engine locks would leave
# the child's copy locked forever (only the forking thread survives).
# The fork pool is created from the main thread, so hand the child
# fresh locks instead of inheriting snapshotted ones.
os.register_at_fork(
    after_in_child=lambda: globals().update(
        _CACHE_LOCK=threading.Lock(), _PROFILE_LOCK=threading.Lock(),
        _COMPUTED_LOCK=threading.Lock(), _THREAD_POOL_LOCK=threading.Lock()))


def controller_for(architecture: str,
                   queue_depth: Optional[int] = None) -> MemoryController:
    """Per-process memoized controller over the shared device model.
    ``queue_depth`` overrides the per-channel default transaction queue
    (distinct depths share one device build)."""
    key = (architecture, queue_depth)
    controller = _CONTROLLER_CACHE.get(key)
    if controller is None:
        device = device_for(architecture)
        with _CACHE_LOCK:
            controller = _CONTROLLER_CACHE.get(key)
            if controller is None:
                controller = MemoryController(
                    device,
                    queue_depth=(queue_depth if queue_depth is not None
                                 else QUEUE_DEPTH_PER_CHANNEL
                                 * device.channels),
                )
                _CONTROLLER_CACHE[key] = controller
    return controller


#: Traces this process adopted from the trace plane, by (workload, n,
#: seed): :func:`evaluate_cell` consults this before generating, which
#: is how pool workers reach the shared pages *without* the descriptor
#: threading through ``evaluate_cell``'s call signature (monkeypatched
#: and legacy single-argument implementations keep working).
_ADOPTED_TRACES: Dict[Tuple[str, int, int], Any] = {}


def adopt_trace_descriptor(descriptor: TraceDescriptor) -> None:
    """Attach a published trace and serve it to later
    :func:`evaluate_cell` calls for its (workload, n, seed).

    Bounded like the plane itself: adopted references beyond the
    publisher's segment cap are dropped FIFO so a persistent pool
    worker serving many distinct traces doesn't pin stale mappings."""
    if descriptor.key not in _ADOPTED_TRACES:
        from .tracegen import MAX_OWNED_SEGMENTS

        while len(_ADOPTED_TRACES) >= MAX_OWNED_SEGMENTS:
            del _ADOPTED_TRACES[next(iter(_ADOPTED_TRACES))]
        _ADOPTED_TRACES[descriptor.key] = attach_trace_arrays(descriptor)


#: Traces a thread fan-out pinned for the length of its batch, with the
#: number of batches pinning each.  Consulted by :func:`evaluate_cell`
#: after the adopted traces and before the bounded generation cache,
#: so a batch with more distinct traces than that cache holds still
#: generates each one exactly once (see :func:`_map_tasks_threads`).
# staticcheck: guarded-by[_PIN_LOCK]
_PINNED_TRACES: Dict[Tuple[str, int, int], Any] = {}
# staticcheck: guarded-by[_PIN_LOCK]
_PIN_COUNTS: Dict[Tuple[str, int, int], int] = {}
_PIN_LOCK = threading.Lock()


@contextlib.contextmanager
def _pinned_traces(keys: Iterable[Tuple[str, int, int]]) -> Iterator[None]:
    """Generate (or fetch) each distinct trace of ``keys`` once in the
    calling thread and keep it referenced until the block exits."""
    pinned: List[Tuple[str, int, int]] = []
    try:
        for key in dict.fromkeys(keys):
            trace = _PINNED_TRACES.get(key)
            if trace is None:
                trace = cached_trace_arrays(*key)
            with _PIN_LOCK:
                _PINNED_TRACES.setdefault(key, trace)
                _PIN_COUNTS[key] = _PIN_COUNTS.get(key, 0) + 1
            pinned.append(key)
        yield
    finally:
        with _PIN_LOCK:
            for key in pinned:
                _PIN_COUNTS[key] -= 1
                if not _PIN_COUNTS[key]:
                    del _PIN_COUNTS[key], _PINNED_TRACES[key]


def evaluate_cell(task: EvalTask,
                  descriptor: Optional[TraceDescriptor] = None) -> SimStats:
    """Run one grid cell; the unit of work the pool distributes.

    ``descriptor`` names a shared-memory publication of the cell's
    trace: the columns are mapped zero-copy instead of generated.
    Without one, traces previously adopted via
    :func:`adopt_trace_descriptor` (the fork fan-out path) are used,
    then traces pinned by a thread fan-out, then the per-process
    generation cache.
    """
    t0 = time.perf_counter()
    if descriptor is not None:
        trace = attach_trace_arrays(descriptor)
    else:
        key = (task.workload, task.num_requests, task.seed)
        trace = _ADOPTED_TRACES.get(key)
        if trace is None:
            trace = _PINNED_TRACES.get(key)
        if trace is None:
            trace = cached_trace_arrays(*key)
    t1 = time.perf_counter()
    stats = controller_for(task.architecture, task.queue_depth).run_arrays(
        trace, workload_name=task.workload)
    t2 = time.perf_counter()
    _profile_add("trace_s", t1 - t0)
    _profile_add("simulate_s", t2 - t1)
    return stats


def evaluate_cell_checked(task: EvalTask) -> SimStats:
    """``evaluate_cell`` with the failing cell annotated on error.

    Without this, an exception raised inside a pool worker surfaces as
    a bare multiprocessing traceback with no indication of which
    (architecture, workload) cell died — and the unexpected kinds
    (ValueError, numpy errors) are exactly the ones that need the cell
    label most.  The re-raised error is a plain one-argument
    ``SimulationError``, so it pickles cleanly back through the pool.

    Module-level (hence picklable) on purpose: this is the unit of work
    both the grid pool and the evaluation server's executors submit —
    always with the single-argument call, so replacement
    ``evaluate_cell`` implementations (tests, instrumentation) never
    see the trace-plane plumbing.
    """
    try:
        return evaluate_cell(task)
    except Exception as error:
        detail = str(error) if isinstance(error, ReproError) \
            else f"{type(error).__name__}: {error}"
        raise SimulationError(
            f"grid cell ({task.describe()}) failed: {detail}") from error


#: Backwards-compatible alias (pre-server name).
_evaluate_cell_checked = evaluate_cell_checked


def evaluate_cell_with_counters(
        task: EvalTask) -> Tuple[SimStats, Dict[str, int]]:
    """``evaluate_cell_checked`` plus this cell's dispatch-counter delta.

    The unit of work process-pool executors submit (the evaluation
    server's): the worker's counters never reach the parent on their
    own, so the delta rides back with the result for the parent to
    :func:`~repro.sim.controller.merge_kernel_counters` — that is what
    keeps ``/stats.kernel`` accurate for ``workers > 1``.  Exact even
    with several cells in flight per worker, because pool workers are
    single-threaded."""
    before = kernel_counters()
    stats = evaluate_cell_checked(task)
    delta = {
        key: value - before.get(key, 0)
        for key, value in kernel_counters().items()
        if value != before.get(key, 0)
    }
    return stats, delta


def _evaluate_cell_indexed(
    payload: Tuple[int, EvalTask, Optional[TraceDescriptor]]
) -> Tuple[int, SimStats, Dict[str, int], Dict[str, float]]:
    """Fork-pool payload carrying the task's position (so the parent can
    checkpoint completions the moment they arrive, out of order, while
    still returning results in task order) and the task's trace-plane
    descriptor (adopted before evaluation, not threaded through the
    ``evaluate_cell`` signature).

    Alongside the stats, the worker returns this cell's dispatch-counter
    and profile *deltas* (before/after snapshots — exact, since pool
    workers are single-threaded): counters otherwise accumulate only in
    the worker process and the parent's ``kernel_dispatch_summary`` and
    ``--profile`` phases would under-report every fanned-out cell."""
    index, task, descriptor = payload
    if descriptor is not None:
        adopt_trace_descriptor(descriptor)
    counters_before = kernel_counters()
    profile_before = profile_snapshot()
    stats = _evaluate_cell_checked(task)
    counter_delta = {
        key: value - counters_before.get(key, 0)
        for key, value in kernel_counters().items()
        if value != counters_before.get(key, 0)
    }
    profile_delta = {
        key: value - profile_before.get(key, 0.0)
        for key, value in profile_snapshot().items()
        if value != profile_before.get(key, 0.0)
    }
    return index, stats, counter_delta, profile_delta


def _resolve_workers(workers: Optional[int]) -> int:
    """Validate and normalize the worker count.

    ``0`` explicitly means "one worker per available CPU" (it used to be
    silently coerced to 1); negative counts are rejected.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise SimulationError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise SimulationError("worker count must be non-negative")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _map_tasks(tasks: Sequence[EvalTask], workers: int, chunksize: int,
               on_result: Optional[ResultCallback] = None,
               pool: Optional[str] = None) -> List[SimStats]:
    """Map cells over the resolved worker pool (threads, fork or
    serial), falling back to serial execution where no pool can exist.

    The returned list is in task order; ``on_result`` fires for each
    cell as soon as its stats arrive — in *completion* order under a
    pool, so callers (the result store, the sweep runner) checkpoint
    every finished cell immediately and an interruption loses nothing
    already computed.  ``on_result`` always runs in the calling thread,
    whatever the pool kind.  Worker failures re-raise as
    ``SimulationError`` annotated with the failing cell.
    """
    def count_computed() -> None:
        global _COMPUTED_CELLS
        with _COMPUTED_LOCK:
            _COMPUTED_CELLS += 1

    def serial() -> List[SimStats]:
        collected = []
        for task in tasks:
            stats = _evaluate_cell_checked(task)
            count_computed()
            if on_result is not None:
                on_result(task, stats)
            collected.append(stats)
        return collected

    mode = resolve_pool(pool)
    t_fanout = time.perf_counter()
    try:
        if workers <= 1 or len(tasks) <= 1 or mode == "serial":
            mode = "serial"
            return serial()
        if mode == "threads":
            return _map_tasks_threads(tasks, workers, on_result,
                                      count_computed)
        result = _map_tasks_fork(tasks, workers, chunksize, on_result,
                                 count_computed)
        if result is None:
            # Restricted environments (no /dev/shm, no fork): degrade
            # to the serial path — identical results, just no fan-out.
            # Only pool *creation* is guarded; cell failures propagate
            # annotated.
            mode = "serial"
            return serial()
        return result
    finally:
        _note_pool_run(mode, len(tasks), time.perf_counter() - t_fanout)


def _map_tasks_threads(tasks: Sequence[EvalTask], workers: int,
                       on_result: Optional[ResultCallback],
                       count_computed: Callable[[], None]
                       ) -> List[SimStats]:
    """Thread fan-out: the compiled twin releases the GIL for the whole
    recurrence, so threads scale with zero fork latency, no result
    pickling, shared device/controller caches — and no shared-memory
    trace plane: each distinct trace is generated (or found cached)
    once in this thread and pinned until the batch ends, so every
    worker reads the same arrays even when the batch has more distinct
    traces than the generation cache holds."""
    from concurrent.futures import as_completed

    slots: List[Optional[SimStats]] = [None] * len(tasks)
    with _leased_thread_pool(workers) as executor, \
            _pinned_traces((task.workload, task.num_requests, task.seed)
                           for task in tasks):
        futures = {executor.submit(_evaluate_cell_checked, task): index
                   for index, task in enumerate(tasks)}
        try:
            for future in as_completed(futures):
                index = futures[future]
                stats = future.result()
                count_computed()
                if on_result is not None:
                    on_result(tasks[index], stats)
                slots[index] = stats
        except BaseException:
            # One cell failed (annotated) or the caller interrupted:
            # stop feeding the pool, let in-flight cells finish, keep
            # the pool.
            for future in futures:
                future.cancel()
            raise
    return slots


def _map_tasks_fork(tasks: Sequence[EvalTask], workers: int,
                    chunksize: int, on_result: Optional[ResultCallback],
                    count_computed: Callable[[], None]
                    ) -> Optional[List[SimStats]]:
    """Fork fan-out over the persistent process pool; ``None`` when no
    pool can be created (the caller degrades to serial)."""
    pool = _ensure_worker_pool(workers)
    if pool is None:
        return None
    # Publish each distinct trace once; workers get a descriptor and
    # attach the shared pages instead of regenerating the columns.
    descriptors: Dict[Tuple[str, int, int], Optional[TraceDescriptor]] = {}
    if os.environ.get(TRACE_PLANE_ENV_VAR, "1") != "0":
        for task in tasks:
            key = (task.workload, task.num_requests, task.seed)
            if key not in descriptors:
                descriptors[key] = share_trace_arrays(*key)
    payloads = [
        (index, task,
         descriptors.get((task.workload, task.num_requests, task.seed)))
        for index, task in enumerate(tasks)
    ]
    slots: List[Optional[SimStats]] = [None] * len(tasks)
    try:
        for index, stats, counter_delta, profile_delta \
                in pool.imap_unordered(
                    _evaluate_cell_indexed, payloads, chunksize=chunksize):
            # Workers count dispatches and phase times in their own
            # process; merging the per-cell deltas keeps --profile and
            # /stats.kernel accurate for workers > 1.
            if counter_delta:
                merge_kernel_counters(counter_delta)
            for key, value in profile_delta.items():
                _profile_add(key, value)
            count_computed()
            if on_result is not None:
                on_result(tasks[index], stats)
            slots[index] = stats
    except ReproError:
        raise    # a cell failed; the pool itself is still healthy
    except Exception:
        # The pool transport broke (worker killed, pipe torn): discard
        # it so the next fan-out starts from a fresh pool.
        shutdown_worker_pool()
        raise
    return slots


def grid_tasks(
    architectures: Sequence[str] = ARCHITECTURE_NAMES,
    workloads: Optional[Iterable[str]] = None,
    num_requests: int = 20_000,
    seed: int = 1,
) -> List[EvalTask]:
    """The validated (architecture x workload) grid as a task list.

    Workload-major order: one chunk covers every architecture for one
    workload, so each worker generates (or receives via fork) each trace
    at most once.  Shared by :func:`run_evaluation` and remote grid
    consumers (the evaluation client's Fig. 9 path), so both expand the
    same grid to the same tasks in the same order.
    """
    workload_names = list(workloads) if workloads is not None \
        else sorted(SPEC_WORKLOADS)
    if not workload_names:
        raise SimulationError("need at least one workload")
    architectures = list(architectures)
    if not architectures:
        raise SimulationError("need at least one architecture")
    for name in workload_names:
        try:
            get_workload(name)
        except TraceError as error:
            raise SimulationError(str(error)) from None
    return [
        EvalTask(arch, workload, num_requests, seed)
        for workload in workload_names
        for arch in architectures
    ]


def run_evaluation(
    architectures: Sequence[str] = ARCHITECTURE_NAMES,
    workloads: Optional[Iterable[str]] = None,
    num_requests: int = 20_000,
    seed: int = 1,
    workers: Optional[int] = None,
    store: Optional["ResultStore"] = None,
    resume: bool = True,
    pool: Optional[str] = None,
) -> Dict[str, Dict[str, SimStats]]:
    """The full Fig. 9 grid: every architecture on every workload.

    Returns ``results[arch][workload] -> SimStats``.  ``workers`` > 1
    fans the grid out over that many pool workers (``0`` = one per
    CPU); ``pool`` picks the executor kind (:func:`resolve_pool` —
    threads by default when the compiled twin is available); the
    result is identical to the serial run for the same arguments.

    With a :class:`repro.sim.store.ResultStore`, every computed cell is
    checkpointed to disk as soon as it completes; when ``resume`` is
    true, cells whose digest is already in the store are served from it
    instead of being recomputed (``resume=False`` recomputes and
    overwrites).  Stored results are bit-identical to computed ones.
    """
    architectures = list(architectures)
    tasks = grid_tasks(architectures, workloads, num_requests, seed)
    lookup = evaluate_tasks(tasks, workers=workers, store=store,
                            resume=resume,
                            chunksize=max(len(architectures), 1),
                            pool=pool)

    results: Dict[str, Dict[str, SimStats]] = {
        arch: {} for arch in architectures
    }
    for task in tasks:
        results[task.architecture][task.workload] = lookup[task]
    return results


def evaluate_tasks(
    tasks: Sequence[EvalTask],
    workers: Optional[int] = None,
    store: Optional["ResultStore"] = None,
    resume: bool = True,
    chunksize: int = 1,
    on_result: Optional[ResultCallback] = None,
    store_latencies: bool = True,
    pool: Optional[str] = None,
) -> Dict[EvalTask, SimStats]:
    """Evaluate an arbitrary task list with store read-through/write-back.

    The shared core of :func:`run_evaluation` and the sweep runner:
    store hits (when ``resume``) skip :func:`evaluate_cell` entirely,
    misses are fanned out over ``workers`` pool workers (executor kind
    per ``pool`` / :func:`resolve_pool`) and written back to the store
    the moment each result arrives.  ``on_result`` fires for every
    *computed* cell (after the store write), letting callers log
    progress or checkpoint additional state.  ``store_latencies=False``
    writes archival entries without the bulky per-request samples —
    percentile queries still work through the store's fixed-bin latency
    histograms.
    """
    cached: Dict[EvalTask, SimStats] = {}
    if store is not None and resume:
        t0 = time.perf_counter()
        cached = {task: hit for task, hit in store.get_many(tasks).items()
                  if hit is not None}
        _profile_add("store_s", time.perf_counter() - t0)
    missing = [task for task in tasks if task not in cached]

    def checkpoint(task: EvalTask, stats: SimStats) -> None:
        if store is not None:
            t0 = time.perf_counter()
            store.put(task, stats, latencies=store_latencies)
            _profile_add("store_s", time.perf_counter() - t0)
        if on_result is not None:
            on_result(task, stats)

    computed = _map_tasks(missing, _resolve_workers(workers),
                          chunksize=max(chunksize, 1),
                          on_result=checkpoint, pool=pool)
    results = dict(cached)
    results.update(zip(missing, computed))
    return results
