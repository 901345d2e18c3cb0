"""Process handling, accounting and correctness checks for the benchmark.

Everything here observes the program from outside: daemons are real
``python -m repro.sim serve`` subprocesses, their CPU time and peak RSS
come from ``/proc``, and results are checked bit for bit against a
serial in-process evaluation.
"""

from __future__ import annotations

import array
import hashlib
import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Seconds a daemon may take to print its ready banner, and to exit
#: after a shutdown request, before it is killed.
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 15.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_process(pid: int, cpus: Iterable[int]) -> None:
    """Set the CPU affinity of every thread of ``pid``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), set(cpus))


def tree_bytes(root: Path) -> int:
    """Apparent size of every regular file under ``root``."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass
    return total


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stream:
        stat = stream.read()
    # The command name may hold spaces; the fields after it do not.
    rest = stat[stat.rindex(")") + 2:].split()
    return (int(rest[11]) + int(rest[12])) / _CLOCK_TICKS


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``0 < q <= 1``)."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1,
                       int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[index]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- seeds --------------------------------------------------------------------


class SeedPlan:
    """Every sweep seed block and query order, derived from the run seed.

    Seed 0 is reserved for warm-up queries, so it never appears in a
    timed block.  Blocks drawn in one run never overlap, so every cold
    phase really is cold."""

    def __init__(self, workload: str, seed: int) -> None:
        self._rng = random.Random(f"{workload}:{seed}")
        self._used: List[Tuple[int, int]] = []

    def block(self, size: int) -> Tuple[int, ...]:
        while True:
            start = self._rng.randrange(1, 2 ** 31)
            if all(start + size <= lo or hi <= start
                   for lo, hi in self._used):
                self._used.append((start, start + size))
                return tuple(range(start, start + size))

    def shuffled(self, items: Iterable[Any]) -> List[Any]:
        items = list(items)
        self._rng.shuffle(items)
        return items

    def sample(self, items: Sequence[Any], count: int) -> List[Any]:
        return self._rng.sample(list(items), min(count, len(items)))


# -- daemons ------------------------------------------------------------------


class Daemon:
    """One ``python -m repro.sim serve`` subprocess on an ephemeral port
    with a fresh store.  :meth:`close` asks it to shut down, waits, and
    kills it only if it does not exit."""

    def __init__(self, root: Path, store: Path) -> None:
        self.store = store
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.log = store.with_suffix(".log")
        store.parent.mkdir(parents=True, exist_ok=True)
        with self.log.open("w") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.sim", "serve", "--port", "0",
                 "--store", str(store)],
                stdout=subprocess.PIPE, stderr=stderr, env=env,
                cwd=str(root), text=True)
        self.pid = self.process.pid
        self.address: Optional[str] = None
        self.exit_code: Optional[int] = None
        self.clean_exit = False

    def wait_ready(self) -> str:
        """Block until the ready banner; returns the HTTP address."""
        assert self.process.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.address is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"daemon {self.pid} not ready in time")
            readable, _, _ = select.select([self.process.stdout], [], [],
                                           remaining)
            if not readable:
                continue
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"daemon {self.pid} exited during start-up: "
                    f"{self.log.read_text().strip()}")
            if line.startswith("ready: "):
                self.address = line.split()[1]
        return self.address

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def hwm_mb(self) -> float:
        return proc_hwm_mb(self.pid)

    def close(self) -> None:
        """Graceful shutdown, then reap; SIGKILL only as a last resort."""
        if self.exit_code is not None:
            return
        if self.process.poll() is None and self.address is not None:
            from repro.errors import SimulationError
            from repro.sim.client import EvalClient

            try:
                EvalClient(self.address, timeout=5.0, retries=0).shutdown()
            except (OSError, SimulationError):
                pass    # no answer: the wait below kills it if need be
        try:
            self.process.communicate(timeout=EXIT_TIMEOUT_S)
            self.clean_exit = self.process.returncode == 0
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.exit_code = self.process.returncode


# -- correctness --------------------------------------------------------------


def fingerprint(stats) -> bytes:
    """Bit-exact identity of every field ``SimStats.to_dict()`` carries:
    the scalar fields through ``repr``-exact JSON, the per-request
    latencies as raw IEEE-754 bytes."""
    scalars = {f.name: getattr(stats, f.name) for f in fields(stats)
               if f.name != "latencies_ns"}
    digest = hashlib.sha256(
        json.dumps(scalars, sort_keys=True).encode())
    digest.update(array.array("d", stats.latencies_ns).tobytes())
    return digest.digest()


@dataclass
class Checker:
    """Counts operations and failures and runs the correctness checks.

    ``evaluate`` is the serial in-process reference
    (``repro.sim.engine.evaluate_cell``, unwrapped)."""

    evaluate: Any
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    mismatches: List[str] = field(default_factory=list)
    _serial: Dict[Any, bytes] = field(default_factory=dict)

    def count(self, operations: int, failures: int = 0) -> None:
        self.attempted += operations
        self.failed += failures

    def _mismatch(self, label: str, task) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(f"{label}: {task.describe()}")

    def serial_reference(self, task) -> bytes:
        if task not in self._serial:
            self._serial[task] = fingerprint(self.evaluate(task))
        return self._serial[task]

    def against_serial(self, label: str, results: Dict[Any, Any],
                       tasks: Sequence[Any]) -> None:
        """Compare ``results[task]`` with a serial evaluation of each of
        ``tasks`` (bit for bit)."""
        for task in tasks:
            self.checks += 1
            if fingerprint(results[task]) != self.serial_reference(task):
                self._mismatch(f"{label} vs serial evaluate_cell", task)

    def against(self, label: str, expected: Dict[Any, bytes],
                answers: Iterable[Tuple[Any, Any]]) -> None:
        """Compare every ``(task, stats)`` answer with the expected
        fingerprint of its task."""
        for task, stats in answers:
            self.checks += 1
            if stats is None or fingerprint(stats) != expected[task]:
                self._mismatch(label, task)


def per_arch_depth_sample(plan: SeedPlan, tasks: Sequence[Any]) -> List[Any]:
    """One seeded cell per (architecture, queue depth) among ``tasks``."""
    groups: Dict[Tuple[str, Optional[int]], List[Any]] = {}
    for task in tasks:
        groups.setdefault((task.architecture, task.queue_depth),
                          []).append(task)
    return [plan.sample(groups[key], 1)[0] for key in sorted(
        groups, key=lambda k: (k[0], -1 if k[1] is None else k[1]))]


def results_digest(results: Dict[Any, Any]) -> str:
    """One digest over every (task, stats) pair, in task order."""
    digest = hashlib.sha256()
    for task in sorted(results, key=lambda t: (
            t.architecture, t.workload, t.num_requests, t.seed,
            -1 if t.queue_depth is None else t.queue_depth)):
        digest.update(task.describe().encode())
        digest.update(fingerprint(results[task]))
    return digest.hexdigest()


# -- work directory -----------------------------------------------------------


class WorkDir:
    """Temporary files inside the checkout, removed when the run ends."""

    def __init__(self, root: Path, label: str) -> None:
        self.path = root / ".e2ebench_work" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        return self.path / f"{name}-{self._count}"

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass
