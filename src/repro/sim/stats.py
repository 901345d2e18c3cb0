"""Simulation statistics: the Fig. 9 metrics.

``SimStats`` aggregates what the paper reports: sustained bandwidth,
average (and tail) application latency, and energy-per-bit.  EPB follows
the paper's accounting (Section IV.C): *all* energy spent while
orchestrating the trace's reads and writes — background + gated active
power + per-operation energy — divided by the bits transferred.

When the raw per-request samples are unavailable (archival result-store
entries written with ``latencies=False``, trimmed wire responses), a
fixed-bin **latency summary** — exact count/mean/min/max plus a
log-spaced histogram — stands in: the mean and extremes stay exact and
percentiles interpolate within their bin, so percentile queries against
archival stores return numbers instead of NaN.  The summary is computed
once per result: ``to_dict(latencies=False)`` memoizes it on the
instance, so the store write, a daemon's summary replies and the
fabric's daemons share one computation.  Its histogram counts are
sort-based and exact; the mean, min and max come from the unsorted
array (see :func:`summarize_latencies`).

``SimStats.latencies_ns`` is a read-only ``float64`` ndarray on every
path — controller, store, wire decode, pool workers — so a cached result
shared by the daemon LRU or a sweep cannot be mutated by a caller (a
write raises ``ValueError``).  Lists handed to the constructor are
converted once; ``to_dict()`` (or ``latencies_ns.tolist()``) gives the
JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import SimulationError

#: Fixed histogram bin edges (ns): 10 bins per decade from 1 ns to
#: 10 ms, plus implicit underflow/overflow bins.  Fixed — not data
#: dependent — so summaries from different cells, runs and hosts are
#: directly comparable and mergeable.
HIST_DECADES = (0, 7)
HIST_BINS_PER_DECADE = 10
HIST_EDGES_NS = np.logspace(
    HIST_DECADES[0], HIST_DECADES[1],
    (HIST_DECADES[1] - HIST_DECADES[0]) * HIST_BINS_PER_DECADE + 1)


#: Instance-``__dict__`` key of a result's memoized latency summary
#: (see :meth:`SimStats._samples_summary`).
_SUMMARY_MEMO = "_samples_summary_memo"

#: The one empty sample array every sample-less result shares.
_NO_SAMPLES = np.empty(0)
_NO_SAMPLES.flags.writeable = False


def _readonly_latencies(values: Union[np.ndarray, Sequence[float]]) \
        -> np.ndarray:
    """``values`` as a read-only 1-D ``float64`` array.

    Zero-copy for a float64 array (a writable one is wrapped in a
    read-only view, leaving the caller's array untouched); a list is
    converted once.
    """
    if isinstance(values, np.ndarray):
        array = np.asarray(values, dtype=np.float64)
        if array.ndim != 1:
            raise SimulationError("latency samples must be one-dimensional")
        if array.flags.writeable and array is values:
            array = array.view()
    elif not len(values):
        return _NO_SAMPLES
    else:
        array = np.fromiter(values, dtype=np.float64, count=len(values))
    array.flags.writeable = False
    return array


def assert_latencies_identical(
        actual: np.ndarray,
        expected: Union[np.ndarray, Sequence[float]]) -> None:
    """Raise ``AssertionError`` unless ``actual`` is a read-only 1-D
    ``float64`` array holding exactly ``expected``'s IEEE-754 bytes.

    ``expected`` is another result's ``latencies_ns`` (held to the same
    contract) or a list of floats.  The cross-tier equivalence pins use
    this instead of ``==``; it also rejects NaN, which list equality
    never matched.
    """
    arrays = [actual]
    if isinstance(expected, np.ndarray):
        arrays.append(expected)
    for array in arrays:
        if not isinstance(array, np.ndarray) or array.dtype != np.float64 \
                or array.ndim != 1:
            raise AssertionError(
                f"latencies must be a 1-D float64 ndarray, got "
                f"{type(array).__name__} {getattr(array, 'dtype', '')}")
        if array.flags.writeable:
            raise AssertionError("latencies array is writable")
    want = np.asarray(expected, dtype=np.float64)
    if actual.tobytes() != want.tobytes() \
            or not np.array_equal(actual, want):
        raise AssertionError(
            f"latencies differ: {len(actual)} samples vs {len(want)}")


def summarize_latencies(samples: np.ndarray) -> Dict[str, Any]:
    """Fixed-bin summary of one ``latencies_ns`` array.

    ``counts`` has ``len(HIST_EDGES_NS) + 1`` entries: an underflow bin
    below the first edge, the log-spaced bins, and an overflow bin at
    the top — every sample lands somewhere, whatever the device.  Bin
    ``b`` holds ``edge[b-1] <= x < edge[b]``; NaN lands in the overflow
    bin.

    The counts are exact and sort-based: one ``np.sort`` of the samples,
    then one lookup per edge into the sorted array (the number of
    samples below it), differenced — the same integers as binning every
    sample against the edges, NaN and ±inf included, at a fraction of
    the cost.  ``mean_ns``, ``min_ns`` and ``max_ns`` come from the
    *unsorted* array: the summation order of ``np.mean`` decides its
    last bit, and ``np.min`` keeps propagating NaN.

    :meth:`SimStats.to_dict` calls this at most once per result and
    memoizes the outcome.
    """
    if len(samples) == 0:
        raise SimulationError("no latency samples to summarize")
    below = np.searchsorted(np.sort(samples), HIST_EDGES_NS, side="left")
    counts = np.diff(below, prepend=0, append=len(samples))
    return {
        "count": int(len(samples)),
        "mean_ns": float(np.mean(samples)),
        "min_ns": float(np.min(samples)),
        "max_ns": float(np.max(samples)),
        "counts": counts.tolist(),
    }


def summary_percentile(summary: Dict[str, Any], q: float) -> float:
    """Estimate the ``q``-th percentile from a fixed-bin summary.

    Linear interpolation inside the covering bin, clamped to the exact
    ``[min_ns, max_ns]`` — a few percent of a bin's width off at worst,
    against NaN without it.
    """
    counts = np.asarray(summary["counts"], dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise SimulationError("empty latency summary")
    lo, hi = summary["min_ns"], summary["max_ns"]
    # Bin b spans [edge[b-1], edge[b]); clamp the open-ended extremes
    # to the exact observed min/max.
    edges_lo = np.concatenate(([lo], HIST_EDGES_NS))
    edges_hi = np.concatenate((HIST_EDGES_NS, [hi]))
    target = total * q / 100.0
    cumulative = np.cumsum(counts)
    index = int(np.searchsorted(cumulative, target, side="left"))
    index = min(index, len(counts) - 1)
    below = cumulative[index] - counts[index]
    inside = counts[index] or 1.0
    fraction = min(max((target - below) / inside, 0.0), 1.0)
    bin_lo = max(float(edges_lo[index]), lo)
    bin_hi = min(float(edges_hi[index]), hi)
    if bin_hi < bin_lo:    # degenerate bin entirely outside [lo, hi]
        bin_lo = bin_hi = min(max(bin_lo, lo), hi)
    return bin_lo + (bin_hi - bin_lo) * fraction


@dataclass
class SimStats:
    """Aggregated results of one trace on one device."""

    device_name: str
    workload_name: str
    num_requests: int
    num_reads: int
    num_writes: int
    total_bytes: int
    sim_time_ns: float
    busy_time_ns: float
    active_time_ns: float
    #: Per-request latencies: a read-only float64 array (see the module
    #: docstring); any sequence passed in is converted once.
    latencies_ns: np.ndarray = field(repr=False,
                                     default_factory=lambda: _NO_SAMPLES)
    op_energy_j: float = 0.0
    refresh_energy_j: float = 0.0
    refresh_count: int = 0
    background_power_w: float = 0.0
    active_power_w: float = 0.0
    row_hits: int = 0
    row_misses: int = 0
    #: Fixed-bin latency summary (see :func:`summarize_latencies`), attached
    #: when the raw samples are absent — archival store entries, trimmed
    #: wire responses.  ``None`` whenever ``latencies_ns`` is populated.
    latency_summary: Optional[Dict[str, Any]] = field(repr=False,
                                                      default=None)

    def __post_init__(self) -> None:
        if self.sim_time_ns <= 0.0:
            raise SimulationError("simulation time must be positive")
        self.latencies_ns = _readonly_latencies(self.latencies_ns)

    def __getstate__(self) -> Dict[str, Any]:
        # The summary memo is derived data: pickles (fork-pool and
        # process-executor results, deepcopy) carry the fields only,
        # byte for byte as without it.
        state = self.__dict__
        if _SUMMARY_MEMO in state:
            state = {name: value for name, value in state.items()
                     if name != _SUMMARY_MEMO}
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Unpickling (fork-pool and process-executor results, deepcopy)
        # yields a writable array; restore the read-only contract.
        self.__dict__.update(state)
        self.latencies_ns = _readonly_latencies(self.latencies_ns)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in fields(self) if f.name != "latencies_ns"]
        return (np.array_equal(self.latencies_ns, other.latencies_ns)
                and tuple(getattr(self, name) for name in names)
                == tuple(getattr(other, name) for name in names))

    # -- throughput ---------------------------------------------------------

    @property
    def bandwidth_gbps(self) -> float:
        """Sustained bandwidth in GB/s (bytes / wall time)."""
        return self.total_bytes / self.sim_time_ns

    @property
    def bandwidth_bits_per_ns(self) -> float:
        return self.total_bytes * 8.0 / self.sim_time_ns

    # -- latency ---------------------------------------------------------------

    @property
    def avg_latency_ns(self) -> float:
        if not len(self.latencies_ns):
            if self.latency_summary is not None:
                return float(self.latency_summary["mean_ns"])   # exact
            raise SimulationError("no completed requests")
        return float(np.mean(self.latencies_ns))

    @property
    def p95_latency_ns(self) -> float:
        if not len(self.latencies_ns):
            if self.latency_summary is not None:
                # Histogram estimate (exact mean/extremes, interpolated
                # percentile) — what archival stores serve.
                return summary_percentile(self.latency_summary, 95.0)
            raise SimulationError("no completed requests")
        return float(np.percentile(self.latencies_ns, 95.0))

    @property
    def max_latency_ns(self) -> float:
        if not len(self.latencies_ns):
            if self.latency_summary is not None:
                return float(self.latency_summary["max_ns"])    # exact
            raise SimulationError("no completed requests")
        return float(np.max(self.latencies_ns))

    # -- energy -----------------------------------------------------------------

    @property
    def background_energy_j(self) -> float:
        return self.background_power_w * self.sim_time_ns * 1e-9

    @property
    def active_energy_j(self) -> float:
        return self.active_power_w * self.active_time_ns * 1e-9

    @property
    def total_energy_j(self) -> float:
        return (self.background_energy_j + self.active_energy_j
                + self.op_energy_j + self.refresh_energy_j)

    @property
    def energy_per_bit_pj(self) -> float:
        bits = self.total_bytes * 8
        if bits == 0:
            raise SimulationError("no bits transferred")
        return self.total_energy_j / bits * 1e12

    # -- composite ----------------------------------------------------------------

    @property
    def bw_per_epb(self) -> float:
        """The Fig. 9(c) composite metric: GB/s per pJ/bit."""
        return self.bandwidth_gbps / self.energy_per_bit_pj

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of wall time the device was serving."""
        return min(self.busy_time_ns / (self.sim_time_ns * 1.0), 1.0)

    def latency_row(self) -> Dict[str, float]:
        """Latency metrics as a dict, NaN when nothing can serve them.

        Table/CSV paths use this instead of the raising properties so a
        cell with neither raw samples nor a latency summary degrades to
        NaN columns rather than crashing a partially printed table.
        Archival entries (summary, no samples) produce real numbers.
        """
        if not len(self.latencies_ns) and self.latency_summary is None:
            nan = float("nan")
            return {"avg_latency_ns": nan, "p95_latency_ns": nan,
                    "max_latency_ns": nan}
        return {
            "avg_latency_ns": self.avg_latency_ns,
            "p95_latency_ns": self.p95_latency_ns,
            "max_latency_ns": self.max_latency_ns,
        }

    def as_row(self) -> Dict[str, float]:
        """Flat dict for table printing / CSV (NaN latencies when empty)."""
        latency = self.latency_row()
        return {
            "device": self.device_name,
            "workload": self.workload_name,
            "bandwidth_gbps": self.bandwidth_gbps,
            "avg_latency_ns": latency["avg_latency_ns"],
            "p95_latency_ns": latency["p95_latency_ns"],
            "epb_pj": self.energy_per_bit_pj,
            "bw_per_epb": self.bw_per_epb,
            "row_hit_rate": self.row_hit_rate,
            "utilization": self.utilization,
        }

    # -- serialization ------------------------------------------------------

    def to_dict(self, latencies: bool = True) -> Dict[str, Any]:
        """JSON-serializable dict of every field.

        ``latencies=False`` drops the raw per-request samples (the bulky
        part) and attaches the fixed-bin latency summary in their place,
        so the restored stats still answer mean/percentile/max queries
        (approximately, for percentiles) instead of reporting NaN.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["latencies_ns"] = (
            self.latencies_ns.tolist() if latencies else [])
        if not latencies and len(self.latencies_ns) \
                and self.latency_summary is None:
            payload["latency_summary"] = self._samples_summary()
        return payload

    def _samples_summary(self) -> Dict[str, Any]:
        """:func:`summarize_latencies` of ``latencies_ns``, computed once.

        The summary is kept in the instance ``__dict__`` (not a field, so
        equality, ``fields()`` and the wire form are unchanged) next to
        the array it was computed from; a reassigned ``latencies_ns``
        recomputes it.  Concurrent first calls may each compute it and
        store the same value — no lock, so thread-pool workers sharing
        a result never serialize here.  Each call returns its own
        ``counts`` list, so a caller cannot mutate the memo.
        """
        memo = self.__dict__.get(_SUMMARY_MEMO)
        if memo is None or memo[0] is not self.latencies_ns:
            memo = (self.latencies_ns,
                    summarize_latencies(self.latencies_ns))
            self.__dict__[_SUMMARY_MEMO] = memo
        summary = memo[1]
        return dict(summary, counts=list(summary["counts"]))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimStats":
        """Inverse of :meth:`to_dict`; unknown keys are ignored.

        Python floats round-trip exactly through ``json`` (repr-based),
        so ``from_dict(json.loads(json.dumps(s.to_dict()))) == s``
        bit-for-bit; the decoded latency list is converted to the
        read-only array exactly once, in the constructor.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items()
                      if key in known})


def geometric_mean(values: List[float]) -> float:
    """Geomean used for cross-workload averages."""
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0.0):
        raise SimulationError("geometric mean needs positive values")
    return float(np.exp(np.mean(np.log(arr))))


def kernel_dispatch_summary(counters: Dict[str, int]) -> Dict[str, Any]:
    """Summarize fast-path dispatch counters into per-class rates.

    ``counters`` is :func:`repro.sim.controller.kernel_counters` (or a
    delta between two snapshots, as the evaluation server reports).
    Terminal outcomes are the ``fast_*`` class hits plus the
    ``fallback_device`` / ``fallback_toolchain`` scalar fallbacks;
    ``fallback_admission`` marks a revert to the global-queue model
    whose cell also lands in a terminal counter, so it stays out of the
    scheduled total.  Schema-driven (classes come from the ``fast_*``
    keys) so it works on any snapshot without importing the controller.
    """
    per_class = {key[len("fast_"):]: value
                 for key, value in counters.items()
                 if key.startswith("fast_")}
    fast = counters.get("fast", sum(per_class.values()))
    scheduled = fast + counters.get("fallback_device", 0) \
        + counters.get("fallback_toolchain", 0)
    return {
        "scheduled": scheduled,
        "fast": fast,
        "hit_rate": (fast / scheduled) if scheduled else 0.0,
        "per_class": per_class,
        "fallbacks": {
            "device": counters.get("fallback_device", 0),
            "toolchain": counters.get("fallback_toolchain", 0),
            "admission_reverts": counters.get("fallback_admission", 0),
        },
    }
