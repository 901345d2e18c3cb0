"""Turn a finished workload into metrics and a readable report.

End-to-end metrics come from untraced phases only.  Per-layer metrics
come from traced phases and the spans recorded in them, and each ratio
is printed with its base counts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from harness import median, quantile
from workloads import MODEL_RATIOS, Bench, Phase

from repro.exp.headline import PAPER_CLAIMS

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("compute_cells_per_s", "cells/s"),
    ("cold_cells_per_s", "cells/s"),
    ("warm_cells_per_s", "cells/s"),
    ("summary_cells_per_s", "cells/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("store_kb_per_cell", "KB"),
)

#: Phase whose per-request samples give ``query_p50_ms``/``query_p95_ms``.
QUERY_PHASE = {"dse_sweep": "query", "daemon_query": "warm",
               "fabric_sweep": "warm"}

#: Phases that go through a daemon (server and client accounting).
REMOTE_PHASES = ("cold", "warm", "summary")


def _phases(bench: Bench, name: str, traced: bool) -> List[Phase]:
    """Reported phases of one kind; round 0 is warm-up only."""
    return [p for p in bench.phases
            if p.name == name and p.traced == traced and p.round > 0]


def _samples(bench: Bench, phases: List[Phase]) -> List[float]:
    return [rate for p in phases for rate in p.rates(bench.size.query_window)]


def _rate(bench: Bench, phases: List[Phase]) -> float:
    """Median cells/s over every sample of the phases."""
    return median(_samples(bench, phases))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(bench: Bench, q: float) -> float:
    """Median over reported rounds of each round's ``q`` quantile of
    the query samples (a round has >= 200, so >= 10 beyond p95)."""
    by_round: Dict[int, List[float]] = {}
    for p in _phases(bench, QUERY_PHASE[bench.workload], False):
        by_round.setdefault(p.round, []).extend(p.samples_ms)
    return median([quantile(samples, q) for samples in by_round.values()])


def end_to_end(bench: Bench, out: List[str]) -> Dict[str, float]:
    samples = [sample for p in _phases(bench, QUERY_PHASE[bench.workload],
                                       False)
               for sample in p.samples_ms]
    values = {
        "setup_s": median(bench.setup_s),
        "compute_cells_per_s": _rate(bench, _phases(bench, "compute", False)),
        "cold_cells_per_s": _rate(bench, _phases(bench, "cold", False)),
        "warm_cells_per_s": _rate(bench, _phases(bench, "warm", False)),
        "summary_cells_per_s": _rate(bench, _phases(bench, "summary", False)),
        "query_p50_ms": _percentile(bench, 0.50),
        "query_p95_ms": _percentile(bench, 0.95),
        "peak_rss_mb": sum(bench.peak_rss.values()),
        "store_kb_per_cell": median(bench.store_kb_per_cell),
    }
    rounds = len(_phases(bench, "cold", False))
    cells = {name: sum(p.cells for p in _phases(bench, name, False))
             for name in ("compute", "cold", "warm", "summary")}
    sample_counts = {name: len(_samples(bench, _phases(bench, name, False)))
                     for name in cells}
    out.append(f"end-to-end ({bench.workload}, host time, untraced rounds: "
               f"{rounds}; cells/s are medians over samples)")
    out.append(f"  setup_s              {values['setup_s']:.4f} s "
               f"(median of {len(bench.setup_s)} set-ups: "
               + ", ".join(f"{s:.3f}" for s in bench.setup_s) + ")")
    for name in ("compute", "cold", "warm", "summary"):
        out.append(f"  {name + '_cells_per_s':<20} "
                   f"{values[name + '_cells_per_s']:.2f} cells/s "
                   f"({cells[name]} cells, {sample_counts[name]} samples)")
    out.append(f"  query_p50_ms         {values['query_p50_ms']:.3f} ms "
               f"({len(samples)} samples in {rounds} rounds, phase "
               f"{QUERY_PHASE[bench.workload]}; median of per-round "
               f"quantiles)")
    beyond = sum(1 for s in samples if s > values["query_p95_ms"])
    out.append(f"  query_p95_ms         {values['query_p95_ms']:.3f} ms "
               f"({beyond} samples beyond)")
    out.append(f"  peak_rss_mb          {values['peak_rss_mb']:.1f} MB ("
               + ", ".join(f"{name} {mb:.1f}"
                           for name, mb in bench.peak_rss.items()) + ")")
    out.append(f"  store_kb_per_cell    {values['store_kb_per_cell']:.2f} KB")
    checker = bench.checker
    out.append(f"  error_rate           "
               f"{_ratio(checker.failed, checker.attempted):.6f} "
               f"({checker.failed} failed / {checker.attempted} attempted; "
               f"{checker.checks} bit-exact checks)")
    return values


def fidelity(model: Dict[str, float], out: List[str]) -> None:
    out.append("model fidelity (simulated, not host time; COMET ratios, "
               "geomean over the SPEC workloads of round 0)")
    out.append("  validated only against these paper ratios "
               "(repro.exp.headline.PAPER_CLAIMS); reported, not gated")
    for name, (claim, _, _) in MODEL_RATIOS.items():
        paper = PAPER_CLAIMS[claim]
        value = model[name]
        note = " (known deviation, ROADMAP item 5)" \
            if claim in ("latency_vs_cosmos", "bw_per_epb_vs_3d_ddr4") else ""
        out.append(f"  {name:<28} {value:9.3f}  paper {paper:6.2f}  "
                   f"log error {math.log(value / paper):+.3f}{note}")


def _sum(phases: List[Phase], attr: str, key: str) -> float:
    return sum(getattr(p, attr).get(key, 0) for p in phases)


def per_layer(bench: Bench, model: Dict[str, float],
              out: List[str]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the traced rounds, as ``{name: (value,
    unit)}``; ``out`` also gets the metrics that are structurally zero on
    this workload and the tracing overhead per phase."""
    tracer = bench.tracer
    traced = [p for p in bench.phases if p.traced]
    remote = [p for p in traced if p.name in REMOTE_PHASES
              and bench.workload != "dse_sweep"]
    metrics: Dict[str, Tuple[float, str]] = {}
    notes: Dict[str, str] = {}

    def put(name: str, value: float, unit: str, note: str = "") -> None:
        metrics[name] = (value, unit)
        notes[name] = note

    def spans(name: str) -> Tuple[int, float]:
        found = tracer.by_name(name)
        return len(found), sum(span.duration for span in found)

    calls, busy = spans("tracegen.generate_trace_arrays")
    traces = len({span.key for span in
                  tracer.by_name("tracegen.generate_trace_arrays")})
    put("tracegen.calls", calls, "count")
    put("tracegen.busy_s", busy, "s")
    put("tracegen.calls_per_trace", _ratio(calls, traces), "ratio",
        f"{calls} calls / {traces} distinct (workload, n, seed)")

    calls, busy = spans("controller.run_arrays")
    kernel = {key: _sum(traced, "kernel", key) for key in (
        "fast", "fast_per_bank", "fast_shared_bus", "fast_global_queue",
        "twin_per_bank", "fallback_device", "fallback_toolchain",
        "fallback_admission")}
    compiled = kernel["fast_shared_bus"] + kernel["fast_global_queue"] \
        + kernel["twin_per_bank"]
    scheduled = kernel["fast"] + kernel["fallback_device"] \
        + kernel["fallback_toolchain"]
    put("controller.calls", calls, "count")
    put("controller.busy_s", busy, "s")
    put("controller.compiled_hit_rate", _ratio(compiled, scheduled),
        "fraction", f"{compiled} compiled / {scheduled} scheduled")
    put("controller.fallbacks",
        kernel["fallback_device"] + kernel["fallback_toolchain"], "count")
    put("controller.admission_reverts", kernel["fallback_admission"],
        "count")

    to_calls, to_s = spans("stats.to_dict")
    from_calls, from_s = spans("stats.from_dict")
    put("stats.to_dict_calls", to_calls, "count")
    put("stats.from_dict_calls", from_calls, "count")
    put("stats.from_dict_s", from_s, "s")

    trace_s = _sum(traced, "profile", "trace_s")
    simulate_s = _sum(traced, "profile", "simulate_s")
    pool_wall = sum(p.pool_wall_s for p in traced)
    put("engine.trace_s", trace_s, "s")
    put("engine.simulate_s", simulate_s, "s")
    put("engine.pool_wall_s", pool_wall, "s")
    put("engine.pool_idle_s",
        bench.workers * pool_wall - trace_s - simulate_s, "s",
        f"{bench.workers} workers x pool wall - busy (trace + simulate)")

    put_calls, put_s = spans("store.put")
    gets = tracer.by_name("store.get")
    hits = sum(1 for span in gets if span.key)
    put("store.put_calls", put_calls, "count")
    put("store.get_calls", len(gets), "count")
    put("store.hit_rate", _ratio(hits, len(gets)), "fraction",
        f"{hits} hits / {len(gets)} gets")
    put("store.bytes_written", bench.bytes_written, "bytes",
        "all rounds")

    sweeps = [p for p in traced if "store_hits" in p.extra]
    put("sweep.store_hits", sum(p.extra["store_hits"] for p in sweeps),
        "count")
    put("sweep.computed", sum(p.extra["computed"] for p in sweeps), "count")

    server = {key: _sum(remote, "server", key) for key in (
        "store_hits", "computed", "coalesced", "errors")}
    repeat = [p for p in remote if p.name != "cold"]
    lru_hits = _sum(repeat, "server", "lru_hits")
    lru_cells = _sum(repeat, "server", "cells")
    put("server.lru_hit_rate", _ratio(lru_hits, lru_cells), "fraction",
        f"{lru_hits} LRU hits / {lru_cells} warm and summary cells")
    for key in ("store_hits", "computed", "coalesced", "errors"):
        put(f"server.{key}", server[key], "count")

    eval_calls, _ = spans("client.eval_cell")
    async_calls, async_s = spans("client.async_eval_tasks")
    client_phases = [p for p in traced if p.name != "compute"]
    client_cells = sum(p.cells for p in client_phases)
    put("client.calls", eval_calls + async_calls, "count",
        f"{eval_calls} EvalClient.eval_cell + {async_calls} "
        f"AsyncEvalClient.eval_tasks")
    put("client.cpu_ms_per_cell",
        1e3 * _ratio(sum(p.cpu_s for p in client_phases), client_cells),
        "ms", f"benchmark-process CPU over {client_cells} cells of the "
        f"non-compute phases")

    fabric = [p for p in traced if "completed" in p.extra]
    completed = sum(p.extra["completed"] for p in fabric)
    redispatched = sum(p.extra["redispatched"] for p in fabric)
    per_host: Dict[str, int] = {}
    for p in fabric:
        for host, count in p.extra["per_host"].items():
            per_host[host] = per_host.get(host, 0) + count
    put("fabric.completed", completed, "count")
    put("fabric.stolen", sum(p.extra["stolen"] for p in fabric), "count")
    put("fabric.redispatched", redispatched, "count")
    put("fabric.useful_ratio", _ratio(completed, completed + redispatched),
        "fraction", f"{completed} completed / "
        f"{completed + redispatched} dispatched")
    put("fabric.host_imbalance",
        _ratio(max(per_host.values(), default=0),
               min(per_host.values(), default=0)),
        "ratio", "max/min per-host completed: " + ", ".join(
            f"{count}" for count in per_host.values()))
    for key in ("suspected", "died"):
        put(f"fabric.membership_{key}", _sum(fabric, "membership", key),
            "count")

    for name, value in model.items():
        put(name, value, "ratio")

    out.append(f"per-layer ({bench.workload}, traced rounds: "
               f"{len(_phases(bench, 'cold', True))})")
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if notes[name] else ""
        out.append(f"  {name:<34} {value:14.6g} {unit}{note}")

    # Layer times that are structurally zero on some workload: reported
    # here only, never as a named metric.
    remote_cells = sum(p.cells for p in remote)
    remote_wall = sum(p.wall_s for p in remote)
    remote_cpu = sum(p.cpu_s for p in remote)
    remote_daemon = sum(p.daemon_cpu_s for p in remote)
    membership = {key: _sum(fabric, "membership", key) for key in (
        "admitted", "suspected", "recovered", "died", "readmitted",
        "evicted")}
    extra = [
        ("stats.to_dict_s", to_s, "s"),
        ("engine.store_s", _sum(traced, "profile", "store_s"), "s"),
        ("store.put_s", put_s, "s"),
        ("store.get_s", sum(span.duration for span in gets), "s"),
        ("server.cpu_ms_per_cell",
         1e3 * _ratio(remote_daemon, remote_cells), "ms"),
        ("client.wait_ms_per_cell", 1e3 * _ratio(
            remote_wall - remote_cpu - remote_daemon, remote_cells), "ms"),
        ("client.async_busy_s", async_s, "s"),
        ("fabric.coordinator_cpu_ms_per_cell", 1e3 * _ratio(
            sum(p.cpu_s for p in fabric),
            sum(p.cells for p in fabric)), "ms"),
        ("fabric.daemon_cpu_ms_per_cell", 1e3 * _ratio(
            sum(p.daemon_cpu_s for p in fabric),
            sum(p.cells for p in fabric)), "ms"),
    ]
    out.append(f"  layer times not exercised on every workload "
               f"({remote_cells} daemon-facing cells; wait includes time "
               f"waiting for a CPU):")
    for name, value, unit in extra:
        out.append(f"    {name:<36} {value:12.6g} {unit}")
    out.append("    fabric.membership deltas: " + ", ".join(
        f"{key}={value}" for key, value in membership.items()))
    warm = _phases(bench, "warm", True)
    if warm and all("store_hits" in p.extra for p in warm):
        hits = sum(p.extra["store_hits"] for p in warm)
        cells = sum(p.cells for p in warm)
        out.append(f"    sweep warm hit rate: {_ratio(hits, cells):.4f} "
                   f"({hits} / {cells})")

    out.append("  self time by span (calls, total s, self s):")
    for name, (calls, total, own) in sorted(tracer.self_times().items()):
        out.append(f"    {name:<36} {calls:7d} {total:10.4f} {own:10.4f}")

    out.append("  tracing overhead per phase (untraced vs traced cells/s):")
    for name in ("compute", "cold", "warm", "summary", "query"):
        plain, with_spans = _phases(bench, name, False), \
            _phases(bench, name, True)
        if plain and with_spans:
            a, b = _rate(bench, plain), _rate(bench, with_spans)
            out.append(f"    {name:<8} {a:10.2f} vs {b:10.2f}  "
                       f"overhead {a / b - 1.0:+.3f}")
    return metrics
