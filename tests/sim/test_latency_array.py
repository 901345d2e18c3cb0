"""``SimStats.latencies_ns`` is a read-only float64 array on every path.

Each producer — the three scheduler tiers, the result store (full and
archival entries), the JSON decode, fork-pool workers and the
evaluation client — hands back the same type, so cached results can be
shared without copies and cannot be mutated by callers.  The wire form
(``to_dict`` → JSON) is pinned byte for byte.
"""

import asyncio
import copy
import hashlib
import json
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.sim import _fastloop, engine, stats as stats_module, tracegen
from repro.sim.client import EvalClient
from repro.sim.engine import EvalTask, controller_for, evaluate_cell
from repro.sim.server import EvalServer
from repro.sim.stats import SimStats, assert_latencies_identical
from repro.sim.store import ResultStore
from repro.sim.tracegen import cached_trace_arrays

TASK = EvalTask("COMET", "gcc", 400, 3)

#: sha256 of ``json.dumps(stats.to_dict(latencies=...))`` for two fixed
#: cells, recorded when ``latencies_ns`` was still a Python list: the
#: array must not change a single byte on the wire.
WIRE_SHA256 = {
    (TASK, True):
        "a5a3199a50d6bb3804a8970d87ec153057378dfb6834416199afa71519402156",
    (TASK, False):
        "b02b7b76eac57b101d82aa1f5a47a3e8176e5c3ea429eb8b142f0786bd1fbcf4",
    (EvalTask("2D_DDR3", "mcf", 300, 2, 16), True):
        "b7b22501c22caf3294109dea7df2ab17daa49dc10747783c5bfdaea6e47bc2b5",
    (EvalTask("2D_DDR3", "mcf", 300, 2, 16), False):
        "a3e1f74e4ae7f543ce30a769bf850fd21e5c9e32f0b63580f55139a21abc7064",
}


def assert_contract(stats):
    """Read-only 1-D float64, one sample per request."""
    latencies = stats.latencies_ns
    assert isinstance(latencies, np.ndarray)
    assert latencies.dtype == np.float64 and latencies.ndim == 1
    assert not latencies.flags.writeable
    assert len(latencies) == stats.num_requests


class TestProducers:
    @pytest.mark.parametrize("arch", ["COMET", "2D_DDR3", "COSMOS"])
    def test_reference_scalar_and_twin_tiers(self, arch):
        trace = cached_trace_arrays("mcf", 600, 2)
        controller = controller_for(arch)
        reference = controller.run_reference(trace.to_requests(), "mcf")
        scalar = controller.run_arrays(trace, workload_name="mcf",
                                       fast=False)
        for stats in (reference, scalar):
            assert_contract(stats)
        if _fastloop.available():
            twin = controller.run_arrays(trace, workload_name="mcf",
                                         fast=True)
            assert_contract(twin)
            assert_latencies_identical(twin.latencies_ns,
                                       reference.latencies_ns)

    def test_store_full_entry_is_a_zero_copy_view(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        computed = evaluate_cell(TASK)
        store.put(TASK, computed)
        loaded = store.get(TASK)
        assert_contract(loaded)
        # A view of the sidecar bytes, not a copy.
        assert isinstance(loaded.latencies_ns.base, bytes)
        assert loaded.latencies_ns.base == computed.latencies_ns.tobytes()
        assert loaded == computed

    def test_store_archival_entry_is_empty_plus_summary(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        computed = evaluate_cell(TASK)
        store.put(TASK, computed, latencies=False)
        lean = store.get(TASK)
        assert_latencies_identical(lean.latencies_ns, [])
        assert lean.latency_summary["count"] == TASK.num_requests
        assert lean.avg_latency_ns == computed.avg_latency_ns
        assert lean.max_latency_ns == computed.max_latency_ns

    def test_from_dict_of_decoded_json(self):
        computed = evaluate_cell(TASK)
        payload = json.loads(json.dumps(computed.to_dict()))
        assert isinstance(payload["latencies_ns"], list)
        restored = SimStats.from_dict(payload)
        assert_contract(restored)
        assert restored == computed

    def test_fork_pool_results_are_read_only_again(self):
        tasks = [TASK, EvalTask("EPCM-MM", "lbm", 300, 4)]
        results = engine.evaluate_tasks(tasks, workers=2, pool="fork")
        for task in tasks:
            assert_contract(results[task])
            assert results[task] == evaluate_cell(task)

    def test_unpickle_and_deepcopy_restore_read_only(self):
        computed = evaluate_cell(TASK)
        for clone in (pickle.loads(pickle.dumps(computed)),
                      copy.deepcopy(computed)):
            assert_contract(clone)
            assert clone == computed

    def test_eval_client_reply(self):
        async def scenario():
            server = EvalServer(port=0)
            await server.start()
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, EvalClient(server.http_address).eval_cell, TASK)
            finally:
                await server.stop()
        served = asyncio.run(scenario())
        assert_contract(served)
        assert served == evaluate_cell(TASK)

    def test_constructor_leaves_a_callers_array_writable(self):
        samples = np.array([1.0, 2.0, 3.0])
        stats = SimStats("d", "w", 3, 3, 0, 384, 10.0, 5.0, 5.0,
                         latencies_ns=samples)
        assert_contract(stats)
        assert samples.flags.writeable


class TestWire:
    @pytest.mark.parametrize("task, latencies", sorted(
        WIRE_SHA256, key=repr))
    def test_to_dict_json_is_byte_identical(self, task, latencies):
        blob = json.dumps(evaluate_cell(task).to_dict(latencies=latencies))
        assert hashlib.sha256(blob.encode()).hexdigest() \
            == WIRE_SHA256[task, latencies]


class TestImmutability:
    def test_writing_latencies_raises(self):
        stats = evaluate_cell(TASK)
        with pytest.raises(ValueError):
            stats.latencies_ns[0] = 0.0
        with pytest.raises(ValueError):
            stats.latencies_ns += 1.0
        # The cached result a second caller sees is untouched.
        assert stats == evaluate_cell(TASK)

    def test_equality_is_element_for_element(self):
        stats = evaluate_cell(TASK)
        changed = stats.latencies_ns.copy()
        changed[-1] += 1.0
        other = SimStats.from_dict(dict(stats.to_dict(),
                                        latencies_ns=changed))
        assert other != stats
        assert SimStats.from_dict(stats.to_dict()) == stats


class TestSummaryMemo:
    """``to_dict(latencies=False)`` summarizes a result once and shares
    the summary between the store write and every summary reply."""

    def test_one_summary_per_result_across_store_and_replies(
            self, tmp_path, monkeypatch):
        calls = []
        real = stats_module.summarize_latencies

        def counting(samples):
            calls.append(len(samples))
            return real(samples)
        monkeypatch.setattr(stats_module, "summarize_latencies", counting)
        sock = tmp_path / "eval.sock"

        async def scenario():
            server = EvalServer(store=tmp_path / "store", unix_path=sock)
            await server.start()
            try:
                def queries():
                    http = EvalClient(server.http_address)
                    full = http.eval_cell(TASK)          # cold: store.put
                    lean = [http.eval_cell(TASK, latencies=False)
                            for _ in range(3)]
                    lean.append(EvalClient(f"unix://{sock}").eval_cell(
                        TASK, latencies=False))
                    return full, lean, http.stats()
                return await asyncio.get_running_loop().run_in_executor(
                    None, queries)
            finally:
                await server.stop()
        full, lean, counters = asyncio.run(scenario())
        assert calls == [TASK.num_requests]
        assert counters["computed"] == 1
        summary = real(full.latencies_ns)
        for reply in lean:
            assert reply.latency_summary == summary

    def test_mutating_a_returned_summary_leaves_the_next_unchanged(self):
        computed = evaluate_cell(TASK)
        first = computed.to_dict(latencies=False)
        wire = json.dumps(first)
        first["latency_summary"]["counts"][0] += 7
        first["latency_summary"]["mean_ns"] = -1.0
        assert json.dumps(computed.to_dict(latencies=False)) == wire

    def test_mutating_a_reply_leaves_the_next_reply_unchanged(
            self, tmp_path):
        query = {"task": engine.task_to_dict(TASK), "latencies": False}

        async def scenario():
            server = EvalServer(store=tmp_path / "store")
            await server.start()
            try:
                _, reply = await server.handle_query(query)
                stats = reply["results"][0]["stats"]
                wire = json.dumps(stats)
                stats["latency_summary"]["counts"][-1] += 1
                _, again = await server.handle_query(query)
                assert again["results"][0]["source"] == "lru"
                return wire, json.dumps(again["results"][0]["stats"])
            finally:
                await server.stop()
        wire, again = asyncio.run(scenario())
        assert again == wire

    def test_memoized_result_equals_pickles_and_copies_as_fresh(self):
        memoized = evaluate_cell(TASK)
        unsummarized = pickle.dumps(memoized)
        memoized.to_dict(latencies=False)
        assert memoized == evaluate_cell(TASK)
        assert pickle.dumps(memoized) == unsummarized
        for clone in (pickle.loads(pickle.dumps(memoized)),
                      copy.deepcopy(memoized)):
            assert_contract(clone)
            assert clone == memoized
            assert clone.to_dict(latencies=False) \
                == memoized.to_dict(latencies=False)

    def test_concurrent_first_summaries_agree(self):
        # No lock guards the memo: racing first calls may each compute
        # the summary, but every caller must see the same value.
        computed = evaluate_cell(TASK)
        expected = json.dumps(computed.to_dict(latencies=False))
        replies, errors = [], []
        for _ in range(5):
            fresh = SimStats.from_dict(computed.to_dict())

            def summarize(stats=fresh):
                try:
                    for _ in range(20):
                        replies.append(json.dumps(
                            stats.to_dict(latencies=False)))
                except Exception as error:    # reported by the assert
                    errors.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=summarize)
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert replies == [expected] * (5 * 6 * 20)

    def test_reassigned_samples_are_summarized_afresh(self):
        stats = SimStats("d", "w", 3, 3, 0, 384, 10.0, 5.0, 5.0,
                         latencies_ns=[1.0, 2.0, 3.0])
        assert stats.to_dict(False)["latency_summary"]["max_ns"] == 3.0
        stats.latencies_ns = np.array([1.0, 2.0, 30.0])
        assert stats.to_dict(False)["latency_summary"]["max_ns"] == 30.0


class TestThreadFanoutTraces:
    def test_each_distinct_trace_generated_once_per_batch(
            self, monkeypatch):
        # More distinct traces than the generation cache holds.
        seeds = range(1, 6)
        workloads = sorted(tracegen.SPEC_WORKLOADS)
        tasks = [EvalTask(arch, workload, 200, seed)
                 for workload in workloads for seed in seeds
                 for arch in ("EPCM-MM", "2D_DDR3")]
        assert len({(t.workload, t.seed) for t in tasks}) \
            > cached_trace_arrays.cache_info().maxsize
        calls = []
        real = tracegen.generate_trace_arrays

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(tracegen, "generate_trace_arrays", counting)
        cached_trace_arrays.cache_clear()
        results = engine.evaluate_tasks(tasks, workers=2, pool="threads")
        assert len(calls) == len(set(calls)) == len(tasks) // 2
        assert not engine._PINNED_TRACES and not engine._PIN_COUNTS
        for task in tasks[:4]:
            assert results[task] == evaluate_cell(task)

    def test_concurrent_batches_share_and_release_pins(self):
        # Several callers fan out overlapping batches at once; a lost
        # pin-count update would leave a trace pinned or unpin one that
        # another batch still reads.
        tasks = [EvalTask("EPCM-MM", workload, 150, seed)
                 for workload in ("gcc", "mcf", "lbm") for seed in (1, 2)]
        expected = {task: evaluate_cell(task) for task in tasks}
        # Size the shared thread pool before the callers start: resizing
        # it replaces the executor under every other caller.
        engine.evaluate_tasks(tasks, workers=3, pool="threads")
        results, errors = [], []

        def caller(offset):
            try:
                batch = tasks[offset:] + tasks[:offset]
                for _ in range(5):
                    results.append(engine.evaluate_tasks(
                        batch, workers=3, pool="threads"))
            except Exception as error:    # reported by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 20
        assert all(result == expected for result in results)
        assert not engine._PINNED_TRACES and not engine._PIN_COUNTS
