"""Evaluation-daemon smoke test: start, one miss + one hit, reply
negotiation, clean exit.

The CI job runs this end to end against real processes (no pytest, no
in-process shortcuts): launch ``python -m repro.sim serve`` as a
subprocess, wait for its ready line, issue one cache-miss query and the
same query again (served without recomputation — verified via
``/stats``), check that a latency query asking for the binary frame
gets one while a request without an ``Accept`` header gets JSON, and
that both decode to identical stats, check that the same cell's
``latencies=false`` reply carries the latency summary of the
frame-decoded samples, then request shutdown and assert the daemon
exits 0.

Usage::

    PYTHONPATH=src python examples/server_smoke.py
"""

import http.client
import json
import os
import subprocess
import sys
import tempfile
import urllib.parse

from repro.sim.client import EvalClient
from repro.sim.engine import EvalTask, evaluate_cell, task_to_dict
from repro.sim.stats import SimStats, summarize_latencies
from repro.sim.wire import FRAME_ACCEPT, decode_eval_reply, is_frame

TASK = EvalTask("EPCM-MM", "gcc", 500, 7)


def raw_eval(address: str, accept: str = ""):
    """One ``POST /eval`` for ``TASK`` with latencies, spoken with the
    stdlib only → (content type, stats decoded from the body)."""
    parsed = urllib.parse.urlsplit(address)
    connection = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                            timeout=60)
    headers = {"Accept": accept} if accept else {}
    try:
        connection.request("POST", "/eval", headers=headers, body=json.dumps(
            {"task": task_to_dict(TASK), "latencies": True}).encode())
        response = connection.getresponse()
        content_type = response.getheader("Content-Type", "")
        body = response.read()
    finally:
        connection.close()
    assert response.status == 200, (response.status, body[:200])
    reply = decode_eval_reply(body) if is_frame(content_type) \
        else json.loads(body)
    return content_type, SimStats.from_dict(reply["results"][0]["stats"])


def main() -> int:
    store_dir = tempfile.mkdtemp(prefix="eval-smoke-store-")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.sim", "serve", "--port", "0",
         "--store", store_dir, "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ},
    )
    try:
        ready = daemon.stdout.readline().strip()
        assert ready.startswith("ready: "), f"unexpected banner: {ready!r}"
        address = ready.split("ready: ", 1)[1]
        print(f"daemon up at {address}")

        client = EvalClient(address)
        assert client.ping(), "health check failed"

        miss = client.eval_cell(TASK)
        counters = client.stats()
        assert counters["computed"] == 1, counters
        print(f"miss computed: {miss.bandwidth_gbps:.2f} GB/s")

        hit = client.eval_cell(TASK)
        counters = client.stats()
        assert counters["computed"] == 1, \
            f"warm query recomputed: {counters}"
        assert counters["lru_hits"] + counters["store_hits"] >= 1, counters
        assert hit == miss, "hit diverged from the computed stats"
        print("hit served without recomputation")

        direct = evaluate_cell(TASK)
        assert miss == direct, "served stats differ from direct evaluation"
        print("served stats bit-identical to direct evaluate_cell")

        framed_type, framed = raw_eval(address, FRAME_ACCEPT)
        assert is_frame(framed_type), \
            f"latency query not answered with a frame: {framed_type!r}"
        plain_type, plain = raw_eval(address)
        assert plain_type == "application/json", \
            f"request without Accept not answered with JSON: {plain_type!r}"
        assert framed.latencies_ns.tobytes() == plain.latencies_ns.tobytes()
        assert framed == plain == direct, \
            "frame and JSON replies decode to different stats"
        print("frame and JSON replies negotiated and bit-identical")

        lean = client.eval_cell(TASK, latencies=False)
        assert len(lean.latencies_ns) == 0, "summary reply carried samples"
        assert lean.latency_summary == summarize_latencies(
            framed.latencies_ns), \
            "summary reply disagrees with the frame-decoded samples"
        print("summary reply matches the summary of the framed samples")

        client.shutdown()
        code = daemon.wait(timeout=60)
        assert code == 0, f"daemon exited {code}"
        print("clean shutdown")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)
        stderr = daemon.stderr.read()
        if stderr:
            print(stderr, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
