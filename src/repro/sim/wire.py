"""The binary eval-reply frame: a JSON header plus raw ``<f8`` blocks.

A latency-bearing eval reply is mostly per-request samples (20k floats
per cell).  As JSON text they cost a ``.tolist()`` and a float-by-float
``json.dumps`` on the daemon, and a float-by-float parse plus a
list→array conversion on the client.  The frame moves them as bytes:

* 8 bytes: the header length ``H``, little-endian;
* ``H`` bytes: the JSON reply as it is today, except that every row's
  ``stats.latencies_ns`` is ``[]`` and a top-level ``latency_blocks``
  lists each result's sample count; trailing spaces pad the header so
  the first block starts 8-byte aligned;
* one raw little-endian float64 block per result, in result order —
  the byte layout of the store's ``.lat`` sidecars.

The decoder hands each row back with ``latencies_ns`` as a read-only,
zero-copy ``np.frombuffer`` view of the frame (so every result of a
batch shares the one reply buffer).

Negotiation: a client asks for the frame with :data:`FRAME_ACCEPT` on
``/eval`` requests that want latencies; the daemon answers with a frame
(``Content-Type:`` :data:`FRAME_CONTENT_TYPE`) only when that header is
present and the reply is a successful eval reply carrying latencies.
Everything else stays JSON, and clients pick the decoder by the
response's ``Content-Type``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .stats import SimStats

FRAME_CONTENT_TYPE = "application/x-repro-frame"

#: The ``Accept`` header of a client that takes a frame or JSON.
FRAME_ACCEPT = f"{FRAME_CONTENT_TYPE}, application/json"

_LENGTH_BYTES = 8


def accepts_frame(accept: str) -> bool:
    """True iff an ``Accept`` header value lists the frame type."""
    return any(item.split(";", 1)[0].strip().lower() == FRAME_CONTENT_TYPE
               for item in accept.split(","))


def is_frame(content_type: str) -> bool:
    """True iff a ``Content-Type`` header value names the frame."""
    return content_type.split(";", 1)[0].strip().lower() \
        == FRAME_CONTENT_TYPE


def _stats_header(stats: SimStats) -> Dict[str, Any]:
    """``stats.to_dict()`` with the samples left out (they travel as a
    block) and nothing computed in their place."""
    payload = {f.name: getattr(stats, f.name) for f in fields(stats)}
    payload["latencies_ns"] = []
    return payload


def encode_eval_reply(results: Sequence[Tuple[Dict[str, Any], SimStats]]) \
        -> bytes:
    """One successful eval reply as a frame.

    ``results`` pairs each reply row (``task``, ``digest``, ``source``)
    with its resolved stats; the samples are written straight from
    ``stats.latencies_ns``.
    """
    blocks = [np.asarray(stats.latencies_ns, dtype="<f8")
              for _row, stats in results]
    header = json.dumps({
        "ok": True,
        "results": [dict(row, stats=_stats_header(stats))
                    for row, stats in results],
        "latency_blocks": [len(block) for block in blocks],
    }).encode("utf-8")
    header += b" " * (-(_LENGTH_BYTES + len(header)) % 8)
    return b"".join([len(header).to_bytes(_LENGTH_BYTES, "little"), header,
                     *(memoryview(block) for block in blocks)])


def decode_eval_reply(body: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_eval_reply`: the JSON reply, with each
    row's ``stats.latencies_ns`` a read-only view into ``body``.

    Any malformed frame raises :class:`SimulationError`.
    """
    if len(body) < _LENGTH_BYTES:
        raise SimulationError(
            f"malformed frame: {len(body)} bytes, shorter than its "
            f"header length")
    start = _LENGTH_BYTES + int.from_bytes(body[:_LENGTH_BYTES], "little")
    if start > len(body):
        raise SimulationError(
            f"malformed frame: header runs to byte {start} of {len(body)}")
    try:
        reply = json.loads(body[_LENGTH_BYTES:start].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as error:
        raise SimulationError(f"malformed frame header: {error}") from None
    if not isinstance(reply, dict):
        raise SimulationError("malformed frame header: not a JSON object")
    results = reply.get("results")
    counts = reply.pop("latency_blocks", None)
    if not isinstance(results, list) or not isinstance(counts, list):
        raise SimulationError(
            "malformed frame header: 'results' and 'latency_blocks' must "
            "be lists")
    if len(counts) != len(results):
        raise SimulationError(
            f"malformed frame header: {len(counts)} latency blocks for "
            f"{len(results)} results")
    rows: List[Dict[str, Any]] = []
    for row, count in zip(results, counts):
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0:
            raise SimulationError(
                f"malformed frame header: block count {count!r}")
        stats = row.get("stats") if isinstance(row, dict) else None
        if not isinstance(stats, dict) or stats.get("latencies_ns") != []:
            raise SimulationError(
                "malformed frame header: each result needs a 'stats' "
                "object with empty 'latencies_ns'")
        rows.append(stats)
    if len(body) - start != 8 * sum(counts):
        raise SimulationError(
            f"malformed frame: {len(body) - start} block bytes for "
            f"{sum(counts)} samples")
    offset = start
    for stats, count in zip(rows, counts):
        stats["latencies_ns"] = np.frombuffer(body, dtype="<f8",
                                              count=count, offset=offset)
        offset += 8 * count
    return reply
