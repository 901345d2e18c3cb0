"""Property tests for the binary eval-reply frame (:mod:`repro.sim.wire`).

The frame decoder parses bytes from the network, so it is fuzzed: any
body — truncated, with a header length past its end, with a header
that is not UTF-8, not JSON or not the expected shape, with bad block
counts or with block bytes that do not add up — either decodes or
raises :class:`SimulationError`, never anything else; every malformed
case below must raise.  Encoding then decoding gives back every sample
bit for bit (empty arrays, NaN and ±inf included) as read-only views.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.stats import SimStats, assert_latencies_identical
from repro.sim.wire import decode_eval_reply, encode_eval_reply


def frame(header, blocks=b""):
    """A frame from a header (a JSON-able value or raw bytes) and raw
    block bytes, with no validation — the decoder's adversary."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    return len(header).to_bytes(8, "little") + header + blocks


def row():
    """A header row as the encoder writes it."""
    return {"task": {}, "digest": "d", "source": "lru",
            "stats": {"latencies_ns": []}}


def header(counts, results=None):
    rows = results if results is not None else [row() for _ in counts]
    return {"ok": True, "results": rows, "latency_blocks": counts}


def stats_with(samples):
    return SimStats("d", "w", len(samples), len(samples), 0, 64, 10.0, 5.0,
                    5.0, latencies_ns=np.asarray(samples, dtype=np.float64))


def assert_rejected(body):
    with pytest.raises(SimulationError):
        decode_eval_reply(body)


def decodes_or_rejects(body):
    try:
        decode_eval_reply(body)
    except SimulationError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)

#: Sample arrays from raw bytes: every float64 bit pattern, including
#: NaN payloads, ±inf, ±0 and subnormals.
sample_arrays = st.binary(max_size=8 * 64).map(
    lambda raw: np.frombuffer(raw[:len(raw) // 8 * 8], dtype="<f8")) \
    | st.lists(st.floats(allow_nan=True, allow_infinity=True),
               max_size=64).map(lambda values: np.array(values,
                                                        dtype=np.float64))


class TestMalformedFrames:
    @given(body=st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, body):
        decodes_or_rejects(body)

    @given(value=json_values, blocks=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_header(self, value, blocks):
        decodes_or_rejects(frame(value, blocks))

    @given(arrays=st.lists(sample_arrays, min_size=1, max_size=3),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_truncation(self, arrays, data):
        body = encode_eval_reply([({"digest": str(i)}, stats_with(a))
                                  for i, a in enumerate(arrays)])
        cut = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
        assert_rejected(body[:cut])

    @given(extra=st.integers(min_value=1, max_value=2 ** 63),
           tail=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_header_length_past_the_end(self, extra, tail):
        assert_rejected((len(tail) + extra).to_bytes(8, "little") + tail)

    @given(raw=st.binary(min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_non_utf8_header(self, raw):
        assert_rejected(frame(b"\xff" + raw))

    @given(text=st.text(max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_non_json_or_non_object_header(self, text):
        body = frame(("{" + text).encode())
        try:
            value = json.loads("{" + text)
        except ValueError:
            assert_rejected(body)
        else:
            decodes_or_rejects(body)
            assert_rejected(frame(json.dumps([value]).encode()))

    @given(key=st.sampled_from(["results", "latency_blocks"]),
           replacement=st.none() | st.integers() | st.text(max_size=4)
           | st.dictionaries(st.text(max_size=4), st.integers(),
                             max_size=2),
           drop=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_results_or_blocks_missing_or_not_a_list(self, key,
                                                     replacement, drop):
        value = header([0])
        if drop:
            del value[key]
        else:
            value[key] = replacement
        assert_rejected(frame(value))

    @given(counts=st.lists(st.integers(min_value=0, max_value=4),
                           max_size=4),
           rows=st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_block_count_length_mismatch(self, counts, rows):
        if rows == len(counts):
            rows += 1
        value = header(counts, [row() for _ in range(rows)])
        assert_rejected(frame(value, b"\0" * 8 * sum(counts)))

    @given(bad=st.integers(max_value=-1) | st.booleans()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=3) | st.none(),
           position=st.integers(min_value=0, max_value=2),
           samples=st.integers(min_value=0, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_negative_float_bool_or_non_int_counts(self, bad, position,
                                                   samples):
        counts = [1, 1, 1]
        counts[position] = bad
        assert_rejected(frame(header(counts), b"\0" * 8 * samples))

    @pytest.mark.parametrize("bad, samples", [
        (True, 3), (False, 2), (1.0, 3), (0.0, 2), (-1, 1)])
    def test_bad_counts_whose_bytes_add_up(self, bad, samples):
        # ``isinstance(True, int)`` holds, and 1.0 == 1: only an
        # explicit type check rejects these when the bytes match.
        assert_rejected(frame(header([bad, 1, 1]), b"\0" * 8 * samples))

    @given(counts=st.lists(st.integers(min_value=0, max_value=4),
                           min_size=1, max_size=4),
           delta=st.integers(min_value=-32, max_value=32).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_block_bytes_that_do_not_add_up(self, counts, delta):
        size = max(0, 8 * sum(counts) + delta)
        if size == 8 * sum(counts):
            size += 8
        assert_rejected(frame(header(counts), b"\0" * size))

    @given(arrays=st.lists(sample_arrays, max_size=3),
           tail=st.binary(min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_trailing_bytes(self, arrays, tail):
        body = encode_eval_reply([({"digest": str(i)}, stats_with(a))
                                  for i, a in enumerate(arrays)])
        assert_rejected(body + tail)

    @pytest.mark.parametrize("bad_row", [
        None, 3, "row", [], {"stats": None}, {"stats": []},
        {"stats": {}}, {"stats": {"latencies_ns": [1.0]}},
        {"stats": {"latencies_ns": None}},
    ])
    def test_rows_without_an_empty_latency_slot(self, bad_row):
        assert_rejected(frame(header([0], [bad_row])))

    def test_deeply_nested_header(self):
        assert_rejected(frame(b"[" * 100_000 + b"]" * 100_000))


class TestRoundTrip:
    @given(arrays=st.lists(sample_arrays, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_encode_then_decode_is_bit_exact(self, arrays):
        originals = [stats_with(array) for array in arrays]
        body = encode_eval_reply([({"digest": str(i)}, stats)
                                  for i, stats in enumerate(originals)])
        assert (8 + int.from_bytes(body[:8], "little")) % 8 == 0
        reply = decode_eval_reply(body)
        assert reply["ok"] is True and "latency_blocks" not in reply
        assert [r["digest"] for r in reply["results"]] \
            == [str(i) for i in range(len(arrays))]
        for result, original in zip(reply["results"], originals):
            decoded = SimStats.from_dict(result["stats"])
            samples = decoded.latencies_ns
            assert samples.tobytes() == original.latencies_ns.tobytes()
            assert samples.dtype == np.float64 and samples.ndim == 1
            assert not samples.flags.writeable
            if not np.isnan(original.latencies_ns).any():
                # The shared pin helper; it rejects NaN by design.
                assert_latencies_identical(samples, original.latencies_ns)
            for field in fields(SimStats):
                if field.name != "latencies_ns":
                    assert getattr(decoded, field.name) \
                        == getattr(original, field.name)
