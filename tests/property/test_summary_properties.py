"""Property tests for the fixed-bin latency summary: the sort-based
histogram is exact.

``summarize_latencies`` counts samples per bin by sorting them once and
looking every edge up in the sorted array.  The reference below bins
every sample against the edges instead — the form it replaced.  For
any float64 input the two must give the same integer counts, and the
mean, min and max must be bit-equal (they are computed on the unsorted
array, so summation order and NaN propagation are those of the
reference).  The strategies aim at the places a sort-based count can
go wrong: NaN, ±inf, ±0.0, samples exactly on an edge and one ulp to
either side of it, and duplicates.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EvalTask, evaluate_cell
from repro.sim.stats import HIST_EDGES_NS, summarize_latencies


def reference_summary(samples):
    """Per-sample binning against the edges: the reference counts."""
    return {
        "count": int(len(samples)),
        "mean_ns": float(np.mean(samples)),
        "min_ns": float(np.min(samples)),
        "max_ns": float(np.max(samples)),
        "counts": np.bincount(np.searchsorted(HIST_EDGES_NS, samples,
                                              side="right"),
                              minlength=len(HIST_EDGES_NS) + 1).tolist(),
    }


def bits(value):
    return struct.pack("<d", value)


def assert_exact(samples):
    with np.errstate(all="ignore"):
        want = reference_summary(samples)
        got = summarize_latencies(samples)
    assert got["counts"] == want["counts"]
    assert all(type(count) is int for count in got["counts"])
    assert got["count"] == want["count"] == sum(got["counts"])
    for key in ("mean_ns", "min_ns", "max_ns"):
        assert bits(got[key]) == bits(want[key]), key


EDGE_NEIGHBOURS = sorted({
    float(value)
    for edge in HIST_EDGES_NS
    for value in (edge, np.nextafter(edge, -np.inf),
                  np.nextafter(edge, np.inf))
})
SPECIALS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0]

samples_on_edges = st.sampled_from(EDGE_NEIGHBOURS + SPECIALS)
any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
latency_like = st.floats(min_value=0.0, max_value=2e7)
elements = st.one_of(samples_on_edges, any_float, latency_like)


@st.composite
def sample_arrays(draw):
    values = draw(st.lists(elements, min_size=1, max_size=300))
    # Duplicates: repeat a drawn prefix, the sort places the copies
    # side by side.
    repeats = draw(st.integers(min_value=0, max_value=3))
    values = values + values[:draw(st.integers(0, len(values)))] * repeats
    return np.array(draw(st.permutations(values)), dtype=np.float64)


class TestSortedHistogramIsExact:
    @given(samples=sample_arrays())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_sample_binning(self, samples):
        assert_exact(samples)

    def test_every_edge_and_neighbour_at_once(self):
        assert_exact(np.array(EDGE_NEIGHBOURS * 2 + SPECIALS))

    def test_mean_keeps_the_unsorted_summation_order(self):
        # Sorting these changes np.mean's last bit, so a mean taken on
        # the sorted copy would not be bit-equal.
        samples = np.array([1e16, 1.0, -1e16, 3.0, 1.0, 7e15, 0.5, 2.0,
                            -7e15, 1.5] * 20)
        with np.errstate(all="ignore"):
            assert np.mean(samples) != np.mean(np.sort(samples))
        assert_exact(samples)

    def test_min_and_max_propagate_nan(self):
        summary = summarize_latencies(np.array([5.0, float("nan"), 1.0]))
        assert np.isnan(summary["min_ns"]) and np.isnan(summary["max_ns"])
        assert summary["counts"][-1] == 1

    def test_simulated_cells(self):
        for arch in ("COMET", "COSMOS", "2D_DDR3", "EPCM-MM"):
            stats = evaluate_cell(EvalTask(arch, "mcf", 3000, 5))
            assert_exact(stats.latencies_ns)
