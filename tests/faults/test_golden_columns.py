"""Golden state as columns: compact read logs that survive worker handoff.

A golden run's read logs are the bulk of its state at paper scale (4.2M
entries on the 16,384-thread GEMM).  They are held as
:class:`~repro.gpu.SpanLog` columns, and a pickled :class:`GoldenState`
must rebuild the same byte-ownership facts in a worker.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import FaultInjector, load_instance
from repro.gpu import SpanLog
from repro.parallel import ParallelCampaignRunner
from repro.pruning import ProgressivePruner
from repro.telemetry import MemorySink, Telemetry

#: CI also runs these with ``spawn`` set explicitly.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or "spawn"

#: Array bytes per read-log entry: an int64 address and a uint8 size,
#: against ~80 bytes for a tuple of two ints plus its list slot.
MAX_ENTRY_BYTES = 16


@pytest.fixture(scope="module")
def gemm():
    return FaultInjector(load_instance("gemm.k1"), backend="vectorized")


@pytest.mark.parametrize("backend", ["interpreter", "compiled", "vectorized"])
def test_read_logs_are_columnar(backend):
    injector = FaultInjector(load_instance("gemm.k1"), backend=backend)
    logs = injector.golden_state().cta_read_logs
    assert all(type(log) is SpanLog for log in logs)
    entries = sum(len(log) for log in logs)
    assert entries > 0
    array_bytes = sum(log.addrs.nbytes + log.sizes.nbytes for log in logs)
    assert array_bytes <= MAX_ENTRY_BYTES * entries


def test_pickle_round_trip_keeps_ownership(gemm):
    state = pickle.loads(pickle.dumps(gemm.golden_state()))
    rebuilt = FaultInjector(
        load_instance("gemm.k1"), backend="vectorized", golden=state
    )
    assert rebuilt._cta_sliceable == gemm._cta_sliceable
    assert all(rebuilt._cta_sliceable)
    np.testing.assert_array_equal(rebuilt._cta_read_mask, gemm._cta_read_mask)
    np.testing.assert_array_equal(rebuilt._cta_write_mask, gemm._cta_write_mask)
    np.testing.assert_array_equal(rebuilt._thread_writer, gemm._thread_writer)


def test_two_worker_vectorized_profile_matches_serial(gemm):
    """Pool workers rebuild thread slicing from the pickled columns."""
    space = ProgressivePruner(n_bits=2, num_loop_iters=2, seed=0).prune(gemm)
    want = space.estimate_profile(gemm)
    telemetry = Telemetry(sink=MemorySink())
    pooled = FaultInjector(
        load_instance("gemm.k1"), backend="vectorized", telemetry=telemetry
    )
    got = space.estimate_profile(
        pooled, executor=ParallelCampaignRunner(2, start_method=START_METHOD)
    )
    assert got.weights == want.weights
    assert got.n_injections == want.n_injections
    assert telemetry.metrics.counter("injections.thread_sliced").value > 0
