"""Columnar golden logs: every backend's read logs and traces agree.

Golden launches return per-CTA read logs as :class:`~repro.gpu.SpanLog`
columns on every backend, and the vectorized backend builds them (and its
per-thread traces) from lockstep scatter records with one stable sort by
lane per segment.  These tests pin both against the interpreter, entry for
entry, and pin the abort truncation of a segment in which a lane parks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.gpu import (
    DEFAULT_MAX_STEPS,
    GPUSimulator,
    KernelBuilder,
    LaunchGeometry,
    ParamMemory,
    SpanLog,
    pack_params,
)
from repro.gpu.thread import ThreadContext
from repro.gpu.vector import _VectorCTARunner
from repro.kernels import all_kernels, get_kernel

ALL_KEYS = [spec.key for spec in all_kernels()]


def golden(key: str, backend: str):
    inst = get_kernel(key).build()
    return GPUSimulator(backend=backend).launch(
        inst.program, inst.geometry, inst.param_bytes,
        memory=inst.golden_memory(),
        record_traces=True, record_write_logs=True, record_read_logs=True,
    )


@pytest.mark.parametrize("key", ALL_KEYS)
def test_golden_logs_match_interpreter(key):
    want = golden(key, "interpreter")
    assert all(type(log) is SpanLog for log in want.cta_read_logs)
    want_reads = [list(log) for log in want.cta_read_logs]
    want_traces = [list(trace) for trace in want.traces]
    for backend in ("compiled", "vectorized"):
        got = golden(key, backend)
        assert all(type(log) is SpanLog for log in got.cta_read_logs), backend
        assert [list(log) for log in got.cta_read_logs] == want_reads, backend
        assert got.cta_read_slots == want.cta_read_slots, backend
        assert [list(trace) for trace in got.traces] == want_traces, backend


class TestSpanLog:
    SPANS = [(0x1000, 4), (0x1008, 8), (0x1000, 4), (0x2000, 2)]

    def test_list_compatible(self):
        log = SpanLog.from_spans(self.SPANS)
        assert len(log) == 4
        assert list(log) == self.SPANS
        assert log == self.SPANS and log != self.SPANS[:3]
        assert log[1] == (0x1008, 8)
        assert log[1:3] == self.SPANS[1:3]
        assert log.addrs.dtype == np.int64 and log.sizes.dtype == np.uint8

    def test_pickle_round_trip(self):
        log = SpanLog.from_spans(self.SPANS)
        assert pickle.loads(pickle.dumps(log)) == log

    def test_concat(self):
        a = SpanLog.from_spans(self.SPANS[:1])
        b = SpanLog.from_spans(self.SPANS[1:])
        parts = [(a.addrs, a.sizes), (b.addrs, b.sizes)]
        assert SpanLog.concat(parts) == self.SPANS
        assert SpanLog.concat([]) == []


# ------------------------------------------------------ abort truncation

N_LANES = 8
ROW = 4  # uint32 words per lane
FAULT_LANE = 5
SCALAR_LANE = 2


def parking_kernel():
    """Two segments; in the second, ``FAULT_LANE`` faults after one read.

    Segment 1: every lane reads its first two words, then hits a barrier.
    Segment 2: every lane reads its third word; ``FAULT_LANE`` then loads
    from far outside the heap and parks, while the other lanes read their
    fourth word and store a sum.
    """
    k = KernelBuilder("park")
    in_p, out_p = k.params("inp", "out")
    r = k.regs("i", "t", "addr", "acc", "v")
    k.cvt("u32", r.i, k.tid.x)
    k.mul("u32", r.addr, r.i, ROW * 4)
    k.ld("u32", r.t, in_p)
    k.add("u32", r.addr, r.addr, r.t)
    k.ld("u32", r.acc, k.global_ref(r.addr))
    k.ld("u32", r.v, k.global_ref(r.addr, 4))
    k.add("u32", r.acc, r.acc, r.v)
    k.bar()
    k.ld("u32", r.v, k.global_ref(r.addr, 8))
    k.add("u32", r.acc, r.acc, r.v)
    with k.if_block("eq", "u32", r.i, FAULT_LANE):
        k.add("u32", r.addr, r.addr, 1 << 24)
    k.ld("u32", r.v, k.global_ref(r.addr, 12))
    k.add("u32", r.acc, r.acc, r.v)
    k.shl("u32", r.addr, r.i, 2)
    k.ld("u32", r.t, out_p)
    k.add("u32", r.addr, r.addr, r.t)
    k.st("u32", k.global_ref(r.addr), r.acc)
    k.retp()
    program = k.build()

    sim = GPUSimulator()
    data = np.arange(N_LANES * ROW, dtype=np.uint32)
    in_addr = sim.alloc_array(data)
    out_addr = sim.alloc_zeros(N_LANES * 4)
    params = pack_params(k.param_layout, {"inp": in_addr, "out": out_addr})
    return program, params, sim.memory


def classic_reads(program, params, heap):
    """The compiled backend's read log up to the fault, and its slot runs."""
    log: list = []
    heap.read_log = log
    with pytest.raises(MemoryFault):
        GPUSimulator(backend="compiled").launch(
            program, LaunchGeometry(grid=(1, 1), block=(N_LANES, 1)), params,
            memory=heap,
        )
    heap.read_log = None
    runs: list = []
    for address, _ in log:  # every lane reads only its own row
        slot = (address - log[0][0]) // (ROW * 4)
        if runs and runs[-1][0] == slot:
            runs[-1][1] += 1
        else:
            runs.append([slot, 1])
    return log, [tuple(run) for run in runs]


@pytest.mark.parametrize("scalar_lane", [None, SCALAR_LANE])
def test_parked_lane_truncates_columnar_reads(scalar_lane):
    """Slots above the parked one drop the segment's reads, as classically.

    With ``scalar_lane`` one lane runs as a scalar ThreadContext, as an
    injected thread does, so its reads reach the flush as per-entry
    records interleaved with the vector lanes' scatter records.
    """
    program, params, initial = parking_kernel()
    want_log, want_runs = classic_reads(program, params, initial.snapshot())
    assert len(want_log) == 2 * N_LANES + 2 * FAULT_LANE + 1

    geometry = LaunchGeometry(grid=(1, 1), block=(N_LANES, 1))
    heap = initial.snapshot()
    param_mem = ParamMemory(params)
    specials = [geometry.specials_for(0, slot) for slot in range(N_LANES)]
    runner = _VectorCTARunner(program.vectorized(param_mem), N_LANES, specials)
    slots: list = []
    runner.prepare(
        heap, None, param_mem, DEFAULT_MAX_STEPS, False,
        [], None, None, slots, read_columns=True,
    )
    if scalar_lane is not None:
        sp = geometry.specials_for(0, scalar_lane)
        runner.attach_scalar(
            scalar_lane,
            ThreadContext(
                program, sp, heap, None, param_mem, max_steps=DEFAULT_MAX_STEPS,
                compiled=program.compiled(param_mem).bind(sp),
            ),
        )
    with pytest.raises(MemoryFault):
        runner.run(None, 0)
    assert list(runner.read_log()) == want_log
    assert slots == want_runs
