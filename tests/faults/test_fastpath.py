"""Regression pins for the injector hot-path optimisations.

Each optimisation replaced a simple reference implementation; these tests
keep the optimised code byte-for-byte faithful to it:

* mask-based ``_writes_escape_cta``   vs  the original per-byte set scans;
* thread-sliced re-execution          vs  full-grid re-execution;
* cached ``sample_register_file_sites`` vs  the original rescan loop.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import FaultInjector, load_instance, random_campaign
from repro.faults.model import RegisterFileSite
from repro.faults.outcome import Outcome
from repro.faults.site import FaultSite
from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from repro.kernels.registry import KernelInstance, OutputBuffer
from repro.parallel import ParallelCampaignRunner
from repro.pruning import ProgressivePruner
from repro.telemetry import MemorySink, Telemetry

from ..helpers import build_saxpy_instance

#: CI also runs the golden-handoff test with ``spawn`` set explicitly.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or "spawn"

BACKENDS = ("interpreter", "compiled", "vectorized")

#: Kernels whose threads read the bytes they then write (e.g. gemm's
#: ``C[i][j] = alpha * acc + beta * C[i][j]``): per-thread byte ownership
#: is what makes their CTAs thread-sliceable.
RMW_KERNELS = ("gemm.k1", "syrk.k1", "mvt.k1", "gaussian.k2", "lud.k45")


def traced(instance, **kwargs) -> tuple[FaultInjector, Telemetry]:
    telemetry = Telemetry(sink=MemorySink())
    return FaultInjector(instance, telemetry=telemetry, **kwargs), telemetry


def counter(telemetry: Telemetry, name: str) -> int:
    return telemetry.metrics.counter(name).value


def stage_instance(
    k: KernelBuilder, n_threads: int, buffers, expected, output, n_ctas: int = 1
):
    """Stage ``k`` as ``n_ctas`` CTAs over freshly allocated uint32 buffers.

    ``buffers`` maps parameter name to initial contents, allocated in
    order (each on its own 256-byte boundary from the heap base 0x1000);
    ``output`` names the output buffer and ``expected`` its final value.
    """
    sim = GPUSimulator()
    addresses = {
        name: sim.alloc_array(np.asarray(data, dtype=np.uint32))
        for name, data in buffers.items()
    }
    return KernelInstance(
        spec=None,
        program=k.build(),
        geometry=LaunchGeometry(grid=(n_ctas, 1), block=(n_threads, 1)),
        param_bytes=pack_params(k.param_layout, addresses),
        initial_memory=sim.memory,
        outputs=(
            OutputBuffer(
                output, addresses[output], np.dtype(np.uint32), len(buffers[output])
            ),
        ),
        reference={output: np.asarray(expected, dtype=np.uint32)},
    )


def build_shared_word_instance() -> KernelInstance:
    """Both threads of one CTA store 7 to the one output word.

    A 64-word non-output buffer follows it, 256 bytes on, so flipping bit
    8 of thread 0's address (its first instruction) moves that store into
    the buffer.  Thread 1 still stores 7: the output is MASKED, whereas
    reverting thread 0's golden write would wrongly clear the word.
    """
    k = KernelBuilder("shared_word")
    out_ptr, _pad = k.params("out", "pad")
    r = k.regs("addr", "v")
    k.ld("u32", r.addr, out_ptr)
    k.mov("u32", r.v, 7)
    k.st("u32", k.global_ref(r.addr), r.v)
    k.retp()
    return stage_instance(k, 2, {"out": [0], "pad": [0] * 64}, [7], "out")


def build_crossed_store_instance(n_ctas: int = 1) -> KernelInstance:
    """Thread ``i`` of each CTA stores ``inp[i] + 1`` to ``out[1 - i]``.

    ``out`` starts 256 bytes after ``inp``, so bit 8 of an address moves
    between the two buffers: flipping it in thread 1's load address
    (dynamic instruction 3) loads ``out[1]``, which thread 0 wrote first;
    flipping it in thread 0's store address (dynamic instruction 8)
    stores into ``inp[1]``, which thread 1 reads.  Flipping bit 2 there
    stores into ``out[0]``, which thread 1 writes.
    """
    k = KernelBuilder("crossed_store")
    in_ptr, out_ptr = k.params("inp", "out")
    r = k.regs("src", "t", "v", "addr")
    k.ld("u32", r.src, in_ptr)
    k.cvt("u32", r.t, k.tid.x)
    k.shl("u32", r.t, r.t, 2)
    k.add("u32", r.src, r.src, r.t)
    k.ld("u32", r.v, k.global_ref(r.src))
    k.add("u32", r.v, r.v, 1)
    k.xor("u32", r.t, r.t, 4)
    k.ld("u32", r.addr, out_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.st("u32", k.global_ref(r.addr), r.v)
    k.retp()
    return stage_instance(
        k, 2, {"inp": [5, 0], "out": [0, 0]}, [1, 6], "out", n_ctas
    )


def build_chained_read_instance() -> KernelInstance:
    """Thread ``i`` of one CTA stores ``out[0] + i + 1`` to ``out[i]``.

    Thread 0 reads and then writes ``out[0]``; thread 1 reads it after
    thread 0 wrote it, so thread 1 observes a sibling's output.
    """
    k = KernelBuilder("chained_read")
    (out_ptr,) = k.params("out")
    r = k.regs("base", "addr", "t", "v")
    k.ld("u32", r.base, out_ptr)
    k.ld("u32", r.v, k.global_ref(r.base))
    k.cvt("u32", r.t, k.tid.x)
    k.add("u32", r.v, r.v, r.t)
    k.add("u32", r.v, r.v, 1)
    k.shl("u32", r.t, r.t, 2)
    k.add("u32", r.addr, r.base, r.t)
    k.st("u32", k.global_ref(r.addr), r.v)
    k.retp()
    return stage_instance(k, 2, {"out": [3, 0]}, [4, 6], "out")


def reference_writes_escape_cta(injector, faulty_log, cta) -> bool:
    """The original set-based escape check, verbatim semantics."""
    cta_write_bytes = []
    for log in injector._cta_write_logs:
        owned = set()
        for address, raw in log:
            owned.update(range(address, address + len(raw)))
        cta_write_bytes.append(owned)
    own = cta_write_bytes[cta]
    others = [s for i, s in enumerate(cta_write_bytes) if i != cta]
    for address, raw in faulty_log:
        for byte in range(address, address + len(raw)):
            if byte in own:
                continue
            if any(byte in other for other in others):
                return True
    return False


class TestEscapeMask:
    @pytest.mark.parametrize("key", ["2dconv.k1", "pathfinder.k1"])
    def test_matches_set_reference_on_golden_logs(self, key):
        """Every CTA's own golden log, plus every *other* CTA's log offset
        into this CTA's decision, must classify identically."""
        injector = FaultInjector(load_instance(key))
        n_ctas = injector.instance.geometry.n_ctas
        for cta in range(min(n_ctas, 4)):
            for source in range(min(n_ctas, 4)):
                log = injector._cta_write_logs[source][:32]
                got = injector._writes_escape_cta(log, cta)
                want = reference_writes_escape_cta(injector, log, cta)
                assert got == want, (key, cta, source)

    def test_matches_reference_on_synthetic_spans(self, conv2d_injector):
        injector = conv2d_injector
        lo, hi = injector.instance.initial_memory.allocation_span()
        cases = [
            [(lo, b"\x00" * 4)],                  # window start
            [(hi - 4, b"\x00" * 4)],              # window end
            [(lo - 64, b"\x00" * 16)],            # before the window
            [(hi + 64, b"\x00" * 16)],            # past the window
            [(lo - 8, b"\x00" * 16)],             # straddling the low edge
            [(hi - 8, b"\x00" * 16)],             # straddling the high edge
        ]
        for log in cases:
            got = injector._writes_escape_cta(log, 0)
            want = reference_writes_escape_cta(injector, log, 0)
            assert got == want, log

    def test_fallback_decisions_pinned_end_to_end(self):
        """Seed 2 contains a known write-escape; the optimised path must
        take the full-re-run fallback exactly as often as before."""
        injector = FaultInjector(load_instance("2dconv.k1"))
        random_campaign(injector, 80, rng=2)
        assert injector.fallback_count == 1


class TestThreadSlicing:
    @pytest.mark.parametrize(
        "key", ["2dconv.k1", "k-means.k1", "gaussian.k126", *RMW_KERNELS]
    )
    def test_outcomes_match_cta_slicing(self, key):
        """Thread-sliced and CTA-sliced classification agree everywhere —
        including on gaussian.k126, whose last CTA reads and then writes
        the same bytes (all 36 CTAs are sliceable), and on the
        read-modify-write kernels."""
        sliced = FaultInjector(load_instance(key))
        unsliced = FaultInjector(load_instance(key), thread_slicing=False)
        assert all(sliced._cta_sliceable)
        assert not any(unsliced._cta_sliceable)
        rng = np.random.default_rng(13)
        for site in sliced.space.sample(40, rng):
            assert sliced.inject(site) == unsliced.inject(site), site
        assert sliced.fallback_count == unsliced.fallback_count

    def test_outcomes_match_full_rerun(self):
        injector = FaultInjector(load_instance("2dconv.k1"))
        rng = np.random.default_rng(17)
        for site in injector.space.sample(25, rng):
            assert injector.inject(site) == injector.inject_full(site), site

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("key", [*RMW_KERNELS, "gaussian.k126"])
    def test_read_modify_write_matches_full_rerun(self, key, backend):
        injector, telemetry = traced(load_instance(key), backend=backend)
        assert all(injector._cta_sliceable)
        rng = np.random.default_rng(29)
        for site in injector.space.sample(15, rng):
            assert injector.inject(site) == injector.inject_full(site), site
        assert counter(telemetry, "injections.thread_sliced") > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_writer_byte_is_not_sliced(self, backend):
        """Reverting a byte a sibling also wrote would turn MASKED into SDC."""
        injector = FaultInjector(build_shared_word_instance(), backend=backend)
        assert injector._cta_sliceable == [False]
        site = FaultSite(0, 0, 8)
        assert injector.inject_full(site) is Outcome.MASKED
        assert injector.inject(site) is Outcome.MASKED

    def test_byte_written_by_two_ctas_is_not_sliced(self):
        """The writer table marks such a byte -1, which must not hide a
        sibling's write from the interference check."""
        injector = FaultInjector(build_crossed_store_instance(n_ctas=2))
        assert injector._cta_sliceable == [False, False]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reading_a_siblings_output_is_not_sliced(self, backend):
        injector = FaultInjector(build_chained_read_instance(), backend=backend)
        assert injector._cta_sliceable == [False]
        rng = np.random.default_rng(5)
        for site in injector.space.sample(20, rng):
            assert injector.inject(site) == injector.inject_full(site), site

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_read_of_sibling_written_byte_falls_back(self, backend):
        """Alone, thread 1 would load 0 from ``out[1]`` and store the
        golden 1; after thread 0 it loads 6 and stores 7."""
        injector, telemetry = traced(build_crossed_store_instance(), backend=backend)
        assert injector._cta_sliceable == [True]
        site = FaultSite(1, 3, 8)
        assert injector.inject_full(site) is Outcome.SDC
        assert injector.inject(site) is Outcome.SDC
        assert counter(telemetry, "injections.thread_sliced_fallback") == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bit", [8, 2], ids=["sibling-read", "sibling-written"])
    def test_write_into_sibling_byte_falls_back(self, backend, bit):
        injector, telemetry = traced(build_crossed_store_instance(), backend=backend)
        assert injector._cta_sliceable == [True]
        site = FaultSite(0, 8, bit)
        assert injector.inject(site) == injector.inject_full(site)
        assert counter(telemetry, "injections.thread_sliced_fallback") == 1
        assert counter(telemetry, "injections.thread_sliced") == 0

    def test_shared_memory_kernels_never_slice(self, pathfinder_injector):
        assert not any(pathfinder_injector._cta_sliceable)

    def test_scratch_heap_repaired_between_injections(self):
        """The reused scratch heap must equal the initial heap after every
        injection, or later injections would see stale faulty bytes."""
        injector = FaultInjector(build_saxpy_instance())
        initial = injector.instance.initial_memory
        rng = np.random.default_rng(3)
        for site in injector.space.sample(30, rng):
            injector.inject(site)
            assert injector._scratch_memory._data == initial._data


class TestGoldenHandoff:
    def test_sliceability_survives_handoff(self, gemm_injector):
        rebuilt = FaultInjector(
            load_instance("gemm.k1"), golden=gemm_injector.golden_state()
        )
        assert rebuilt._cta_sliceable == gemm_injector._cta_sliceable
        assert all(rebuilt._cta_sliceable)

    def test_missing_read_attribution_disables_slicing(self, gemm_injector):
        golden = gemm_injector.golden_state()
        golden.cta_read_slots = None
        rebuilt = FaultInjector(load_instance("gemm.k1"), golden=golden)
        assert not any(rebuilt._cta_sliceable)

    def test_two_worker_profile_matches_serial(self):
        space = ProgressivePruner(n_bits=2, num_loop_iters=2, seed=0).prune(
            FaultInjector(load_instance("gemm.k1"))
        )
        serial, serial_telemetry = traced(load_instance("gemm.k1"))
        want = space.estimate_profile(serial)
        pooled, pooled_telemetry = traced(load_instance("gemm.k1"))
        got = space.estimate_profile(
            pooled,
            executor=ParallelCampaignRunner(2, start_method=START_METHOD),
        )
        assert got.weights == want.weights
        assert got.n_injections == want.n_injections
        # Workers rebuilt sliceability from the shipped golden state.
        sliced = counter(serial_telemetry, "injections.thread_sliced")
        assert sliced > 0
        assert counter(pooled_telemetry, "injections.thread_sliced") == sliced


def reference_sample_register_file_sites(injector, n, rng):
    """The original rejection loop, rescanning the trace prefix per draw."""
    instructions = injector.instance.program.instructions
    sites = []
    n_threads = len(injector.traces)
    while len(sites) < n:
        thread = int(rng.integers(0, n_threads))
        trace = injector.traces[thread]
        if not trace:
            continue
        dyn_index = int(rng.integers(0, len(trace)))
        written = set()
        for pc, width in trace[:dyn_index]:
            if width and instructions[pc].dest is not None:
                written.add(instructions[pc].dest.name)
        if not written:
            continue
        ordered = sorted(written)
        reg = ordered[int(rng.integers(0, len(ordered)))]
        bit = int(rng.integers(0, 32))
        sites.append(RegisterFileSite(thread, dyn_index, reg, bit))
    return sites


class TestRegisterFileSampleCache:
    @pytest.mark.parametrize("key", ["2dconv.k1", "pathfinder.k1"])
    def test_matches_rescan_reference(self, key):
        injector = FaultInjector(load_instance(key))
        got = injector.sample_register_file_sites(60, np.random.default_rng(41))
        want = reference_sample_register_file_sites(
            injector, 60, np.random.default_rng(41)
        )
        assert got == want

    def test_cache_reused_across_calls(self):
        injector = FaultInjector(build_saxpy_instance())
        injector.sample_register_file_sites(10, np.random.default_rng(1))
        cached = dict(injector._rf_prefix_cache)
        again = injector.sample_register_file_sites(10, np.random.default_rng(1))
        for thread, entry in cached.items():
            assert injector._rf_prefix_cache[thread] is entry
        assert again == injector.sample_register_file_sites(
            10, np.random.default_rng(1)
        )
