"""Escape-rung equivalence: sliced runs whose writes left their CTA.

When a thread- or CTA-sliced faulty run writes bytes another CTA owns,
``FaultInjector._run_spec_escape`` reproduces the full sequential launch
without executing the golden CTAs before the faulty one, and re-runs a
later CTA only if its golden reads touch a byte that may differ from the
golden heap.  Every test here pins it against ``inject_full``, the
whole-grid reference, and checks that escapes still count as fallbacks.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import FaultInjector, load_instance, run_campaign
from repro.faults.outcome import Outcome
from repro.faults.site import FaultSite
from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from repro.kernels.registry import KernelInstance, OutputBuffer
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import MemorySink, Telemetry

START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

BACKENDS = ("interpreter", "compiled", "vectorized")

#: The first and last thread of gemm.k1's last CTA; every bit of their
#: first ``SCAN_DEPTH`` dynamic instructions is scanned.
GEMM_THREADS = (240, 255)
SCAN_DEPTH = 40
GEMM_ESCAPES = 64

#: Known escaping sites across the rung's cases: a CTA-0 address flip that
#: writes into CTA 1's C tile (which CTA 1 then reads), a CTA-8 flip into
#: CTA 0's tile (an earlier CTA), and two last-CTA flips.
POOLED_SITES = ("t0/i0/b0", "t136/i5/b1", "t240/i0/b0", "t255/i2/b3")


def parse_site(text: str) -> FaultSite:
    thread, dyn, bit = (int(part[1:]) for part in text.split("/"))
    return FaultSite(thread, dyn, bit)


def traced_injector(key: str, **kwargs) -> tuple[FaultInjector, Telemetry]:
    telemetry = Telemetry(sink=MemorySink())
    return FaultInjector(load_instance(key), telemetry=telemetry, **kwargs), telemetry


def counter(telemetry: Telemetry, name: str) -> int:
    return telemetry.metrics.counter(name).value


@pytest.fixture(scope="module")
def gemm_escapes():
    """Every escaping site of the scan, with its full re-run outcome."""
    injector = FaultInjector(load_instance("gemm.k1"), backend="compiled")
    escapes = []
    for thread in GEMM_THREADS:
        for dyn in range(SCAN_DEPTH):
            for site in injector.space.sites_of_instruction(thread, dyn):
                before = injector.fallback_count
                injector.inject(site)
                if injector.fallback_count != before:
                    escapes.append((site, injector.inject_full(site)))
    return escapes


@pytest.mark.parametrize("backend", BACKENDS)
def test_gemm_escapes_match_full_rerun(gemm_escapes, backend):
    assert len(gemm_escapes) == GEMM_ESCAPES
    injector = FaultInjector(load_instance("gemm.k1"), backend=backend)
    for count, (site, reference) in enumerate(gemm_escapes, start=1):
        assert injector.inject(site) == reference, (backend, site)
        assert injector.fallback_count == count, (backend, site)
        assert injector.inject_full(site) == reference, (backend, site)
        assert injector.fallback_count == count, (backend, site)
    # The rung runs on the reused scratch heap and must leave it initial.
    assert injector._scratch_memory._data == injector.instance.initial_memory._data


def test_escape_into_earlier_cta_reruns_nothing():
    injector, telemetry = traced_injector("gemm.k1")
    site = parse_site("t136/i5/b1")  # CTA 8 writes into CTA 0's tile
    assert injector.inject(site) == injector.inject_full(site)
    assert injector.fallback_count == 1
    assert counter(telemetry, "injections.full_rerun") == 2
    assert counter(telemetry, "escape.replayed_ctas") == 0


def test_escape_into_later_reader_reruns_it():
    injector, telemetry = traced_injector("gemm.k1")
    site = parse_site("t0/i0/b0")  # CTA 0 writes into CTA 1's tile
    assert injector.inject(site) == injector.inject_full(site)
    assert injector.fallback_count == 1
    assert counter(telemetry, "escape.replayed_ctas") >= 1


def test_shared_memory_kernel_reruns_every_later_cta():
    """Without golden read logs every later CTA counts as a reader."""
    injector, telemetry = traced_injector("pathfinder.k1")
    assert injector._cta_read_mask is None
    site = parse_site("t33/i1/b0")  # CTA 1 of 4 writes into CTA 0
    assert injector.inject(site) == injector.inject_full(site)
    assert injector.fallback_count == 1
    assert counter(telemetry, "escape.replayed_ctas") == 2


def test_thread_rung_escape():
    injector, telemetry = traced_injector("k-means.k2")
    site = parse_site("t31/i2/b0")  # CTA 0 writes into CTA 1's output
    assert injector._cta_sliceable[0]
    assert injector.inject(site) == injector.inject_full(site)
    assert injector.fallback_count == 1
    assert counter(telemetry, "injections.thread_sliced_fallback") == 0
    assert counter(telemetry, "escape.replayed_ctas") == 0


def build_doubling_instance(n: int = 4) -> KernelInstance:
    """One thread per CTA doubles ``buf[cta]`` in place.

    ``buf[0]`` is 0, so a flip of address bit 2 in CTA 0 makes it double
    ``buf[1]`` instead and leave its own element at its golden value.
    Only a re-run of CTA 1 on the corrupted heap sees the result: CTA 1
    then doubles the doubled value (SDC), whereas applying its golden
    write log would restore ``buf[1]`` (MASKED).
    """
    k = KernelBuilder("double_in_place")
    (buf_ptr,) = k.params("buf")
    r = k.regs("addr", "t", "v")
    k.cvt("u32", r.addr, k.ctaid.x)
    k.shl("u32", r.addr, r.addr, 2)
    k.ld("u32", r.t, buf_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.ld("u32", r.v, k.global_ref(r.addr))
    k.add("u32", r.v, r.v, r.v)
    k.st("u32", k.global_ref(r.addr), r.v)
    k.retp()
    program = k.build()

    data = np.array([0] + list(range(5, 4 + n)), dtype=np.uint32)
    sim = GPUSimulator()
    buf = sim.alloc_array(data)
    return KernelInstance(
        spec=None,
        program=program,
        geometry=LaunchGeometry(grid=(n, 1), block=(1, 1)),
        param_bytes=pack_params(k.param_layout, {"buf": buf}),
        initial_memory=sim.memory,
        outputs=(OutputBuffer("buf", buf, np.dtype(np.uint32), n),),
        reference={"buf": data * 2},
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_rerun_of_reader_decides_outcome(backend, monkeypatch):
    telemetry = Telemetry(sink=MemorySink())
    injector = FaultInjector(
        build_doubling_instance(), telemetry=telemetry, backend=backend
    )
    site = FaultSite(0, 3, 2)  # the add forming CTA 0's address
    reference = injector.inject_full(site)
    assert reference is Outcome.SDC

    def no_full_rerun(*args, **kwargs):
        raise AssertionError("an escape re-ran the whole grid")

    monkeypatch.setattr(injector, "_run_spec_full", no_full_rerun)
    assert injector.inject(site) is reference
    assert injector.fallback_count == 1
    assert counter(telemetry, "escape.replayed_ctas") == 1
    assert injector._scratch_memory._data == injector.instance.initial_memory._data


def test_vectorized_two_workers_match_serial():
    sites = [parse_site(text) for text in POOLED_SITES]
    serial_injector = FaultInjector(load_instance("gemm.k1"))
    serial = run_campaign(serial_injector, sites)
    reference = [serial_injector.inject_full(site) for site in sites]
    assert serial.outcomes == reference
    assert serial_injector.fallback_count == len(sites)
    injector, telemetry = traced_injector("gemm.k1", backend="vectorized")
    pooled = run_campaign(
        injector,
        sites,
        executor=ParallelCampaignRunner(2, chunk_size=2, start_method=START_METHOD),
    )
    assert pooled.outcomes == serial.outcomes
    assert pooled.profile.weights == serial.profile.weights
    assert injector.fallback_count == serial_injector.fallback_count
    assert counter(telemetry, "parallel.chunks") == 2
    assert counter(telemetry, "escape.replayed_ctas") >= 1  # merged from workers
