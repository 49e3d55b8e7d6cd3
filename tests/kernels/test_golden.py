"""Golden-run validation: every kernel's simulated output matches NumPy."""

import numpy as np
import pytest

from repro import all_kernels, get_kernel
from repro.gpu import GPUSimulator

ALL_KEYS = [spec.key for spec in all_kernels()]


@pytest.mark.parametrize("key", ALL_KEYS)
def test_golden_output_matches_reference(key):
    spec = get_kernel(key)
    inst = spec.build()
    sim = GPUSimulator()
    mem = inst.golden_memory()
    sim.launch(inst.program, inst.geometry, inst.param_bytes, memory=mem)
    inst.verify_reference(mem)  # raises on any mismatching element


@pytest.mark.parametrize("key", ALL_KEYS)
def test_build_is_deterministic(key):
    spec = get_kernel(key)
    a, b = spec.build(), spec.build()
    assert a.param_bytes == b.param_bytes
    assert len(a.program) == len(b.program)
    assert a.output_bytes(a.initial_memory) == b.output_bytes(b.initial_memory)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_traces_cover_all_threads(key):
    spec = get_kernel(key)
    inst = spec.build()
    sim = GPUSimulator()
    result = sim.launch(
        inst.program, inst.geometry, inst.param_bytes,
        memory=inst.golden_memory(), record_traces=True,
    )
    assert len(result.traces) == inst.geometry.n_threads
    assert all(len(t) > 0 for t in result.traces)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_ctas_are_independent(key):
    """No CTA reads another CTA's golden writes; no byte has two writers.

    CTAs of one launch do not communicate.  The CTA slice (re-run one CTA
    on the initial heap) and the escape rung (skip the golden CTAs before
    the faulty one) are exact because of it.
    """
    inst = get_kernel(key).build()
    result = GPUSimulator(backend="compiled").launch(
        inst.program, inst.geometry, inst.param_bytes,
        memory=inst.golden_memory(),
        record_write_logs=True, record_read_logs=True,
    )
    lo, hi = inst.initial_memory.allocation_span()
    writer = np.full(hi - lo, -1)
    for cta, log in enumerate(result.cta_write_logs):
        for address, raw in log:
            span = writer[address - lo : address - lo + len(raw)]
            assert ((span == -1) | (span == cta)).all(), (key, cta, address)
            span[:] = cta
    for cta, log in enumerate(result.cta_read_logs):
        for address, nbytes in log:
            span = writer[address - lo : address - lo + nbytes]
            assert ((span == -1) | (span == cta)).all(), (key, cta, address)


def test_registry_has_all_sixteen_paper_kernels_plus_nn():
    keys = set(ALL_KEYS)
    expected = {
        "hotspot.k1",
        "k-means.k1", "k-means.k2",
        "gaussian.k1", "gaussian.k2", "gaussian.k125", "gaussian.k126",
        "pathfinder.k1",
        "lud.k44", "lud.k45", "lud.k46",
        "2dconv.k1", "mvt.k1", "2mm.k1", "gemm.k1", "syrk.k1",
        "nn.k1",
    }
    assert keys == expected


def test_registry_order_follows_table1():
    keys = [spec.key for spec in all_kernels()]
    assert keys[0] == "hotspot.k1"
    assert keys[-1] == "nn.k1"
    assert keys.index("2dconv.k1") > keys.index("lud.k46")


def test_unknown_kernel_lists_known_ones():
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="gemm.k1"):
        get_kernel("nope.k9")
