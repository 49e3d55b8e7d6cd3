"""End-to-end pipeline tests: invariants, accuracy, reduction reporting."""

import numpy as np
import pytest

from repro import FaultInjector, ProgressivePruner, random_campaign
from repro.pruning import reduction_row
from tests.conftest import injector_for
from tests.helpers import build_loop_sum_instance, build_saxpy_instance


class TestWeightInvariant:
    """sum(site weights) + statically-masked weight == exhaustive sites.

    Exact whenever loop iterations are uniform (or loop-wise is off);
    loop_sum and saxpy both satisfy that, as do several real kernels.
    """

    def test_saxpy_exact(self):
        injector = FaultInjector(build_saxpy_instance())
        space = ProgressivePruner().prune(injector)
        assert space.weight_total() == pytest.approx(space.total_sites)

    def test_loop_sum_exact(self):
        injector = FaultInjector(build_loop_sum_instance())
        space = ProgressivePruner(num_loop_iters=3).prune(injector)
        assert space.weight_total() == pytest.approx(space.total_sites)

    def test_exact_without_loopwise_on_real_kernels(self):
        pruner = ProgressivePruner(enable_loopwise=False)
        for key in ["2dconv.k1", "gemm.k1", "pathfinder.k1"]:
            injector = injector_for(key)
            space = pruner.prune(injector)
            assert space.weight_total() == pytest.approx(space.total_sites)

    def test_approximate_with_loopwise(self):
        injector = injector_for("gemm.k1")
        space = ProgressivePruner().prune(injector)
        # GEMM loop iterations are uniform -> still exact.
        assert space.weight_total() == pytest.approx(space.total_sites)


class TestStageMonotonicity:
    @pytest.mark.parametrize("key", ["2dconv.k1", "gemm.k1", "pathfinder.k1", "k-means.k2"])
    def test_each_stage_never_grows_sites(self, key):
        space = ProgressivePruner().prune(injector_for(key))
        counts = [s.sites_after for s in space.stages]
        assert counts[0] <= space.total_sites
        for before, after in zip(counts, counts[1:]):
            assert after <= before

    def test_stage_names_in_order(self):
        space = ProgressivePruner().prune(injector_for("gemm.k1"))
        assert [s.name for s in space.stages] == [
            "thread-wise", "instruction-wise", "loop-wise", "bit-wise",
        ]


class TestStageToggles:
    def test_disabling_bitwise_keeps_all_bits(self):
        injector = injector_for("gemm.k1")
        on = ProgressivePruner().prune(injector)
        off = ProgressivePruner(enable_bitwise=False).prune(injector)
        assert off.n_injections > on.n_injections
        assert off.static_masked_weight >= 0.0

    def test_disabling_instructionwise(self):
        injector = injector_for("pathfinder.k1")
        on = ProgressivePruner(enable_loopwise=False).prune(injector)
        off = ProgressivePruner(
            enable_loopwise=False, enable_instructionwise=False
        ).prune(injector)
        assert off.n_injections >= on.n_injections

    def test_seed_changes_loop_sample(self):
        injector = injector_for("gemm.k1")
        a = ProgressivePruner(seed=1).prune(injector)
        b = ProgressivePruner(seed=2).prune(injector)
        sites_a = {ws.site for ws in a.sites}
        sites_b = {ws.site for ws in b.sites}
        assert sites_a != sites_b

    def test_same_seed_is_deterministic(self):
        injector = injector_for("gemm.k1")
        a = ProgressivePruner(seed=5).prune(injector)
        b = ProgressivePruner(seed=5).prune(injector)
        assert [(ws.site, ws.weight) for ws in a.sites] == [
            (ws.site, ws.weight) for ws in b.sites
        ]


class TestAccuracy:
    """The headline claim: the pruned space reproduces the profile."""

    @pytest.mark.parametrize("key", ["gemm.k1", "2dconv.k1"])
    def test_estimate_close_to_random_baseline(self, key):
        injector = injector_for(key)
        space = ProgressivePruner(num_loop_iters=4, n_bits=8).prune(injector)
        estimated = space.estimate_profile(injector)
        baseline = random_campaign(injector, 500, rng=2018).profile
        # 500 runs -> ~±4.4pp at 95%; allow the combined error budget.
        assert estimated.max_abs_error(baseline) < 10.0

    def test_all_sites_injectable(self):
        injector = injector_for("lud.k46")
        space = ProgressivePruner(n_bits=4).prune(injector)
        profile = space.estimate_profile(injector)
        assert profile.total_weight == pytest.approx(space.weight_total())

    def test_static_masked_weight_is_not_an_injection(self):
        injector = injector_for("gaussian.k125")
        space = ProgressivePruner(n_bits=4).prune(injector)
        assert space.static_masked_weight > 0
        profile = space.estimate_profile(injector)
        assert profile.n_injections == len(space.sites)
        assert profile.total_weight == pytest.approx(space.weight_total())


class TestReductionReport:
    def test_row_roundtrip(self):
        injector = injector_for("gemm.k1")
        space = ProgressivePruner().prune(injector)
        row = reduction_row("gemm.k1", space, baseline_runs=1067)
        assert row.exhaustive == space.total_sites
        assert row.after_bitwise == space.n_injections
        assert row.orders_of_magnitude > 2.0
        assert 0 < row.normalized["+bit-wise"] < 1

    def test_reduction_factor(self):
        injector = injector_for("2dconv.k1")
        space = ProgressivePruner().prune(injector)
        assert space.reduction_factor() > 100


class TestGroundTruth:
    """Direct validation against exhaustive injection (small kernels only).

    gaussian.k125's space is ~6K sites, small enough to enumerate: the
    pruned estimate (~90 runs) must reproduce the exhaustive profile.
    This is the strongest form of the paper's accuracy claim, and it
    regression-tests the instruction-wise applicability rule (borrowing a
    short idle thread's prologue from an active donor once skewed this
    kernel by >20pp).
    """

    def test_k125_estimate_matches_exhaustive(self):
        from repro import exhaustive_campaign

        injector = injector_for("gaussian.k125")
        truth = exhaustive_campaign(injector).profile
        space = ProgressivePruner(n_bits=4, num_loop_iters=4).prune(injector)
        estimate = space.estimate_profile(injector)
        assert space.n_injections < truth.n_injections / 50
        assert estimate.max_abs_error(truth) < 5.0
