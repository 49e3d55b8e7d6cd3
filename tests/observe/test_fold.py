"""One fold for campaign state: live status and report agree.

The invariant: a campaign watched live *and* logged to JSONL ends with a
``/status`` snapshot that matches ``repro report`` over the log on every
quantity both compute — they are the same :class:`CampaignFold`, fed
live and by replay.  Plus units for the shared pieces: the rolling rate
and ETA, duration formatting and outcome-row ordering.
"""

from __future__ import annotations

import pytest

from repro import FaultInjector, load_instance, random_campaign
from repro.observe import LiveAggregator, build_report, load_campaign
from repro.observe.fold import OUTCOME_ORDER, outcome_rows
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import JsonlSink, ProgressReporter, Telemetry
from repro.telemetry.progress import format_duration

N_SITES = 200
SEED = 11


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


CASES = [
    ("k-means.k2", False, 0, None),
    ("k-means.k2", False, 2, "fork"),
    ("k-means.k2", False, 2, "spawn"),
    ("pathfinder.k1", True, 0, None),
    ("pathfinder.k1", True, 2, "spawn"),
]


@pytest.mark.parametrize("kernel,resync,workers,start_method", CASES)
def test_live_snapshot_matches_replayed_report(
    tmp_path, kernel, resync, workers, start_method
):
    log = tmp_path / "events.jsonl"
    telemetry = Telemetry(sink=JsonlSink(log))
    injector = FaultInjector(
        load_instance(kernel), backend="compiled", resync=resync,
        telemetry=telemetry,
    )
    live = LiveAggregator()
    executor = (
        ParallelCampaignRunner(workers, chunk_size=16, start_method=start_method)
        if workers else None
    )
    random_campaign(injector, N_SITES, rng=SEED, executor=executor, live=live)
    telemetry.close()

    snap = live.snapshot()
    report = build_report(load_campaign([log]))

    assert snap["done"] == report["meta"]["n_injections"] == N_SITES
    live_rows = {row["outcome"]: row for row in snap["outcomes"]}
    for row in report["outcomes"]:
        mine = live_rows[row["outcome"]]
        for key in ("count", "share", "ci_low", "ci_high"):
            assert mine[key] == row[key], (row["outcome"], key)
    throughput = snap["throughput"]
    for key in ("effective_instructions", "spliced_instructions"):
        assert throughput[key] == report["meta"][key]
    if resync:
        assert throughput["spliced_instructions"] > 0
    report_workers = (
        {row["worker"]: row["injections"] for row in report["workers"]["rows"]}
        if report["workers"] else {"serial": N_SITES}
    )
    assert {row["worker"]: row["done"] for row in snap["workers"]} == report_workers
    assert [(row["tertile"], row["n"]) for row in snap["tertiles"]] == [
        (row["tertile"], row["count"]) for row in report["tertiles"]["rows"]
    ]


def test_progress_and_live_share_rate_and_eta():
    clock, mono = FakeClock(), FakeClock()
    # A 15 s heartbeat keeps a 30 s window, the live plane's span.
    reporter = ProgressReporter(total=500, clock=clock, heartbeat_s=15.0)
    live = LiveAggregator(total=500, clock=lambda: 0.0, monotonic=mono)
    reporter.start()
    live.begin()
    work = 0
    for done in range(1, 120):
        clock.now = mono.now = done * 0.5 + (done % 7) * 0.1
        work += 100 + 40 * (done % 5)
        reporter.note_work(work)
        reporter(done)
        live.record({
            "kind": "injection", "worker": "w", "outcome": "masked",
            "dyn_index": done, "duration_s": 0.01,
            "effective_instructions": 100 + 40 * (done % 5),
        })
        assert reporter.rolling_rate == live.rolling_rate
        assert reporter.rolling_work_rate == live.rolling_effective_rate
        assert reporter.eta_s == live.snapshot()["eta_s"]
    assert live.snapshot()["eta_s"] > 0


@pytest.mark.parametrize(
    "seconds,text", [(59, "59s"), (60, "1m00s"), (3599, "59m59s"), (3600, "1h00m")]
)
def test_format_duration(seconds, text):
    assert format_duration(seconds) == text


def test_outcome_rows_order_extra_kinds_after_canonical():
    rows = outcome_rows({"zeta": 1, "masked": 5, "alpha": 2, "sdc": 2}, 10)
    assert [row["outcome"] for row in rows] == [*OUTCOME_ORDER, "alpha", "zeta"]
    assert rows[0]["share"] == pytest.approx(0.5)
    assert rows[0]["ci_low"] < 0.5 < rows[0]["ci_high"]
    assert rows[0]["half_width"] > 0
    assert outcome_rows({}, 0)[0]["ci_low"] is None
