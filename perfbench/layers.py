"""Per-layer metrics of a traced unit.

``telemetry_dump`` runs inside the traced unit process and reduces what
the program recorded into its :class:`repro.telemetry.Telemetry` --
events, counters, gauges, histograms and spans -- to plain numbers.
``per_layer`` runs in ``run.py`` and turns that dump plus the
unit's own call timers into the ``per_layer`` metrics of
``BENCHMARK.json``.  Layers are modules of ``src/repro``; the metric
name's prefix names the module.
"""

import math
import os

#: Pruning stages, in pipeline order, as ``StageEvent.stage`` names them.
STAGES = ("thread-wise", "instruction-wise", "loop-wise", "bit-wise")

#: Injection phases folded into ``faults.phase.*_s``.
PHASES = (
    "suffix_exec",
    "checkpoint_restore",
    "prefix_replay",
    "heap_repair",
    "classify",
)


def telemetry_dump(telemetry, log_path) -> dict:
    """Plain-number digest of one traced unit's telemetry."""
    from repro.telemetry import InjectionEvent, StageEvent, read_events

    if log_path and os.path.exists(log_path):
        events = read_events(log_path)
        log_bytes = os.path.getsize(log_path)
    else:
        events = list(telemetry.sink.events)
        log_bytes = 0
    injections = [e for e in events if isinstance(e, InjectionEvent)]
    metrics = telemetry.metrics.snapshot()
    return {
        "events": len(events),
        "log_bytes": log_bytes,
        "inject_s": sorted(e.duration_s for e in injections),
        "full_s": sum(e.duration_s for e in injections if not e.fast_path),
        "executed_instructions": sum(e.suffix_instructions for e in injections),
        "stages": {
            e.stage: e.duration_s for e in events if isinstance(e, StageEvent)
        },
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histogram_totals": {
            name: summary["total"] for name, summary in metrics["histograms"].items()
        },
        "spans": {
            path: summary["total_s"]
            for path, summary in telemetry.spans.snapshot().items()
        },
    }


def tail_percentile(samples: list) -> tuple:
    """(p50, NN, pNN, n): NN is the highest whole percentile with at least
    ten samples beyond it (50 when there are too few samples for more)."""
    n = len(samples)
    if not n:
        return 0.0, 0, 0.0, 0
    nn = max(50, math.floor(100 * (1 - 10 / n)))

    def pct(p):
        return samples[min(n - 1, math.ceil(p / 100 * n) - 1)]

    return pct(50), nn, pct(nn), n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(record: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every ``per_layer`` metric of one traced unit, by name; the
    overhead compares the median traced and untraced wall times."""
    marks = record["marks"]
    dump = record["telemetry"]
    counters = dump["counters"]
    gauges = dump["gauges"]
    hist = dump["histogram_totals"]
    spans = dump["spans"]

    def count(name):
        return counters.get(name, 0)

    def summed(prefix, suffix):
        return sum(
            v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix)
        )

    wall = marks["campaign_end"]
    import_s = marks["import_end"] - marks["import_start"]
    build_s = marks["build_end"] - marks["import_end"]
    init_s = marks["init_end"] - marks["build_end"]
    prune_s = marks["prune_end"] - marks["init_end"]
    resolve_s = marks["campaign_start"] - marks["prune_end"]
    campaign_s = marks["campaign_end"] - marks["campaign_start"]
    golden_s = spans.get("golden-run", 0.0)

    inject_s = dump["inject_s"]
    inject_total = sum(inject_s)
    p50, nn, ptail, n_samples = tail_percentile(inject_s)

    full_n = count("injections.full_rerun")
    cta_n = count("injections.cta_sliced") - full_n
    hits = summed("checkpoint.", "_hits")
    misses = summed("checkpoint.", "_misses")
    effective = count("work.effective_instructions")
    executed = dump["executed_instructions"]
    suffix_exec_s = hist.get("phase.suffix_exec_s", 0.0)

    workers = record["workers"]
    busy = summed("parallel.worker.", ".busy_s")
    first_result = record["first_result_s"]
    first_result_s = first_result - marks["campaign_start"] if first_result else 0.0

    # Campaign time is attributed to injections when serial; pooled, to
    # pool start-up and golden handoff up to the first result plus the
    # mean worker busy time.
    if workers > 1:
        campaign_attributed = min(campaign_s, first_result_s + busy / workers)
    else:
        campaign_attributed = inject_total
    attributed = (
        import_s + build_s + init_s + prune_s + resolve_s + campaign_attributed
    )

    metrics = {
        "pkg.import_s": import_s,
        "kernels.build_s": build_s,
        "faults.init_s": init_s,
        "gpu.golden_s": golden_s,
        "faults.index_s": init_s - golden_s,
        "pruning.prune_s": prune_s if record["pruning_injections"] else 0.0,
        "pruning.injections": record["pruning_injections"],
        "faults.profile_n": record["profile_n"],
        "gpu.sim_instructions": count("sim.instructions"),
        "gpu.minsn_per_s": _ratio(executed, suffix_exec_s) / 1e6,
        "faults.inject_p50_ms": 1e3 * p50,
        "faults.inject_ptail_ms": 1e3 * ptail,
        "faults.inject_ptail_pct": nn,
        "faults.inject_samples": n_samples,
        "faults.rung.thread_n": count("injections.thread_sliced"),
        "faults.rung.thread_fallback_n": count(
            "injections.thread_sliced_fallback"
        ),
        "faults.rung.cta_n": cta_n,
        "faults.rung.full_n": full_n,
        "faults.rung.full_s": dump["full_s"],
        "faults.rung.full_frac": _ratio(dump["full_s"], inject_total),
        "faults.checkpoint.hit_frac": _ratio(hits, hits + misses),
        "faults.checkpoint.skipped_instructions": count(
            "checkpoint.skipped_instructions"
        ),
        "faults.checkpoint.bytes": gauges.get("checkpoint.bytes", 0),
        "faults.effective_instructions": effective,
        "faults.executed_frac": _ratio(executed, effective),
        "faults.resync.splice_frac": _ratio(
            count("work.spliced_instructions"), effective
        ),
        "parallel.first_result_s": first_result_s,
        "parallel.busy_frac": _ratio(busy, workers * campaign_s) if workers > 1 else 0.0,
        "parallel.queue_wait_s": hist.get("parallel.queue_wait_s", 0.0),
        "telemetry.events": dump["events"],
        "telemetry.log_bytes": dump["log_bytes"],
        "telemetry.overhead_frac": _ratio(traced_wall_s, untraced_wall_s) - 1.0,
        "unattributed_frac": _ratio(wall - attributed, wall),
    }
    for stage in STAGES:
        metrics[f"pruning.{stage.replace('-', '_')}_s"] = dump["stages"].get(stage, 0.0)
    for phase in PHASES:
        metrics[f"faults.phase.{phase}_s"] = hist.get(f"phase.{phase}_s", 0.0)
    return metrics
