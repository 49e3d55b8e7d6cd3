"""One fold over injection records: the campaign state every view shares.

Outcome counts with Wilson CIs, instruction totals, per-worker load,
depth tertiles and rolling rates are computed here once, by a
:class:`CampaignFold` with two feeds: the live plane folds each streamed
record as it arrives, and ``repro report`` replays the JSONL injection
events (event timestamps as the clock).  A finished campaign's last
``/status`` snapshot and its report therefore agree by construction.
"""

from __future__ import annotations

from ..stats.intervals import wilson_ci
from ..telemetry.progress import RollingRate

#: Canonical outcome order for shares/convergence (matches reports).
OUTCOME_ORDER = ("masked", "sdc", "crash", "hang")

TERTILE_LABELS = ("shallow", "middle", "deep")

#: Rolling-rate window (seconds of recent samples kept).
RATE_WINDOW_S = 30.0

#: Bounded sample of (dyn_index, duration) pairs for live depth tertiles.
_RESERVOIR_CAP = 4096


def outcome_rows(
    counts: dict[str, int], n: int, confidence: float = 0.95
) -> list[dict]:
    """Per-outcome count, share and Wilson CI: the canonical four outcomes,
    then any other outcome kinds in sorted order."""
    extra = sorted(set(counts) - set(OUTCOME_ORDER))
    rows = []
    for outcome in (*OUTCOME_ORDER, *extra):
        count = counts.get(outcome, 0)
        ci = wilson_ci(count, n, confidence) if n else None
        rows.append({
            "outcome": outcome,
            "count": count,
            "share": count / n if n else 0.0,
            "ci_low": ci.low if ci else None,
            "ci_high": ci.high if ci else None,
            "half_width": ci.half_width if ci else None,
        })
    return rows


def max_half_width(
    counts: dict[str, int], n: int, confidence: float = 0.95
) -> float | None:
    """Widest Wilson CI half-width across the four outcome proportions."""
    if n <= 0:
        return None
    return max(
        wilson_ci(counts.get(outcome, 0), n, confidence).half_width
        for outcome in OUTCOME_ORDER
    )


def check_convergence(
    counts: dict[str, int], n: int, until_ci: float, confidence: float = 0.95
) -> bool:
    """True once every outcome share is pinned to ``±until_ci``.

    This is the sequential convergence signal: the campaign's profile has
    stabilised when the *widest* Wilson interval half-width over the four
    outcome proportions drops to the target.  Computed from plain counts
    so the early-stop decision in :func:`~repro.faults.campaign.run_campaign`
    depends only on the in-order outcome stream — deterministic for a
    fixed seed regardless of worker count or backend.
    """
    width = max_half_width(counts, n, confidence)
    return width is not None and width <= until_ci


def split_by_depth(items, depth) -> tuple[tuple[int, int], dict[str, list]]:
    """Cut non-empty ``items`` into shallow/middle/deep thirds by ``depth(item)``.

    Returns the two cut depths and the items bucketed per tertile label;
    an item at a cut depth goes to the shallower bucket.
    """
    depths = sorted(depth(item) for item in items)
    n = len(depths)
    cuts = (depths[(n - 1) // 3], depths[(2 * (n - 1)) // 3])
    buckets: dict[str, list] = {label: [] for label in TERTILE_LABELS}
    for item in items:
        d = depth(item)
        label = "shallow" if d <= cuts[0] else "middle" if d <= cuts[1] else "deep"
        buckets[label].append(item)
    return cuts, buckets


class CampaignFold:
    """Clock-free campaign state folded from one injection at a time.

    Not thread-safe; the live aggregator serialises access under its
    lock.  Per-worker entries are ``{"done", "busy_s", "splices"}``.
    """

    def __init__(self, rate_span_s: float = RATE_WINDOW_S) -> None:
        self.done = 0
        self.outcome_counts: dict[str, int] = {}
        self.duration_total_s = 0.0
        self.effective_instructions = 0
        self.spliced_instructions = 0
        self.checkpoint_hits = 0
        self.resync_hits = 0
        self.workers: dict[str, dict] = {}
        self.rates = RollingRate(rate_span_s)
        #: Bounded (dyn_index, duration_s) sample for depth tertiles.
        self._reservoir: list[tuple[int, float]] = []

    def worker(self, name: str) -> dict:
        """The per-worker entry for ``name``, created on first use."""
        entry = self.workers.get(name)
        if entry is None:
            entry = self.workers[name] = {"done": 0, "busy_s": 0.0, "splices": 0}
        return entry

    def add(
        self, now: float, worker: str, outcome: str, dyn_index: int,
        duration_s: float, effective: int, spliced: int,
        checkpoint_hits: int = 0, resync_hits: int = 0,
    ) -> None:
        """Fold one classified injection observed at time ``now``."""
        self.done += 1
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1
        self.duration_total_s += duration_s
        self.effective_instructions += effective
        self.spliced_instructions += spliced
        self.checkpoint_hits += checkpoint_hits
        self.resync_hits += resync_hits
        entry = self.worker(worker)
        entry["done"] += 1
        entry["busy_s"] += duration_s
        if spliced:
            entry["splices"] += 1
        self.rates.add(now, self.done, self.effective_instructions)
        # Deterministic bounded reservoir: fill, then overwrite via a
        # multiplicative-hash slot (no RNG so resumed/replayed streams
        # behave identically).
        sample = (dyn_index, duration_s)
        if len(self._reservoir) < _RESERVOIR_CAP:
            self._reservoir.append(sample)
        else:
            self._reservoir[(self.done * 2654435761) % _RESERVOIR_CAP] = sample

    def tertile_rows(self) -> list[dict]:
        """Latency by depth tertile over the (sampled) injections."""
        if not self._reservoir:
            return []
        _, buckets = split_by_depth(self._reservoir, lambda sample: sample[0])
        rows = []
        for label in TERTILE_LABELS:
            durations = [duration for _, duration in buckets[label]]
            if not durations:
                continue
            rows.append({
                "tertile": label,
                "n": len(durations),
                "mean_s": sum(durations) / len(durations),
                "max_s": max(durations),
            })
        return rows
