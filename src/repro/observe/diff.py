"""Side-by-side comparison of two campaign report JSONs.

``repro report --diff A B`` feeds two files produced by
``repro report ... --format json`` through :func:`diff_reports`:

* **outcome profiles** — per-outcome share deltas, with each delta
  flagged ``significant`` only when the two Wilson intervals do *not*
  overlap (overlapping CIs mean the difference is indistinguishable
  from sampling noise at the reports' confidence level);
* **latency** — mean/p50/p99 deltas and the B-vs-A speedup;
* **phases** — per-phase mean-seconds deltas, so a speedup PR shows
  *where* the milliseconds went, not just that they went.

The intended use is ROADMAP item 5's "every speedup PR ships a
before/after report": A is the baseline configuration, B the candidate
(same kernel, different backend/checkpoint/worker settings).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ReproError
from .render import _ms, _pct


def load_report_json(path: str | Path) -> dict:
    """One report dict from a ``repro report --format json`` file."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except FileNotFoundError:
        raise ReproError(f"report file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(report, dict) or "meta" not in report or "outcomes" not in report:
        raise ReproError(
            f"{path} is not a campaign report (expected the JSON written by"
            " 'repro report --format json')"
        )
    return report


def _ci_overlap(row_a: dict, row_b: dict) -> bool | None:
    """Do the two outcome rows' Wilson CIs overlap?  None = no CIs."""
    if row_a.get("ci_low") is None or row_b.get("ci_low") is None:
        return None
    return not (
        row_a["ci_high"] < row_b["ci_low"] or row_b["ci_high"] < row_a["ci_low"]
    )


def diff_reports(a: dict, b: dict) -> dict:
    """Structured delta of two report dicts (A = baseline, B = candidate)."""
    meta_a, meta_b = a["meta"], b["meta"]
    outcomes_a = {r["outcome"]: r for r in a["outcomes"]}
    outcomes_b = {r["outcome"]: r for r in b["outcomes"]}
    outcome_rows = []
    for outcome in list(outcomes_a) + [
        o for o in outcomes_b if o not in outcomes_a
    ]:
        row_a = outcomes_a.get(outcome)
        row_b = outcomes_b.get(outcome)
        share_a = row_a["share"] if row_a else 0.0
        share_b = row_b["share"] if row_b else 0.0
        overlap = _ci_overlap(row_a, row_b) if row_a and row_b else None
        outcome_rows.append({
            "outcome": outcome,
            "share_a": share_a,
            "share_b": share_b,
            "delta": share_b - share_a,
            "count_a": row_a["count"] if row_a else 0,
            "count_b": row_b["count"] if row_b else 0,
            "ci_overlap": overlap,
            # A delta is only *evidence* of a real profile change when
            # the intervals are disjoint; unknown when CIs are absent.
            "significant": None if overlap is None else not overlap,
        })

    latency = None
    if a.get("latency") and b.get("latency"):
        lat_a, lat_b = a["latency"], b["latency"]
        latency = {
            metric: {
                "a": lat_a[metric],
                "b": lat_b[metric],
                "delta": lat_b[metric] - lat_a[metric],
            }
            for metric in ("mean_s", "p50_s", "p99_s", "max_s")
        }
        latency["speedup"] = (
            lat_a["mean_s"] / lat_b["mean_s"] if lat_b["mean_s"] else None
        )

    phases = None
    if a.get("phases") and b.get("phases"):
        means_a = {r["phase"]: r["mean_s"] for r in a["phases"]["rows"]}
        means_b = {r["phase"]: r["mean_s"] for r in b["phases"]["rows"]}
        phases = [
            {
                "phase": phase,
                "mean_a": means_a.get(phase, 0.0),
                "mean_b": means_b.get(phase, 0.0),
                "delta": means_b.get(phase, 0.0) - means_a.get(phase, 0.0),
            }
            for phase in list(means_a)
            + [p for p in means_b if p not in means_a]
        ]

    return {
        "meta": {
            "kernel_a": meta_a.get("kernel"),
            "kernel_b": meta_b.get("kernel"),
            "same_kernel": meta_a.get("kernel") == meta_b.get("kernel"),
            "backends_a": meta_a.get("backends", []),
            "backends_b": meta_b.get("backends", []),
            "n_injections_a": meta_a.get("n_injections", 0),
            "n_injections_b": meta_b.get("n_injections", 0),
        },
        "outcomes": outcome_rows,
        "latency": latency,
        "phases": phases,
    }


def _signed_pct(fraction: float) -> str:
    return f"{fraction * 100.0:+.1f}%"


def render_diff_text(diff: dict) -> str:
    meta = diff["meta"]
    lines = [
        f"report diff — A: {meta['kernel_a'] or '(unknown)'}"
        f" ({meta['n_injections_a']} injections,"
        f" {','.join(meta['backends_a']) or '-'})"
    ]
    lines.append(
        f"              B: {meta['kernel_b'] or '(unknown)'}"
        f" ({meta['n_injections_b']} injections,"
        f" {','.join(meta['backends_b']) or '-'})"
    )
    if not meta["same_kernel"]:
        lines.append("  WARNING: reports cover different kernels")

    lines.append("")
    lines.append("outcome profile (B - A):")
    for row in diff["outcomes"]:
        if row["significant"] is None:
            verdict = "no CI"
        elif row["significant"]:
            verdict = "SIGNIFICANT (CIs disjoint)"
        else:
            verdict = "within noise (CIs overlap)"
        lines.append(
            f"  {row['outcome']:<7s} {_pct(row['share_a']):>6s} ->"
            f" {_pct(row['share_b']):>6s}  {_signed_pct(row['delta']):>7s}"
            f"  {verdict}"
        )

    latency = diff["latency"]
    if latency:
        lines.append("")
        speedup = latency["speedup"]
        headline = f"{speedup:.2f}x" if speedup else "n/a"
        lines.append(f"latency (mean speedup {headline}):")
        for metric in ("mean_s", "p50_s", "p99_s", "max_s"):
            row = latency[metric]
            lines.append(
                f"  {metric[:-2]:<5s} {_ms(row['a']):>10s} ->"
                f" {_ms(row['b']):>10s}  ({row['delta'] * 1e3:+.2f}ms)"
            )

    phases = diff["phases"]
    if phases:
        lines.append("")
        lines.append("phase means (B - A):")
        for row in phases:
            lines.append(
                f"  {row['phase']:<19s} {_ms(row['mean_a']):>10s} ->"
                f" {_ms(row['mean_b']):>10s}  ({row['delta'] * 1e3:+.2f}ms)"
            )
    return "\n".join(lines) + "\n"
