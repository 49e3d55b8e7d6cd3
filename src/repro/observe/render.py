"""Render a campaign report dict as text, markdown or JSON.

All three renderers consume the exact structure
:func:`~repro.observe.report.build_report` produces; the text form is
what ``repro report`` prints by default, markdown suits CI artifacts and
PR comments, JSON feeds downstream tooling.
"""

from __future__ import annotations

import json


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def _pct(fraction: float) -> str:
    return f"{fraction * 100.0:.1f}%"


def _outcome_lines(report: dict) -> list[str]:
    lines = []
    for row in report["outcomes"]:
        ci = ""
        if row["ci_low"] is not None:
            ci = f"  [{_pct(row['ci_low'])}, {_pct(row['ci_high'])}]"
        lines.append(
            f"  {row['outcome']:<7s} {row['count']:>7d}  {_pct(row['share']):>6s}{ci}"
        )
    return lines


def render_text(report: dict) -> str:
    meta = report["meta"]
    lines: list[str] = []
    kernel = meta["kernel"] or "(unknown kernel)"
    lines.append(f"campaign report — {kernel}")
    lines.append(
        f"  injections={meta['n_injections']}  sim_runs={meta['n_sim_runs']}"
        f"  backends={','.join(meta['backends']) or '-'}"
        f"  fast-path={_pct(meta['fast_path_rate'])}"
    )
    if meta["suffix_instructions"]:
        lines.append(
            f"  suffix instructions executed: {meta['suffix_instructions']:,}"
        )
    if meta.get("effective_instructions"):
        lines.append(
            f"  effective instructions covered:"
            f" {meta['effective_instructions']:,}"
            f" (spliced {meta.get('spliced_instructions', 0):,})"
        )

    lines.append("")
    lines.append(f"outcomes (Wilson {_pct(meta['confidence'])} CI):")
    lines.extend(_outcome_lines(report))

    latency = report["latency"]
    if latency:
        lines.append("")
        lines.append(
            f"latency: mean={_ms(latency['mean_s'])} p50={_ms(latency['p50_s'])}"
            f" p90={_ms(latency['p90_s'])} p99={_ms(latency['p99_s'])}"
            f" max={_ms(latency['max_s'])}"
        )

    phases = report["phases"]
    if phases:
        lines.append("")
        lines.append("phase breakdown (per injection):")
        for row in phases["rows"]:
            lines.append(
                f"  {row['phase']:<19s} {_ms(row['mean_s']):>10s}"
                f"  {_pct(row['share']):>6s} of wall"
            )
        lines.append(
            f"  {'(unattributed)':<19s} "
            f"{_ms(phases['unattributed_s'] / max(1, meta['n_injections'])):>10s}"
        )

    tertiles = report["tertiles"]
    if tertiles:
        lines.append("")
        lines.append("latency by fault-site depth tertile:")
        for row in tertiles["rows"]:
            top = sorted(
                row["phase_shares"].items(), key=lambda kv: kv[1], reverse=True
            )[:2]
            mix = " ".join(f"{name}={_pct(share)}" for name, share in top)
            lines.append(
                f"  {row['tertile']:<8s} n={row['count']:<6d}"
                f" mean={_ms(row['mean_s'])} p99={_ms(row['p99_s'])}"
                + (f"  [{mix}]" if mix else "")
            )

    checkpoint = report["checkpoint"]
    if checkpoint:
        lines.append("")
        lines.append(
            f"checkpoints (interval {checkpoint['interval']}):"
            f" hit-rate={_pct(checkpoint['hit_rate'])}"
            f" (thread {checkpoint['thread_hits']}/{checkpoint['thread_hits'] + checkpoint['thread_misses']},"
            f" cta {checkpoint['cta_hits']}/{checkpoint['cta_hits'] + checkpoint['cta_misses']})"
        )
        lines.append(
            f"  skipped {checkpoint['skipped_instructions']:,.0f} golden instructions;"
            f" store {checkpoint['store_entries']:.0f} entries"
            f" / {checkpoint['store_bytes'] / (1 << 20):.1f} MiB"
            f" ({checkpoint['store_evicted']:.0f} evicted,"
            f" capture {checkpoint['capture_s']:.3f}s)"
        )

    resync = report.get("resync")
    if resync:
        lines.append("")
        lines.append(
            f"resync: splice-rate={_pct(resync['splice_rate'])}"
            f" ({resync['hits']}/{resync['hits'] + resync['misses']})"
            f"  memo hit-rate={_pct(resync['memo_hit_rate'])}"
            f" ({resync['memo_hits']}/{resync['memo_hits'] + resync['memo_misses']})"
        )
        lines.append(
            f"  spliced {resync['spliced_instructions']:,.0f} /"
            f" skipped {resync['skipped_instructions']:,.0f} golden"
            f" instructions; scanned"
            f" {resync['window_instructions']:,.0f} in-window"
            f" (memo {resync['memo_entries']:.0f} entries,"
            f" {resync['memo_evicted']:.0f} evicted;"
            f" capture {resync['capture_s']:.3f}s"
            f" / {resync['captures']:.0f} streams)"
        )

    compiled = report["compiled"]
    if compiled:
        lines.append("")
        lines.append(
            f"compiled backend: chain-cache hit-rate={_pct(compiled['hit_rate'])}"
            f" ({compiled['chain_hits']}/{compiled['chain_hits'] + compiled['chain_misses']})"
        )

    workers = report["workers"]
    if workers:
        lines.append("")
        header = f"workers (imbalance {workers['imbalance']:.2f}x"
        if workers.get("queue_wait_skew", 1.0) > 1.0:
            header += f", queue-wait skew {workers['queue_wait_skew']:.2f}x"
        lines.append(header + "):")
        for row in workers["rows"]:
            line = (
                f"  {row['worker']:<18s} injections={row['injections']:<7d}"
                f" busy={row['busy_s']:.3f}s"
            )
            if row.get("splices"):
                line += f" splices={_pct(row['splice_rate'])}"
            if row.get("queue_wait_mean_s") is not None:
                line += f" wait={_ms(row['queue_wait_mean_s'])}"
            if row.get("checkpoint_bytes") is not None:
                line += (
                    f" ckpt={row['checkpoint_bytes'] / 1e6:.1f}MB"
                    f"/{row.get('checkpoint_entries', 0):.0f}"
                )
            if row.get("resync_memo_entries") is not None:
                line += f" memo={row['resync_memo_entries']:.0f}"
            lines.append(line)
        wait = workers["queue_wait"]
        if wait and wait.get("count"):
            lines.append(
                f"  chunk queue wait: mean={_ms(wait['mean'])}"
                f" max={_ms(wait['max'])} over {wait['count']} chunks"
            )

    stragglers = report["stragglers"]
    if stragglers:
        lines.append("")
        lines.append(
            f"stragglers (> p99 = {_ms(stragglers['threshold_s'])}):"
        )
        for row in stragglers["rows"]:
            top = sorted(row["phases"].items(), key=lambda kv: kv[1], reverse=True)[:2]
            mix = " ".join(f"{name}={_ms(seconds)}" for name, seconds in top)
            lines.append(
                f"  t{row['thread']}/i{row['dyn_index']}b{row['bit']}"
                f" {row['outcome']:<6s} {_ms(row['duration_s'])}"
                + (f"  [{mix}]" if mix else "")
            )

    funnel = report["funnel"]
    if funnel:
        lines.append("")
        lines.append("pruning funnel:")
        for row in funnel:
            lines.append(
                f"  {row['stage']:<17s} {row['sites_before']:>9,d} ->"
                f" {row['sites_after']:>9,d}  ({row['factor']:.1f}x)"
            )

    propagation = report.get("propagation")
    if propagation:
        lines.extend(_propagation_text_lines(propagation))
    return "\n".join(lines) + "\n"


def _propagation_text_lines(propagation: dict) -> list[str]:
    lines: list[str] = []
    pc_map = propagation.get("pc_map")
    if pc_map:
        lines.append("")
        lines.append(
            f"PC vulnerability map ({propagation['n_traced']} traced"
            f" injections over {pc_map['n_pcs']} static instructions):"
        )
        lines.append(
            "  pc        n    sdc%   div%   esc%   mean-mask"
        )
        for row in pc_map["rows"]:
            depth = row["mean_masking_depth"]
            mask = f"{depth:.1f}" if depth is not None else "-"
            lines.append(
                f"  {row['pc']:<7d} {row['n']:>4d}  {_pct(row['sdc_rate']):>6s}"
                f" {_pct(row['diverged_rate']):>6s}"
                f" {_pct(row['escaped_rate']):>6s}   {mask}"
            )

    masking = propagation.get("masking")
    if masking:
        lines.append("")
        lines.append("masking depth by fault model (dynamic instructions to drain):")
        for model, row in masking.items():
            buckets = " ".join(
                f"{label}:{count}" for label, count in row["buckets"].items()
            )
            lines.append(
                f"  {model:<4s} n={row['n']:<6d}"
                f" unmasked={row['unmasked']:<6d} {buckets}"
            )

    signatures = propagation.get("signatures")
    if signatures and signatures["n_sdc"]:
        lines.append("")
        lines.append(
            f"SDC propagation signatures ({signatures['n_signatures']}"
            f" distinct over {signatures['n_sdc']} SDCs):"
        )
        for row in signatures["rows"]:
            lines.append(
                f"  {row['count']:>5d}  {_pct(row['share']):>6s}"
                f"  {row['signature']}"
            )

    coherence = propagation.get("coherence")
    if coherence:
        lines.append("")
        lines.append(
            f"pruning-group coherence (overall agreement"
            f" {_pct(coherence['overall'])} across"
            f" {coherence['n_groups']} audited groups):"
        )
        for row in coherence["rows"]:
            lines.append(
                f"  {row['group']:<6s} members={row['members']:<3d}"
                f" sites={row['sites']:<3d} probes={row['probes']:<4d}"
                f" agreement={_pct(row['agreement'])}"
            )
            for site in row["disagreements"]:
                lines.append(
                    f"    i{site['dyn_index']}/b{site['bit']}:"
                    f" {' vs '.join(site['signatures'])}"
                )
    return lines


def _md_table(title: str, header: tuple[str, ...], rows) -> list[str]:
    """A markdown section: ``## title``, then a table of ``rows`` (cell tuples)."""
    lines = ["", f"## {title}", "", f"| {' | '.join(header)} |", "|" + "---|" * len(header)]
    return lines + [f"| {' | '.join(str(cell) for cell in row)} |" for row in rows]


def render_markdown(report: dict) -> str:
    meta = report["meta"]
    kernel = meta["kernel"] or "(unknown kernel)"
    out: list[str] = [f"# Campaign report — {kernel}", ""]
    out.append(
        f"{meta['n_injections']} injections, {meta['n_sim_runs']} sim runs, "
        f"backends: {', '.join(meta['backends']) or '-'}, "
        f"fast-path rate {_pct(meta['fast_path_rate'])}."
    )

    out += _md_table("Outcomes", ("outcome", "count", "share", "CI"), (
        (
            row["outcome"], row["count"], _pct(row["share"]),
            f"[{_pct(row['ci_low'])}, {_pct(row['ci_high'])}]"
            if row["ci_low"] is not None else "-",
        )
        for row in report["outcomes"]
    ))

    latency = report["latency"]
    if latency:
        keys = ("mean", "p50", "p90", "p99", "max")
        out += _md_table(
            "Latency", keys, [[_ms(latency[f"{key}_s"]) for key in keys]]
        )

    phases = report["phases"]
    if phases:
        out += _md_table("Phases", ("phase", "mean", "share"), (
            (row["phase"], _ms(row["mean_s"]), _pct(row["share"]))
            for row in phases["rows"]
        ))

    tertiles = report["tertiles"]
    if tertiles:
        out += _md_table("Depth tertiles", ("tertile", "n", "mean", "p99"), (
            (row["tertile"], row["count"], _ms(row["mean_s"]), _ms(row["p99_s"]))
            for row in tertiles["rows"]
        ))

    checkpoint = report["checkpoint"]
    if checkpoint:
        out += ["", "## Checkpoints", ""]
        out.append(
            f"Interval {checkpoint['interval']}, hit rate "
            f"{_pct(checkpoint['hit_rate'])}, skipped "
            f"{checkpoint['skipped_instructions']:,.0f} golden instructions, "
            f"store {checkpoint['store_entries']:.0f} entries / "
            f"{checkpoint['store_bytes'] / (1 << 20):.1f} MiB."
        )

    resync = report.get("resync")
    if resync:
        out += ["", "## Resync", ""]
        out.append(
            f"Splice rate {_pct(resync['splice_rate'])} "
            f"({resync['hits']} splices / {resync['misses']} misses), "
            f"memo hit rate {_pct(resync['memo_hit_rate'])}, "
            f"spliced {resync['spliced_instructions']:,.0f} and skipped "
            f"{resync['skipped_instructions']:,.0f} golden instructions."
        )

    compiled = report["compiled"]
    if compiled:
        out += ["", "## Compiled backend", ""]
        out.append(
            f"Chain-cache hit rate {_pct(compiled['hit_rate'])} "
            f"({compiled['chain_hits']} hits / {compiled['chain_misses']} misses)."
        )

    workers = report["workers"]
    if workers:
        title = f"Workers (imbalance {workers['imbalance']:.2f}x"
        if workers.get("queue_wait_skew", 1.0) > 1.0:
            title += f", queue-wait skew {workers['queue_wait_skew']:.2f}x"
        header = (
            "worker", "injections", "busy", "splice rate", "queue wait",
            "ckpt store", "resync memo",
        )
        rows = []
        for row in workers["rows"]:
            wait = row.get("queue_wait_mean_s")
            ckpt = row.get("checkpoint_bytes")
            memo = row.get("resync_memo_entries")
            rows.append((
                row["worker"], row["injections"], f"{row['busy_s']:.3f}s",
                _pct(row.get("splice_rate", 0.0)),
                _ms(wait) if wait is not None else "—",
                f"{ckpt / 1e6:.1f}MB" if ckpt is not None else "—",
                f"{memo:.0f}" if memo is not None else "—",
            ))
        out += _md_table(title + ")", header, rows)

    stragglers = report["stragglers"]
    if stragglers:
        title = f"Stragglers (> {_ms(stragglers['threshold_s'])})"
        out += _md_table(title, ("site", "outcome", "duration"), (
            (
                f"t{row['thread']}/i{row['dyn_index']}b{row['bit']}",
                row["outcome"], _ms(row["duration_s"]),
            )
            for row in stragglers["rows"]
        ))

    funnel = report["funnel"]
    if funnel:
        out += _md_table("Pruning funnel", ("stage", "before", "after", "factor"), (
            (
                row["stage"], f"{row['sites_before']:,}",
                f"{row['sites_after']:,}", f"{row['factor']:.1f}x",
            )
            for row in funnel
        ))

    propagation = report.get("propagation") or {}
    pc_map = propagation.get("pc_map")
    if pc_map:
        header = ("pc", "n", "sdc", "diverged", "escaped", "mean mask depth")
        out += _md_table("PC vulnerability map", header, (
            (
                row["pc"], row["n"], _pct(row["sdc_rate"]),
                _pct(row["diverged_rate"]), _pct(row["escaped_rate"]),
                "-" if row["mean_masking_depth"] is None
                else f"{row['mean_masking_depth']:.1f}",
            )
            for row in pc_map["rows"]
        ))
    masking = propagation.get("masking")
    if masking:
        header = ("model", "n", "unmasked", "depth buckets")
        out += _md_table("Masking depth by fault model", header, (
            (
                model, row["n"], row["unmasked"],
                " ".join(f"{label}:{count}" for label, count in row["buckets"].items()),
            )
            for model, row in masking.items()
        ))
    signatures = propagation.get("signatures")
    if signatures and signatures["n_sdc"]:
        out += _md_table("SDC signatures", ("count", "share", "signature"), (
            (row["count"], _pct(row["share"]), f"`{row['signature']}`")
            for row in signatures["rows"]
        ))
    coherence = propagation.get("coherence")
    if coherence:
        title = f"Pruning-group coherence ({_pct(coherence['overall'])} agreement)"
        header = ("group", "members", "sites", "probes", "agreement")
        out += _md_table(title, header, (
            (row["group"], row["members"], row["sites"], row["probes"],
             _pct(row["agreement"]))
            for row in coherence["rows"]
        ))
    return "\n".join(out) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"
