"""Dependency-free progress reporting with rate and ETA.

A :class:`ProgressReporter` has two faces:

* a **callable** ``(done, total)`` — the shape the campaign drivers call
  once per injection, so any plain function works in its place;
* a **renderer** that throttles carriage-return updates to a stream
  (stderr for the CLI) and fires an optional ``callback(reporter)`` on
  every advance for programmatic consumers.

With ``heartbeat_s`` set, carriage-return rendering is replaced by
periodic newline-terminated heartbeat lines carrying a *rolling*
rate (computed over the recent window, not since campaign start) and
ETA — the log-friendly mode for long unattended campaigns.  ``close()``
always flushes a final heartbeat so short campaigns aren't silent.

Injections are not uniform work units: checkpoint skipping and resync
splicing make per-injection cost drift over a campaign (deep sites cost
more until resync kicks in), so an ETA from the injection *count* rate is
systematically wrong on deep kernels.  Drivers that know the cumulative
**effective-instruction** total can feed it via :meth:`note_work`; the
ETA then projects remaining work in instructions and divides by the
rolling instruction rate, falling back to the count-based estimate when
no work units were reported.

The rolling window and ETA model live in :class:`RollingRate`, shared
with the live campaign plane (``repro.observe.fold``), so ``--progress``
and ``/status`` report the same rate and ETA for the same samples.
"""

from __future__ import annotations

import time
from collections import deque


class ProgressReporter:
    """Tracks completed work and renders ``done/total rate eta`` lines."""

    def __init__(
        self,
        total: int | None = None,
        label: str = "",
        callback=None,
        stream=None,
        min_interval_s: float = 0.2,
        clock=time.monotonic,
        heartbeat_s: float | None = None,
    ) -> None:
        self.total = total
        self.label = label
        self.callback = callback
        self.stream = stream
        self.min_interval_s = min_interval_s
        self.heartbeat_s = heartbeat_s
        self._clock = clock
        self.done = 0
        self.started_at: float | None = None
        self._last_render = -float("inf")
        self._rendered = False
        self._last_heartbeat = -float("inf")
        self.heartbeats_emitted = 0
        #: Cumulative work units (effective instructions) reported via
        #: :meth:`note_work`; 0 means "count injections instead".
        self.work_done = 0
        # Rolling rates over roughly two heartbeat periods of samples, so
        # they track recent speed.
        self._rates = RollingRate((heartbeat_s or min_interval_s) * 2)

    # ------------------------------------------------------------ updates

    def start(self) -> None:
        if self.started_at is None:
            self.started_at = self._clock()
            self._rates.start(self.started_at)

    def update(self, n: int = 1) -> None:
        """Advance by ``n`` completed units."""
        self.start()
        self.done += n
        self._after_advance()

    def __call__(self, done: int, total: int | None = None) -> None:
        """Campaign-driver hook: absolute position, optional total."""
        self.start()
        self.done = done
        if total is not None:
            self.total = total
        self._after_advance()

    def note_work(self, units: int | float) -> None:
        """Report the cumulative work-unit total (absolute, monotonic).

        Campaign drivers call this with the running effective-instruction
        count *before* the positional ``(done, total)`` call, so the next
        window sample pairs the two.  Ignored when ``units`` does not
        advance the known total — an uninstrumented campaign reporting 0
        keeps the count-based ETA.
        """
        if units > self.work_done:
            self.work_done = int(units)

    def _after_advance(self) -> None:
        if self.callback is not None:
            self.callback(self)
        now = self._clock()
        self._rates.add(now, self.done, self.work_done)
        if self.stream is None:
            return
        if self.heartbeat_s is not None:
            if now - self._last_heartbeat >= self.heartbeat_s:
                self._emit_heartbeat(now)
            return
        finished = self.total is not None and self.done >= self.total
        if finished or now - self._last_render >= self.min_interval_s:
            self.stream.write("\r" + self.render_line())
            self.stream.flush()
            self._last_render = now
            self._rendered = True

    def _emit_heartbeat(self, now: float) -> None:
        self.stream.write(self.render_heartbeat() + "\n")
        self.stream.flush()
        self._last_heartbeat = now
        self.heartbeats_emitted += 1

    def close(self) -> None:
        """Final render plus newline, so the shell prompt stays clean.

        In heartbeat mode a final heartbeat is always flushed — campaigns
        shorter than one ``heartbeat_s`` period still report their rate.
        """
        if self.stream is None:
            return
        if self.heartbeat_s is not None:
            self._emit_heartbeat(self._clock())
            return
        if not self._rendered:
            self.stream.write(self.render_line())
        else:
            self.stream.write("\r" + self.render_line())
        self.stream.write("\n")
        self.stream.flush()

    def __enter__(self) -> "ProgressReporter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- stats

    @property
    def elapsed_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return self._clock() - self.started_at

    @property
    def rate(self) -> float:
        """Completed units per second (0 until the clock has advanced)."""
        elapsed = self.elapsed_s
        return self.done / elapsed if elapsed > 0 else 0.0

    @property
    def rolling_rate(self) -> float:
        """Units/second over the recent sample window."""
        return self._rates.rate

    @property
    def rolling_work_rate(self) -> float:
        """Work units (effective instructions)/second over the window."""
        return self._rates.work_rate

    @property
    def eta_s(self) -> float | None:
        """Seconds remaining, or None when total/rate are unknown."""
        return self._rates.eta_s(self.done, self.total, self.work_done)

    def _render(self, tag: str, rate: str) -> str:
        line = (f"{self.label}: " if self.label else "") + f"{tag}{self.done}"
        if self.total:
            line += f"/{self.total} ({100.0 * self.done / self.total:5.1f}%)"
        eta = self.eta_s
        return line + rate + (f" eta {format_duration(eta)}" if eta is not None else "")

    def render_line(self) -> str:
        return self._render("", f" {self.rate:8.1f}/s" if self.rate > 0 else "")

    def render_heartbeat(self) -> str:
        rate = f" {self.rolling_rate:.1f}/s"
        work_rate = self.rolling_work_rate
        if self.work_done > 0 and work_rate > 0:
            rate += f" {work_rate / 1e6:.2f}Minsn/s"
        return self._render("heartbeat ", rate)


class RollingRate:
    """Rolling ``(done, work)`` rates and ETA over the last ``span_s`` seconds.

    Clock-free: callers :meth:`add` cumulative ``(now, done, work)``
    samples.  At least two samples are kept; until they span time, rates
    fall back to the cumulative rate since :meth:`start` (or the first
    sample).
    """

    def __init__(self, span_s: float) -> None:
        self.span_s = span_s
        self.started_at: float | None = None
        self._window: deque[tuple[float, int, int]] = deque()

    def start(self, now: float) -> None:
        if self.started_at is None:
            self.started_at = now

    def add(self, now: float, done: int, work: int) -> None:
        self.start(now)
        self._window.append((now, done, work))
        while len(self._window) > 2 and now - self._window[0][0] > self.span_s:
            self._window.popleft()

    def _per_s(self, column: int, rolling: bool = True) -> float:
        if not self._window:
            return 0.0
        first, last = self._window[0], self._window[-1]
        if rolling and last[0] > first[0]:
            return (last[column] - first[column]) / (last[0] - first[0])
        elapsed = last[0] - self.started_at
        return last[column] / elapsed if elapsed > 0 else 0.0

    @property
    def rate(self) -> float:
        """Units/second over the window."""
        return self._per_s(1)

    @property
    def work_rate(self) -> float:
        """Work units/second over the window."""
        return self._per_s(2)

    def eta_s(self, done: int, total: int | None, work: int) -> float | None:
        """Seconds remaining, or None when total/rate are unknown.

        With work reported, remaining work is the observed work per unit
        scaled to the remaining units, divided by the rolling work rate —
        so a campaign whose later injections are cheaper (resync
        splicing) or dearer (deep prefixes) projects from cost actually
        remaining, not injection count.
        """
        if total is None:
            return None
        work_rate = self.work_rate
        if 0 < done < total and work > 0 and work_rate > 0:
            projected_total = work * (total / done)
            return max(0.0, (projected_total - work) / work_rate)
        rate = self.rate or self._per_s(1, rolling=False)
        return max(0.0, (total - done) / rate) if rate else None


def format_duration(seconds: float) -> str:
    """``59s``, ``1m00s``, ``1h00m``: a compact duration for status lines."""
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
