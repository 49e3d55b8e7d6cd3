"""End-to-end, layer-attributed benchmark of the fault-site pruning pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload baseline-kmeans --seed 1 \
        --seconds 30 --trace 0

A single client runs one unit at a time, each in a fresh process (a
closed loop), until ``--seconds`` of unit time have passed; at least one
unit always runs.  Each unit takes the next seed of the run's seed order
(``unit_seeds``).  Every unit's per-outcome profile weights are checked
against the reference weights pinned for that workload and seed in
``results/references.json`` (``pin_references.py``).  A unit that
raises, or whose weights differ from the pinned ones, counts as failed.
A unit still running when the run's time budget ends is stopped; it is
neither attempted nor failed, and is reported as ``stopped``.

With ``--trace 0`` the result carries the end-to-end metrics, each the
median over the run's units (``setup_s`` also over the workload's
set-up-only probes).  With ``--trace 1`` the loop alternates untraced
and traced units on the run's first seed, and the result carries the
per-layer metrics of ``layers.py``.  Metric units are read from
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it records the seeds, host, ``nproc``, Python and numpy versions
and source revision; every result is also appended, with its per-unit
details, to ``.perfbench_out/results.jsonl``.

Every number is host time on the monotonic clock; the simulator is
functional, so there is no simulated time, and accuracy against ground
truth is not measured here.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"

#: Pinned reference profile weights, by workload and seed
#: (``pin_references.py``).
REFERENCES = os.path.join(HERE, "results", "references.json")

#: Wall-clock budget for one benchmark run, set-up included; a unit is
#: only started when the longest unit seen so far still fits.
RUN_BUDGET_S = 170.0


def source_digest(root: str) -> str:
    """SHA-256 over ``src/repro``'s Python sources (paths and contents)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(root: str, digest: str) -> dict:
    """Host, toolchain and source identity recorded with every result."""
    revision = ""
    # Only this checkout's own repository: git would otherwise search
    # the directories above it.
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision or None,
        "src_sha256": digest,
    }


def metric_units(root: str, trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them for this run."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class UnitRunner:
    """Starts units in fresh processes and checks their profiles."""

    def __init__(self, root: str, workload: str, deadline: float, references: dict):
        self.root = root
        self.workload = workload
        self.deadline = deadline
        self.references = references
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.log_path = os.path.join(root, OUT_DIR, f"events-{os.getpid()}.jsonl")
        self.longest_s = 0.0
        self.stopped = 0

    def spawn(self, mode: str, seed: int):
        """One unit: ``(record, took_s)``.  The record is None if the unit
        was stopped at the run's deadline (counted in ``stopped``), and
        empty if it raised or printed no record (its stderr passes
        through).  A profile's ``correct`` says whether its weights equal
        the pinned ones."""
        t0 = time.monotonic()
        cmd = [
            sys.executable,
            os.path.join(HERE, "unit.py"),
            "--workload", self.workload,
            "--seed", str(seed),
            "--mode", mode,
            "--t0", repr(t0),
            "--log", self.log_path,
        ]
        # A session of its own, so a stop also ends pool workers.
        proc = subprocess.Popen(
            cmd,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.stopped += 1
            print(f"unit {mode} seed {seed} stopped at the run budget",
                  file=sys.stderr)
            return None, time.monotonic() - t0
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            if os.path.exists(self.log_path):
                os.remove(self.log_path)
        took = time.monotonic() - t0
        self.longest_s = max(self.longest_s, took)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"unit {mode} seed {seed} exited with {proc.returncode}",
                  file=sys.stderr)
            return {}, took
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"unit {mode} seed {seed} printed no record", file=sys.stderr)
            return {}, took
        if "weights" in record:
            record["correct"] = record["weights"] == self.references[str(seed)]
        return record, took

    def fits(self) -> bool:
        """Can one more unit as long as the longest so far end in time?"""
        return time.monotonic() + 1.2 * self.longest_s < self.deadline


def unit_seeds(workload: dict, run_seed: int) -> list:
    """The run's unit seeds: a permutation, drawn from ``run_seed``, of the
    workload's seed pool (pool entries are the pruner / baseline seeds)."""
    return random.Random(run_seed).sample(range(workload["seed_pool"]),
                                          workload["seed_pool"])


def closed_loop(runner: UnitRunner, jobs: list, seconds: float, minimum: int,
                probes: int):
    """Units back to back, cycling through ``jobs`` ((mode, seed) pairs),
    each followed by ``probes`` set-up-only units on its seed, until
    ``seconds`` of unit time have passed and at least ``minimum`` profile
    units ended.  Returns (profile records, set-up probe records, units
    that ended, units that failed); a probe that raises fails too."""
    records, setups, measured = [], [], 0.0
    units = attempted = failed = 0
    while units < minimum or (measured < seconds and runner.fits()):
        mode, seed = jobs[units % len(jobs)]
        record, took = runner.spawn(mode, seed)
        measured += took
        if record is None:
            break
        units += 1
        attempted += 1
        failed += not record.get("correct")
        if record:
            records.append(record)
        for _ in range(probes):
            if not runner.fits():
                break
            setup, took = runner.spawn("setup", seed)
            measured += took
            if setup is None:
                break
            attempted += 1
            failed += not setup
            if setup:
                setups.append(setup)
    return records, setups, attempted, failed


def wall_s(record: dict) -> float:
    """A unit's wall time: process spawn to final profile."""
    return record["marks"]["campaign_end"]


def end_to_end(records: list, setups: list) -> dict:
    """End-to-end metrics, each the median over the run's units;
    ``setup_s`` also over the set-up probes."""
    marks = [r["marks"] for r in records]
    return {
        "wall_s": statistics.median(map(wall_s, records)),
        "setup_s": statistics.median(
            r["marks"]["campaign_start"] for r in records + setups
        ),
        "inj_per_s": statistics.median(
            r["injections"] / (m["campaign_end"] - m["campaign_start"])
            for r, m in zip(records, marks)
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    # SIGTERM unwinds like Ctrl-C, so a running unit is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    with open(REFERENCES) as handle:
        references = json.load(handle)[args.workload]["weights"]
    units = metric_units(root, args.trace)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workload = WORKLOADS[args.workload]
    runner = UnitRunner(root, args.workload, started + RUN_BUDGET_S, references)
    seeds = unit_seeds(workload, args.seed)

    if args.trace:
        # Untraced and traced units alternate on one seed, so the overhead
        # compares equal work under the same host conditions.  A workload
        # that already logs events is compared against telemetry-off units.
        untraced_mode = "bare" if workload["telemetry_log"] else "measure"
        jobs = [(untraced_mode, seeds[0]), ("traced", seeds[0])]
        probes = 0
    else:
        jobs = [("measure", seed) for seed in seeds]
        probes = workload["setup_probes"]
    # At least one unit; in a traced run, one of each kind.
    # Timings stand for every unit that finished; a wrong profile counts
    # as failed but its unit was still measured.
    records, setups, attempted, failed = closed_loop(
        runner, jobs, args.seconds, minimum=1 + args.trace, probes=probes
    )
    untraced = [r for r in records if r["mode"] != "traced"]
    traced = [r for r in records if r["mode"] == "traced"]

    values = {}
    if args.trace:
        if traced and untraced:
            traced.sort(key=wall_s)
            values = per_layer(
                traced[(len(traced) - 1) // 2],
                statistics.median(map(wall_s, traced)),
                statistics.median(map(wall_s, untraced)),
            )
            values["failed_frac"] = failed / attempted
    elif untraced:
        values = end_to_end(untraced, setups)
        values["correct_frac"] = 1 - failed / attempted
    if not values:
        print(f"perfbench: no result ({attempted} units ended, {failed} failed,"
              f" {runner.stopped} stopped at the {RUN_BUDGET_S:.0f} s run budget)",
              file=sys.stderr)
        return 1
    if set(values) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 2

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    env = environment(root, source_digest(root))
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "result": result,
        "stopped": runner.stopped,
        "units": [
            {
                k: r[k]
                for k in (
                    "mode", "seed", "correct", "marks", "weights", "profile_n",
                    "pruning_injections", "peak_rss_mb",
                )
            }
            for r in records
        ],
        "setup_probes": [r["marks"] for r in setups],
        "elapsed_s": time.monotonic() - started,
    }
    with open(os.path.join(root, OUT_DIR, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(full) + "\n")
    print("env " + json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "unit_seeds": [r["seed"] for r in records],
         "stopped": runner.stopped, **env}
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
