"""One benchmark unit: a single workload, start to final profile, in this process.

``run.py`` starts this script in a fresh interpreter for every unit, so
import, kernel staging, the golden run and every cache are paid as a CLI
user pays them.  The unit times the public calls ``repro profile`` /
``repro baseline`` make, from outside, and prints one JSON record as its
last line of standard output.  Every number is host time on the
monotonic clock; the simulator is functional and models no simulated
time.

Modes:

* ``measure``   -- the workload as a user runs it (telemetry only where
  the workload itself turns it on);
* ``traced``    -- the same run with a :class:`repro.telemetry.Telemetry`
  passed to the constructors; the record also carries the events,
  counters and spans the program recorded (folded into per-layer
  metrics by ``layers.py``);
* ``bare``      -- ``measure`` with telemetry off even where the workload
  logs events (the untraced side of ``telemetry.overhead_frac``);
* ``setup``     -- ``measure`` up to the first injection, then exit (an
  extra ``setup_s`` sample);
* ``reference`` -- the reference configuration for the correctness
  check: checkpoints 0, serial, resync off, telemetry off, on the
  interpreter (the compiled backend on ``paper-gemm``, whose
  16,384-thread grid the interpreter cannot run in bounded time).
  ``pin_references.py`` runs it once per pool seed and pins the
  weights in ``results/references.json``; the benchmark never runs it.

Usage::

    PYTHONPATH=src python3 perfbench/unit.py --workload profile-pathfinder \
        --seed 1 --mode measure [--t0 <time.monotonic() at spawn>]
"""

import time

T_ENTRY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def _maxrss_mb(who) -> float:
    """Peak resident set in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_unit(workload: dict, seed: int, mode: str, t0: float, log_path: str | None):
    marks = {"t0": t0}

    def mark(name: str) -> None:
        marks[name] = time.monotonic() - t0

    mark("import_start")
    from repro.faults import FaultInjector, random_campaign
    from repro.kernels.registry import load_instance
    from repro.parallel import resolve_executor
    from repro.pruning import ProgressivePruner
    from repro.stats import sample_size_worst_case
    from repro.telemetry import JsonlSink, MemorySink, Telemetry

    mark("import_end")

    reference = mode == "reference"
    traced = mode == "traced"
    telemetry = None
    if workload["telemetry_log"] and mode in ("measure", "setup", "traced"):
        telemetry = Telemetry(sink=JsonlSink(log_path))
    elif traced:
        telemetry = Telemetry(sink=MemorySink())

    injector_kwargs = dict(workload["injector"])
    if reference:
        injector_kwargs.update(
            backend=workload["reference_backend"], checkpoint_interval=0
        )
    workers = 1 if reference else workload["workers"]

    instance = load_instance(workload["kernel"], **workload["load"])
    mark("build_end")
    injector = FaultInjector(instance, telemetry=telemetry, **injector_kwargs)
    mark("init_end")

    first_result = []

    def progress(done, total):
        if not first_result:
            first_result.append(time.monotonic() - t0)

    campaign_kwargs = {"progress": progress} if traced else {}
    n_pruned = 0
    if workload["kind"] == "profile":
        space = ProgressivePruner(seed=seed, **workload["pruner"]).prune(injector)
        n_pruned = n_injections = len(space.sites)

        def campaign(executor):
            return space.estimate_profile(
                injector, executor=executor, **campaign_kwargs
            )
    else:
        n_injections = sample_size_worst_case(
            workload["margin"], workload["confidence"]
        )

        def campaign(executor):
            return random_campaign(
                injector, n_injections, rng=seed, executor=executor,
                **campaign_kwargs,
            ).profile
    mark("prune_end")
    executor = resolve_executor(workers)
    mark("campaign_start")
    if mode == "setup":
        if telemetry is not None:
            telemetry.close()
        return {"seed": seed, "mode": mode, "marks": marks}
    profile = campaign(executor)
    mark("campaign_end")
    rss_self = _maxrss_mb(resource.RUSAGE_SELF)
    rss_children = _maxrss_mb(resource.RUSAGE_CHILDREN)
    if telemetry is not None:
        telemetry.close()

    record = {
        "seed": seed,
        "mode": mode,
        "marks": marks,
        "weights": dict(profile.weights),
        "profile_n": profile.n_injections,
        "pruning_injections": n_pruned,
        "injections": n_injections,
        # This process plus its largest pool worker (``RUSAGE_CHILDREN``
        # reports the peak of any single waited-for child).
        "peak_rss_mb": rss_self + rss_children,
        "workers": workers,
        "first_result_s": first_result[0] if first_result else None,
    }
    if traced:
        from layers import telemetry_dump

        record["telemetry"] = telemetry_dump(telemetry, log_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode",
        choices=("measure", "bare", "setup", "traced", "reference"),
        default="measure",
    )
    parser.add_argument(
        "--t0",
        type=float,
        default=None,
        help="time.monotonic() when the parent spawned this process",
    )
    parser.add_argument(
        "--log", default=None, help="JSONL event-log path for logging workloads"
    )
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else T_ENTRY
    record = run_unit(WORKLOADS[args.workload], args.seed, args.mode, t0, args.log)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
