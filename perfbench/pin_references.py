"""Pin the reference profile of every workload seed in ``results/references.json``.

The benchmark checks each unit's per-outcome profile weights against
these pinned weights, so a change that makes the program do different
work -- a pruner that emits other sites, another classification, a wrong
answer from a backend -- fails the check even when every configuration
changes the same way.  Each reference is one ``unit.py --mode reference``
run (checkpoints 0, serial, resync off, telemetry off, on the workload's
``reference_backend``) in a fresh process.  Re-pin only when a change of
the profile is intended, and say so where the change is recorded.

Run from the repository root (the paper-gemm references take several
minutes each)::

    python3 perfbench/pin_references.py [--workload NAME ...]
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import REFERENCES, environment, source_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_weights(root: str, workload: str, seed: int) -> dict:
    """The reference configuration's profile weights for one seed."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "unit.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--mode", "reference",
        ],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["weights"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to pin (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    root = os.getcwd()
    path = REFERENCES
    pinned = {}
    if os.path.exists(path):
        with open(path) as handle:
            pinned = json.load(handle)
    env = environment(root, source_digest(root))
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entry = {
            "backend": workload["reference_backend"],
            "env": env,
            "weights": {},
        }
        for seed in range(workload["seed_pool"]):
            t = time.monotonic()
            entry["weights"][str(seed)] = reference_weights(root, name, seed)
            print(f"{name} seed {seed}: {time.monotonic() - t:.1f} s", flush=True)
        pinned[name] = entry
        with open(path, "w") as handle:
            json.dump(pinned, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
