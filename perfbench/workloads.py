"""The benchmark's workloads: what each unit runs (``BENCHMARK.json`` says why).

Every setting not named here stays at the program default, so that a
change of default shows up in the benchmark.  Seeds feed only
``ProgressivePruner(seed=...)`` and the baseline's
``random_campaign(rng=...)``; kernel inputs are fixed by the registry.
A run's units take their seeds from the workload's ``seed_pool``
(seeds ``0 .. seed_pool - 1``) in an order drawn from the run's
``--seed``.  The pruned sites, and with them the work, differ by seed
(on ``profile-pathfinder`` one unit's wall time spans about 1.5x across
seeds), so a run spreads its units over several seeds; the pool is
finite so that every seed's reference profile can be pinned in
``results/references.json`` (``pin_references.py``).  ``setup_probes``
set-up-only units follow each unit, as extra ``setup_s`` samples.
"""

WORKLOADS = {
    "profile-pathfinder": {
        "kind": "profile",
        "kernel": "pathfinder.k1",
        "load": {},
        "injector": {},
        "pruner": {},
        "workers": 1,
        "telemetry_log": False,
        "reference_backend": "interpreter",
        "seed_pool": 8,
        "setup_probes": 1,
    },
    "baseline-kmeans": {
        "kind": "baseline",
        "kernel": "k-means.k2",
        "load": {},
        "injector": {},
        "confidence": 0.99,
        "margin": 0.02,
        "workers": 2,
        "telemetry_log": True,
        "reference_backend": "interpreter",
        "seed_pool": 16,
        "setup_probes": 2,
    },
    "paper-gemm": {
        "kind": "profile",
        "kernel": "gemm.k1",
        "load": {"scale": "paper"},
        "injector": {"backend": "vectorized"},
        "pruner": {"n_bits": 2, "num_loop_iters": 1},
        "workers": 1,
        "telemetry_log": False,
        # The interpreter cannot golden-run the paper grid in bounded
        # time; the compiled scalar backend can, without the lockstep
        # register planes and scheduler of the backend under measurement.
        "reference_backend": "compiled",
        "seed_pool": 3,
        # Set-up is half of a unit here; each unit already samples it.
        "setup_probes": 0,
    },
}
