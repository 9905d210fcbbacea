"""The benchmark's workloads: noisylab configs generated from a seed.

Every workload keeps its shape fixed and takes only noisylab's ``seed`` from
the benchmark seed, so counts repeat exactly across seeds while the random
draws, and therefore the outputs the checks inspect, change.  ``tiny`` sizes
exist for the benchmark's own smoke tests.

BENCHMARK.json lists only sweep_large_l and tau_zipf, which between them run
every layer; the other two stay runnable by name (see README.md for why).
"""
from __future__ import annotations

SMALL_L = list(range(2, 17)) + [18, 20, 24, 28, 32]
SMALL_E = [round(0.05 * i, 2) for i in range(10)]

WORKLOADS = {
    # Per-scenario overhead dominates: outcome tables, exact tails, e = 0 cases.
    "sweep_small_l": {
        "command": "sweep",
        "full": {"trials": 2000, "grid": {"l": SMALL_L, "e": SMALL_E, "base": {"y": 1}}},
        "tiny": {"trials": 200, "grid": {"l": [2, 3, 4], "e": [0.0, 0.2], "base": {"y": 1}}},
    },
    # Drawing and classifying per-label uniforms dominates; runs the thread pool.
    "sweep_large_l": {
        "command": "sweep",
        "full": {"trials": 50000, "workers": 2,
                 "grid": {"l": [200, 1000], "e": [0.1, 0.3], "base": {"y": 1}}},
        "tiny": {"trials": 600, "workers": 2,
                 "grid": {"l": [40, 100], "e": [0.1, 0.3], "base": {"y": 1}}},
    },
    # Only freqmodel runs: importance-weight Monte Carlo and weight estimates.
    "tau_zipf": {
        "command": "tau",
        "full": {"prior": {"generator": "zipf", "n_values": 1000, "exponent": 1.1, "cap": 0.05},
                 "n": 10000, "l": [2, 10, 100], "mc_replicates": 10000},
        "tiny": {"prior": {"generator": "zipf", "n_values": 200, "exponent": 1.1, "cap": 0.05},
                 "n": 1000, "l": [2, 10], "mc_replicates": 200, "weight_replicates": 200},
    },
    # Per-instance noise draws and a large CSV: the write-heavy use of cli.
    "noise_synth": {
        "command": "noise-synth",
        "full": {"epsilon": 0.2, "sigma": 0.1, "count": 100000, "feature_dim": 8},
        "tiny": {"epsilon": 0.2, "sigma": 0.1, "count": 500, "feature_dim": 8},
    },
}


def make_config(workload: str, seed: int, size: str = "full") -> dict:
    """The noisylab config one workload runs, for one benchmark seed."""
    spec = WORKLOADS[workload]
    return {"command": spec["command"], "seed": seed, **spec[size]}
