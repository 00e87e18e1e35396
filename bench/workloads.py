"""The four benchmark workloads: their inputs, and the work each one needs.

A seed only reorders inputs whose results do not depend on order (config
key order, the N, D and J lists, the exact-chain ladder), so the stored
references hold for every seed.
"""

from __future__ import annotations

import copy
import random

SPHERE = {"kind": "sphere", "radius": 1.0}
GRID = {"N": [2, 3, 4, 5], "D": [2, 4, 6], "degreeLadder": [30, 40, 50]}

# kind "cli" runs rotorzeros.cli.main on the config; kind "api" runs
# rotorzeros.zeros.stabilize_chain once per D in the rational field.
WORKLOADS = {
    "verify-grid": {
        "kind": "cli",
        "config": {"command": "verify", "measure": SPHERE, **GRID, "J": [0.2, 1.0], "jobs": 1},
    },
    "counterexample-scan": {
        "kind": "cli",
        "config": {"command": "counterexample-scan", "D": [1], "degreeLadder": [40, 60]},
    },
    "exact-chain": {
        "kind": "api",
        "N": [2, 3, 4],
        "D": [2, 4],
        "J": "1/2",
        "radius": "1",
        "degreeLadder": [12, 16, 20],
    },
    # no "jobs" key: sweep defaults to one worker per CPU
    "sweep-grid": {
        "kind": "cli",
        "config": {"command": "sweep", "measure": SPHERE, **GRID, "J": [1.0]},
    },
}

# counterexample_scan's fixed a-grid: -5, -4.75, ..., 5
SCAN_POINTS = 41


def make_inputs(name, seed):
    """The workload's inputs, reordered by ``seed``."""
    rng = random.Random(seed)
    spec = copy.deepcopy(WORKLOADS[name])
    if spec["kind"] == "cli":
        config = spec["config"]
        for key in ("N", "D", "J"):
            if key in config:
                rng.shuffle(config[key])
        keys = list(config)
        rng.shuffle(keys)
        spec["config"] = {key: config[key] for key in keys}
    else:
        for key in ("N", "D", "degreeLadder"):
            rng.shuffle(spec[key])
    return spec


def _grid(name):
    spec = WORKLOADS[name]
    return spec.get("config", spec)


def steps_needed(name):
    """Chain steps the workload needs: sum over (D, J, rung) of max N - 1."""
    if name == "counterexample-scan":
        return 0
    grid = _grid(name)
    Js = grid["J"] if isinstance(grid["J"], list) else [grid["J"]]
    return len(grid["D"]) * len(Js) * len(grid["degreeLadder"]) * (max(grid["N"]) - 1)


def moments_needed(name):
    """Distinct radial moments the workload needs (spheres need none).

    The scan needs m_k for k = D/2 + n - 1, n = 0..M_top, per point; the
    lower rungs' moments are a prefix of the top rung's.
    """
    if name != "counterexample-scan":
        return 0
    return SCAN_POINTS * (max(_grid(name)["degreeLadder"]) + 1)
