"""Hyperparameter grids for the optimizer pool.

Each optimizer exposes an ordered mapping ``param -> tuple of values``;
the full grid is the cartesian product in declared order with the last
parameter varying fastest (``itertools.product`` order).  A config's
``config_index`` is its position in that full enumeration and is stable
forever -- capped subsets sample indices, never re-enumerate.
"""

import itertools
import math

import numpy as np

from ..seeding import rng_for

__all__ = [
    "GRIDS",
    "grid_size",
    "config_at",
    "enumerate_configs",
    "validate_config",
    "DEFAULT_CONFIG_CAP",
]

DEFAULT_CONFIG_CAP = 64

GRIDS = {
    "samr_ga": {
        "NP": (10, 20, 50, 100, 200),
        "sigma_init": (0.0, 0.5, 1.0),
        "sigma_meta": (1.0, 2.0, 3.0, 4.0, 5.0),
        "sigma_best_limit": (0.0001, 0.001, 0.1),
    },
    "vanilla_de": {
        "NP": (10, 20, 50, 100, 200),
        "F": (0.0, 0.5, 0.9),
        "Cr": (0.0, 0.5, 0.9),
        "mutation": ("best1", "best2", "rand2", "current2rand",
                     "current2best", "rand2best2"),
        "bound": ("clip", "periodic", "reflect", "rand"),
    },
    "deap_de": {
        "NP": (10, 20, 50, 100, 200),
        "F": (0.1, 0.3, 0.5, 0.7, 0.9),
        "Cr": (0.1, 0.3, 0.5, 0.7, 0.9),
    },
    "vanilla_pso": {
        "NP": (10, 20, 50, 100, 200),
        "phi_1": (1.0, 2.0, 3.0),
        "phi_2": (1.0, 2.0, 3.0),
    },
    "sep_cma_es": {
        "n_individuals": (10, 20, 50, 100),
        "c_c": (1.0, 2.0, 3.0, 4.0, 5.0),
        "sigma": (0.1, 0.3, 0.5),
    },
    "bipop_cma_es": {
        "NP": (10, 20, 50, 100),
        "elite_ratio": (0.2, 0.5, 0.7),
        "min_num_gens": (10, 30, 50),
        "popsize_multiplier": (1, 2, 3, 4, 5),
    },
    "simulated_annealing": {
        "NP": (10, 20, 50, 100, 200),
        "sigma_init": (0.1, 0.3, 0.5),
        "sigma_limit": (0.01, 0.05, 0.1),
        "temp_decay": (0.9, 0.99, 0.999),
        "boltzmann_const": (1.0, 5.0, 10.0),
    },
    "dual_annealing": {
        "initial_temp": (523.0, 5230.0, 50000.0),
        "visit": (1.62, 2.62, 3.62),
        "restart_temp_ratio": (2.0e-5, 2.0e-3, 2.0e-1),
    },
    "nsa": {
        "sigma": (0.1, 0.3, 0.5),
        "schedule": ("linear", "quadratic"),
        "n_samples": (10, 20, 50, 100, 200),
        "rt": (0.9, 0.99, 0.999),
    },
    "random_search": {},
}


def grid_size(optimizer):
    """Number of configs in the full grid (1 for parameter-free)."""
    grid = GRIDS[optimizer]
    return math.prod(len(v) for v in grid.values())


def config_at(optimizer, index):
    """Decode a config from its index in the full enumeration."""
    grid = GRIDS[optimizer]
    total = grid_size(optimizer)
    if not 0 <= index < total:
        raise IndexError(f"config index {index} out of range for {optimizer}")
    cfg = {}
    rem = index
    for name in reversed(list(grid)):
        values = grid[name]
        rem, pos = divmod(rem, len(values))
        cfg[name] = values[pos]
    return {name: cfg[name] for name in grid}


def enumerate_configs(optimizer, cap=DEFAULT_CONFIG_CAP, seed=0):
    """Configs to benchmark: the full grid, or a seeded subset.

    Returns a list of ``(config_index, config)`` pairs.  When the grid
    exceeds ``cap``, indices are sampled without replacement from the
    full enumeration and emitted sorted, so the subset is deterministic
    in ``(optimizer, seed, cap)`` and indices stay comparable across
    runs.
    """
    total = grid_size(optimizer)
    if cap is None or total <= cap:
        indices = range(total)
    else:
        rng = rng_for(seed, "grid", optimizer, cap)
        indices = np.sort(rng.choice(total, size=cap, replace=False)).tolist()
    return [(int(i), config_at(optimizer, int(i))) for i in indices]


def validate_config(optimizer, config):
    """Check a config against the grid (keys and values must match)."""
    if optimizer not in GRIDS:
        raise KeyError(f"unknown optimizer {optimizer!r}")
    grid = GRIDS[optimizer]
    missing = set(grid) - set(config)
    extra = set(config) - set(grid)
    if missing or extra:
        raise ValueError(
            f"{optimizer}: config keys mismatch "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    for name, values in grid.items():
        if config[name] not in values:
            raise ValueError(
                f"{optimizer}: {name}={config[name]!r} not in grid {values}"
            )


def iter_full_grid(optimizer):
    """All configs of one optimizer in enumeration order."""
    grid = GRIDS[optimizer]
    names = list(grid)
    for combo in itertools.product(*(grid[n] for n in names)):
        yield dict(zip(names, combo))
