from .base import (
    BoxMap,
    BudgetExhausted,
    ObjectiveTracker,
    PENALTY_COEFF,
    RunResult,
    get_answer,
    get_optimizer,
    rule_argmin,
    rule_key,
    rule_le,
    run,
    uniform_init,
)
from .grids import (
    DEFAULT_CONFIG_CAP,
    GRIDS,
    config_at,
    enumerate_configs,
    grid_size,
    validate_config,
)

# importing the implementation modules populates the registry
from . import annealing, cmaes, de, ga, pso, random_search  # noqa: F401

__all__ = [
    "BoxMap",
    "BudgetExhausted",
    "ObjectiveTracker",
    "PENALTY_COEFF",
    "RunResult",
    "get_answer",
    "get_optimizer",
    "rule_argmin",
    "rule_key",
    "rule_le",
    "run",
    "uniform_init",
    "DEFAULT_CONFIG_CAP",
    "GRIDS",
    "config_at",
    "enumerate_configs",
    "grid_size",
    "validate_config",
]
