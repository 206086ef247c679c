"""The optimizer pool; importing its modules fills the registry."""
from . import annealing, cmaes, de, ga, pso, random_search  # noqa: F401
