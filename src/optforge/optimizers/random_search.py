"""Uniform random search baseline (no tunables)."""

from .base import register, uniform_init

__all__ = []

_CHUNK = 64


@register("random_search")
def random_search(tracker, config, rng):
    """Its first ask, one uniform point, is its initial sample; then
    ``_CHUNK`` points per ask, from the same stream of draws."""
    yield uniform_init(rng, tracker.bounds, 1)
    while True:
        yield uniform_init(rng, tracker.bounds, _CHUNK)
