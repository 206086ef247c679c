"""Uniform random search baseline (no tunables)."""

from .base import register, uniform_init

__all__ = []

_CHUNK = 64


@register("random_search", n_init=lambda cfg: 1)
def random_search(tracker, config, rng):
    while True:
        yield uniform_init(rng, tracker.bounds, _CHUNK)
