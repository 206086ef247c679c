import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optforge.optimizers.grids import (GRIDS, config_at, enumerate_configs,
                                       grid_size, validate_config)

EXPECTED_SIZES = {
    "samr_ga": 225,
    "vanilla_de": 1080,
    "deap_de": 125,
    "vanilla_pso": 45,
    "sep_cma_es": 60,
    "bipop_cma_es": 180,
    "simulated_annealing": 405,
    "dual_annealing": 27,
    "nsa": 90,
    "random_search": 1,
}


def test_pool_membership():
    assert set(GRIDS) == set(EXPECTED_SIZES)


@pytest.mark.parametrize("optimizer,size", sorted(EXPECTED_SIZES.items()))
def test_grid_sizes(optimizer, size):
    assert grid_size(optimizer) == size
    assert grid_size(optimizer) == math.prod(
        len(v) for v in GRIDS[optimizer].values()
    )


def test_every_grid_parameter_is_a_choice():
    # a parameter with one value belongs in the optimizer's code
    single = [(o, name) for o, grid in GRIDS.items()
              for name, values in grid.items() if len(values) < 2]
    assert single == []


def test_config_at_matches_product_order():
    for optimizer in ("deap_de", "vanilla_pso", "dual_annealing"):
        grid = GRIDS[optimizer]
        full = [dict(zip(grid, combo))
                for combo in itertools.product(*grid.values())]
        for idx in range(grid_size(optimizer)):
            assert config_at(optimizer, idx) == full[idx]


def test_config_at_bounds():
    with pytest.raises(IndexError):
        config_at("deap_de", 125)
    with pytest.raises(IndexError):
        config_at("deap_de", -1)


def test_enumerate_small_grid_is_full():
    pairs = enumerate_configs("dual_annealing", cap=64)
    assert [i for i, _ in pairs] == list(range(27))


def test_enumerate_capped_deterministic_sorted_subset():
    a = enumerate_configs("vanilla_de", cap=16, seed=3)
    b = enumerate_configs("vanilla_de", cap=16, seed=3)
    assert a == b
    idx = [i for i, _ in a]
    assert len(idx) == 16
    assert idx == sorted(idx)
    assert len(set(idx)) == 16
    assert all(0 <= i < 1080 for i in idx)
    c = enumerate_configs("vanilla_de", cap=16, seed=4)
    assert [i for i, _ in c] != idx


def test_enumerate_indices_stable_under_cap():
    # a config's index refers to the full enumeration, not the subset
    for i, cfg in enumerate_configs("samr_ga", cap=10, seed=0):
        assert config_at("samr_ga", i) == cfg


def test_enumerate_uncapped():
    assert len(enumerate_configs("vanilla_de", cap=None)) == 1080


def test_random_search_single_empty_config():
    assert enumerate_configs("random_search") == [(0, {})]


def test_validate_config_passes_grid_members():
    for optimizer in GRIDS:
        cfg = config_at(optimizer, grid_size(optimizer) // 2)
        validate_config(optimizer, cfg)


def test_validate_config_rejects():
    with pytest.raises(KeyError):
        validate_config("nope", {})
    with pytest.raises(ValueError):
        validate_config("deap_de", {"NP": 10, "F": 0.1})  # missing Cr
    with pytest.raises(ValueError):
        validate_config("deap_de", {"NP": 10, "F": 0.1, "Cr": 0.1, "x": 1})
    with pytest.raises(ValueError):
        validate_config("deap_de", {"NP": 10, "F": 0.2, "Cr": 0.1})  # off-grid


def test_vanilla_de_dimensions():
    g = GRIDS["vanilla_de"]
    assert len(g["mutation"]) == 6
    assert len(g["bound"]) == 4
    assert 5 * 3 * 3 * 6 * 4 == 1080


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GRIDS)), st.data())
def test_config_at_round_trip(optimizer, data):
    total = grid_size(optimizer)
    idx = data.draw(st.integers(min_value=0, max_value=total - 1))
    cfg = config_at(optimizer, idx)
    validate_config(optimizer, cfg)
    # decode-encode: position of cfg in declared product order equals idx
    names = list(GRIDS[optimizer])
    pos = 0
    for name in names:
        values = GRIDS[optimizer][name]
        pos = pos * len(values) + values.index(cfg[name])
    assert pos == idx
