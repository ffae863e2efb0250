"""The matrix-based builders against their first pair-by-pair versions in
``oracles``: outputs must be byte-identical, not merely close."""

import math

import numpy as np
import pytest

from presdim.construct import (
    frechet_quotient_embedding,
    grid_packing_linf,
    pseudo_metric_embedding,
    result_to_json,
)
from presdim.graph import (
    NAMED_FAMILIES,
    connected_components,
    gen_gnp,
    gen_named,
    quotient_by_neighborhood,
)

from oracles import frechet_quotient_oracle, grid_packing_oracle, pseudo_metric_oracle


def _named_graphs():
    for family in NAMED_FAMILIES:
        for n in (4, 6, 10):
            try:
                yield f"{family}{n}", gen_named(family, n)
            except ValueError:
                pass


def _random_graphs():
    for n in (1, 2, 5, 13, 30, 60):
        for p in (0.0, 0.05, 0.3, 0.5, 1.0):
            for seed in (0, 1):
                yield f"gnp({n},{p})#{seed}", gen_gnp(n, p, seed)


GRAPHS = list(_named_graphs()) + list(_random_graphs())


def test_graph_cases_cover_connected_and_disconnected_quotients():
    spans = {len(connected_components(quotient_by_neighborhood(g))) > 1 for _, g in GRAPHS}
    assert spans == {True, False}


@pytest.mark.parametrize("alpha", [1.0, 1.01, 1.5, 1.9])
def test_pseudo_metric_matches_pair_loop(alpha):
    for name, g in GRAPHS:
        got = result_to_json(pseudo_metric_embedding(g, alpha))
        assert got == result_to_json(pseudo_metric_oracle(g, alpha)), name


def test_frechet_quotient_matches_coordinate_loop():
    for name, g in GRAPHS:
        got = result_to_json(frechet_quotient_embedding(g))
        assert got == result_to_json(frechet_quotient_oracle(g)), name


@pytest.mark.parametrize(
    "r, eps", [(1.0, 0.3), (1.0, 0.01), (0.7, 0.45), (1.0, 0.999), (0.9, 1e-5), (1.0, 1e-30)]
)
def test_grid_packing_matches_digit_loop(r, eps):
    for n in range(1, 200):
        got = grid_packing_linf(n, r, eps)
        assert got.norm == math.inf
        assert np.array_equal(got.points, grid_packing_oracle(n, r, eps)), n
        assert got.points.dtype == np.float64
