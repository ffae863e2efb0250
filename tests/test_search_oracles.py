"""The exact searches against their bit-row references in ``oracles``: the
same results, the same vertex orders and the same branch-and-bound node
counts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim.graph import Graph, gen_gnp
from presdim.metric import FiniteMetric, PointSet, packing_number
from presdim.partition import SearchBudgetExceeded, clique_cover, clique_number, independence_number
from presdim.preserve import alpha2_feasible

from oracles import (
    alpha2_feasible_oracle,
    clique_cover_oracle,
    independence_nodes_oracle,
    max_clique_nodes_oracle,
    packing_number_oracle,
    random_graph,
)

GNP_GRID = [(n, p, seed) for n in (30, 60, 100, 150) for p in (0.1, 0.3, 0.5) for seed in range(3)]
# Independence numbers of G(150, 0.1) (about 36) take some 10 s per search run
# and three runs per graph; they pass, but would make this file the slowest in
# the suite by far.
SPARSE_150 = [(150, 0.1, seed) for seed in range(3)]


def _assert_smallest_budget(search, g, oracle):
    """``search`` finishes with the oracle's node count as its budget and
    runs out one node below it."""
    size, nodes = oracle(g)
    assert search(g, budget=nodes) == size
    with pytest.raises(SearchBudgetExceeded):
        search(g, budget=nodes - 1)


@pytest.mark.parametrize("n, p, seed", GNP_GRID)
def test_clique_number_needs_the_reference_budget(n, p, seed):
    _assert_smallest_budget(clique_number, gen_gnp(n, p, seed), max_clique_nodes_oracle)


@pytest.mark.parametrize("n, p, seed", [c for c in GNP_GRID if c not in SPARSE_150])
def test_independence_number_needs_the_reference_budget(n, p, seed):
    _assert_smallest_budget(independence_number, gen_gnp(n, p, seed), independence_nodes_oracle)


def test_exact_clique_cover_matches_reference():
    rng = np.random.default_rng(10)
    for trial in range(40):
        n = int(rng.integers(0, 21))
        g = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        assert clique_cover(g, mode="exact").blocks == clique_cover_oracle(g), trial


def test_exact_packing_number_matches_reference():
    rng = np.random.default_rng(11)
    for trial in range(30):
        k = int(rng.integers(1, 23))
        m = FiniteMetric(PointSet(rng.normal(size=(k + 3, 2))).distance_matrix())
        subset = sorted(rng.choice(k + 3, size=k, replace=False).tolist())
        eps = float(rng.uniform(0.2, 2.0))
        want = packing_number_oracle(m.dist, subset, eps)
        assert packing_number(m, subset, eps, mode="exact") == want, trial


def _components_are_cliques(g: Graph) -> bool:
    for s in range(g.n):
        comp, frontier = {s}, [s]
        while frontier:
            frontier = [w for v in frontier for w in range(g.n) if g.has_edge(v, w) and w not in comp]
            comp.update(frontier)
        if any(not g.has_edge(u, v) for u, v in itertools.combinations(sorted(comp), 2)):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_alpha2_feasible_iff_components_are_cliques(n, p, seed):
    g = random_graph(n, p, np.random.default_rng(seed))
    assert alpha2_feasible(g) == _components_are_cliques(g) == alpha2_feasible_oracle(g)
