import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim.graph import from_edge_list, gen_gnp, gen_named
from presdim.partition import (
    SearchBudgetExceeded,
    _dsatur_greedy,
    _greedy_clique_mask,
    clique_cover,
    clique_number,
    format_partition,
    greedy_clique,
    independence_number,
    max_clique,
    neighborhood_class_count,
    neighborhood_partition,
)

from oracles import (
    _greedy_clique_rows,
    clique_cover_oracle,
    coloring_nodes_oracle,
    complement_graph_oracle,
    dsatur_greedy_oracle,
    is_clique,
    max_clique_brute,
    max_independent_brute,
    min_clique_cover_brute,
    neighborhood_classes_brute,
    random_graph,
)


def _assert_valid_clique_partition(g, part):
    seen = set()
    for block in part.blocks:
        assert block, "empty block"
        assert is_clique(g, list(block))
        seen.update(block)
    assert seen == set(range(g.n))


def test_clique_cover_examples():
    assert clique_cover(gen_named("complete", 7)).size == 1
    assert clique_cover(gen_named("empty", 6)).size == 6
    assert clique_cover(gen_named("cycle", 5)).size == 3
    assert clique_cover(gen_named("star", 5)).size == 4


def test_clique_cover_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        part = clique_cover(g, mode="exact")
        _assert_valid_clique_partition(g, part)
        assert part.size == min_clique_cover_brute(g)


def test_greedy_cover_is_valid_and_no_smaller():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        g = random_graph(n, 0.5, rng)
        greedy = clique_cover(g, mode="greedy")
        _assert_valid_clique_partition(g, greedy)
        assert greedy.size >= clique_cover(g, mode="exact").size


def test_exact_cover_size_limit():
    g = gen_gnp(25, 0.5, 1)
    with pytest.raises(ValueError):
        clique_cover(g, mode="exact")
    assert clique_cover(g, mode="exact", limit=25).size >= 1


def test_neighborhood_partition_examples():
    assert neighborhood_partition(gen_named("complete", 6)).size == 1
    assert neighborhood_partition(gen_named("empty", 5)).size == 5
    two_k5 = from_edge_list(
        10,
        [(u, v) for u in range(5) for v in range(u + 1, 5)]
        + [(5 + u, 5 + v) for u in range(5) for v in range(u + 1, 5)],
    )
    assert neighborhood_partition(two_k5).size == 2


def test_neighborhood_partition_matches_brute():
    rng = np.random.default_rng(303)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        g = random_graph(n, 0.5, rng)
        assert neighborhood_partition(g).size == neighborhood_classes_brute(g)
        subset = [v for v in range(n) if rng.random() < 0.6]
        assert neighborhood_class_count(g, subset) == neighborhood_classes_brute(g, subset)


def test_clique_number_examples():
    assert clique_number(gen_named("complete", 7)) == 7
    assert clique_number(gen_named("cycle", 5)) == 2
    assert clique_number(gen_named("two_cliques_matched", 10)) == 5


def test_clique_and_independence_match_brute():
    rng = np.random.default_rng(404)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        g = random_graph(n, 0.5, rng)
        assert clique_number(g) == max_clique_brute(g)
        assert independence_number(g) == max_independent_brute(g)
        assert clique_number(g, mode="greedy") <= clique_number(g)


def test_max_clique_returns_a_clique():
    rng = np.random.default_rng(505)
    for _ in range(10):
        g = random_graph(14, 0.6, rng)
        members = max_clique(g)
        assert is_clique(g, members)
        assert set(greedy_clique(g)) <= set(range(g.n))


def test_independence_examples():
    assert independence_number(gen_named("empty", 9)) == 9
    assert independence_number(gen_named("complete", 9)) == 1
    assert independence_number(gen_named("cycle", 6)) == 3


def test_budget_exhaustion_raises():
    g = gen_gnp(30, 0.5, 3)
    with pytest.raises(SearchBudgetExceeded):
        clique_number(g, budget=3)


def test_cover_lower_bound_relation():
    # |P(G)| >= max(independence number, n / clique number)
    rng = np.random.default_rng(606)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        g = random_graph(n, 0.5, rng)
        p = clique_cover(g).size
        assert p >= max_independent_brute(g)
        assert p >= n / max_clique_brute(g)


def test_partition_sizes_monotone_under_subsets():
    rng = np.random.default_rng(707)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        g = random_graph(n, 0.5, rng)
        big = [v for v in range(n) if rng.random() < 0.8]
        small = [v for v in big if rng.random() < 0.7]
        if len(small) < 1 or len(big) < 1:
            continue
        assert clique_cover(g.induced(small)).size <= clique_cover(g.induced(big)).size
        assert neighborhood_class_count(g, small) <= neighborhood_class_count(g, big)


def test_cover_no_larger_than_class_count():
    rng = np.random.default_rng(808)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        g = random_graph(n, 0.5, rng)
        assert clique_cover(g).size <= neighborhood_partition(g).size


def test_format_partition():
    text = format_partition(clique_cover(gen_named("empty", 3)))
    assert text.splitlines() == ["block_0: 0", "block_1: 1", "block_2: 2"]


@st.composite
def graphs_and_masks(draw):
    """A random graph and a random vertex mask of it."""
    n = draw(st.integers(0, 40))
    p = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.85, 1.0)))  # dense graphs tie at the top degree
    g = random_graph(n, p, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return g, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=300, deadline=None)
@given(graphs_and_masks())
def test_greedy_clique_mask_equals_the_full_scan(case):
    g, mask = case
    assert _greedy_clique_mask(g.rows, mask) == _greedy_clique_rows(g.rows, mask)


@settings(max_examples=300, deadline=None)
@given(graphs_and_masks())
def test_dsatur_colors_equal_the_per_vertex_loop(case):
    g, mask = case
    vertices = [v for v in range(g.n) if (mask >> v) & 1]
    sub = g.induced(vertices)
    want = dsatur_greedy_oracle(sub.rows)
    # on the parent's rows read inside the mask, and on the induced rows
    assert [_dsatur_greedy(g.rows, mask)[v] for v in vertices] == want
    assert _dsatur_greedy(sub.rows, (1 << sub.n) - 1) == want


def test_exact_clique_cover_needs_the_reference_budget():
    rng = np.random.default_rng(12)
    searched = 0
    for trial in range(60):
        g = random_graph(int(rng.integers(8, 21)), float(rng.uniform(0.3, 0.7)), rng)
        nodes = coloring_nodes_oracle(complement_graph_oracle(g).rows)[1]
        assert clique_cover(g, mode="exact", budget=nodes).blocks == clique_cover_oracle(g), trial
        if nodes:
            searched += 1
            with pytest.raises(SearchBudgetExceeded):
                clique_cover(g, mode="exact", budget=nodes - 1)
    assert searched >= 20
