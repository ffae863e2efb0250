"""The matrix kernel of ``presdim.graph`` (``Graph.matrix``, the generators,
``induced``, ``diameter``, ``all_pairs_distances`` and ``digest``) against
the bit-by-bit oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from presdim.graph import (
    Graph,
    all_pairs_distances,
    ball_matrices,
    diameter,
    from_edge_list,
    gen_gnp,
    gen_kregular,
    gen_planted_partition,
    gen_named,
)

from oracles import (
    diameter_oracle,
    digest_oracle,
    distances_oracle,
    gnp_oracle,
    graph_error_oracle,
    induced_oracle,
    planted_oracle,
)

LEVELS = (0.0, 0.1, 0.5, 1.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 60, 600])
def test_gnp_rows_equal_the_double_loop(n):
    for p in LEVELS:
        assert gen_gnp(n, p, 1000 + n).rows == gnp_oracle(n, p, 1000 + n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 60, 600])
def test_planted_rows_equal_the_double_loop(n):
    sizes = [s for s in (n // 3, n // 3, n - 2 * (n // 3)) if s]
    for p, q in itertools.product(LEVELS, LEVELS):
        if q <= p:
            g = gen_planted_partition(sizes, p, q, 7 + n)
            assert g.rows == planted_oracle(sizes, p, q, 7 + n), (p, q)


@st.composite
def graphs(draw, min_n=0, max_n=24):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6, 1.0)))
    return gen_gnp(n, p, draw(st.integers(0, 2**32 - 1)))


@st.composite
def unions(draw):
    """Disjoint unions of paths, cycles and stars, relabeled at random."""
    parts = draw(st.lists(st.tuples(st.sampled_from(("path", "cycle", "star")), st.integers(1, 12)),
                          min_size=1, max_size=4))
    edges, n = [], 0
    for family, size in parts:
        if family == "cycle":
            size = max(size, 3)
        edges += [(n + u, n + v) for u, v in gen_named(family, size).edges()]
        n += size
    perm = draw(st.permutations(range(n)))
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(min_n=1), unions()))
def test_diameter_matches_oracle_with_its_type(g):
    got, want = diameter(g), diameter_oracle(g)
    assert got == want
    assert type(got) is (int if g.n > 1 and math.isfinite(want) else float)


@settings(max_examples=150, deadline=None)
@given(st.one_of(unions(), graphs(min_n=1)))
def test_all_pairs_distances_match_scipy(g):
    assert np.array_equal(all_pairs_distances(g), distances_oracle(g))


def test_long_paths_and_cycles():
    for family, n in (("path", 300), ("cycle", 257), ("star", 200)):
        g = gen_named(family, n)
        assert diameter(g) == diameter_oracle(g)
        assert np.array_equal(all_pairs_distances(g), distances_oracle(g))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_ball_matrices_hold_the_hop_balls(g, data):
    radius = data.draw(st.integers(1, 4))
    dist = distances_oracle(g) if g.n else np.zeros((0, 0))
    for r, ball in enumerate(ball_matrices(g, radius), start=1):
        assert np.array_equal(ball, dist <= r)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_induced_matches_brute_force(g, data):
    vertices = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), unique=True, max_size=g.n))
    sub = g.induced(vertices)
    assert sub.rows == induced_oracle(g, vertices)
    assert np.array_equal(sub.matrix, g.matrix[np.ix_(vertices, vertices)])


def test_induced_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate vertices in induced subset"):
        gen_named("path", 4).induced([0, 1, 1])


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3))
def test_graph_rejects_bad_rows_with_the_scan_messages(g, flips):
    rows = list(g.rows)
    for u, v in flips:
        if u < g.n:
            rows[u] ^= 1 << v
    message = graph_error_oracle(g.n, rows)
    if message is None:
        built = Graph(g.n, tuple(rows))
        expected = np.array([[(row >> v) & 1 for v in range(g.n)] for row in rows], dtype=bool)
        assert np.array_equal(built.matrix, expected.reshape(g.n, g.n))
    else:
        with pytest.raises(ValueError) as err:
            Graph(g.n, tuple(rows))
        assert str(err.value) == message


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(), unions()))
@example(gen_gnp(0, 0.5, 0))
@example(gen_gnp(1, 0.5, 0))
@example(gen_gnp(300, 0.3, 5))
def test_digest_equals_the_per_edge_hash(g):
    assert g.digest() == digest_oracle(g)


def test_matrix_is_read_only():
    g = gen_named("cycle", 5)
    with pytest.raises(ValueError):
        g.matrix[0, 2] = True


@pytest.mark.parametrize("k", [6, 8])
def test_kregular_finishes_for_large_degree(k):
    for seed in range(10):
        g = gen_kregular(100, k, seed)
        assert g.degrees() == [k] * 100
        assert g.rows == gen_kregular(100, k, seed).rows
