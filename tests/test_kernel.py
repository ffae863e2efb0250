"""The matrix kernel of ``presdim.graph`` (``Graph.matrix``, the generators,
``induced``, ``diameter``, ``all_pairs_distances``, the BFS layers and
``digest``) against the bit-by-bit oracles."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from presdim.graph import (
    GenerationError,
    Graph,
    all_pairs_distances,
    ball_matrices,
    bfs_distances,
    connected_components,
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
    from_edge_list_oracle,
    gnp_oracle,
    graph_error_oracle,
    induced_oracle,
    kregular_oracle,
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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.data())
def test_from_edge_list_matches_the_edge_loop(n, data):
    """Rows, and the message of the first bad edge, equal the per-edge loop's,
    for pair lists and for the (k, 2) arrays ``read_edge_list`` passes."""
    edges = data.draw(st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=20))
    for given_edges in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
        try:
            want = from_edge_list_oracle(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                from_edge_list(n, given_edges)
            assert str(err.value) == str(exc)
        else:
            assert from_edge_list(n, given_edges).rows == want


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


@pytest.mark.parametrize("g", [gen_gnp(6, 0.5, 1), gen_planted_partition([3, 4], 0.8, 0.2, 5), gen_gnp(0, 0.5, 0)])
def test_pickle_round_trip_keeps_the_matrix_read_only(g):
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g) and back.blocks == g.blocks
    assert not back.matrix.flags.writeable
    with pytest.raises(ValueError):
        back.matrix[..., :1] = True


@pytest.mark.parametrize("k", [6, 8])
def test_kregular_finishes_for_large_degree(k):
    for seed in range(10):
        g = gen_kregular(100, k, seed)
        assert g.degrees() == [k] * 100
        assert g.rows == gen_kregular(100, k, seed).rows


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3))
def test_graph_of_rejects_bad_matrices_with_the_scan_messages(g, flips):
    """The matrix entry point accepts or rejects an adjacency in matrix form
    exactly as the row scan does in row form, with the same message."""
    a = g.matrix.copy()
    for u, v in flips:
        if u < g.n and v < g.n:
            a[u, v] ^= True
    rows = tuple(sum(1 << int(v) for v in np.flatnonzero(row)) for row in a)
    message = graph_error_oracle(g.n, rows)
    if message is None:
        assert Graph.of(a) == Graph(g.n, rows)
    else:
        with pytest.raises(ValueError) as err:
            Graph.of(a)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "a",
    [np.zeros((2, 3), dtype=bool), np.zeros(3, dtype=bool), np.zeros((3, 3), dtype=np.int8), np.eye(2)],
    ids=["non-square", "one-dimensional", "integer", "float"],
)
def test_graph_of_rejects_arrays_that_are_no_adjacency(a):
    with pytest.raises(ValueError, match="adjacency must be a square boolean matrix"):
        Graph.of(a)


def test_graph_of_takes_blocks_and_checks_their_length():
    a = gen_named("path", 4).matrix
    assert Graph.of(a, blocks=(0, 0, 1, 1)).blocks == (0, 0, 1, 1)
    for blocks in [(0, 0, 1), ()]:
        with pytest.raises(ValueError, match="blocks must label every vertex"):
            Graph.of(a, blocks=blocks)
    with pytest.raises(ValueError, match="blocks must label every vertex"):
        Graph(4, gen_named("path", 4).rows, blocks=(0,))


def test_graph_of_freezes_the_matrix_and_derives_the_rows():
    a = np.zeros((3, 3), dtype=bool)
    a[0, 2] = a[2, 0] = True
    g = Graph.of(a)
    assert g.matrix is a and not a.flags.writeable
    assert "rows" not in vars(g)
    assert g.rows == (0b100, 0, 0b001) and g.rows is g.rows
    assert g == Graph(3, (0b100, 0, 0b001)) and hash(g) == hash(Graph(3, (0b100, 0, 0b001)))
    assert g != Graph.of(a, blocks=(0, 0, 0)) and g != "graph"
    with pytest.raises(AttributeError):
        g.n = 4


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(min_n=1), unions()), st.data())
def test_bfs_distances_and_components_match_the_oracle(g, data):
    """BFS distances equal a row of scipy's distances, and the components are
    the classes of finite distance, each sorted, ordered by minimum."""
    dist = distances_oracle(g)
    src = data.draw(st.integers(0, g.n - 1))
    assert bfs_distances(g, src) == dist[src].tolist()
    comps = {tuple(np.flatnonzero(np.isfinite(row)).tolist()) for row in dist}
    assert connected_components(g) == sorted(map(list, comps))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(0, 5), st.integers(0, 10**6), st.sampled_from([1, 2, 1000]))
def test_kregular_rows_equal_the_pair_loops(n, k, seed, restarts):
    """Pairing-model restarts and the Steger–Wormald fallback (reached with
    few restarts) give the rows of the per-pair loops on the same stream."""
    assume(k < n and n * k % 2 == 0)
    want = kregular_oracle(n, k, seed, restarts)
    if want is None:
        with pytest.raises(GenerationError):
            gen_kregular(n, k, seed, restarts)
    else:
        assert gen_kregular(n, k, seed, restarts).rows == want


@pytest.mark.parametrize(
    "n, rows, message",
    [
        (3, (0, -1, 0), "row 1 references vertices >= n"),
        (3, (0, -(1 << 70), 1 << 9), "row 1 references vertices >= n"),
        (3, (0b001, 1 << 70, 0), "self-loop at vertex 0"),
        (3, (1 << 3 | 1, 0, 0), "row 0 references vertices >= n"),
        (0, (), None),
    ],
)
def test_graph_rows_are_checked_in_scan_order(n, rows, message):
    """Negative and overlong rows: the first bad row wins, and within a row
    the range error comes before the self-loop."""
    assert graph_error_oracle(n, rows) == message
    if message is None:
        assert Graph(n, rows).matrix.shape == (n, n)
    else:
        with pytest.raises(ValueError) as err:
            Graph(n, rows)
        assert str(err.value) == message
