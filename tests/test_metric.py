import math
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from presdim import graph, metric
from presdim.graph import from_edge_list, gen_gnp, gen_named
from presdim.construct import shortest_path_metric
from presdim.preserve import check
from presdim.metric import (
    FiniteMetric,
    PointSet,
    covering_number,
    doubling_dimension,
    induced_metric,
    packing_number,
    read_metric,
    read_points,
    validate_metric,
    write_metric,
    write_points,
)

from oracles import (
    covering_number_brute,
    covering_number_greedy_seed,
    distance_matrix_oracle,
    doubling_dimension_brute,
    doubling_dimension_greedy_seed,
    packing_number_brute,
)


def _uniform(n):
    return FiniteMetric(np.ones((n, n)) - np.eye(n))


def _line(coords):
    return induced_metric(PointSet(np.array(coords, dtype=float)[:, None], norm=2.0))


def _random_points(rng, n, d=2):
    return PointSet(rng.random((n, d)), norm=2.0)


def test_induced_metric_examples():
    collinear = _line([0.0, 1.0, 2.0])
    assert collinear.dist[0, 2] == 2.0
    simplex = induced_metric(PointSet(np.eye(4), norm=2.0))
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(simplex.dist[off], math.sqrt(2))
    corner = induced_metric(PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]), norm=math.inf))
    assert corner.dist[0, 1] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 140),
    dim=st.integers(0, 120),
    norm=st.sampled_from([1.0, 2.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
    span=st.integers(0, 40),
)
@example(n=0, dim=3, norm=math.inf, seed=0, span=0)
@example(n=1, dim=5, norm=2.0, seed=0, span=10)
@example(n=7, dim=0, norm=1.0, seed=0, span=0)
# a row of 130 * 100 entries fills most of a block: one-row blocks, then
# taller ones as the upper triangle narrows, the last cut short by n
@example(n=130, dim=100, norm=1.0, seed=1, span=40)
@example(n=130, dim=100, norm=2.0, seed=2, span=40)
@example(n=130, dim=100, norm=math.inf, seed=3, span=40)
def test_distance_matrix_matches_unblocked_oracle(n, dim, norm, seed, span):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-span, span + 1, size=(n, dim))
    pts = rng.standard_normal((n, dim)) * scale
    got = PointSet(pts, norm=norm).distance_matrix()
    assert np.array_equal(got, distance_matrix_oracle(pts, norm))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 40),
    dim=st.integers(0, 12),
    entries=st.integers(1, 200),
    norm=st.sampled_from([1.0, 2.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, dim=4, entries=1, norm=1.0, seed=0)
@example(n=1, dim=3, entries=1, norm=2.0, seed=0)
@example(n=2, dim=1, entries=1, norm=math.inf, seed=0)
@example(n=9, dim=0, entries=5, norm=2.0, seed=0)
# blocks of 150 entries: 2, 3, 4 and 6 rows as the columns shrink, then a last
# block cut short at 6 of its 12 rows
@example(n=37, dim=2, entries=150, norm=1.0, seed=1)
def test_distance_matrix_blocks_match_unblocked_oracle(n, dim, entries, norm, seed):
    """Upper-triangle blocks of any size, including one row and a last
    partial block, give the unblocked broadcast bit for bit."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-20, 21, size=(n, dim))
    with mock.patch.object(graph, "_BLOCK_ENTRIES", entries):
        got = PointSet(pts, norm=norm).distance_matrix()
    assert np.array_equal(got, distance_matrix_oracle(pts, norm))


@pytest.mark.parametrize("norm", [1.0, math.inf])
def test_large_finite_distances_do_not_overflow(norm):
    """d(0, 1) = 1e308 is finite; symmetrising by 0.5 * (d + d.T) overflowed it
    to inf and gave alpha_max 0. The l2 kernel still overflows in diff * diff
    above about 1e154, which is its own expression, so l2 is not covered."""
    g = from_edge_list(3, [(0, 1)])
    pts = PointSet(np.array([[0.0], [1e308], [5e307]]), norm=norm)
    d = pts.distance_matrix()
    assert d[0, 1] == d[1, 0] == 1e308
    cert = check(g, pts, 0.4)
    assert cert.passed and cert.max_neighbor == 1e308 and cert.alpha_max == 0.5
    assert not check(g, pts, 0.6).passed


def test_distance_matrix_memory_is_bounded():
    pts = np.random.default_rng(11).random((300, 299))
    tracemalloc.start()
    try:
        PointSet(pts, norm=math.inf).distance_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_covering_examples():
    assert covering_number(_uniform(5), None, 0.5) == 5
    assert covering_number(_uniform(5), None, 1.5) == 1
    assert covering_number(_line([0, 1, 2, 3]), None, 1.1) == 2


def test_packing_examples():
    assert packing_number(_uniform(5), None, 1.0) == 5
    assert packing_number(_line([0, 1, 2, 3]), None, 2.0) == 2
    m = _line([0, 0.3, 1.1, 2.0, 5.0])
    assert packing_number(m, None, 1e-12) == 5


def test_covering_and_packing_match_brute():
    rng = np.random.default_rng(14)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        m = induced_metric(_random_points(rng, n))
        eps = float(rng.uniform(0.05, 0.9))
        assert covering_number(m, None, eps) == covering_number_brute(m.dist, range(n), eps)
        assert packing_number(m, None, eps) == packing_number_brute(m.dist, range(n), eps)
        sub = [i for i in range(n) if rng.random() < 0.7]
        if sub:
            assert covering_number(m, sub, eps) == covering_number_brute(m.dist, sub, eps)


def test_greedy_modes_bound_exact():
    rng = np.random.default_rng(15)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        m = induced_metric(_random_points(rng, n))
        eps = float(rng.uniform(0.05, 0.8))
        assert covering_number(m, None, eps, mode="greedy") >= covering_number(m, None, eps)
        assert packing_number(m, None, eps, mode="greedy") <= packing_number(m, None, eps)


def test_packing_covering_sandwich():
    # packing(2 eps) <= covering(eps) <= packing(eps)
    rng = np.random.default_rng(16)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        m = induced_metric(_random_points(rng, n))
        eps = float(rng.uniform(0.05, 0.6))
        cover = covering_number(m, None, eps)
        assert packing_number(m, None, 2 * eps) <= cover <= packing_number(m, None, eps)


def test_exact_mode_limits():
    m = _uniform(25)
    with pytest.raises(ValueError):
        covering_number(m, None, 0.5, mode="exact")
    with pytest.raises(ValueError):
        packing_number(m, None, 0.5, mode="exact")
    with pytest.raises(ValueError):
        doubling_dimension(_uniform(16), mode="exact")


def test_doubling_examples():
    assert doubling_dimension(FiniteMetric(np.zeros((1, 1)))) == 0
    assert doubling_dimension(_uniform(4)) == 2
    for n in (2, 5, 9, 14):
        assert doubling_dimension(_uniform(n)) <= math.ceil(math.log2(n))


def test_doubling_matches_brute():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = induced_metric(_random_points(rng, n))
        assert doubling_dimension(m) == doubling_dimension_brute(m.dist)


def test_doubling_greedy_upper_bounds_exact():
    rng = np.random.default_rng(18)
    for _ in range(8):
        m = induced_metric(_random_points(rng, 9))
        assert doubling_dimension(m, mode="greedy") >= doubling_dimension(m)


@st.composite
def tied_metrics(draw):
    """Distance matrices with many ties on at most 8 points: the integer
    shortest-path metric of a small G(n, p), or a pseudo-metric pulled back
    from one along a map with repeats (off-diagonal zeros)."""
    n = draw(st.integers(1, 8))
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.9)))
    d = shortest_path_metric(gen_gnp(n, p, draw(st.integers(0, 2**32 - 1)))).target.dist
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        d = d[np.ix_(labels, labels)]
    return d


@settings(max_examples=200, deadline=None)
@given(tied_metrics())
def test_doubling_on_tied_metrics_matches_oracles(d):
    m = FiniteMetric(d, pseudo=True)
    assert doubling_dimension(m) == doubling_dimension_brute(d)
    assert doubling_dimension(m, mode="greedy") == doubling_dimension_greedy_seed(d)


@settings(max_examples=200, deadline=None)
@given(tied_metrics(), st.data())
def test_covering_and_packing_on_tied_metrics_with_unsorted_repeats(d, data):
    m = FiniteMetric(d, pseudo=True)
    sub = data.draw(st.lists(st.integers(0, len(d) - 1), max_size=10))
    eps = data.draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)))
    assert covering_number(m, sub, eps) == covering_number_brute(d, sub, eps)
    assert covering_number(m, sub, eps, mode="greedy") == covering_number_greedy_seed(d, sub, eps)
    assert packing_number(m, sub, eps) == packing_number_brute(d, sub, eps)


def _scan_work(monkeypatch, m, mode):
    """Run ``doubling_dimension`` with counters on the mask builder and the
    cover routine; returns the built masks and the covers solved, each as a
    hashable key, and the largest cover cache seen."""
    built, solved, cached = [], [], [0]
    row_masks = metric._row_masks
    name = "_min_cover" if mode == "exact" else "_greedy_cover"
    solve = getattr(metric, name)

    def counting_row_masks(a):
        built.append(hash(a.tobytes()))
        return row_masks(a)

    def counting_solve(universe, sets):
        solved.append((universe, hash(tuple(sets))))
        # the scan's cover cache, read from the calling frame
        cached[0] = max(cached[0], len(sys._getframe(1).f_locals["covers"]))
        return solve(universe, sets)

    monkeypatch.setattr(metric, "_row_masks", counting_row_masks)
    monkeypatch.setattr(metric, name, counting_solve)
    doubling_dimension(m, mode=mode, limit=m.n)
    return built, solved, cached[0]


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize(
    "m",
    [_uniform(12), induced_metric(PointSet(np.random.default_rng(20).standard_normal((20, 3))))],
    ids=["uniform12", "gauss20"],
)
def test_doubling_builds_each_class_once_and_covers_each_ball_once(monkeypatch, m, mode):
    d = m.dist
    positive = sorted({float(x) for x in d[np.triu_indices(m.n, k=1)] if x > 0})
    radii = [t for r in positive for t in (r, r * (1 + 1e-9))]
    balls = {hash((d < r).tobytes()) for r in radii}
    halves = {hash((d < r / 2).tobytes()) for r in radii}
    built, solved, cached = _scan_work(monkeypatch, m, mode)
    assert solved
    for key, count in Counter(built).items():
        assert count <= (key in balls) + (key in halves)
    assert len(set(solved)) == len(solved)
    assert cached <= 2 * m.n


def test_greedy_doubling_caches_o_n_covers(monkeypatch):
    m = induced_metric(PointSet(np.random.default_rng(60).standard_normal((60, 3))))
    built, solved, cached = _scan_work(monkeypatch, m, "greedy")
    assert len(set(solved)) == len(solved)
    assert 0 < cached <= 2 * m.n


def test_covering_growth_against_estimate():
    # covering(B_R(x), eps) <= (2R/eps)^(2 d) for the estimated dimension d
    rng = np.random.default_rng(19)
    for _ in range(8):
        n = int(rng.integers(3, 10))
        m = induced_metric(_random_points(rng, n))
        d_est = doubling_dimension(m)
        for _ in range(5):
            x = int(rng.integers(0, n))
            big_r = float(rng.uniform(0.2, 1.2))
            eps = float(rng.uniform(0.05, big_r * 0.99))
            ball = [i for i in range(n) if m.dist[x, i] < big_r]
            cover = covering_number(m, ball, eps)
            assert cover <= (2 * big_r / eps) ** (2 * d_est) + 1e-9


def test_validate_metric():
    g = gen_gnp(10, 0.6, 4)
    spm = shortest_path_metric(g)
    assert validate_metric(spm.target) is None

    bad = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
    violation = validate_metric(FiniteMetric(bad))
    assert violation is not None and violation.axiom == "triangle"
    assert violation.witness == (0, 1, 2)

    kissing = np.array([[0, 0.0], [0.0, 0]])
    violation = validate_metric(FiniteMetric(kissing, pseudo=False))
    assert violation is not None and violation.axiom == "identity"
    assert validate_metric(FiniteMetric(kissing, pseudo=True)) is None

    asym = np.array([[0, 1.0], [2.0, 0]])
    assert validate_metric(FiniteMetric(asym)).axiom == "symmetry"


def test_metric_serialization_round_trip(tmp_path):
    m = shortest_path_metric(gen_named("cycle", 5)).target
    path = tmp_path / "m.txt"
    write_metric(m, str(path))
    back = read_metric(str(path))
    assert np.array_equal(back.dist, m.dist)


def test_points_serialization_round_trip(tmp_path):
    p = PointSet(np.array([[0.0, 1.5], [2.0, -0.25]]), norm=math.inf)
    path = tmp_path / "p.txt"
    write_points(p, str(path))
    back = read_points(str(path))
    assert np.array_equal(back.points, p.points) and back.norm == math.inf
