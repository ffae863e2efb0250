import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from presdim import graph, metric
from presdim.graph import from_edge_list, gen_gnp, gen_named
from presdim.construct import pseudo_metric_embedding, shortest_path_metric
from presdim.partition import clique_cover
from presdim.preserve import check
from presdim.metric import (
    METRIC_TOL,
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

import oracles
from oracles import (
    _greedy_cover_seed,
    covering_number_brute,
    covering_number_greedy_seed,
    distance_matrix_oracle,
    doubling_dimension_brute,
    doubling_dimension_class_cached,
    doubling_dimension_greedy_seed,
    packing_number_brute,
    validate_metric_oracle,
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


@pytest.mark.parametrize("count", [covering_number, packing_number])
def test_an_unknown_mode_is_refused_on_empty_input(count):
    with pytest.raises(ValueError, match="^mode must be 'exact' or 'greedy'$"):
        count(FiniteMetric(np.zeros((0, 0))), None, 1.0, mode="bogus")


@pytest.mark.parametrize(
    "search, message",
    [
        (lambda: covering_number(_uniform(23), None, 0.5), "exact covering limited to |subset| <= 22, got 23"),
        (lambda: packing_number(_uniform(23), None, 0.5), "exact packing limited to |subset| <= 22, got 23"),
        (lambda: doubling_dimension(_uniform(15)), "exact doubling limited to n <= 14, got 15"),
        (lambda: clique_cover(gen_named("path", 21)), "exact clique cover limited to n <= 20, got 21"),
    ],
    ids=["covering", "packing", "doubling", "clique-cover"],
)
def test_an_exact_search_over_its_limit_names_the_limit_and_the_size(search, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        search()


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


@st.composite
def gaussian_metrics(draw, max_n):
    """Distances of 1 to ``max_n`` Gaussian points in R^1 to R^3 under l2."""
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return induced_metric(PointSet(rng.standard_normal((n, dim)))).dist


# Ten l2 grid points, two pairs repeated, on which a greedy cover grows when
# its half-radius centers grow inside an unchanged ball: the scan must
# revisit such balls to reach the greedy value 3.
CENTER_GROWTH_RAISES_GREEDY = [
    [4, 4], [4, 4], [2, 1], [2, 3], [0, 0], [4, 0], [0, 1], [1, 0], [2, 1], [1, 4],
]


@st.composite
def near_tied(draw, base):
    """``base`` with some off-diagonal pairs set one to four ulps above a
    positive distance t, and some to half that value: a radius within a
    relative 1e-9 above t whose half-radius is itself a distance, as in
    ``NEAR_TIE_BELOW_A_PERTURBATION``."""
    d = draw(base).copy()
    n = len(d)
    positive = sorted(set(d[d > 0].tolist()))
    if not positive:
        return d
    a = draw(st.sampled_from(positive))
    for _ in range(draw(st.integers(1, 4))):
        a = np.nextafter(a, np.inf)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for value in (a, a / 2):
        for i, j in draw(st.lists(pair, max_size=n)):
            if i != j:
                d[i, j] = d[j, i] = value
    return d


# Five l2 points, d(y+, y-) = 1.0000000000000002 one ulp above the unit
# distances: that radius sorts below 1 * (1 + 1e-9), and its ball around
# the origin, all five points, needs five singleton centers.
NEAR_TIE_BELOW_A_PERTURBATION = induced_metric(
    PointSet(np.array([[0, 0], [1, 0], [-1, 0], [0, 0.5000000000000001], [0, -0.5000000000000001]]))
).dist


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        gaussian_metrics(20), tied_metrics(), near_tied(gaussian_metrics(20)), near_tied(tied_metrics())
    )
)
@example(induced_metric(PointSet(np.array(CENTER_GROWTH_RAISES_GREEDY, dtype=float))).dist)
@example(NEAR_TIE_BELOW_A_PERTURBATION)
def test_greedy_doubling_matches_the_class_cached_scan(d):
    m = FiniteMetric(d, pseudo=True)
    assert doubling_dimension(m, mode="greedy") == doubling_dimension_class_cached(d, "greedy")


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        gaussian_metrics(12), tied_metrics(), near_tied(gaussian_metrics(12)), near_tied(tied_metrics())
    )
)
@example(NEAR_TIE_BELOW_A_PERTURBATION)
def test_exact_doubling_matches_the_class_cached_scan(d):
    m = FiniteMetric(d, pseudo=True)
    assert doubling_dimension(m) == doubling_dimension_class_cached(d, "exact")


def _scan_work(monkeypatch, m, mode):
    """Run ``doubling_dimension`` with every ``_greedy_cover`` and
    ``_min_cover`` call of the scan logged as (routine, ball, centers, cap,
    result); the greedy cover ``_min_cover`` starts from is not logged."""
    calls = []
    greedy, exact = metric._greedy_cover, metric._min_cover
    in_exact = []

    def logged_greedy(universe, sets, cap=None):
        out = greedy(universe, sets, cap)
        if not in_exact:
            calls.append(("greedy", universe, tuple(sets), cap, out))
        return out

    def logged_exact(universe, sets):
        in_exact.append(True)
        out = exact(universe, sets)
        in_exact.pop()
        calls.append(("exact", universe, tuple(sets), None, out))
        return out

    monkeypatch.setattr(metric, "_greedy_cover", logged_greedy)
    monkeypatch.setattr(metric, "_min_cover", logged_exact)
    return doubling_dimension(m, mode=mode, limit=m.n), calls


def _largest_cache(calls):
    """The most covers the scan held at once: it keeps one per ball and
    drops them all when the half-radius class, which the centers identify,
    changes."""
    return max(Counter(c[2] for c in calls if c[0] == "greedy").values())


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize(
    "m",
    [_uniform(12), induced_metric(PointSet(np.random.default_rng(20).standard_normal((20, 3))))],
    ids=["uniform12", "gauss20"],
)
def test_doubling_covers_each_ball_once_and_only_above_the_running_max(monkeypatch, m, mode):
    expected = doubling_dimension_class_cached(m.dist, mode)
    value, calls = _scan_work(monkeypatch, m, mode)
    assert value == expected
    greedy = [c for c in calls if c[0] == "greedy"]
    assert greedy
    # Centers identify the half-radius class: one cover per ball and class.
    keys = [(ball, centers) for _, ball, centers, _, _ in greedy]
    assert len(set(keys)) == len(keys)
    assert _largest_cache(calls) <= 2 * m.n
    running_max = 1
    for k, (name, ball, centers, cap, out) in enumerate(calls):
        if name == "greedy":
            # Capped at the power of two at or above the running maximum,
            # and only on a larger ball.
            assert cap == 1 << (running_max - 1).bit_length() < ball.bit_count()
            if mode == "greedy":
                running_max = max(running_max, out)
        else:
            # Only right after a capped greedy cover of the ball above its cap.
            before = calls[k - 1]
            assert mode == "exact" and before[:3] == ("greedy", ball, centers)
            assert before[4] > before[3]
            running_max = max(running_max, out)
    assert (running_max - 1).bit_length() == value


@pytest.mark.parametrize("mode, greedy, exact", [("greedy", 225, 0), ("exact", 71, 4)])
def test_doubling_work_on_twenty_gaussian_points(monkeypatch, mode, greedy, exact):
    # Cover counts are deterministic, so a change in the scan's work shows
    # here even where wall time cannot resolve it.
    m = induced_metric(PointSet(np.random.default_rng(20).standard_normal((20, 3))))
    value, calls = _scan_work(monkeypatch, m, mode)
    assert value == 4
    names = [c[0] for c in calls]
    assert (names.count("greedy"), names.count("exact")) == (greedy, exact)


@pytest.mark.parametrize("mode, sizes", [("greedy", range(1, 21)), ("exact", range(1, 15))])
def test_doubling_of_a_uniform_space_straddles_the_bucket_edges(mode, sizes):
    # The whole-space ball needs n half-balls, and no ball needs more.
    for n in sizes:
        assert doubling_dimension(_uniform(n), mode=mode) == (n - 1).bit_length()


def test_greedy_doubling_completes_fewer_covers_than_the_class_cached_scan(monkeypatch):
    m = induced_metric(PointSet(np.random.default_rng(60).standard_normal((60, 3))))
    seed_covers = []

    def counting_seed(universe, sets):
        seed_covers.append(universe)
        return _greedy_cover_seed(universe, sets)

    monkeypatch.setattr(oracles, "_greedy_cover_seed", counting_seed)
    expected = doubling_dimension_class_cached(m.dist, "greedy")
    value, calls = _scan_work(monkeypatch, m, "greedy")
    assert value == expected
    # The class-cached scan runs every cover to the end; a capped cover
    # runs to the end only when it exceeds the running maximum.
    completed = [c for c in calls if c[4] > c[3]]
    assert len(calls) < len(seed_covers)
    assert 0 < len(completed) < len(seed_covers)
    assert _largest_cache(calls) <= 2 * m.n


@st.composite
def set_systems(draw):
    """A universe mask over up to 12 points and sets over it in any order,
    with a singleton per point so that every point is covered."""
    n = draw(st.integers(1, 12))
    universe = draw(st.integers(1, 2**n - 1))
    sets = draw(st.lists(st.integers(0, 2**n - 1), max_size=10)) + [1 << i for i in range(n)]
    return universe, draw(st.permutations(sets))


@settings(max_examples=200, deadline=None)
@given(set_systems())
def test_capped_greedy_cover(system):
    universe, sets = system
    full = _greedy_cover_seed(universe, sets)
    assert metric._greedy_cover(universe, sets) == full
    assert metric._greedy_cover(universe, sets, None) == full
    for cap in range(universe.bit_count() + 2):
        out = metric._greedy_cover(universe, sets, cap)
        assert out == full if full > cap else out <= cap


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_covering_number_rejects_an_uncoverable_subset(mode):
    # Point 1 lies in no open 1-ball: its own distance to itself is 5.
    m = FiniteMetric(np.array([[0.0, 2.0], [2.0, 5.0]]))
    with pytest.raises(ValueError, match="subset cannot be covered"):
        covering_number(m, None, 1.0, mode=mode)


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


@st.composite
def distance_matrices(draw):
    """Symmetric matrices on 0..12 points: metrics with a triangle excess
    planted at 0.5, 1 and 2 tolerances, zero off-diagonal entries under both
    identity rules, and asymmetric, NaN and negative entries."""
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from(("uniform", "line", "random")))
    if base == "uniform":
        d = (1.0 - np.eye(n)) * rng.uniform(0.1, 10.0)
    elif base == "line":
        x = rng.uniform(-5.0, 5.0, n)
        d = np.abs(x[:, None] - x[None, :])
    else:
        d = rng.random((n, n))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
    if n >= 3 and draw(st.booleans()):
        i, j, k = rng.choice(n, 3, replace=False)
        d[i, k] = d[k, i] = d[i, j] + d[j, k] + draw(st.sampled_from((0.5, 1.0, 2.0))) * METRIC_TOL
    if n >= 2 and draw(st.booleans()):
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] = d[j, i] = 0.0
    if n >= 1:
        i, j = rng.integers(0, n, 2).tolist()
        fault = draw(st.sampled_from(("none", "asymmetric", "nan", "negative")))
        if fault == "asymmetric":
            d[i, j] += draw(st.sampled_from((0.5, 2.0))) * METRIC_TOL
        elif fault == "nan":
            d[i, j] = math.nan
        elif fault == "negative":
            d[i, j] = d[j, i] = -draw(st.sampled_from((0.5, 2.0, 1e6))) * METRIC_TOL
    return FiniteMetric(d, pseudo=draw(st.booleans()))


def _planted_excess(factor, pseudo=False):
    d = 1.0 - np.eye(4)
    d[0, 2] = d[2, 0] = 2.0 + factor * METRIC_TOL
    return FiniteMetric(d, pseudo=pseudo)


@settings(max_examples=300, deadline=None)
@given(distance_matrices(), st.integers(1, 400))
@example(_planted_excess(0.5), 2**14)
@example(_planted_excess(1.0), 2**14)
@example(_planted_excess(2.0, pseudo=True), 2**14)
def test_validate_metric_matches_the_per_row_oracle(m, entries):
    """Blocks of rows of any size, down to one row and a last partial block,
    give the per-row loop's verdict, witness and detail."""
    with mock.patch.object(graph, "_BLOCK_ENTRIES", entries):
        assert validate_metric(m) == validate_metric_oracle(m)


def _asymmetric_excess():
    """An excess of 1.3 tolerances at (0, 1, 2) that reads d_12; d_21 is
    0.8 tolerances larger, and the same triple through it has no excess."""
    d = 1.0 - np.eye(9)
    d[0, 2] = d[2, 0] = 2.0 + 0.5 * METRIC_TOL
    d[1, 2] = 1.0 - 0.8 * METRIC_TOL
    return FiniteMetric(d)


def _excess_through_a_pseudo_zero():
    """d_01 = 0, so d_02 = 2 exceeds d_01 + d_12 = 1: a violation only
    through the zero class, which holds more than the diagonal."""
    d = 1.0 - np.eye(8)
    d[0, 1] = d[1, 0] = 0.0
    d[0, 2] = d[2, 0] = 2.0
    return FiniteMetric(d, pseudo=True)


@st.composite
def few_valued_matrices(draw):
    """Symmetric matrices on 2..16 points over at most three distances, the
    sizes and value counts at which ``validate_metric`` decides the
    triangle inequality by pairs of distance classes (m^3 <= n^2): with a
    triangle excess planted at 0.5, 1 and 2 tolerances, off-diagonal zeros,
    entries of -METRIC_TOL and -0.0, and asymmetry within the tolerance."""
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)), min_size=1, max_size=3, unique=True))
    d = np.triu(rng.choice(pool, (n, n)), 1)
    d = d + d.T
    if n >= 3 and draw(st.booleans()):
        i, j, k = rng.choice(n, 3, replace=False)
        d[i, k] = d[k, i] = d[i, j] + d[j, k] + draw(st.sampled_from((0.5, 1.0, 2.0))) * METRIC_TOL
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] = d[j, i] = draw(st.sampled_from((0.0, -0.0, -METRIC_TOL)))
    if draw(st.booleans()):
        i = int(rng.integers(0, n))
        d[i, i] = -0.0
    if draw(st.booleans()):
        i, j = rng.choice(n, 2, replace=False)
        d[i, j] += draw(st.sampled_from((-0.8, 0.5, 1.0))) * METRIC_TOL
    return FiniteMetric(d, pseudo=draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(few_valued_matrices())
@example(_asymmetric_excess())
@example(_excess_through_a_pseudo_zero())
def test_validate_metric_by_distance_classes_matches_the_oracle(m):
    assert validate_metric(m) == validate_metric_oracle(m)


@st.composite
def one_asymmetric_pair(draw):
    """Unit distances on 8..20 points with one triple (i, j, k) whose
    d_ik = 2 + e tolerances, and one cell of the triple moved by less than
    the tolerance, so the triple's excess depends on which of that cell's
    two orientations it reads. Four distances at most (m^3 <= n^2) and at
    most four class pairs, so the class check decides every one."""
    n = draw(st.integers(8, 20))
    i, j, k = draw(st.permutations(range(n)))[:3]
    d = 1.0 - np.eye(n)
    d[i, k] = d[k, i] = 2.0 + draw(st.sampled_from((0.0, 0.5, 1.0, 1.5))) * METRIC_TOL
    cell = draw(st.sampled_from(((i, j), (j, i), (j, k), (k, j))))
    d[cell] += draw(st.sampled_from((-0.8, -0.5, 0.5, 0.8))) * METRIC_TOL
    return FiniteMetric(d, pseudo=draw(st.booleans()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(one_asymmetric_pair())
@example(_asymmetric_excess())
def test_the_class_check_reads_each_orientation_of_an_asymmetric_pair(m):
    violation = validate_metric(m)
    assert violation == validate_metric_oracle(m)
    assert metric._triangles_clear(m.dist) is (violation is None)


def test_distance_class_examples_take_the_class_check():
    """The two examples above are decided by distance classes: the check
    finds their violating triple and hands the witness to the sweep."""
    for m in (_asymmetric_excess(), _excess_through_a_pseudo_zero()):
        assert not metric._triangles_clear(m.dist)
        assert validate_metric(m).axiom == "triangle"


def _gaussian_metric(g):
    return induced_metric(PointSet(np.random.default_rng(3).standard_normal((g.n, 3))))


@pytest.mark.parametrize(
    "build, by_classes",
    [
        (lambda g: shortest_path_metric(g).target, True),
        (lambda g: pseudo_metric_embedding(g, 1.5).target, True),
        (_gaussian_metric, False),
    ],
    ids=["spm", "prop6", "many-distances"],
)
def test_validate_metric_memory_is_bounded(build, by_classes):
    """Both triangle checks stay under two n x n float matrices: the class
    check's sort is released before the sweep, and the sweep reuses one
    n x n buffer (no (n, n, n) tensor, no fresh temporaries per row)."""
    m = build(gen_gnp(300, 0.3, 1))
    assert metric._triangles_clear(m.dist) is by_classes
    tracemalloc.start()
    try:
        assert validate_metric(m) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.n == 300 and peak < 2 * m.n**2 * 8


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


# Outcome of ``read_points`` and ``read_metric`` on each text: the point set
# (n, d, norm, rows) or distance matrix (n, rows) read, or the type of the
# error raised. Recorded from the line-by-line readers these tables were
# written against; the one change since is "underscore token", which Python's
# ``float`` read as 10.0 and numpy's parser refuses.
POINTS_READER_PARITY = {
    "comment before the header": ("# c\n  # d\n2 2 2\n0 1\n1 0\n", (2, 2, 2.0, [[0.0, 1.0], [1.0, 0.0]])),
    "indented comment": ("2 2 2\n0 1\n \t # c\n1 0\n", (2, 2, 2.0, [[0.0, 1.0], [1.0, 0.0]])),
    "CRLF endings": ("2 2 2\r\n0 1\r\n1 0\r\n", (2, 2, 2.0, [[0.0, 1.0], [1.0, 0.0]])),
    "tab-separated": ("2\t2\t2\n0\t1\n\t1 \t0\t\n", (2, 2, 2.0, [[0.0, 1.0], [1.0, 0.0]])),
    "blank lines": ("\n2 2 2\n\n0 1\n\n\n1 0\n\n", (2, 2, 2.0, [[0.0, 1.0], [1.0, 0.0]])),
    "signed tokens": ("2 2 1\n+1 -2.5e0\n-0 +0.5\n", (2, 2, 1.0, [[1.0, -2.5], [-0.0, 0.5]])),
    "0 points": ("0 3 inf\n", (0, 3, math.inf, [])),
    "inline comment": ("2 2 2\n0 1 # c\n1 0\n", ValueError),
    "ragged rows": ("2 2 2\n0\n1 1 0\n", ValueError),
    "too many rows": ("2 2 2\n0 1\n1 0\n2 2\n", ValueError),
    "too few rows": ("2 2 2\n0 1\n", ValueError),
    "non-numeric token": ("2 2 2\n0 1\n1 abc\n", ValueError),
    "d = 0 with n > 0": ("2 0 2\n\n\n", ValueError),
    "inf coordinate": ("2 2 2\n0 inf\n1 0\n", ValueError),
    "underscore token": ("1 1 2\n1_0\n", ValueError),  # (1, 1, 2.0, [[10.0]]) before
}
METRIC_READER_PARITY = {
    "comment before the header": ("# c\n  # d\n2\n0 1\n1 0\n", (2, [[0.0, 1.0], [1.0, 0.0]])),
    "indented comment": ("2\n0 1\n \t # c\n1 0\n", (2, [[0.0, 1.0], [1.0, 0.0]])),
    "CRLF endings": ("2\r\n0 1\r\n1 0\r\n", (2, [[0.0, 1.0], [1.0, 0.0]])),
    "tab-separated": ("2\n0\t1\n\t1 \t0\t\n", (2, [[0.0, 1.0], [1.0, 0.0]])),
    "blank lines": ("\n2\n\n0 1\n\n\n1 0\n\n", (2, [[0.0, 1.0], [1.0, 0.0]])),
    "signed tokens": ("2\n+0 +1.5\n1.5e0 -0\n", (2, [[0.0, 1.5], [1.5, -0.0]])),
    "0 points": ("0\n", (0, [])),
    "inline comment": ("2\n0 1 # c\n1 0\n", ValueError),
    "ragged rows": ("2\n0\n1 1 0\n", ValueError),
    "too many rows": ("2\n0 1\n1 0\n0 0\n", ValueError),
    "too few rows": ("2\n0 1\n", ValueError),
    "non-numeric token": ("2\n0 x\nx 0\n", ValueError),
    "inf distance": ("2\n0 inf\ninf 0\n", ValueError),
    "underscore token": ("2\n0 1_0\n1_0 0\n", ValueError),  # (2, [[0.0, 10.0], [10.0, 0.0]]) before
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, name", [("points", name) for name in sorted(POINTS_READER_PARITY)]
    + [("metric", name) for name in sorted(METRIC_READER_PARITY)]
)
def test_text_reader_parity_table(tmp_path, kind, name):
    text, want = (POINTS_READER_PARITY if kind == "points" else METRIC_READER_PARITY)[name]
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    read = read_points if kind == "points" else read_metric
    if isinstance(want, type):
        with pytest.raises(want, match=f"^{re.escape(str(path))}: "):
            read(str(path))
        return
    got = read(str(path))
    values = got.points if kind == "points" else got.dist
    assert ((got.n, got.dim, got.norm) if kind == "points" else (got.n,)) + (values.tolist(),) == want
    assert np.signbit(values).tolist() == np.signbit(np.reshape(want[-1], values.shape)).tolist()  # -0.0 stays


_WRITER_POINTS = np.array([[0.1, 1e300, -2.5], [1 / 3, -0.0, 7.0], [-1e-300, 2.0, 1e300]])

# The bytes ``write_points`` and ``write_metric`` wrote for the points above
# and their distance matrix in each norm, and for no points, recorded from
# the writers of the line-by-line readers.
WRITER_BYTES = {
    1.0: (
        b"3 3 1\n0.1 1e+300 -2.5\n0.3333333333333333 -0.0 7.0\n-1e-300 2.0 1e+300\n",
        b"3\n0.0 1e+300 2e+300\n1e+300 0.0 1e+300\n2e+300 1e+300 0.0\n",
        b"0 2 1\n",
    ),
    2.0: (
        b"3 3 2\n0.1 1e+300 -2.5\n0.3333333333333333 -0.0 7.0\n-1e-300 2.0 1e+300\n",
        b"3\n0.0 1e+300 1.4142135623730952e+300\n1e+300 0.0 1e+300\n1.4142135623730952e+300 1e+300 0.0\n",
        b"0 2 2\n",
    ),
    math.inf: (
        b"3 3 inf\n0.1 1e+300 -2.5\n0.3333333333333333 -0.0 7.0\n-1e-300 2.0 1e+300\n",
        b"3\n0.0 1e+300 1e+300\n1e+300 0.0 1e+300\n1e+300 1e+300 0.0\n",
        b"0 2 inf\n",
    ),
}


@pytest.mark.parametrize("norm", sorted(WRITER_BYTES))
def test_text_writers_keep_their_bytes(tmp_path, norm):
    points_bytes, metric_bytes, empty_bytes = WRITER_BYTES[norm]
    path = tmp_path / "out.txt"
    p = PointSet(_WRITER_POINTS, norm=norm)
    write_points(p, str(path))
    assert path.read_bytes() == points_bytes
    assert read_points(str(path)).points.tobytes() == _WRITER_POINTS.tobytes()
    write_metric(FiniteMetric(p.distance_matrix()), str(path))
    assert path.read_bytes() == metric_bytes
    write_points(PointSet(np.zeros((0, 2)), norm=norm), str(path))
    assert path.read_bytes() == empty_bytes
    write_metric(FiniteMetric(np.zeros((0, 0))), str(path))
    assert path.read_bytes() == b"0\n"


def test_l2_distances_rescale_overflowing_squares():
    """diff * diff overflows above about 1e154; such entries are recomputed
    from the scaled difference row, so l2 agrees with l1 in one dimension."""
    g = from_edge_list(3, [(0, 1)])
    pts = np.array([[0.0], [1e308], [5e307]])
    l1, l2 = PointSet(pts, norm=1.0), PointSet(pts, norm=2.0)
    assert np.array_equal(l2.distance_matrix(), l1.distance_matrix())
    cert = check(g, l2, 0.4)
    assert cert.passed and cert.max_neighbor == 1e308 and cert.alpha_max == 0.5
    assert not check(g, l2, 0.6).passed
    # A difference that itself overflows stays infinite.
    assert PointSet(np.array([[-1e308], [1e308]]), norm=2.0).distance_matrix()[0, 1] == math.inf


def test_l2_rescaling_leaves_finite_entries_bit_identical():
    pts = np.random.default_rng(3).standard_normal((7, 3))
    pts[4] = [1e200, -3e199, 5.0]
    got = PointSet(pts, norm=2.0).distance_matrix()
    plain = distance_matrix_oracle(pts, 2.0)
    overflowed = np.isinf(plain)
    assert overflowed.sum() == 12  # row and column 4, off the diagonal
    assert np.array_equal(got[~overflowed], plain[~overflowed])
    for i, j in zip(*np.nonzero(overflowed)):
        assert got[i, j] == pytest.approx(math.hypot(*(pts[i] - pts[j])), rel=1e-15)
