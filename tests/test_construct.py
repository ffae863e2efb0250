import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presdim.construct import (
    BY_CLI,
    EmbeddingResult,
    JLProjectionError,
    ball_collapse_l2,
    center_and_normalize,
    clique_collapse_linf,
    frechet_embedding,
    frechet_quotient_embedding,
    grid_packing_linf,
    jl_project,
    pseudo_metric_embedding,
    result_from_json,
    result_to_json,
    schoenberg_embedding,
    shortest_path_metric,
    simplex_embedding,
    sphere_packing_l2,
)
from presdim.graph import (
    GenerationError,
    all_pairs_distances,
    from_edge_list,
    gen_gnp,
    gen_named,
    quotient_by_neighborhood,
    spectrum_top2,
)
from presdim.config import DEFAULT_LIMITS
from presdim.metric import FiniteMetric, PointSet, validate_metric
from presdim.preserve import alpha_max, certificate_from_json, certificate_to_json, check

from oracles import random_graph, result_to_json_oracle, sphere_packing_l2_seed


def _passes_claims(g, emb: EmbeddingResult) -> bool:
    lo, hi = emb.claimed_alpha
    probes = [max(lo + 1e-9, 1e-9), (lo + hi) / 2, hi - 1e-9]
    return all(check(g, emb, a).passed for a in probes if a > 0)


# -- grid packing ---------------------------------------------------------------


def test_grid_packing_examples():
    p = grid_packing_linf(4, 1.0, 0.5)
    assert p.dim == 2
    assert sorted(map(tuple, p.points.tolist())) == [
        (0.0, 0.0),
        (0.0, 0.5),
        (0.5, 0.0),
        (0.5, 0.5),
    ]
    single = grid_packing_linf(1, 1.0, 0.25)
    assert single.n == 1 and single.dim == 1
    nine = grid_packing_linf(9, 1.0, 1.0 / 3.0)
    assert nine.dim == 2 and nine.n == 9


def test_grid_packing_postconditions_exact():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        r = float(rng.uniform(0.3, 3.0))
        eps = float(rng.uniform(0.05, 0.95)) * r
        p = grid_packing_linf(n, r, eps)
        d = p.distance_matrix()
        off = ~np.eye(n, dtype=bool)
        assert d[off].min() >= eps  # exact packing guarantee
        assert d.max() < r  # strict diameter
    with pytest.raises(ValueError):
        grid_packing_linf(4, 1.0, 1.0)


# -- shortest-path metric ---------------------------------------------------------


def test_shortest_path_metric_examples():
    p3 = gen_named("path", 3)
    emb = shortest_path_metric(p3)
    assert sorted(emb.target.dist[np.triu_indices(3, 1)].tolist()) == [1.0, 1.0, 2.0]
    assert alpha_max(p3, emb) == 2.0
    assert alpha_max(gen_named("complete", 5), shortest_path_metric(gen_named("complete", 5))) == math.inf
    star = gen_named("star", 6)
    emb = shortest_path_metric(star)
    assert emb.target.dist[1, 2] == 2.0 and emb.target.dist[0, 1] == 1.0


def test_shortest_path_metric_disconnected():
    g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    emb = shortest_path_metric(g)
    assert validate_metric(emb.target) is None
    assert emb.target.dist[0, 3] == 5.0  # 2 * max eccentricity + 1
    assert _passes_claims(g, emb)


# -- sup-norm collapse -------------------------------------------------------------


def test_collapse_examples():
    kn = gen_named("complete", 6)
    emb = clique_collapse_linf(kn, 0.5)
    assert emb.n_points == 1 and emb.claimed_dim_bound == 0
    empty = gen_named("empty", 8)  # |P| = 8 blocks
    emb = clique_collapse_linf(empty, 0.5)
    assert emb.target.dim == 3  # ceil(log 8 / log 2)
    e4 = gen_named("empty", 4)
    emb = clique_collapse_linf(e4, 0.5)
    d = emb.target.distance_matrix()
    off = ~np.eye(4, dtype=bool)
    assert d[off].min() >= 0.5 and d.max() < 1.0


def test_collapse_certifies_and_dimension_formula():
    rng = np.random.default_rng(42)
    for _ in range(15):
        g = random_graph(int(rng.integers(4, 16)), 0.5, rng)
        for alpha in (0.5, 0.9):
            emb = clique_collapse_linf(g, alpha)
            assert check(g, emb, alpha).passed
            m = emb.n_points
            if m > 1:
                expect = math.ceil(math.log(m) / math.log(math.ceil(1 / alpha)) - 1e-9)
                assert emb.target.dim == expect
            assert _passes_claims(g, emb)
    with pytest.raises(ValueError):
        clique_collapse_linf(gen_named("path", 3), 1.0)


# -- pseudo-metric construction ------------------------------------------------------


def test_pseudo_metric_examples():
    tcm = gen_named("two_cliques_matched", 10)
    emb = pseudo_metric_embedding(tcm, 1.5)
    assert validate_metric(emb.target) is None
    assert check(tcm, emb, 1.5).passed

    kn = gen_named("complete", 7)
    assert pseudo_metric_embedding(kn, 1.3).n_points == 1

    e5 = gen_named("empty", 5)
    emb = pseudo_metric_embedding(e5, 1.5)
    off = ~np.eye(5, dtype=bool)
    assert np.allclose(emb.target.dist[off], 1.5)


def test_pseudo_metric_random_levels():
    rng = np.random.default_rng(43)
    for _ in range(12):
        g = random_graph(int(rng.integers(3, 14)), 0.5, rng)
        for alpha in (1.2, 1.5, 1.8):
            emb = pseudo_metric_embedding(g, alpha)
            assert validate_metric(emb.target) is None
            assert check(g, emb, alpha).passed
            assert _passes_claims(g, emb)


def test_pseudo_metric_limit_level_one():
    g = gen_gnp(10, 0.5, 44)
    emb = pseudo_metric_embedding(g, 1.0)
    assert check(g, emb, 1.0).passed
    from presdim.partition import clique_cover

    m = clique_cover(g).size
    assert emb.claimed_dim_bound == math.ceil(math.log2(3 * m) - 1e-9)
    assert "limit" in emb.source
    with pytest.raises(ValueError):
        pseudo_metric_embedding(g, 2.0)


# -- sphere packing ------------------------------------------------------------------


def test_sphere_packing_dimension_formula():
    p = sphere_packing_l2(2, 2.0, 1.0, seed=4)
    assert p.dim == 5  # ceil(4 log 3 / (2 - 1))
    d = p.distance_matrix()
    assert d[0, 1] >= 1.0


def test_sphere_packing_postconditions():
    p = sphere_packing_l2(10, 2.0, 1.0, seed=4)
    d = p.distance_matrix()
    off = ~np.eye(10, dtype=bool)
    assert d[off].min() >= 1.0
    assert np.linalg.norm(p.points, axis=1).max() < 1.0
    assert p.points.shape == sphere_packing_l2(10, 2.0, 1.0, seed=4).points.shape


def test_sphere_packing_domain():
    with pytest.raises(ValueError):
        sphere_packing_l2(5, 1.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        sphere_packing_l2(5, 1.0, 0.8, seed=0)  # eps >= r/sqrt(2)
    with pytest.raises(GenerationError):
        sphere_packing_l2(500, 1.0, 0.7, seed=0, attempts=1, samples_per_attempt=600)


@pytest.mark.parametrize(
    "n, r, eps, seed",
    [
        (16, 1.0, 0.7, 3), (16, 1.0, 0.7, 4), (12, 1.0, 0.69, 7),
        (30, 1.0, 0.6, 2), (8, 3.0, 2.0, 5), (10, 2.0, 1.0, 4),
    ],
)
def test_sphere_packing_keeps_the_points_of_the_row_by_row_loop(n, r, eps, seed):
    expected = sphere_packing_l2_seed(n, r, eps, seed)
    assert expected is not None
    assert np.array_equal(sphere_packing_l2(n, r, eps, seed).points, expected)


def test_ball_collapse_l2():
    g = gen_gnp(10, 0.5, 45)
    emb = ball_collapse_l2(g, 0.6, seed=7)
    assert check(g, emb, 0.6).passed
    with pytest.raises(ValueError):
        ball_collapse_l2(g, 0.8, seed=7)


def test_ball_collapse_l2_draws_only_from_an_explicit_seed():
    g = gen_named("empty", 4)  # four blocks, so the packing is drawn
    with pytest.raises(ValueError, match="pass --seed"):
        ball_collapse_l2(g, 0.5, None)


# -- distance-coordinate embeddings ---------------------------------------------------


def test_frechet_isometry_hand_example():
    p3 = gen_named("path", 3)
    emb = frechet_embedding(p3)
    paths = all_pairs_distances(p3)
    assert np.array_equal(emb.vertex_distances(), paths)
    k3 = gen_named("complete", 3)
    d = frechet_embedding(k3).vertex_distances()
    assert np.allclose(d[~np.eye(3, dtype=bool)], 1.0)
    c4 = gen_named("cycle", 4)
    assert np.array_equal(
        frechet_embedding(c4).vertex_distances(), all_pairs_distances(c4)
    )


def test_frechet_exact_on_connected_random_graphs():
    count = 0
    seed = 0
    while count < 20:
        g = gen_gnp(30, 0.2, seed)
        seed += 1
        if not np.isfinite(all_pairs_distances(g)).all():
            continue
        count += 1
        emb = frechet_embedding(g)
        assert np.array_equal(emb.vertex_distances(), all_pairs_distances(g))


def test_frechet_rejects_disconnected():
    with pytest.raises(ValueError):
        frechet_embedding(from_edge_list(4, [(0, 1), (2, 3)]))


def test_frechet_quotient_examples():
    kn = gen_named("complete", 9)
    assert frechet_quotient_embedding(kn).n_points == 1
    two_k5 = from_edge_list(
        10,
        [(u, v) for u in range(5) for v in range(u + 1, 5)]
        + [(5 + u, 5 + v) for u in range(5) for v in range(u + 1, 5)],
    )
    emb = frechet_quotient_embedding(two_k5)
    assert emb.n_points == 2
    assert _passes_claims(two_k5, emb)
    c4 = gen_named("cycle", 4)
    emb = frechet_quotient_embedding(c4)
    assert emb.n_points == 4
    assert np.array_equal(emb.vertex_distances(), all_pairs_distances(c4))


def test_frechet_quotient_random():
    rng = np.random.default_rng(46)
    for _ in range(10):
        g = random_graph(int(rng.integers(2, 14)), 0.5, rng)
        emb = frechet_quotient_embedding(g)
        assert _passes_claims(g, emb)


# -- spectral embedding -----------------------------------------------------------------


def test_schoenberg_cycle4():
    c4 = gen_named("cycle", 4)
    emb = schoenberg_embedding(c4)
    assert abs(alpha_max(c4, emb) - math.sqrt(2)) < 1e-9
    d2 = emb.target.distance_matrix() ** 2
    h = quotient_by_neighborhood(c4)
    lam = spectrum_top2(h)[0]
    a = h.adjacency_matrix()
    expect = (np.ones((4, 4)) - np.eye(4) - a) + (1 - 1 / lam) * a
    assert np.abs(d2 - expect).max() < 1e-9


def test_schoenberg_star():
    star = gen_named("star", 10)
    lam = math.sqrt(9)
    expect = (1 - 1 / lam) ** -0.5
    assert abs(alpha_max(star, schoenberg_embedding(star)) - expect) < 1e-9


def test_schoenberg_complete_graph_single_point():
    emb = schoenberg_embedding(gen_named("complete", 5))
    assert emb.n_points == 1


def test_schoenberg_rejects_edgeless_quotient():
    with pytest.raises(ValueError):
        schoenberg_embedding(gen_named("empty", 4))


def test_schoenberg_reconstruction_random():
    rng = np.random.default_rng(47)
    done = 0
    seed = 0
    while done < 15:
        g = gen_gnp(int(rng.integers(4, 18)), 0.5, seed)
        seed += 1
        h = quotient_by_neighborhood(g)
        if h.edge_count == 0:
            continue
        done += 1
        emb = schoenberg_embedding(g)
        lam = spectrum_top2(h)[0]
        a = h.adjacency_matrix()
        expect = (np.ones((h.n, h.n)) - np.eye(h.n) - a) + (1 - 1 / lam) * a
        d2 = emb.target.distance_matrix() ** 2
        assert np.abs(d2 - expect).max() < 1e-9
        if lam > 1:
            assert abs(alpha_max(g, emb) - (1 - 1 / lam) ** -0.5) < 1e-9


# -- random projection --------------------------------------------------------------------


def test_jl_isometric_padding():
    g = gen_gnp(12, 0.5, 48)
    base = schoenberg_embedding(g)
    res = jl_project(
        base.target, base.target.dim + 5, g, 1.01, seed=3, vertex_map=base.vertex_map
    )
    assert res.source == "jl_isometric"
    assert check(g, res, 1.01).passed


def test_jl_gaussian_projection_passes():
    # K_{25,25} puts both edges and non-edges at simplex distance 1, so the
    # projected certificate genuinely depends on the distortion
    simplex = PointSet(np.eye(50) / math.sqrt(2), norm=2.0)
    kmm = gen_named("complete_bipartite", 50)
    assert alpha_max(kmm, simplex) == 1.0
    res = jl_project(simplex, 30, kmm, 0.35, seed=5)
    assert res.source.startswith("jl_gaussian")
    assert check(kmm, res, 0.35).passed


def test_jl_exhausts_retries():
    # the simplex places all pairs at distance 1, so projecting 40 points to
    # the plane cannot keep non-edges 0.97 times beyond edges of this cycle
    simplex = PointSet(np.eye(40) / math.sqrt(2), norm=2.0)
    c40 = gen_named("cycle", 40)
    with pytest.raises(JLProjectionError) as err:
        jl_project(simplex, 2, c40, 0.97, seed=5, retries=3)
    assert 0 < err.value.best_alpha_max < 0.97


def test_jl_validates_input_level():
    p3 = gen_named("path", 3)
    pts = PointSet(np.array([[0.0], [1.0], [2.0]]), norm=2.0)
    with pytest.raises(ValueError):
        jl_project(pts, 2, p3, 2.5, seed=0)


def test_simplex_embedding():
    rng = np.random.default_rng(49)
    for _ in range(8):
        g = random_graph(int(rng.integers(4, 20)), 0.5, rng)
        emb = simplex_embedding(g, 0.8, seed=9)
        assert check(g, emb, 0.8).passed
    kn = gen_named("complete", 6)
    assert simplex_embedding(kn, 0.8, seed=9).n_points == 1
    e5 = gen_named("empty", 5)
    assert check(e5, simplex_embedding(e5, 0.7, seed=9), 0.7).passed
    with pytest.raises(ValueError):
        simplex_embedding(kn, 0.5, seed=9)


# -- normalization ---------------------------------------------------------------------


def test_center_and_normalize():
    rng = np.random.default_rng(50)
    p = PointSet(rng.random((12, 3)) * 5 + 2, norm=2.0)
    out = center_and_normalize(p, 2.5)
    assert np.abs(out.points.mean(axis=0)).max() < 1e-12
    g = random_graph(12, 0.5, rng)
    cert_m = np.array(check(g, p, 0.1).max_neighbor)
    scaled = center_and_normalize(p, float(cert_m))
    assert abs(check(g, scaled, 0.1).max_neighbor - 1.0) < 1e-12
    single = center_and_normalize(PointSet(np.array([[3.0, 4.0]])), 2.0)
    assert np.allclose(single.points, 0.0)
    with pytest.raises(ValueError):
        center_and_normalize(p, 0.0)


# -- serialization ----------------------------------------------------------------------


def test_result_json_round_trip():
    g = gen_named("two_cliques_matched", 8)
    for emb in (
        pseudo_metric_embedding(g, 1.5),
        frechet_embedding(g),
        clique_collapse_linf(g, 0.5),
    ):
        back = result_from_json(result_to_json(emb))
        assert back.source == emb.source
        assert back.vertex_map == emb.vertex_map
        assert back.claimed_alpha == emb.claimed_alpha
        assert np.array_equal(back.vertex_distances(), emb.vertex_distances())


# One value of each JSON type, and the types each member of the embedding and
# certificate documents takes: a float member takes an integer, and the
# certificate's r takes null.
JSON_VALUES = {"null": None, "boolean": True, "integer": 3, "number": 2.5, "string": "x", "array": [1], "object": {}}
NUMBER = {"integer", "number"}
EMBEDDING_TAKES = {
    "source": {"string"}, "alpha_interval": {"array"}, "r": NUMBER, "dim_bound": {"integer"},
    "vertex_map": {"array"}, "dim": {"integer"}, "norm": NUMBER, "pseudo": {"boolean"},
    "points": {"array"}, "distance_matrix": {"array"},
}
CERTIFICATE_TAKES = {
    "graph_digest": {"string"}, "space": {"string"}, "r": NUMBER | {"null"}, "max_neighbor": NUMBER,
    "min_nonneighbor": NUMBER, "alpha_max": NUMBER, "requested_alpha": NUMBER, "passed": {"boolean"},
}


def _fields(res: EmbeddingResult) -> tuple:
    t = res.target
    array, flag = (t.points, t.norm) if isinstance(t, PointSet) else (t.dist, t.pseudo)
    return (type(t), flag, array.tolist(), res.vertex_map, res.claimed_alpha, res.claimed_r,
            res.claimed_dim_bound, res.source)


def _one_member_retyped(text: str, takes: dict, data) -> tuple[str, str]:
    doc = json.loads(text)
    member = data.draw(st.sampled_from(sorted(doc)))
    kind = data.draw(st.sampled_from(sorted(set(JSON_VALUES) - takes[member])))
    return json.dumps({**doc, member: JSON_VALUES[kind]}), member


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**16),
    tag=st.sampled_from(sorted(BY_CLI)),
    level=st.sampled_from([0.5, 0.7, 1.0, 1.5, 2.5]),
    data=st.data(),
)
def test_documents_read_back_and_name_an_ill_typed_member(n, p, seed, tag, level, data):
    g = gen_gnp(n, p, seed)
    try:
        res = BY_CLI[tag].build(g, level, 1, DEFAULT_LIMITS)
    except ValueError:  # the level or the graph is outside the construction's range
        assume(False)
    text = result_to_json(res)
    assert _fields(result_from_json(text)) == _fields(res)
    cert = check(g, res, level)  # r is None where it fails; p = 0 or 1 gives an infinite extreme
    cert_text = certificate_to_json(cert)
    assert certificate_from_json(cert_text) == cert
    for read, (bad, member) in (
        (result_from_json, _one_member_retyped(text, EMBEDDING_TAKES, data)),
        (certificate_from_json, _one_member_retyped(cert_text, CERTIFICATE_TAKES, data)),
    ):
        with pytest.raises(ValueError, match=f"'{member}'"):
            read(bad)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.0, -3.0, 1e300, -1e300, 0.1, 1 / 3, 1e16, 123456789.0]


def _result(target) -> EmbeddingResult:
    return EmbeddingResult(
        target=target,
        vertex_map=tuple(range(min(target.n, 3))),
        claimed_alpha=(0.5, 2.0),
        claimed_r=1.0,
        claimed_dim_bound=4,
        source="test",
    )


@pytest.mark.parametrize(
    "target",
    [
        PointSet(np.zeros((0, 3))),
        PointSet(np.zeros((0, 0))),
        PointSet(np.zeros((4, 0)), norm=1.0),
        PointSet(np.array([EDGE_VALUES]), norm=math.inf),
        PointSet(np.array(EDGE_VALUES).reshape(6, 2), norm=2.0),
        PointSet(np.array([[2.0]])),
        FiniteMetric(np.zeros((0, 0))),
        FiniteMetric(np.zeros((1, 1)), pseudo=True),
        FiniteMetric(np.array([[0.0, 5e-324, 1e300], [5e-324, -0.0, 2.0], [1e300, 2.0, 0.0]])),
    ],
)
def test_result_to_json_matches_the_indent_writer(target):
    res = _result(target)
    assert result_to_json(res) == result_to_json_oracle(res)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 6),
    cols=st.integers(0, 6),
    metric=st.booleans(),
    data=st.data(),
)
def test_result_to_json_matches_the_indent_writer_on_any_floats(rows, cols, metric, data):
    cols = rows if metric else cols
    values = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_VALUES))
    flat = data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    arr = np.array(flat, dtype=np.float64).reshape(rows, cols)
    if metric:
        target = FiniteMetric(arr)
    else:
        target = PointSet(arr, norm=data.draw(st.sampled_from([1.0, 2.0, math.inf])))
    res = _result(target)
    assert result_to_json(res) == result_to_json_oracle(res)


def test_result_to_json_refuses_a_nan_in_the_header():
    with pytest.raises(ValueError, match="JSON compliant"):
        result_to_json(replace(_result(PointSet(np.array([[2.0]]))), claimed_r=math.nan))


# Both zeros, both infinities, NaN of either sign and integral values: the
# writer's table keys values by bit pattern, and the reprs differ in sign.
POOL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 2.0, -3.0, 2.0**53, 0.1]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 7),
    cols=st.integers(0, 7),
    metric=st.booleans(),
    data=st.data(),
)
def test_result_to_json_matches_the_indent_writer_on_few_values(rows, cols, metric, data):
    """Arrays drawn from a small pool, written from one table of reprs, and
    pools wide enough to exceed half the entries, written row by row."""
    cols = rows if metric else cols
    pool = data.draw(st.lists(st.sampled_from(POOL_VALUES), min_size=1, max_size=5))
    values = st.sampled_from(pool)
    if data.draw(st.booleans()):
        values = values | st.floats()
    flat = data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    arr = np.array(flat, dtype=np.float64).reshape(rows, cols)
    target = FiniteMetric(arr) if metric else PointSet(arr, norm=math.inf)
    res = _result(target)
    assert result_to_json(res) == result_to_json_oracle(res)


@pytest.mark.parametrize(
    "flat, shape",
    [
        ([1.0, -0.0, 1.0, -0.0], (2, 2)),  # distinct values at half the entries: one table
        ([1.0, -0.0, 1.0, 0.0], (2, 2)),  # one more: row by row
        ([math.nan, -math.nan, math.nan, math.nan], (1, 4)),
        ([], (0, 3)),
        ([], (3, 0)),
    ],
)
def test_result_to_json_on_both_sides_of_the_half_distinct_rule(flat, shape):
    res = _result(PointSet(np.array(flat, dtype=np.float64).reshape(shape)))
    assert result_to_json(res) == result_to_json_oracle(res)


@pytest.mark.parametrize("tag", sorted(BY_CLI))
def test_embedding_files_match_the_indent_writer(tag):
    g = gen_gnp(40, 0.3, 5)
    alpha = 0.8 if tag in ("collapse", "simplex-jl") else 1.0
    res = BY_CLI[tag].build(g, alpha, 3, DEFAULT_LIMITS)
    assert result_to_json(res) == result_to_json_oracle(res)


def test_all_constructions_pass_their_claims():
    rng = np.random.default_rng(51)
    seed = 0
    for _ in range(6):
        g = random_graph(int(rng.integers(3, 13)), 0.5, rng)
        seed += 1
        built = [
            shortest_path_metric(g),
            clique_collapse_linf(g, 0.7),
            pseudo_metric_embedding(g, 1.4),
            frechet_quotient_embedding(g),
            simplex_embedding(g, 0.8, seed=seed),
        ]
        try:
            built.append(schoenberg_embedding(g))
        except ValueError:
            pass  # edgeless quotient has no spectral route
        for emb in built:
            assert _passes_claims(g, emb), emb.source
