import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim.construct import (
    clique_collapse_linf,
    frechet_embedding,
    pseudo_metric_embedding,
    shortest_path_metric,
)
from presdim.graph import from_edge_list, gen_gnp, gen_named
from presdim.metric import FiniteMetric, PointSet, covering_number, induced_metric
from presdim.partition import clique_cover, neighborhood_partition
from presdim.preserve import (
    alpha2_feasible,
    alpha_max,
    certificate_from_json,
    certificate_to_json,
    check,
    measured_distortion,
)

from oracles import random_graph

P3 = gen_named("path", 3)
P3_LINE = PointSet(np.array([[0.0], [1.0], [2.0]]), norm=2.0)


def test_alpha_max_examples():
    assert alpha_max(P3, P3_LINE) == 2.0
    k3 = gen_named("complete", 3)
    assert alpha_max(k3, PointSet(np.array([[0.0], [0.7], [2.0]]), norm=2.0)) == math.inf
    squeezed = PointSet(np.array([[0.0], [1.0], [0.0]]), norm=2.0)  # non-edge 0-2 coincides
    assert alpha_max(P3, squeezed) == 0.0


def test_check_strict_at_supremum():
    assert check(P3, P3_LINE, 1.9).passed
    assert not check(P3, P3_LINE, 2.0).passed


def test_check_all_points_coincident_fails():
    g = from_edge_list(3, [(0, 1)])
    flat = PointSet(np.zeros((3, 1)), norm=2.0)
    for alpha in (0.25, 1.0, 1.9):
        assert not check(g, flat, alpha).passed


def test_check_rejects_nan_distances():
    g = from_edge_list(3, [(0, 1)])
    d = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 2.0], [np.nan, 2.0, 0.0]])
    pts = np.array([[0.0], [1.0], [np.nan]])
    for emb in (FiniteMetric(d), d, PointSet(pts, norm=2.0)):
        with pytest.raises(ValueError, match="NaN"):
            check(g, emb, 1.5)
    with pytest.raises(ValueError, match="NaN"):
        measured_distortion(P3, PointSet(pts, norm=2.0))


def test_certificate_witness_threshold():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_graph(8, 0.5, rng)
        pts = PointSet(rng.random((8, 3)), norm=2.0)
        amax = alpha_max(g, pts)
        if not 0 < amax < math.inf:
            continue
        cert = check(g, pts, amax * 0.9)
        assert cert.passed and cert.r is not None
        assert cert.max_neighbor < cert.r
        assert cert.requested_alpha * cert.r <= cert.min_nonneighbor + 1e-12


def test_monotone_in_level():
    rng = np.random.default_rng(24)
    for _ in range(25):
        g = random_graph(7, 0.5, rng)
        pts = PointSet(rng.random((7, 2)), norm=2.0)
        alpha = float(rng.uniform(0.2, 1.9))
        beta = float(rng.uniform(0.05, alpha))
        if check(g, pts, alpha).passed:
            assert check(g, pts, beta).passed


def test_alpha_max_scale_invariant():
    rng = np.random.default_rng(25)
    g = random_graph(9, 0.5, rng)
    pts = rng.random((9, 3))
    base = alpha_max(g, PointSet(pts, norm=2.0))
    for c in (1e-3, 0.37, 12.0, 1e4):
        scaled = alpha_max(g, PointSet(pts * c, norm=2.0))
        assert abs(scaled - base) <= 1e-12 * max(1.0, base)


def test_alpha2_feasible_gate():
    assert alpha2_feasible(from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))
    assert not alpha2_feasible(P3)
    assert alpha2_feasible(gen_named("empty", 4))


def test_measured_distortion():
    g = gen_gnp(12, 0.6, 31)
    fre = frechet_embedding(g)
    assert measured_distortion(g, fre.target) == 1.0
    stretched = PointSet(np.array([[0.0], [1.0], [1.75]]), norm=2.0)
    assert abs(measured_distortion(P3, stretched) - 4.0 / 3.0) < 1e-12
    edge = from_edge_list(2, [(0, 1)])
    seven = PointSet(np.array([[0.0], [7.0]]), norm=2.0)
    assert measured_distortion(edge, seven) == 1.0
    with pytest.raises(ValueError):
        measured_distortion(from_edge_list(3, [(0, 1)]), PointSet(np.zeros((3, 1))))


def test_distortion_bridge():
    # measured distortion 1/alpha implies a pass at alpha on the path-metric graph
    rng = np.random.default_rng(26)
    for seed in range(10):
        g = gen_gnp(12, 0.5, seed)
        fre = frechet_embedding(g)
        noise = rng.uniform(-0.2, 0.2, size=fre.target.points.shape)
        noisy = PointSet(fre.target.points + noise, norm=math.inf)
        alpha = 1.0 / measured_distortion(g, noisy)
        assert check(g, noisy, alpha).passed


def test_cover_witness_small_graphs():
    # a passing certificate at threshold r forces >= |P(G)| balls of radius
    # alpha*r/2 to cover the embedded points
    rng = np.random.default_rng(27)
    for seed in range(8):
        g = random_graph(int(rng.integers(4, 13)), 0.5, rng)
        p_exact = clique_cover(g, mode="exact").size
        for alpha, build in ((0.6, clique_collapse_linf), (1.4, pseudo_metric_embedding)):
            emb = build(g, alpha)
            cert = check(g, emb, alpha)
            assert cert.passed
            target = emb.target
            m = induced_metric(target) if isinstance(target, PointSet) else target
            cover = covering_number(m, None, alpha * cert.r / 2.0)
            assert cover >= p_exact


def test_class_separation_witness():
    # at levels above 1, distinct neighborhood classes sit > r(alpha-1) apart
    rng = np.random.default_rng(28)
    for seed in range(10):
        g = random_graph(10, 0.5, rng)
        alpha = 1.5
        emb = pseudo_metric_embedding(g, alpha)
        cert = check(g, emb, alpha)
        assert cert.passed
        dists = emb.vertex_distances()
        reps = [block[0] for block in neighborhood_partition(g).blocks]
        for i, u in enumerate(reps):
            for v in reps[i + 1 :]:
                assert dists[u, v] > cert.r * (alpha - 1)


def test_shortest_path_metric_certifies_everything():
    rng = np.random.default_rng(29)
    for _ in range(10):
        g = random_graph(10, 0.4, rng)
        emb = shortest_path_metric(g)
        for alpha in (0.3, 1.0, 1.7):
            assert check(g, emb, alpha).passed


def test_certificate_json_round_trip():
    cert = check(P3, P3_LINE, 1.5)
    back = certificate_from_json(certificate_to_json(cert))
    assert back == cert
    k3 = gen_named("complete", 3)
    cert_inf = check(k3, PointSet(np.array([[0.0], [1.0], [2.0]])), 1.5)
    back = certificate_from_json(certificate_to_json(cert_inf))
    assert back.min_nonneighbor == math.inf and back.alpha_max == math.inf


def _p3_matrix(big: float, small: float) -> np.ndarray:
    """Raw distances on the 3-vertex path: neighbors at big, the ends at small."""
    return np.array([[0.0, big, small], [big, 0.0, big], [small, big, 0.0]])


def _is_witness(r: float, big: float, small: float, alpha: float) -> bool:
    return r > big and Fraction(alpha) * Fraction(r) <= Fraction(small)


def test_check_records_an_exact_witness_at_the_float_boundary():
    big, small, alpha = 9.836415859114206, 5.186181508141985, 0.5272430103020281
    assert Fraction(small) > Fraction(alpha) * Fraction(big)
    # No float lies in (M, m/alpha]: the smallest float above M already fails.
    assert not _is_witness(math.nextafter(big, math.inf), big, small, alpha)
    cert = check(P3, _p3_matrix(big, small), alpha)
    assert not cert.passed and cert.r is None


@settings(max_examples=400, deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.floats(0.01, 1.99),
    st.one_of(st.integers(-4, 4), st.floats(-1.0, 1.0)),
)
def test_check_witness_is_exact(big, alpha, shift):
    """Near the boundary (m a few ulps from alpha*M) and away from it: a passing
    certificate's r lies in (M, m/alpha] exactly, a failing one has no float there."""
    small = alpha * big
    if isinstance(shift, int):
        for _ in range(abs(shift)):
            small = math.nextafter(small, math.copysign(math.inf, shift))
    else:
        small *= 1.0 + shift
    cert = check(P3, _p3_matrix(big, small), alpha)
    if cert.passed:
        assert _is_witness(cert.r, big, small, alpha)
    else:
        assert cert.r is None
        assert not _is_witness(math.nextafter(big, math.inf), big, small, alpha)
