"""The construction table: each report ceiling against the embedding its
row builds, and the CLI names it exposes."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim.bounds import upper_bounds
from presdim.cli import build_parser
from presdim.config import DEFAULT_LIMITS
from presdim.construct import BY_CLI, BY_TAG, CONSTRUCTIONS, JLProjectionError, l2_dim, schoenberg_embedding
from presdim.graph import NAMED_FAMILIES, GenerationError, from_edge_list, gen_gnp, gen_kregular, gen_named
from presdim.metric import FiniteMetric, PointSet, doubling_dimension, induced_metric
from presdim.partition import neighborhood_class_count
from presdim.preserve import check

from test_construct import _passes_claims

# Tags whose ceiling and builder share one dimension function.
SHARED_ARITHMETIC = {
    "shortest_path",
    "linf_collapse",
    "pseudo_metric",
    "linf_quotient",
    "l2_ball_collapse",
    "l2_simplex_jl",
    "l2_spectral",
}
LEVELS = (0.5, 0.65, 0.8, 1.0, 1.5)


def _graphs():
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(4, [e for i, e in enumerate(pairs) if mask >> i & 1])
    for family in NAMED_FAMILIES:
        for n in (4, 6, 8):
            yield gen_named(family, n)


@functools.lru_cache(maxsize=None)
def _ceilings():
    """(tag, graph, level, reported value) for every ceiling that applies."""
    return [
        (ub.tag, g, alpha, ub.value)
        for g in _graphs()
        for alpha in LEVELS
        for ub in upper_bounds(g, alpha)[0]
    ]


@pytest.mark.parametrize("tag", list(BY_TAG))
def test_ceiling_matches_its_builder(tag):
    built = 0
    for case_tag, g, alpha, value in _ceilings():
        if case_tag != tag:
            continue
        try:
            emb = BY_TAG[tag].build(g, alpha, 0, DEFAULT_LIMITS)
        except (ValueError, JLProjectionError, GenerationError):
            continue
        built += 1
        assert check(g, emb, alpha).passed, (g.rows, alpha)
        assert emb.claimed_dim_bound <= value, (g.rows, alpha)
        loose = (tag == "pseudo_metric" and alpha == 1.0) or (
            tag == "l2_ball_collapse" and emb.n_points == 1
        )
        if tag in SHARED_ARITHMETIC and not loose:
            assert emb.claimed_dim_bound == value, (g.rows, alpha)
    assert built


@pytest.mark.parametrize("g", [gen_kregular(10, 3, 0), gen_kregular(20, 3, 1), gen_named("cycle", 8),
                               gen_named("complete", 5)], ids=["3-regular-10", "3-regular-20", "C8", "K5"])
@pytest.mark.parametrize("alpha", [0.8, 1.0])
def test_regular_build_keeps_the_first_schoenberg_coordinates(g, alpha):
    """The l2_regular build projects the first c - 1 Schoenberg coordinates of
    the c neighborhood classes, as l2_spectral does: a c-th is rounding noise."""
    c = neighborhood_class_count(g)
    emb = BY_TAG["l2_regular"].build(g, alpha, 0, DEFAULT_LIMITS)
    width = max(min(math.ceil(192 * g.degree(0) ** 2 * math.log(g.n)), c - 1), 1)
    first = schoenberg_embedding(g).target.points[:, : c - 1]
    assert emb.target.dim == width
    assert np.array_equal(emb.target.points[:, : c - 1], first)
    assert not emb.target.points[:, c - 1 :].any()
    assert emb.claimed_dim_bound == l2_dim(width)
    ceiling = {ub.tag: ub.value for ub in upper_bounds(g, alpha)[0]}["l2_regular"]
    assert emb.claimed_dim_bound <= ceiling


def _scaled(emb, factor):
    """``emb`` with every target distance multiplied by ``factor``."""
    t = emb.target
    if isinstance(t, PointSet):
        return replace(emb, target=PointSet(t.points * factor, norm=t.norm))
    return replace(emb, target=FiniteMetric(t.dist * factor, pseudo=t.pseudo))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), p=st.sampled_from([0.2, 0.5, 0.8]), seed=st.integers(0, 2**16))
def test_every_row_certifies_by_scale_free_rules(n, p, seed):
    """Each row's build, at each level where it builds: a certificate reads
    the same on the target scaled by a power of two (with no non-adjacent
    pair the witness is M + 1, which does not scale), and the build passes
    ``check`` inside its claimed level interval."""
    g = gen_gnp(n, p, seed)
    for row, alpha in itertools.product(CONSTRUCTIONS, LEVELS):
        try:
            emb = row.build(g, alpha, 0, DEFAULT_LIMITS)
        except (ValueError, JLProjectionError, GenerationError):
            continue
        cert = check(g, emb, alpha)
        for k in (-3, 5):
            scaled = check(g, _scaled(emb, 2.0**k), alpha)
            case = (g.rows, alpha, row.tag or row.cli, k)
            assert (scaled.passed, scaled.alpha_max) == (cert.passed, cert.alpha_max), case
            assert scaled.max_neighbor == cert.max_neighbor * 2.0**k, case
            assert scaled.min_nonneighbor == cert.min_nonneighbor * 2.0**k, case
            if cert.passed and math.isfinite(cert.min_nonneighbor):
                assert scaled.r == cert.r * 2.0**k, case
        assert _passes_claims(g, emb), (g.rows, alpha, row.tag or row.cli)


def _image(emb) -> FiniteMetric:
    """The points that the vertices land on, as a metric of their own."""
    image = sorted(set(emb.vertex_map))
    t = emb.target
    if isinstance(t, PointSet):
        return induced_metric(PointSet(t.points[image], norm=t.norm))
    return FiniteMetric(t.dist[np.ix_(image, image)], pseudo=t.pseudo)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 10), p=st.sampled_from([0.2, 0.5, 0.8]), seed=st.integers(0, 2**16),
       alpha=st.sampled_from(LEVELS))
def test_every_certified_image_keeps_the_subset_lemma(n, p, seed, alpha):
    """The subset lemma: a subset Y of a metric space X has at most twice its
    doubling dimension. If every open ball of X is covered by 2^d open balls
    of half its radius, cover the ball B_Y(y, r) by 2^(2d) balls of X of
    radius r/4; each one that meets Y at some y' lies in B_Y(y', r/2). The
    image of a certified build is a subset of its target space, whose
    doubling dimension the row's ceiling bounds."""
    g = gen_gnp(n, p, seed)
    for ub in upper_bounds(g, alpha)[0]:
        try:
            emb = BY_TAG[ub.tag].build(g, alpha, 0, DEFAULT_LIMITS)
        except (ValueError, JLProjectionError, GenerationError):
            continue
        image = _image(emb)  # at most 10 points, inside the exact search's limit of 14
        if check(g, emb, alpha).passed and not image.pseudo:
            assert doubling_dimension(image, mode="exact") <= 2 * ub.value, (g.rows, alpha, ub.tag)


def test_greedy_report_validates_the_greedy_embedding():
    greedy = replace(DEFAULT_LIMITS, exact_cover=0)
    compared = 0
    for seed in range(30):
        g = gen_gnp(16, 0.5, seed)
        for alpha in (0.65, 0.8, 1.5):
            for ub in upper_bounds(g, alpha, limits=greedy)[0]:
                if ub.tag not in ("linf_collapse", "pseudo_metric", "l2_simplex_jl"):
                    continue
                emb = BY_TAG[ub.tag].build(g, alpha, 0, greedy)
                assert "greedy" in emb.source
                assert check(g, emb, alpha).passed
                assert emb.claimed_dim_bound == ub.value, (seed, alpha, ub.tag)
                compared += 1
    assert compared == 150


def test_cli_names_come_from_the_table():
    names = ("spm", "collapse", "prop6", "frechet", "frechet-q", "schoenberg", "simplex-jl")
    assert tuple(BY_CLI) == names
    assert [c.tag for c in CONSTRUCTIONS if c.tag] == list(BY_TAG)
    args = build_parser().parse_args(["embed", "g.el", "--construction", "frechet-q"])
    assert BY_CLI[args.construction].tag == "linf_quotient"
