"""The construction table: each report ceiling against the embedding its
row builds, and the CLI names it exposes."""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim.bounds import upper_bounds
from presdim.cli import build_parser
from presdim.config import DEFAULT_LIMITS
from presdim.construct import BY_CLI, BY_TAG, CONSTRUCTIONS, JLProjectionError
from presdim.graph import NAMED_FAMILIES, GenerationError, from_edge_list, gen_gnp, gen_named
from presdim.metric import FiniteMetric, PointSet, doubling_dimension, induced_metric
from presdim.preserve import check

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
