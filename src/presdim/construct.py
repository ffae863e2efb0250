"""Constructive neighborhood-preserving embeddings.

Every construction returns an :class:`EmbeddingResult` whose claims are
self-contained: the level interval it promises, a witness threshold, and a
doubling-dimension bound for its target space. Coordinate dimensions convert
to doubling bounds with a factor log2(3) per axis in sup-norm spaces and
log2(5) in Euclidean ones (half-radius ball covers of a cube and a ball).

``CONSTRUCTIONS`` is the one table that ties each construction to its
``presdim embed`` name, its report tag and the ceiling rule that
``bounds.upper_bounds`` evaluates; a ceiling and its builder's claimed bound
share the dimension arithmetic defined here. Ceiling rules do no graph work
of their own: they read the level-free parts of the graph's
``bounds.GraphAnalysis``, each computed on first read and at most once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .config import Limits
from .graph import (
    Graph,
    GenerationError,
    all_pairs_distances,
    connected_components,
    group_index,
    quotient_with_map,
    require_seed,
    rng_for,
    spectrum_top2,
)
from .metric import FiniteMetric, PointSet, checked, validate_metric
from .partition import gated_clique_cover, neighborhood_partition
from .preserve import check, mapped_distances
from .util import (
    dump_json,
    int_ceil,
    json_array,
    json_bool,
    json_float,
    json_float_pair,
    json_index_list,
    json_int,
    json_str,
    load_json,
    read_members,
    sorted_distinct,
)

if TYPE_CHECKING:  # bounds imports this module
    from .bounds import GraphAnalysis

__all__ = [
    "EmbeddingResult",
    "JLProjectionError",
    "shortest_path_metric",
    "clique_collapse_linf",
    "ball_collapse_l2",
    "pseudo_metric_embedding",
    "grid_packing_linf",
    "sphere_packing_l2",
    "frechet_embedding",
    "frechet_quotient_embedding",
    "schoenberg_embedding",
    "jl_project",
    "simplex_embedding",
    "center_and_normalize",
    "result_to_json",
    "result_from_json",
    "Construction",
    "CONSTRUCTIONS",
    "BY_TAG",
    "BY_CLI",
]

LOG2_3 = math.log2(3.0)
LOG2_5 = math.log2(5.0)


# -- dimension arithmetic shared by the builders and the report ceilings -------


def linf_dim(coords: int) -> int:
    """Doubling bound of a sup-norm space with ``coords`` axes."""
    return int_ceil(LOG2_3 * coords)


def l2_dim(coords: int) -> int:
    """Doubling bound of a Euclidean space with ``coords`` axes."""
    return int_ceil(LOG2_5 * coords)


def shortest_path_dim(n: int) -> int:
    """Doubling bound of any n-point metric: ceil(log2 n)."""
    return int_ceil(math.log2(n)) if n > 1 else 0


def grid_dim(n: int, s: int) -> int:
    """Axes of the side-``s`` grid that holds ``n`` points (0 for one point)."""
    if n <= 1:
        return 0
    d = int_ceil(math.log(n) / math.log(s))
    while s**d < n:
        d += 1
    return d


def pseudo_metric_dim(blocks: int, classes: int, alpha: float) -> int:
    """Bound of the case-table metric: log2(blocks) plus log2(3) per axis of
    the grid, of side ceil(1/(alpha-1)), that packs the largest block's
    ``classes`` neighborhood classes. The limit level alpha = 1 is charged
    one full axis."""
    inner = 1 if alpha == 1.0 else grid_dim(classes, int_ceil(1.0 / (alpha - 1.0)))
    return int_ceil(math.log2(blocks) + LOG2_3 * inner) if blocks > 1 or inner else 0


def packing_dim(n: int, r: float, eps: float) -> int:
    """Coordinates of the Euclidean sphere packing of ``n`` points at gaps
    ``eps`` in diameter ``r``: ceil(4 log(n+1) / (2 - (2 eps/r)^2))."""
    gamma = 2.0 * eps / r
    denom = 2.0 - gamma * gamma
    if denom <= 0:
        raise ValueError(
            "packing separation too close to the diameter: need eps < r/sqrt(2)"
        )
    return max(1, int_ceil(4.0 * math.log(n + 1) / denom))


def simplex_jl_coords(blocks: int, alpha: float) -> int:
    """Projection coordinates of the block simplex at level alpha:
    ceil(12 log(blocks) ((1+alpha^2)/(1-alpha^2))^2), 0 for one block."""
    ratio = (1.0 + alpha * alpha) / (1.0 - alpha * alpha)
    return int_ceil(12.0 * ratio * ratio * math.log(blocks)) if blocks > 1 else 0


def spectral_coords(lam: float, points: int) -> int:
    """Projection coordinates of the spectral routes: ceil(192 lam^2 ln points)."""
    return int_ceil(192.0 * lam * lam * math.log(points))


def spectral_width(count: int, classes: int) -> int:
    """Coordinates of the l2-spectral routes on ``classes`` neighborhood
    classes: their coordinate ``count``, capped at the classes - 1 dimensions
    that as many centered points span."""
    return min(count, classes - 1)


class JLProjectionError(RuntimeError):
    """Random projection failed to certify within the retry budget."""

    def __init__(self, message: str, best_alpha_max: float):
        super().__init__(message)
        self.best_alpha_max = best_alpha_max


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """A concrete embedding together with its certified claims.

    ``vertex_map`` sends each graph vertex to a point index of ``target``;
    ``claimed_alpha`` is the (open-ended) level interval the construction
    promises to pass, ``claimed_r`` a representative threshold witness and
    ``claimed_dim_bound`` the doubling-dimension bound of the target space.
    """

    target: FiniteMetric | PointSet
    vertex_map: tuple[int, ...]
    claimed_alpha: tuple[float, float]
    claimed_r: float
    claimed_dim_bound: int
    source: str

    @property
    def n_points(self) -> int:
        return self.target.n

    def vertex_distances(self) -> np.ndarray:
        return mapped_distances(self.target, self.vertex_map)[0]


def _identity_map(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _one_point(vertex_map: Sequence[int], hi: float, source: str, norm: float = 2.0) -> EmbeddingResult:
    """Every vertex on one point: the embedding of a graph whose vertices
    share one clique block or one neighborhood class."""
    return EmbeddingResult(
        target=PointSet(np.zeros((1, 1)), norm=norm),
        vertex_map=tuple(vertex_map),
        claimed_alpha=(0.0, hi),
        claimed_r=1.0,
        claimed_dim_bound=0,
        source=source,
    )


def _collapse(g: Graph, alpha: float, limit: int | None, label: str, norm: float,
              pack: Callable[[int], PointSet], dim: Callable[[int], int]) -> EmbeddingResult:
    """Collapse each block of the gated clique cover to one point of
    ``pack(blocks)``, whose points sit pairwise >= alpha apart inside an open
    unit-diameter ball: non-neighbors are separated while every neighbor pair
    lands strictly inside threshold 1. ``dim`` converts the packing's axes to
    its doubling bound. A single block needs no packing."""
    part = gated_clique_cover(g, limit)
    one = _one_point(part.part_index(), alpha, f"{label}[{part.mode}]", norm)
    if part.size <= 1:
        return one
    pts = pack(part.size)
    return replace(one, target=pts, claimed_dim_bound=dim(pts.dim))


# -- shortest-path metric -----------------------------------------------------


def _component_spread(d: np.ndarray) -> float:
    """2*(max eccentricity) + 1 of a hop-distance matrix (``inf`` across
    components): the mutual distance at which components can sit while the
    triangle inequality and the non-neighbor separation stay intact."""
    finite = d[np.isfinite(d)]
    return 2.0 * (float(finite.max()) if finite.size else 0.0) + 1.0


def shortest_path_metric(g: Graph) -> EmbeddingResult:
    """Hop-distance metric: neighbors at 1, non-neighbors at >= 2.

    Disconnected inputs place components at mutual distance
    ``_component_spread``.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    d = all_pairs_distances(g)
    d = np.where(np.isfinite(d), d, _component_spread(d))
    return EmbeddingResult(
        target=FiniteMetric(d),
        vertex_map=_identity_map(g.n),
        claimed_alpha=(0.0, 2.0),
        claimed_r=1.5,
        claimed_dim_bound=shortest_path_dim(g.n),
        source="shortest_path",
    )


# -- sup-norm grid packings and collapses --------------------------------------


def grid_packing_linf(n: int, r: float, eps: float) -> PointSet:
    """n points in a sup-norm ball of diameter < r with pairwise gaps >= eps.

    Points are the first n nodes of the eps-resolution grid
    {w_0, ..., w_{s-1}}^d in lexicographic order, with
    d = ceil(log n / log ceil(r/eps)). Axis values are spaced so that
    consecutive gaps are >= eps exactly in floating point.
    """
    if not 0 < eps < r:
        raise ValueError("need 0 < eps < r")
    if n < 1:
        raise ValueError("need at least one point")
    if n == 1:
        return PointSet(np.zeros((1, 1)), norm=math.inf)
    s = int_ceil(r / eps)
    d = grid_dim(n, s)
    # Axis values: cumulative sums of eps, nudged up until each float gap
    # is >= eps (consecutive-term subtraction is exact by Sterbenz). Digits
    # never exceed min(s, n), so only that prefix is materialized; base
    # min(s, n) gives the same digits (s > n only with d = 1) and keeps its
    # powers below n.
    base = min(s, n)
    axis = [0.0]
    for _ in range(base - 1):
        w = axis[-1] + eps
        while w - axis[-1] < eps:
            w = math.nextafter(w, math.inf)
        axis.append(w)
    if not axis[-1] < r:
        raise ValueError("grid spacing exceeded the requested diameter")
    digits = np.arange(n)[:, None] // base ** np.arange(d - 1, -1, -1) % base
    return PointSet(np.array(axis)[digits], norm=math.inf)


def clique_collapse_linf(
    g: Graph, alpha: float, limit: int | None = None
) -> EmbeddingResult:
    """Collapse each block of a clique partition to one sup-norm grid point,
    valid for levels up to (and including) ``alpha`` < 1."""
    if not 0 < alpha < 1:
        raise ValueError("collapse embedding needs alpha in (0, 1)")
    return _collapse(g, alpha, limit, "linf_collapse", math.inf,
                     lambda m: grid_packing_linf(m, 1.0, alpha), linf_dim)


# -- Euclidean sphere packings and collapses ------------------------------------


def sphere_packing_l2(
    n: int,
    r: float,
    eps: float,
    seed: int,
    attempts: int = 10,
    samples_per_attempt: int = 100_000,
) -> PointSet:
    """n points inside an open Euclidean ball of diameter r, pairwise >= eps.

    Greedy maximal packing of uniform sphere samples in dimension
    d = ceil(4 log(n+1) / (2 - (2 eps/r)^2)); fresh sample batches are drawn
    until the packing is complete or the budget runs out. Deterministic
    given the seed.

    Samples are taken in order, each kept when it lies at least eps from
    every point kept before it. A batch is tested against one kept point
    at a time, each test on the rows that passed the ones before it; after
    each new keeper only the rows behind it are re-tested, against that
    keeper alone. Each test is the norm of a difference row, so the points
    kept are those of a row-by-row loop over
    ``np.linalg.norm(kept - row, axis=1)``.
    """
    if not 0 < eps < r:
        raise ValueError("need 0 < eps < r")
    d = packing_dim(n, r, eps)
    if n == 1:
        return PointSet(np.zeros((1, d)), norm=2.0)
    radius = (r / 2.0) * (1.0 - 1e-9)
    kept = np.empty((0, d))
    chunk = 1024
    for attempt in range(attempts):
        rng = rng_for(seed, attempt)
        drawn = 0
        while drawn < samples_per_attempt and len(kept) < n:
            batch = rng.standard_normal((min(chunk, samples_per_attempt - drawn), d))
            drawn += batch.shape[0]
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            batch *= radius
            alive = np.arange(len(batch))
            for point in kept:
                alive = alive[np.linalg.norm(point - batch[alive], axis=1) >= eps]
            far = np.zeros(len(batch), dtype=bool)
            far[alive] = True
            start = 0
            while len(kept) < n and (hits := np.flatnonzero(far[start:])).size:
                i = start + int(hits[0])
                kept = np.vstack([kept, batch[i]])
                start = i + 1
                far[start:] &= np.linalg.norm(batch[i] - batch[start:], axis=1) >= eps
        if len(kept) == n:
            return PointSet(kept, norm=2.0)
    raise GenerationError(f"sphere packing reached {len(kept)}/{n} points within budget")


def ball_collapse_l2(
    g: Graph, alpha: float, seed: int, limit: int | None = None
) -> EmbeddingResult:
    """Euclidean analogue of the sup-norm collapse, for alpha < 1/sqrt(2)."""
    if not 0 < alpha < 1 / math.sqrt(2):
        raise ValueError("ball collapse needs alpha in (0, 1/sqrt(2))")
    return _collapse(g, alpha, limit, "l2_ball_collapse", 2.0,
                     lambda m: sphere_packing_l2(m, 1.0, alpha, seed), l2_dim)


# -- pseudo-metric construction for levels in (1, 2) -----------------------------


def _largest_margin(alpha: float) -> float:
    """Largest eps in (0, 0.5] keeping ceil((1-eps)/(alpha-1+eps)) at its
    eps -> 0 value ceil(1/(alpha-1)); located by bisection.

    The same tolerant ceiling used by the grid builder decides the predicate,
    so the packing grid resolution agrees with the claimed dimension bound.
    """
    m0 = int_ceil(1.0 / (alpha - 1.0))

    def keeps_ceiling(e: float) -> bool:
        return int_ceil((1.0 - e) / (alpha - 1.0 + e)) == m0

    # Bisect on the exponent so margins spanning many orders of magnitude
    # (alpha close to 1 leaves only ~1/m0^2) resolve to high relative
    # precision with its floor anchored at a provably admissible value.
    lo_exp, hi_exp = -60.0, math.log2(0.5)
    if not keeps_ceiling(2.0**lo_exp):
        raise ValueError(f"no admissible margin for alpha={alpha}")
    if keeps_ceiling(2.0**hi_exp):
        return 0.5
    for _ in range(80):
        mid = (lo_exp + hi_exp) / 2
        if keeps_ceiling(2.0**mid):
            lo_exp = mid
        else:
            hi_exp = mid
    eps = 2.0**lo_exp
    if not (eps > 0 and keeps_ceiling(eps)):
        raise ValueError(f"no admissible margin for alpha={alpha}")
    return eps


def pseudo_metric_embedding(
    g: Graph, alpha: float, limit: int | None = None
) -> EmbeddingResult:
    """Case-table metric realizing levels in (1, 2): non-neighbors at alpha,
    cross-block neighbors at 1-eps, blocks internally packed by neighborhood
    class at gaps >= alpha-1+eps inside diameter < 1-eps.

    Vertices with identical closed neighborhoods inside a block merge to one
    point (metric identification), so the target is a genuine metric.
    ``alpha = 1`` is accepted as the limiting case and realized at 1 + 1e-6.
    """
    if not 1 <= alpha < 2:
        raise ValueError("pseudo-metric construction needs alpha in [1, 2)")
    limiting = alpha == 1.0
    a = 1.0 + 1e-6 if limiting else alpha
    eps = _largest_margin(a)
    part = gated_clique_cover(g, limit)

    # One point per neighborhood class (full-graph) of each block, block by
    # block. Adjacency between classes does not depend on the representative.
    classes = [neighborhood_partition(g, block).blocks for block in part.blocks]
    points = [members for block in classes for members in block]
    reps = [members[0] for members in points]
    dist = np.where(g.matrix[np.ix_(reps, reps)], 1.0 - eps, a)
    vmap = group_index(points, g.n)
    # Each block's classes are packed on a grid; 0 < a-1+eps < 1-eps because
    # the margin keeps ceil((1-eps)/(a-1+eps)) = ceil(1/(a-1)) >= 2.
    lo = 0
    for block in classes:
        hi = lo + len(block)
        dist[lo:hi, lo:hi] = grid_packing_linf(len(block), 1.0 - eps, a - 1.0 + eps).distance_matrix()
        lo = hi

    target = FiniteMetric(dist)
    violation = validate_metric(target)
    if violation is not None:
        raise RuntimeError(f"construction produced a non-metric: {violation}")

    label = "pseudo_metric[limit at 1]" if limiting else "pseudo_metric"
    return EmbeddingResult(
        target=target,
        vertex_map=tuple(vmap),
        claimed_alpha=(0.0, alpha),
        claimed_r=1.0,
        claimed_dim_bound=pseudo_metric_dim(part.size, max(map(len, classes), default=1), a),
        source=f"{label}[{part.mode}]",
    )


# -- coordinate embeddings of the path metric ------------------------------------


def frechet_embedding(g: Graph) -> EmbeddingResult:
    """Distance-coordinate embedding into sup-norm space: v -> (d(v, u))_u
    over landmarks u = 1..n-1. Reproduces hop distances exactly."""
    if g.n < 1:
        raise ValueError("need at least one vertex")
    d = all_pairs_distances(g)
    if not np.isfinite(d).all():
        raise ValueError("distance-coordinate embedding needs a connected graph")
    pts = d[:, 1:] if g.n > 1 else np.zeros((1, 1))
    return EmbeddingResult(
        target=PointSet(pts, norm=math.inf),
        vertex_map=_identity_map(g.n),
        claimed_alpha=(0.0, 2.0),
        claimed_r=1.5,
        claimed_dim_bound=linf_dim(g.n - 1),
        source="frechet",
    )


def frechet_quotient_embedding(g: Graph) -> EmbeddingResult:
    """Distance-coordinate embedding of the neighborhood-class quotient,
    lifted back to the vertices through the class map.

    Disconnected quotients get per-component distance coordinates plus one
    indicator axis per component, placing components at mutual distance
    2*(max eccentricity) + 1.
    """
    h, vmap = quotient_with_map(g)
    d = all_pairs_distances(h)
    if np.isfinite(d).all():
        coords = d[:, 1:] if h.n > 1 else np.zeros((1, 1))
    else:
        comps, spread = connected_components(h), _component_spread(d)
        indicator = np.zeros((h.n, len(comps)))
        for i, comp in enumerate(comps):
            indicator[comp, i] = spread
        d[np.isinf(d)] = 0.0
        coords = np.hstack([d[:, [v for comp in comps for v in comp[1:]]], indicator])
    return EmbeddingResult(
        target=PointSet(coords, norm=math.inf),
        vertex_map=tuple(vmap),
        claimed_alpha=(1.0, 2.0),
        claimed_r=1.5,
        claimed_dim_bound=linf_dim(h.n),
        source="frechet_quotient",
    )


# -- spectral Euclidean embedding -------------------------------------------------


def schoenberg_embedding(g: Graph) -> EmbeddingResult:
    """Euclidean embedding of the neighborhood-class quotient from a squared
    distance matrix D = A_complement + (1 - 1/lambda) A.

    lambda is the top adjacency eigenvalue of the quotient; the centered Gram
    form of D is positive semidefinite (spectral-radius argument), so classic
    double-centering + eigendecomposition recovers exact coordinates.
    Neighbors land at sqrt(1 - 1/lambda), non-neighbors at 1, giving the
    supremal level (1 - 1/lambda)^(-1/2).
    """
    return _schoenberg(g)[0]


def _schoenberg(g: Graph) -> tuple[EmbeddingResult, float]:
    """``schoenberg_embedding`` together with the quotient's top eigenvalue
    lambda, which is 0 for a single neighborhood class."""
    h, vmap = quotient_with_map(g)
    if h.n == 1:
        return _one_point(vmap, 2.0, "schoenberg"), 0.0
    if h.edge_count == 0:
        raise ValueError("spectral embedding needs at least one quotient edge")
    # lam > 1: no two adjacent vertices of the quotient share a closed
    # neighborhood, so a component with an edge u-v has a vertex w adjacent
    # to exactly one of them. It thus holds an induced path on three
    # vertices, and lam >= sqrt(2) by interlacing.
    lam = spectrum_top2(h)[0]
    a = h.adjacency_matrix()
    comp = np.ones((h.n, h.n)) - np.eye(h.n) - a
    d2 = comp + (1.0 - 1.0 / lam) * a
    j = np.eye(h.n) - np.ones((h.n, h.n)) / h.n
    gram = -0.5 * j @ d2 @ j
    w, v = np.linalg.eigh(gram)
    if w.min() < -1e-9:
        raise RuntimeError(
            f"centered Gram matrix has eigenvalue {w.min():.3e} < -1e-9; "
            "top eigenvalue was miscomputed"
        )
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    pos = [i for i in order if w[i] > 0.0]
    pts = v[:, pos] * np.sqrt(w[pos])
    big = math.sqrt(1.0 - 1.0 / lam)
    return EmbeddingResult(
        target=PointSet(pts, norm=2.0),
        vertex_map=tuple(vmap),
        claimed_alpha=(0.0, min((1.0 - 1.0 / lam) ** -0.5, 2.0)),
        claimed_r=(big + 1.0) / 2,
        claimed_dim_bound=l2_dim(pts.shape[1]),
        source="schoenberg",
    ), lam


# -- random projection --------------------------------------------------------------


def jl_project(
    p: PointSet,
    d_target: int,
    g: Graph,
    alpha_target: float,
    seed: int,
    retries: int = 5,
    vertex_map: Sequence[int] | None = None,
) -> EmbeddingResult:
    """Project a Euclidean embedding to ``d_target`` coordinates, keeping the
    requested preservation level.

    When ``d_target`` meets or exceeds the current dimension the inclusion is
    isometric (zero-padding) and deterministic. Otherwise scaled Gaussian
    projections are retried (seeds derived per attempt) until the certificate
    passes; exhausting the budget raises with the best level achieved, which
    is a legitimate probabilistic outcome rather than a bug.
    """
    if p.norm != 2.0:
        raise ValueError("random projection expects a Euclidean point set")
    if d_target < 1:
        raise ValueError("target dimension must be >= 1")
    vmap = tuple(range(p.n)) if vertex_map is None else tuple(vertex_map)
    if len(vmap) != g.n:
        raise ValueError("vertex_map must be total over the vertex set")

    def as_result(points: np.ndarray, src: str) -> EmbeddingResult:
        return EmbeddingResult(
            target=PointSet(points, norm=2.0),
            vertex_map=vmap,
            claimed_alpha=(0.0, alpha_target),
            claimed_r=1.0,
            claimed_dim_bound=l2_dim(points.shape[1]),
            source=src,
        )

    base = as_result(p.points, "jl_input")
    base_cert = check(g, base, alpha_target)
    if not base_cert.passed:
        raise ValueError(
            f"input embedding only reaches level {base_cert.alpha_max:.6f}, "
            f"below the target {alpha_target}"
        )
    if d_target >= p.dim:
        padded = np.hstack([p.points, np.zeros((p.n, d_target - p.dim))])
        return replace(as_result(padded, "jl_isometric"), claimed_r=base_cert.r)
    best = 0.0
    for attempt in range(retries):
        rng = rng_for(seed, attempt)
        proj = rng.standard_normal((p.dim, d_target)) / math.sqrt(d_target)
        candidate = as_result(p.points @ proj, f"jl_gaussian[attempt={attempt}]")
        cert = check(g, candidate, alpha_target)
        if cert.passed:
            return replace(candidate, claimed_r=cert.r)
        best = max(best, cert.alpha_max)
    raise JLProjectionError(
        f"projection failed {retries} attempts at level {alpha_target}; "
        f"best achieved {best:.6f}",
        best_alpha_max=best,
    )


def simplex_embedding(
    g: Graph,
    alpha: float,
    seed: int,
    retries: int = 5,
    limit: int | None = None,
) -> EmbeddingResult:
    """Unit simplex on the clique-partition blocks, then a random projection
    to ``simplex_jl_coords(m, alpha)`` = ceil(12 log m / eps^2) coordinates
    with eps = (1-alpha^2)/(1+alpha^2).

    Valid for alpha in (1/sqrt(3), 1): that range keeps eps <= 1/2, where the
    projection's squared-distance distortion translates into the requested
    level.
    """
    if not 1 / math.sqrt(3) < alpha < 1:
        raise ValueError("simplex embedding needs alpha in (1/sqrt(3), 1)")
    part = gated_clique_cover(g, limit)
    m = part.size
    vmap = tuple(part.part_index())
    if m == 1:
        return _one_point(vmap, alpha, f"simplex_jl[{part.mode}]")
    simplex = PointSet(np.eye(m) / math.sqrt(2.0), norm=2.0)
    result = jl_project(
        simplex, simplex_jl_coords(m, alpha), g, alpha, seed, retries=retries, vertex_map=vmap
    )
    return replace(result, source=f"simplex_jl[{part.mode},{result.source}]")


# -- normalization ------------------------------------------------------------------


def center_and_normalize(p: PointSet, r: float) -> PointSet:
    """Translate the centroid to the origin and rescale so threshold r maps to 1."""
    if r <= 0:
        raise ValueError("threshold must be positive")
    pts = p.points - p.points.mean(axis=0, keepdims=True)
    return PointSet(pts / r, norm=p.norm)


# -- JSON serialization ---------------------------------------------------------------


def _json_norm(v: Any) -> float:
    """A ``PointSet`` norm as ``result_to_json`` writes it."""
    if type(v) in (int, float) and v in (1, 2) or v == "inf":
        return float(v)
    raise ValueError(f'1, 2 or "inf" expected, got {v!r:.40}')


# The embedding document: its header, member -> (EmbeddingResult field,
# reader), then the target's members by the one that holds its array, which
# is written last. ``dim`` is not read back; it and ``pseudo`` may be left out.
_HEADER = {
    "source": ("source", json_str),
    "alpha_interval": ("claimed_alpha", json_float_pair),
    "r": ("claimed_r", json_float),
    "dim_bound": ("claimed_dim_bound", json_int),
    "vertex_map": ("vertex_map", json_index_list),
}
_TARGET = {
    "points": {"dim": json_int, "norm": _json_norm, "points": json_array},
    "distance_matrix": {"dim": json_int, "pseudo": json_bool, "distance_matrix": json_array},
}
_READERS = {
    key: {member: read for member, (_, read) in _HEADER.items()} | target for key, target in _TARGET.items()
}
_OPTIONAL = {"dim": None, "pseudo": False}


def result_to_json(res: EmbeddingResult) -> str:
    """The embedding as ``util.dump_json(doc)`` would write it.

    ``indent`` selects CPython's pure-Python encoder, so only the small
    header goes through ``dump_json`` (which refuses a NaN there); the
    target's array is written by ``_array_json``, which gives the same bytes.
    """
    doc = {member: getattr(res, field) for member, (field, _) in _HEADER.items()}
    if isinstance(res.target, PointSet):
        doc["dim"] = res.target.dim
        doc["norm"] = "inf" if res.target.norm == math.inf else int(res.target.norm)
        key, array = "points", res.target.points
    else:
        doc["dim"] = res.target.n
        doc["pseudo"] = res.target.pseudo
        key, array = "distance_matrix", res.target.dist
    # The header ends with "\n}"; the array is its last member.
    return f'{dump_json(doc)[:-2]},\n  {json.dumps(key)}: {_array_json(array)}\n}}'


def _array_json(a: np.ndarray) -> str:
    """A 2-d float array at depth 1 of an ``indent=2`` document.

    The C encoder writes every number as its shortest repr. When the array
    holds at most half as many distinct float64 bit patterns as entries
    (the constructions use a handful of distances), one C-encoder call
    formats each distinct value once, and the rows are joined from that
    table. Grouping sorts an integer view, so ``0.0`` and ``-0.0`` keep
    their own reprs. Otherwise each row goes through the C encoder and its
    ``", "`` separators are re-indented: a table of mostly distinct values
    is slower (measured on 2 vCPUs: 93-123 ms by rows, 140-160 ms by
    table, on the 89,909 values of a 300-point spectral embedding).
    """
    head, sep, tail = "[\n      ", ",\n      ", "\n    ]"
    if not a.size:
        rows = ["[]"] * len(a)
    else:
        keys = a.view(np.int64)
        distinct = sorted_distinct(keys, a.size // 2)
        if distinct is None:
            rows = [head + json.dumps(row)[1:-1].replace(", ", sep) + tail for row in a.tolist()]
        else:
            reprs = np.array(json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
            codes = np.searchsorted(distinct, keys)
            rows = [head + sep.join(row) + tail for row in reprs[codes].tolist()]
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def result_from_json(text: str) -> EmbeddingResult:
    """Inverse of ``result_to_json``; a missing, unknown or ill-typed member
    raises ``ValueError`` naming it."""
    what = "embedding document"
    doc = load_json(text, what)
    key = "points" if isinstance(doc, dict) and "points" in doc else "distance_matrix"
    members = read_members(doc, _READERS[key], what, _OPTIONAL)
    if key == "points":
        target: FiniteMetric | PointSet = PointSet(members["points"], norm=members["norm"])
    else:
        target = FiniteMetric(members["distance_matrix"], pseudo=members["pseudo"])
    return EmbeddingResult(
        target=checked(target, f"malformed {what}"),
        **{field: members[member] for member, (field, _) in _HEADER.items()},
    )


# -- the construction table ---------------------------------------------------------
# Builders take (g, alpha, seed, limits). A ceiling rule takes (analysis, alpha),
# analysis being the graph's bounds.GraphAnalysis, of which a rule reads only
# the level-free parts g, cover, quotient, block_classes, degree and lam, and
# gives (value, note) where its bound applies and (None, reason for the
# omission) elsewhere.


Ceiling = tuple[float | None, str]


@dataclass(frozen=True)
class Construction:
    """One table row; ``tag`` (report) and ``cli`` (``presdim embed``) may be None."""

    tag: str | None
    cli: str | None
    build: Callable[[Graph, float, int | None, Limits], EmbeddingResult]
    ceiling: Callable[[GraphAnalysis, float], Ceiling] | None = None


def _collapse_ceiling(analysis: GraphAnalysis, alpha: float) -> Ceiling:
    if alpha >= 1:
        return None, "needs alpha < 1"
    return float(linf_dim(grid_dim(analysis.cover.size, int_ceil(1 / alpha)))), ""


def _pseudo_metric_ceiling(analysis: GraphAnalysis, alpha: float) -> Ceiling:
    if alpha < 1:
        return None, "needs alpha >= 1"
    if alpha == 1:
        note = "limit realization of the (1, 2) construction"
        return float(pseudo_metric_dim(analysis.cover.size, 1, 1.0)), note
    return float(pseudo_metric_dim(analysis.cover.size, analysis.block_classes, alpha)), ""


def _quotient_ceiling(analysis: GraphAnalysis, alpha: float) -> Ceiling:
    if alpha < 1:
        return None, "collapse bound already applies below 1"
    return float(linf_dim(analysis.quotient.n)), ""


def _ball_collapse_ceiling(analysis: GraphAnalysis, alpha: float) -> Ceiling:
    if alpha >= 1 / math.sqrt(2):
        return None, "needs alpha < 1/sqrt(2)"
    return float(l2_dim(packing_dim(analysis.cover.size, 1.0, alpha))), ""


def _simplex_ceiling(analysis: GraphAnalysis, alpha: float) -> Ceiling:
    if alpha >= 1:
        return None, "needs alpha < 1"
    if alpha <= 1 / math.sqrt(3):
        return None, "needs alpha in (1/sqrt(3), 1)"
    return float(l2_dim(simplex_jl_coords(analysis.cover.size, alpha))), ""


def _spectral_ceiling(analysis: GraphAnalysis, alpha: float) -> Ceiling:
    if alpha < 1:
        return None, "spectral route targets alpha >= 1"
    quotient = analysis.quotient
    if quotient.edge_count == 0:
        return None, "quotient has no edges"
    lam = analysis.lam  # > 1, see _schoenberg
    ceiling = (1.0 - 1.0 / (4.0 * lam)) ** -0.5
    if alpha >= ceiling:
        return None, f"alpha >= (1 - 1/(4 lambda))^-1/2 = {ceiling:.6f}"
    return float(l2_dim(spectral_width(spectral_coords(lam, quotient.n), quotient.n))), ""


def _regular_ceiling(analysis: GraphAnalysis, alpha: float) -> Ceiling:
    k = analysis.degree
    if k is None:
        return None, "graph is not regular"
    if k < 1:
        return None, "edgeless graph"
    if alpha >= math.sqrt(1.0 + 1.0 / (4.0 * k)):
        return None, "alpha outside (0, sqrt(1 + 1/(4k)))"
    if analysis.quotient.n > 1 and analysis.quotient.edge_count == 0:
        # Equal disjoint cliques: schoenberg_embedding has no quotient edge to scale.
        return None, "quotient has no edges"
    return float(spectral_coords(k, analysis.g.n)), ""


def _spectral_jl(g: Graph, alpha: float, seed: int | None, count: Callable[[float, int], int]) -> EmbeddingResult:
    """Both l2-spectral rows: g's c neighborhood classes by their first c - 1 Schoenberg
    coordinates, projected to ``spectral_width(count(lam, c), c)`` of them, at least one."""
    base, lam = _schoenberg(g)
    c = base.n_points
    # _schoenberg orders its coordinates by decreasing eigenvalue, and the
    # centered Gram matrix has the all-ones vector in its kernel, so any c-th
    # coordinate is rounding noise.
    first = PointSet(base.target.points[:, : c - 1], norm=2.0)
    width = max(spectral_width(count(lam, c), c), 1)
    return jl_project(first, width, g, alpha, seed, vertex_map=base.vertex_map)


CONSTRUCTIONS: tuple[Construction, ...] = (
    Construction("shortest_path", "spm", lambda g, a, seed, lim: shortest_path_metric(g),
                 lambda analysis, a: (float(shortest_path_dim(analysis.g.n)), "")),
    Construction("linf_collapse", "collapse",
                 lambda g, a, seed, lim: clique_collapse_linf(g, a, limit=lim.exact_cover),
                 _collapse_ceiling),
    Construction("pseudo_metric", "prop6",
                 lambda g, a, seed, lim: pseudo_metric_embedding(g, a, limit=lim.exact_cover),
                 _pseudo_metric_ceiling),
    Construction(None, "frechet", lambda g, a, seed, lim: frechet_embedding(g)),
    Construction("linf_quotient", "frechet-q",
                 lambda g, a, seed, lim: frechet_quotient_embedding(g), _quotient_ceiling),
    Construction(None, "schoenberg", lambda g, a, seed, lim: schoenberg_embedding(g)),
    Construction("l2_ball_collapse", None,
                 lambda g, a, seed, lim: ball_collapse_l2(g, a, seed, limit=lim.exact_cover),
                 _ball_collapse_ceiling),
    Construction("l2_simplex_jl", "simplex-jl",
                 # --seed is asked for even where the projection is isometric.
                 lambda g, a, seed, lim: simplex_embedding(
                     g, a, require_seed(seed), limit=lim.exact_cover),
                 _simplex_ceiling),
    Construction("l2_spectral", None, lambda g, a, seed, lim: _spectral_jl(g, a, seed, spectral_coords),
                 _spectral_ceiling),
    Construction("l2_regular", None,
                 lambda g, a, seed, lim: _spectral_jl(g, a, seed, lambda lam, c: spectral_coords(g.degree(0), g.n)),
                 _regular_ceiling),
)
BY_TAG = {c.tag: c for c in CONSTRUCTIONS if c.tag}
BY_CLI = {c.cli: c for c in CONSTRUCTIONS if c.cli}
