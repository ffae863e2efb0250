"""Constructive neighborhood-preserving embeddings.

Every construction returns an :class:`EmbeddingResult` whose claims are
self-contained: the level interval it promises, a witness threshold, and a
doubling-dimension bound for its target space. Coordinate dimensions convert
to doubling bounds with a factor log2(3) per axis in sup-norm spaces and
log2(5) in Euclidean ones (half-radius ball covers of a cube and a ball).

``CONSTRUCTIONS`` is the one table that ties each construction to its
``presdim embed`` name, its report tag and the ceiling rule that
``bounds.upper_bounds`` evaluates; a ceiling and its builder's claimed bound
share the dimension arithmetic defined here. Ceiling rules do no graph work:
they read the level-free :class:`GraphFacts` that ``graph_facts`` computes
once per graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .graph import (
    Graph,
    GenerationError,
    all_pairs_distances,
    connected_components,
    quotient_by_neighborhood,
    quotient_with_map,
    rng_for,
    spectrum_top2,
)
from .metric import FiniteMetric, PointSet, validate_entries, validate_metric
from .partition import (
    VertexPartition,
    gated_clique_cover,
    neighborhood_class_count,
    neighborhood_partition,
)
from .preserve import check, mapped_distances
from .util import int_ceil

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
    "GraphFacts",
    "graph_facts",
    "Construction",
    "CONSTRUCTIONS",
    "BY_TAG",
    "BY_CLI",
    "require_seed",
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


# -- shortest-path metric -----------------------------------------------------


def shortest_path_metric(g: Graph) -> EmbeddingResult:
    """Hop-distance metric: neighbors at 1, non-neighbors at >= 2.

    Disconnected inputs place components at mutual distance
    2*(max eccentricity) + 1, which keeps the triangle inequality and the
    non-neighbor separation intact.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    d = all_pairs_distances(g)
    finite = d[np.isfinite(d)]
    max_ecc = float(finite.max()) if finite.size else 0.0
    d = np.where(np.isfinite(d), d, 2.0 * max_ecc + 1.0)
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
    # never exceed min(s, n), so only that prefix is materialized.
    axis = [0.0]
    for _ in range(min(s, n) - 1):
        w = axis[-1] + eps
        while w - axis[-1] < eps:
            w = math.nextafter(w, math.inf)
        axis.append(w)
    if not axis[-1] < r:
        raise ValueError("grid spacing exceeded the requested diameter")
    pts = np.empty((n, d))
    for i in range(n):
        x = i
        for axis_idx in range(d - 1, -1, -1):
            pts[i, axis_idx] = axis[x % s]
            x //= s
    return PointSet(pts, norm=math.inf)


def clique_collapse_linf(
    g: Graph, alpha: float, limit: int | None = None
) -> EmbeddingResult:
    """Collapse each block of a clique partition to one sup-norm grid point.

    Valid for levels up to (and including) ``alpha`` < 1: blocks sit pairwise
    at gap >= alpha inside an open unit-diameter ball, so non-neighbors are
    separated while every neighbor pair lands strictly inside threshold 1.
    """
    if not 0 < alpha < 1:
        raise ValueError("collapse embedding needs alpha in (0, 1)")
    part = gated_clique_cover(g, limit)
    pts = grid_packing_linf(max(part.size, 1), 1.0, alpha)
    return EmbeddingResult(
        target=pts,
        vertex_map=tuple(part.part_index()),
        claimed_alpha=(0.0, alpha),
        claimed_r=1.0,
        claimed_dim_bound=linf_dim(pts.dim) if part.size > 1 else 0,
        source=f"linf_collapse[{part.mode}]",
    )


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
        while drawn < samples_per_attempt and kept.shape[0] < n:
            batch = rng.standard_normal((min(chunk, samples_per_attempt - drawn), d))
            drawn += batch.shape[0]
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            batch *= radius
            for row in batch:
                if kept.shape[0] == 0 or np.linalg.norm(kept - row, axis=1).min() >= eps:
                    kept = np.vstack([kept, row[None, :]])
                    if kept.shape[0] == n:
                        break
        if kept.shape[0] == n:
            return PointSet(kept, norm=2.0)
    raise GenerationError(
        f"sphere packing reached {kept.shape[0]}/{n} points within budget"
    )


def ball_collapse_l2(
    g: Graph, alpha: float, seed: int, limit: int | None = None
) -> EmbeddingResult:
    """Euclidean analogue of the sup-norm collapse, for alpha < 1/sqrt(2)."""
    if not 0 < alpha < 1 / math.sqrt(2):
        raise ValueError("ball collapse needs alpha in (0, 1/sqrt(2))")
    part = gated_clique_cover(g, limit)
    if part.size > 1:
        pts = sphere_packing_l2(part.size, 1.0, alpha, seed)
        bound = l2_dim(pts.dim)
    else:
        pts = PointSet(np.zeros((1, 1)), norm=2.0)
        bound = 0
    return EmbeddingResult(
        target=pts,
        vertex_map=tuple(part.part_index()),
        claimed_alpha=(0.0, alpha),
        claimed_r=1.0,
        claimed_dim_bound=bound,
        source=f"l2_ball_collapse[{part.mode}]",
    )


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

    # Per block: group members by closed neighborhood (full-graph), pack the
    # classes on a grid, and register one identified point per class.
    point_part: list[int] = []
    point_coords: list[np.ndarray] = []
    vmap = [-1] * g.n
    biggest_class_count = 1
    for bi, block in enumerate(part.blocks):
        ordered = neighborhood_partition(g, block).blocks
        k = len(ordered)
        biggest_class_count = max(biggest_class_count, k)
        grid = (
            grid_packing_linf(k, 1.0 - eps, a - 1.0 + eps)
            if k > 1
            else PointSet(np.zeros((1, 1)), norm=math.inf)
        )
        for ci, members in enumerate(ordered):
            pid = len(point_part)
            point_part.append(bi)
            point_coords.append(grid.points[ci])
            for v in members:
                vmap[v] = pid

    n_pts = len(point_part)
    reps = [-1] * n_pts
    for v in range(g.n):
        if reps[vmap[v]] == -1:
            reps[vmap[v]] = v
    dist = np.zeros((n_pts, n_pts))
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            if point_part[i] == point_part[j]:
                dij = float(np.max(np.abs(point_coords[i] - point_coords[j])))
            else:
                dij = 1.0 - eps if g.has_edge(reps[i], reps[j]) else a
            dist[i, j] = dist[j, i] = dij

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
        claimed_dim_bound=pseudo_metric_dim(part.size, biggest_class_count, a),
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
    finite = d[np.isfinite(d)]
    if np.isfinite(d).all():
        coords = d[:, 1:] if h.n > 1 else np.zeros((1, 1))
    else:
        comps = connected_components(h)
        max_ecc = float(finite.max()) if finite.size else 0.0
        spread = 2.0 * max_ecc + 1.0
        cols = sum(max(len(c) - 1, 0) for c in comps) + len(comps)
        coords = np.zeros((h.n, cols))
        col = 0
        for comp in comps:
            for landmark in comp[1:]:
                for v in comp:
                    coords[v, col] = d[v, landmark]
                col += 1
        for comp in comps:
            for v in comp:
                coords[v, col] = spread
            col += 1
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
        # Single neighborhood class (complete graph): one point suffices.
        return EmbeddingResult(
            target=PointSet(np.zeros((1, 1)), norm=2.0),
            vertex_map=tuple(vmap),
            claimed_alpha=(0.0, 2.0),
            claimed_r=1.0,
            claimed_dim_bound=0,
            source="schoenberg",
        ), 0.0
    if h.edge_count == 0:
        raise ValueError("spectral embedding needs at least one quotient edge")
    a = h.adjacency_matrix()
    lam = float(np.linalg.eigvalsh(a)[-1])
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
    pts = v[:, pos] * np.sqrt(w[pos]) if pos else np.zeros((h.n, 1))
    if lam <= 1.0:
        amax = math.inf
        hi = 2.0
    else:
        amax = (1.0 - 1.0 / lam) ** -0.5
        hi = min(amax, 2.0)
    big = math.sqrt(max(1.0 - 1.0 / lam, 0.0))
    return EmbeddingResult(
        target=PointSet(pts, norm=2.0),
        vertex_map=tuple(vmap),
        claimed_alpha=(0.0, hi),
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
        r = base_cert.r if base_cert.r is not None else 1.0
        return replace(as_result(padded, "jl_isometric"), claimed_r=r)
    best = 0.0
    for attempt in range(retries):
        rng = rng_for(seed, attempt)
        proj = rng.standard_normal((p.dim, d_target)) / math.sqrt(d_target)
        candidate = as_result(p.points @ proj, f"jl_gaussian[attempt={attempt}]")
        cert = check(g, candidate, alpha_target)
        best = max(best, cert.alpha_max if cert.alpha_max != math.inf else best)
        if cert.passed:
            return replace(candidate, claimed_r=cert.r if cert.r is not None else 1.0)
        if cert.alpha_max == math.inf:
            best = math.inf
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
        return EmbeddingResult(
            target=PointSet(np.zeros((1, 1)), norm=2.0),
            vertex_map=vmap,
            claimed_alpha=(0.0, alpha),
            claimed_r=1.0,
            claimed_dim_bound=0,
            source=f"simplex_jl[{part.mode}]",
        )
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


def result_to_json(res: EmbeddingResult) -> str:
    """The embedding as ``json.dumps(doc, indent=2)`` would write it.

    ``indent`` selects CPython's pure-Python encoder, so only the small
    header goes through it. The target's array is written row by row with
    the C encoder and its ``", "`` separators re-indented, which gives the
    same bytes.
    """
    doc: dict = {
        "source": res.source,
        "alpha_interval": list(res.claimed_alpha),
        "r": res.claimed_r,
        "dim_bound": res.claimed_dim_bound,
        "vertex_map": list(res.vertex_map),
    }
    if isinstance(res.target, PointSet):
        doc["dim"] = res.target.dim
        doc["norm"] = "inf" if res.target.norm == math.inf else int(res.target.norm)
        key, rows = "points", res.target.points.tolist()
    else:
        doc["dim"] = res.target.n
        doc["pseudo"] = res.target.pseudo
        key, rows = "distance_matrix", res.target.dist.tolist()
    body = ",\n    ".join(_indented_row(row) for row in rows)
    array = f"[\n    {body}\n  ]" if rows else "[]"
    # The header ends with "\n}"; the array is its last member.
    return f'{json.dumps(doc, indent=2)[:-2]},\n  {json.dumps(key)}: {array}\n}}'


def _indented_row(row: list) -> str:
    """One row of numbers at depth 2 of an ``indent=2`` document."""
    if not row:
        return "[]"
    return "[\n      " + json.dumps(row)[1:-1].replace(", ", ",\n      ") + "\n    ]"


def result_from_json(text: str) -> EmbeddingResult:
    """Inverse of ``result_to_json``; a missing or ill-typed field raises
    ``ValueError``."""
    doc = json.loads(text)
    try:
        if "points" in doc:
            norm = math.inf if doc["norm"] == "inf" else float(doc["norm"])
            target: FiniteMetric | PointSet = PointSet(np.array(doc["points"]), norm=norm)
            if not np.isfinite(target.points).all():
                raise ValueError("malformed embedding document: points must be finite")
        else:
            target = FiniteMetric(
                np.array(doc["distance_matrix"]), pseudo=bool(doc.get("pseudo", False))
            )
            bad = validate_entries(target.dist)
            if bad is not None:
                raise ValueError(
                    f"malformed embedding document: distance_matrix fails {bad.axiom} "
                    f"at {bad.witness} ({bad.detail})"
                )
        return EmbeddingResult(
            target=target,
            vertex_map=tuple(doc["vertex_map"]),
            claimed_alpha=tuple(doc["alpha_interval"]),
            claimed_r=float(doc["r"]),
            claimed_dim_bound=int(doc["dim_bound"]),
            source=doc["source"],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed embedding document ({type(exc).__name__}: {exc})") from exc


# -- the construction table ---------------------------------------------------------
# Builders take (g, alpha, seed, limits). A ceiling rule takes (facts, alpha),
# facts being the level-free GraphFacts of the graph, and gives (value, note)
# where its bound applies and (None, reason for the omission) elsewhere.


def require_seed(seed: int | None) -> int:
    if seed is None:
        raise ValueError("this operation is randomized; pass --seed")
    return seed


@dataclass(frozen=True)
class GraphFacts:
    """The level-free graph invariants the ceiling rules read.

    ``cover`` is the gated clique partition the report counts, ``quotient``
    the neighborhood-class quotient, ``block_classes`` the largest number of
    neighborhood classes inside one cover block and ``degree`` the common
    degree of a regular graph on at least 2 vertices (None otherwise).
    """

    n: int
    cover: VertexPartition
    quotient: Graph
    block_classes: int
    degree: int | None

    @cached_property
    def lam(self) -> float:
        """Top adjacency eigenvalue of the quotient, computed on first use:
        BLAS worker threads spin for a while after ``eigvalsh``, which would
        cost CPU time on every report whose levels never read it."""
        return spectrum_top2(self.quotient)[0]


def graph_facts(g: Graph, limits: Limits = DEFAULT_LIMITS) -> GraphFacts:
    """Compute the facts every ceiling rule reads, once per graph."""
    cover = gated_clique_cover(g, limits.exact_cover)
    degrees = set(g.degrees())
    return GraphFacts(
        n=g.n,
        cover=cover,
        quotient=quotient_by_neighborhood(g),
        block_classes=max((neighborhood_class_count(g, b) for b in cover.blocks), default=1),
        degree=degrees.pop() if len(degrees) == 1 and g.n > 1 else None,
    )


Ceiling = tuple[float | None, str]


@dataclass(frozen=True)
class Construction:
    """One table row; ``tag`` (report) and ``cli`` (``presdim embed``) may be None."""

    tag: str | None
    cli: str | None
    build: Callable[[Graph, float, int | None, Limits], EmbeddingResult]
    ceiling: Callable[[GraphFacts, float], Ceiling] | None = None


def _collapse_ceiling(facts: GraphFacts, alpha: float) -> Ceiling:
    if alpha >= 1:
        return None, "needs alpha < 1"
    return float(linf_dim(grid_dim(facts.cover.size, int_ceil(1 / alpha)))), ""


def _pseudo_metric_ceiling(facts: GraphFacts, alpha: float) -> Ceiling:
    if alpha < 1:
        return None, "needs alpha >= 1"
    if alpha == 1:
        note = "limit realization of the (1, 2) construction"
        return float(pseudo_metric_dim(facts.cover.size, 1, 1.0)), note
    return float(pseudo_metric_dim(facts.cover.size, facts.block_classes, alpha)), ""


def _quotient_ceiling(facts: GraphFacts, alpha: float) -> Ceiling:
    if alpha < 1:
        return None, "collapse bound already applies below 1"
    return float(linf_dim(facts.quotient.n)), ""


def _ball_collapse_ceiling(facts: GraphFacts, alpha: float) -> Ceiling:
    if alpha >= 1 / math.sqrt(2):
        return None, "needs alpha < 1/sqrt(2)"
    return float(l2_dim(packing_dim(facts.cover.size, 1.0, alpha))), ""


def _simplex_ceiling(facts: GraphFacts, alpha: float) -> Ceiling:
    if alpha >= 1:
        return None, "needs alpha < 1"
    if alpha <= 1 / math.sqrt(3):
        return None, "needs alpha in (1/sqrt(3), 1)"
    return float(l2_dim(simplex_jl_coords(facts.cover.size, alpha))), ""


def _spectral_ceiling(facts: GraphFacts, alpha: float) -> Ceiling:
    if alpha < 1:
        return None, "spectral route targets alpha >= 1"
    quotient = facts.quotient
    if quotient.edge_count == 0:
        return None, "quotient has no edges"
    lam = facts.lam
    ceiling = math.inf if lam <= 1 else (1.0 - 1.0 / (4.0 * lam)) ** -0.5
    if alpha >= ceiling:
        return None, f"alpha >= (1 - 1/(4 lambda))^-1/2 = {ceiling:.6f}"
    # Capped at c - 1 coordinates, while _spectral_jl projects to up to c.
    return float(l2_dim(min(spectral_coords(lam, quotient.n), quotient.n - 1))), ""


def _regular_ceiling(facts: GraphFacts, alpha: float) -> Ceiling:
    k = facts.degree
    if k is None:
        return None, "graph is not regular"
    if k < 1:
        return None, "edgeless graph"
    if alpha >= math.sqrt(1.0 + 1.0 / (4.0 * k)):
        return None, "alpha outside (0, sqrt(1 + 1/(4k)))"
    if facts.quotient.n > 1 and facts.quotient.edge_count == 0:
        # Equal disjoint cliques: schoenberg_embedding has no quotient edge to scale.
        return None, "quotient has no edges"
    return float(spectral_coords(k, facts.n)), ""


def _project(
    base: EmbeddingResult, g: Graph, alpha: float, seed: int | None, d: int
) -> EmbeddingResult:
    return jl_project(
        base.target, max(d, 1), g, alpha, require_seed(seed), vertex_map=base.vertex_map
    )


def _spectral_jl(g: Graph, alpha: float, seed: int | None, limits: Limits) -> EmbeddingResult:
    base, lam = _schoenberg(g)
    c = base.n_points
    return _project(base, g, alpha, seed, min(spectral_coords(lam, c), c))


def _regular_jl(g: Graph, alpha: float, seed: int | None, limits: Limits) -> EmbeddingResult:
    base = schoenberg_embedding(g)
    return _project(base, g, alpha, seed, min(spectral_coords(g.degree(0), g.n), g.n))


CONSTRUCTIONS: tuple[Construction, ...] = (
    Construction("shortest_path", "spm", lambda g, a, seed, lim: shortest_path_metric(g),
                 lambda facts, a: (float(shortest_path_dim(facts.n)), "")),
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
                 lambda g, a, seed, lim: ball_collapse_l2(
                     g, a, require_seed(seed), limit=lim.exact_cover),
                 _ball_collapse_ceiling),
    Construction("l2_simplex_jl", "simplex-jl",
                 lambda g, a, seed, lim: simplex_embedding(
                     g, a, require_seed(seed), limit=lim.exact_cover),
                 _simplex_ceiling),
    Construction("l2_spectral", None, _spectral_jl, _spectral_ceiling),
    Construction("l2_regular", None, _regular_jl, _regular_ceiling),
)
BY_TAG = {c.tag: c for c in CONSTRUCTIONS if c.tag}
BY_CLI = {c.cli: c for c in CONSTRUCTIONS if c.cli}
