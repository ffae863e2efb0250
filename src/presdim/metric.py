"""Finite metric spaces and normed point sets; covering, packing, doubling.

Ball centers are restricted to the points of the metric itself, which is
the standard (and decidable) choice for finite spaces: the finite space IS
the ambient space, so its open balls are exactly the point-centered ones.
All ball predicates use strict inequality (open balls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_LIMITS
from .graph import _block_rows, _pack_rows as _row_masks, bits

__all__ = [
    "FiniteMetric",
    "PointSet",
    "MetricViolation",
    "validate_entries",
    "validate_metric",
    "induced_metric",
    "covering_number",
    "packing_number",
    "doubling_dimension",
    "write_metric",
    "read_metric",
    "write_points",
    "read_points",
]

METRIC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteMetric:
    """Symmetric nonnegative distance matrix with zero diagonal.

    ``pseudo=True`` permits zero distance between distinct points.
    """

    dist: np.ndarray
    pseudo: bool = False

    def __post_init__(self) -> None:
        d = np.asarray(self.dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        object.__setattr__(self, "dist", d)

    @property
    def n(self) -> int:
        return self.dist.shape[0]


@dataclass(frozen=True, eq=False)
class PointSet:
    """Coordinate vectors under an l_p norm, p in {1, 2, inf}."""

    points: np.ndarray
    norm: float = 2.0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array (n, d)")
        if self.norm not in (1.0, 2.0, math.inf):
            raise ValueError("norm must be 1, 2, or inf")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def distance_matrix(self) -> np.ndarray:
        """Pairwise l_p distances, symmetric, with a zero diagonal.

        Only the upper triangle is computed: rows lo:hi against columns lo:,
        in blocks whose (rows, n - lo, d) difference tensor holds about
        ``graph._BLOCK_ENTRIES`` (2^14, 128 KiB) entries, and each block is
        mirrored into the lower triangle. Every entry reduces the same
        contiguous length-d difference row as the unblocked broadcast, and
        d_ij equals d_ji exactly, so the matrix is bit-identical to the
        broadcast symmetrised by ``0.5 * (d + d.T)`` wherever that sum stays
        finite; ``check`` relies on this when it decides ``m > alpha*M``.
        Peak memory is O(n^2) plus one block rather than O(n^2 d).
        """
        pts = self.points
        n, dim = pts.shape
        if n == 0 or dim == 0:
            return np.zeros((n, n))
        d = np.empty((n, n))
        lo = 0
        while lo < n:
            hi = min(n, lo + _block_rows((n - lo) * dim))
            diff = pts[lo:hi, None, :] - pts[None, lo:, :]
            if self.norm == math.inf:
                block = np.abs(diff, out=diff).max(axis=2)
            elif self.norm == 1.0:
                block = np.abs(diff, out=diff).sum(axis=2)
            else:
                block = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
            d[lo:hi, lo:] = block
            d[lo:, lo:hi] = block.T
            lo = hi
        np.fill_diagonal(d, 0.0)
        return d


def induced_metric(p: PointSet) -> FiniteMetric:
    """Pairwise distances of a point set; pseudo iff points coincide."""
    d = p.distance_matrix()
    off = ~np.eye(p.n, dtype=bool)
    pseudo = bool(p.n > 1 and np.any(d[off] == 0.0))
    return FiniteMetric(d, pseudo=pseudo)


# -- metric axioms -------------------------------------------------------------


@dataclass(frozen=True)
class MetricViolation:
    axiom: str  # "nan" | "symmetry" | "diagonal" | "nonnegativity" | "identity" | "triangle"
    witness: tuple[int, ...]
    detail: str


def validate_entries(d: np.ndarray, tol: float = METRIC_TOL) -> MetricViolation | None:
    """The O(n^2) checks of a square distance matrix (no NaN, symmetry, zero
    diagonal, nonnegativity): the first violation with a witness, or None."""
    n = d.shape[0]
    nan = np.isnan(d)
    if nan.any():
        i, j = np.unravel_index(int(np.argmax(nan)), nan.shape)
        return MetricViolation("nan", (int(i), int(j)), "d_ij is NaN")
    asym = np.abs(d - d.T)
    if n and asym.max() > tol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        return MetricViolation("symmetry", (int(i), int(j)), f"|d_ij - d_ji| = {asym[i, j]:.3g}")
    diag = np.abs(np.diag(d))
    if n and diag.max() > tol:
        i = int(np.argmax(diag))
        return MetricViolation("diagonal", (i,), f"d_ii = {d[i, i]:.3g}")
    if n and d.min() < -tol:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        return MetricViolation("nonnegativity", (int(i), int(j)), f"d_ij = {d[i, j]:.3g}")
    return None


def validate_metric(m: FiniteMetric, tol: float = METRIC_TOL) -> MetricViolation | None:
    """Return the first violated metric axiom with a witness, or None."""
    violation = validate_entries(m.dist, tol)
    if violation is not None:
        return violation
    d = m.dist
    n = m.n
    if not m.pseudo and n > 1:
        off = d + np.diag(np.full(n, np.inf))
        if off.min() <= 0.0:
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
            return MetricViolation(
                "identity", (int(i), int(j)), "zero distance between distinct points"
            )
    for i in range(n):
        # excess[j, k] = d[i, k] - d[i, j] - d[j, k]
        excess = d[i][None, :] - d[i][:, None] - d
        worst = excess.max()
        if worst > tol:
            j, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
            return MetricViolation(
                "triangle", (i, int(j), int(k)), f"excess = {worst:.3g}"
            )
    return None


# -- covering numbers ----------------------------------------------------------


def _greedy_cover(universe: int, sets: list[int]) -> int:
    count = 0
    left = universe
    while left:
        best, best_gain = -1, 0
        for i, s in enumerate(sets):
            gain = (s & left).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best_gain == 0:
            raise ValueError("subset cannot be covered at this radius")
        left &= ~sets[best]
        count += 1
    return count


def _min_cover(universe: int, sets: list[int]) -> int:
    """Exact minimum set cover by branch and bound."""
    if universe == 0:
        return 0
    sets = [s & universe for s in sets if s & universe]
    # Drop dominated sets.
    sets.sort(key=lambda s: -s.bit_count())
    kept: list[int] = []
    for s in sets:
        if not any(s | k == k for k in kept):
            kept.append(s)
    sets = kept
    best = _greedy_cover(universe, sets)
    max_size = max(s.bit_count() for s in sets)

    def bnb(left: int, used: int) -> None:
        nonlocal best
        if left == 0:
            best = min(best, used)
            return
        if used + math.ceil(left.bit_count() / max_size) >= best:
            return
        # Branch on the uncovered element with the fewest candidate sets.
        elem, fewest = -1, None
        for e in bits(left):
            cands = [s for s in sets if (s >> e) & 1]
            if fewest is None or len(cands) < len(fewest):
                elem, fewest = e, cands
                if len(cands) <= 1:
                    break
        if not fewest:
            return  # uncoverable element: no solution down this branch
        for s in sorted(fewest, key=lambda s: -(s & left).bit_count()):
            bnb(left & ~s, used + 1)

    bnb(universe, 0)
    return best


def covering_number(
    m: FiniteMetric,
    subset: Sequence[int] | None,
    eps: float,
    mode: str = "exact",
    limit: int | None = None,
) -> int:
    """Minimum number of open eps-balls (centered at points of m) covering subset.

    Greedy mode (max-coverage) returns an upper bound on the exact value.
    """
    if eps <= 0:
        raise ValueError("radius must be positive")
    sub = list(range(m.n)) if subset is None else list(subset)
    if not sub:
        return 0
    limit = DEFAULT_LIMITS.exact_covering_number if limit is None else limit
    if mode == "exact" and len(sub) > limit:
        raise ValueError(f"exact covering limited to |subset| <= {limit}, got {len(sub)}")
    universe = (1 << len(sub)) - 1
    masks = _row_masks(m.dist[:, np.asarray(sub, dtype=int)] < eps)
    if mode == "exact":
        return _min_cover(universe, masks)
    if mode != "greedy":
        raise ValueError("mode must be 'exact' or 'greedy'")
    return _greedy_cover(universe, masks)


def packing_number(
    m: FiniteMetric,
    subset: Sequence[int] | None,
    eps: float,
    mode: str = "exact",
    limit: int | None = None,
) -> int:
    """Largest subset with pairwise distance >= eps.

    Exact mode solves a maximum independent set on the conflict graph
    (equivalently max clique on the compatibility graph); greedy mode runs a
    farthest-point sweep and lower-bounds the exact value.
    """
    if eps <= 0:
        raise ValueError("packing distance must be positive")
    sub = list(range(m.n)) if subset is None else list(subset)
    k = len(sub)
    if k == 0:
        return 0
    limit = DEFAULT_LIMITS.exact_covering_number if limit is None else limit
    d = m.dist
    if mode == "exact":
        if k > limit:
            raise ValueError(f"exact packing limited to |subset| <= {limit}, got {k}")
        from .graph import Graph
        from .partition import clique_number

        idx = np.asarray(sub, dtype=int)
        far = np.triu(d[np.ix_(idx, idx)] >= eps, 1)
        return clique_number(Graph(k, _row_masks(far | far.T)), mode="exact")
    if mode != "greedy":
        raise ValueError("mode must be 'exact' or 'greedy'")
    chosen = [sub[0]]
    rest = sub[1:]
    while rest:
        gaps = [min(d[p, c] for c in chosen) for p in rest]
        best = max(range(len(rest)), key=lambda i: (gaps[i], -rest[i]))
        if gaps[best] < eps:
            break
        chosen.append(rest.pop(best))
    return len(chosen)


# -- doubling dimension --------------------------------------------------------


def doubling_dimension(
    m: FiniteMetric, mode: str = "exact", limit: int | None = None
) -> int:
    """Smallest d such that every open ball is covered by <= 2^d half-radius balls.

    Radii are scanned over all pairwise distances and tiny upward
    perturbations of each; ball contents only change at those thresholds.
    Returns ceil(log2) of the worst cover size.

    The masks of ``d < t`` depend on t only through its threshold class,
    the number of entries of d below t. Radii ascend, so each class of r
    and of r/2 comes up in one unbroken run: ball and half-ball masks are
    built once per class, and each distinct ball is covered once per
    half-radius class. Each cache is dropped when its class ends, so the
    covers held are those of one half-radius class: at most the n balls it
    starts with plus one per ball that changes within it. Mask bits are
    point indices, a monotone relabeling of positions within the ball, so
    ``_min_cover`` branches and ``_greedy_cover`` breaks ties exactly as on
    subset-relative masks.
    """
    limit = DEFAULT_LIMITS.exact_doubling if limit is None else limit
    if m.n == 0:
        raise ValueError("doubling dimension of an empty space is undefined")
    if mode == "exact" and m.n > limit:
        raise ValueError(f"exact doubling limited to n <= {limit}, got {m.n}")
    if mode not in ("exact", "greedy"):
        raise ValueError("mode must be 'exact' or 'greedy'")
    d = m.dist
    positive = sorted({float(x) for x in d[np.triu_indices(m.n, k=1)] if x > 0})
    radii: list[float] = []
    for r in positive:
        radii.append(r)
        radii.append(r * (1 + 1e-9))
    solve = _min_cover if mode == "exact" else _greedy_cover
    values = np.sort(d, axis=None)  # np.unique would import numpy.ma: +1.1 MB resident
    ball_class = half_class = -1
    worst = 1
    for r in radii:
        half = r / 2
        if (c := int(np.searchsorted(values, half))) != half_class:
            half_class, centers, covers = c, _row_masks(d < half), {}
        if (c := int(np.searchsorted(values, r))) != ball_class:
            ball_class, balls = c, _row_masks(d < r)
        for ball in balls:
            if ball.bit_count() <= worst:
                continue
            if ball not in covers:
                covers[ball] = solve(ball, centers)
            worst = max(worst, covers[ball])
    return (worst - 1).bit_length()


# -- text formats ---------------------------------------------------------------
# FiniteMetric: first line "n", then n rows of n space-separated reals.
# PointSet: first line "n d p", then n coordinate rows.


def write_metric(m: FiniteMetric, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{m.n}\n")
        for row in m.dist:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_metric(path: str, pseudo: bool = False) -> FiniteMetric:
    with open(path) as fh:
        lines = [ln for ln in (s.strip() for s in fh) if ln and not ln.startswith("#")]
    n = int(lines[0])
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1 : n + 1]]
    m = FiniteMetric(np.array(rows), pseudo=pseudo)
    if not np.isfinite(m.dist).all():
        raise ValueError(f"{path}: distances must be finite")
    bad = validate_entries(m.dist)
    if bad is not None:
        raise ValueError(f"{path}: distances fail {bad.axiom} at {bad.witness} ({bad.detail})")
    return m


def write_points(p: PointSet, path: str) -> None:
    norm = "inf" if p.norm == math.inf else str(int(p.norm))
    with open(path, "w") as fh:
        fh.write(f"{p.n} {p.dim} {norm}\n")
        for row in p.points:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_points(path: str) -> PointSet:
    with open(path) as fh:
        lines = [ln for ln in (s.strip() for s in fh) if ln and not ln.startswith("#")]
    n_tok, d_tok, p_tok = lines[0].split()
    n, dim = int(n_tok), int(d_tok)
    norm = math.inf if p_tok == "inf" else float(p_tok)
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1 : n + 1]]
    pts = np.array(rows, dtype=np.float64).reshape(n, dim)
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: coordinates must be finite")
    return PointSet(pts, norm=norm)
