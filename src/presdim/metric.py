"""Finite metric spaces and normed point sets; covering, packing, doubling.

Ball centers are restricted to the points of the metric itself, which is
the standard (and decidable) choice for finite spaces: the finite space IS
the ambient space, so its open balls are exactly the point-centered ones.
All ball predicates use strict inequality (open balls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from .graph import _block_rows, _pack_rows as _row_masks, _reach_product, bits
from .partition import _max_clique_mask
from .util import sorted_distinct

__all__ = [
    "FiniteMetric",
    "PointSet",
    "MetricViolation",
    "validate_entries",
    "validate_metric",
    "checked",
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
# Default size limits of the exact covering/packing and doubling searches.
EXACT_COVERING_LIMIT = 22
EXACT_DOUBLING_LIMIT = 14


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
        mirrored into the lower triangle. Each block's tensor is written into
        one scratch buffer sized to the largest block, so no block allocates
        (above the allocator's mmap threshold: maps and unmaps) its own.
        Every entry reduces the same contiguous length-d difference row as
        the unblocked broadcast, and d_ij equals d_ji exactly, so the matrix
        is bit-identical to the broadcast symmetrised by ``0.5 * (d + d.T)``
        wherever that sum stays finite; ``check`` relies on this when it
        decides ``m > alpha*M``.
        Under l2 an entry whose squared sum overflows although its difference
        row is finite is recomputed as s * sqrt(sum((diff/s)^2)), s the row's
        largest magnitude. Peak memory is O(n^2) plus one block rather than
        O(n^2 d).
        """
        pts = self.points
        n, dim = pts.shape
        if n == 0 or dim == 0:
            return np.zeros((n, n))
        d = np.empty((n, n))
        bounds = [0]
        while bounds[-1] < n:
            bounds.append(min(n, bounds[-1] + _block_rows((n - bounds[-1]) * dim)))
        blocks = list(zip(bounds, bounds[1:]))
        scratch = np.empty(max((hi - lo) * (n - lo) for lo, hi in blocks) * dim)
        # Under l2 an overflowing square is recomputed below; a difference
        # that overflows is infinite, and so is its distance.
        with np.errstate(over="ignore"):
            for lo, hi in blocks:
                diff = scratch[: (hi - lo) * (n - lo) * dim].reshape(hi - lo, n - lo, dim)
                np.subtract(pts[lo:hi, None, :], pts[None, lo:, :], out=diff)
                if self.norm == math.inf:
                    block = np.abs(diff, out=diff).max(axis=2)
                elif self.norm == 1.0:
                    block = np.abs(diff, out=diff).sum(axis=2)
                else:
                    block = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
                    i, j = np.nonzero(np.isinf(block))
                    if i.size:  # the squares overflowed
                        diff = pts[lo + i] - pts[lo + j]
                        s = np.abs(diff).max(axis=1)
                        ok = np.isfinite(s)
                        block[i[ok], j[ok]] = s[ok] * np.sqrt(np.square(diff[ok] / s[ok, None]).sum(axis=1))
                d[lo:hi, lo:] = block
                d[lo:, lo:hi] = block.T
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

    def __str__(self) -> str:
        return f"fails {self.axiom} at {self.witness} ({self.detail})"


def validate_entries(d: np.ndarray) -> MetricViolation | None:
    """The O(n^2) checks of a square distance matrix (no NaN, symmetry, zero
    diagonal, nonnegativity): the first violation with a witness, or None."""
    n = d.shape[0]
    nan = np.isnan(d)
    if nan.any():
        i, j = np.unravel_index(int(np.argmax(nan)), nan.shape)
        return MetricViolation("nan", (int(i), int(j)), "d_ij is NaN")
    asym = np.subtract(d, d.T)
    np.abs(asym, out=asym)
    if n and asym.max() > METRIC_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        return MetricViolation("symmetry", (int(i), int(j)), f"|d_ij - d_ji| = {asym[i, j]:.3g}")
    diag = np.abs(np.diag(d))
    if n and diag.max() > METRIC_TOL:
        i = int(np.argmax(diag))
        return MetricViolation("diagonal", (i,), f"d_ii = {d[i, i]:.3g}")
    if n and d.min() < -METRIC_TOL:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        return MetricViolation("nonnegativity", (int(i), int(j)), f"d_ij = {d[i, j]:.3g}")
    return None


def validate_metric(m: FiniteMetric) -> MetricViolation | None:
    """Return the first violated metric axiom with a witness, or None.

    The triangle inequality is first decided by distance classes
    (``_triangles_clear``); the sweep over all triples runs only when that
    check does not apply or finds a violating triple, so the witness and
    the detail are always the sweep's.
    """
    violation = validate_entries(m.dist)
    if violation is not None:
        return violation
    return _validate_identity_and_triangle(m)


def _validate_identity_and_triangle(m: FiniteMetric) -> MetricViolation | None:
    """``validate_metric`` on a matrix whose entries ``validate_entries``
    has already passed: the identity check, then the triangle inequality."""
    d = m.dist
    n = m.n
    if not m.pseudo and n > 1:
        off = d.copy()
        np.fill_diagonal(off, np.inf)
        if off.min() <= 0.0:
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
            return MetricViolation(
                "identity", (int(i), int(j)), "zero distance between distinct points"
            )
        del off
    if _triangles_clear(d):
        return None
    # excess[i - lo, j, k] = d[i, k] - d[i, j] - d[j, k] for the rows i of a
    # block of about 2^14 entries (one row once n^2 exceeds that), every block
    # written into one buffer; the first row with an excess is the witness.
    step = _block_rows(n * n)
    excess = np.empty((min(step, n), n, n))
    for lo in range(0, n, step):
        rows = d[lo : lo + step]
        block = excess[: len(rows)]
        np.subtract(rows[:, None, :], rows[:, :, None], out=block)
        block -= d
        worst = block.max(axis=(1, 2))
        if (bad := worst > METRIC_TOL).any():
            r = int(bad.argmax())
            j, k = np.unravel_index(int(np.argmax(block[r])), (n, n))
            return MetricViolation(
                "triangle", (lo + r, int(j), int(k)), f"excess = {worst[r]:.3g}"
            )
    return None


# Most pairs of distance classes ``_triangles_clear`` examines. A pair costs
# one Boolean product of at most n x n by n x n against the sweep's n^3
# subtractions: on n = 300 (2 vCPUs) a pair whose first class holds half the
# entries took 1.4 ms and the sweep 41-47 ms, so 8 pairs stay under about a
# third of the sweep. prop6 at alpha = 1.2 (66 pairs, 42-43 ms) is left to it.
_CLASS_PAIRS = 8


def _triangles_clear(d: np.ndarray) -> bool:
    """True when no triple has ``(d_ik - d_ij) - d_jk > METRIC_TOL``, decided
    per pair of distance classes; False when a triple has, or when the
    metric has too many classes or class pairs for this check to pay.

    With v the sorted distinct values, ``bad[x, y, z]`` is the sweep's own
    expression on the same float64 operands, so it decides every triple
    whose entries fall in classes (x, y, z) as the sweep does (values that
    differ only in the sign of a zero compare alike); it is non-decreasing
    in v[x] (each rounding is monotone), so a pair (y, z)'s bad classes run
    from its first bad one up. A pair needs work only if some x is bad, and
    it holds a violation iff some i reaches, through a j with d_ij in class
    y, a k with d_jk in class z and d_ik in a bad class: the Boolean product
    of i's y-row with the z-rows, ANDed with i's bad row (Boolean-product
    triangle detection; Itai & Rodeh, SIAM J. Comput. 1978). When the zero
    class is exactly the diagonal, pairs through it are clear: j = i or
    j = k gives an excess of exactly 0. Pseudo zeros, or entries of exactly
    -METRIC_TOL, keep them: there (i, j, i) can give 2 * METRIC_TOL. The
    check runs while the table is small (m^3 <= n^2) and at most
    ``_CLASS_PAIRS`` pairs need work.
    """
    n = len(d)
    if n == 0:
        return True
    v = sorted_distinct(d, n)  # m^3 <= n^2 implies m <= n
    if v is None or v.size**3 > n * n:
        return False
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is never bad
        bad = ((v[:, None, None] - v[None, :, None]) - v[None, None, :]) > METRIC_TOL
    live = bad.any(axis=0)
    if np.count_nonzero(d == 0.0) == n and not d.diagonal().any():
        z = int(np.searchsorted(v, 0.0))
        live[z, :] = live[:, z] = False
    pairs = np.argwhere(live).tolist()
    if len(pairs) > _CLASS_PAIRS:
        return False
    for y, z in pairs:
        hit = d >= v[np.argmax(bad[:, y, z])]
        first = d == v[y]
        rows = np.flatnonzero(first.any(axis=1) & hit.any(axis=1))
        first, hit = first[rows], hit[rows]  # frees the n x n masks before the product
        if (_reach_product(first, d.T == v[z]) & hit).any():
            return False
    return True


# -- covering numbers ----------------------------------------------------------


def _greedy_cover(universe: int, sets: list[int], cap: int | None = None) -> int:
    """Max-coverage greedy set cover, ties to the lowest index.

    With ``cap``, stop once ``count + |left| <= cap``: every later pick
    covers at least one point, so the full count is at most that sum, which
    is returned. The result is the full count whenever it exceeds ``cap``
    and some value ``<= cap`` otherwise.
    """
    stop = -1 if cap is None else cap
    count = 0
    left = universe
    while left:
        if count + left.bit_count() <= stop:
            return count + left.bit_count()
        best, best_gain = 0, 0
        live = []  # a set that misses ``left`` never meets it again
        for s in sets:
            if gain := (s & left).bit_count():
                live.append(s)
                if gain > best_gain:
                    best, best_gain = s, gain
        if best_gain == 0:
            raise ValueError("subset cannot be covered at this radius")
        left &= ~best
        count += 1
        sets = live
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
    limit: int = EXACT_COVERING_LIMIT,
) -> int:
    """Minimum number of open eps-balls (centered at points of m) covering subset.

    Greedy mode (max-coverage) returns an upper bound on the exact value.
    """
    if eps <= 0:
        raise ValueError("radius must be positive")
    sub = list(range(m.n)) if subset is None else list(subset)
    if not sub:
        return 0
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
    limit: int = EXACT_COVERING_LIMIT,
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
    d = m.dist
    if mode == "exact":
        if k > limit:
            raise ValueError(f"exact packing limited to |subset| <= {limit}, got {k}")
        idx = np.asarray(sub, dtype=int)
        far = np.triu(d[np.ix_(idx, idx)] >= eps, 1)
        return _max_clique_mask(far | far.T).bit_count()
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
    m: FiniteMetric, mode: str = "exact", limit: int = EXACT_DOUBLING_LIMIT
) -> int:
    """Smallest d such that every open ball is covered by <= 2^d half-radius balls.

    Radii are scanned in ascending order over all pairwise distances and
    tiny upward perturbations of each; ball contents only change at those
    thresholds.
    ``worst`` is the power of two at or above the largest cover found: it
    starts at 1, and a cover c > ``worst`` sets it to 2^ceil(log2 c).
    Returns log2 of ``worst``. With M the largest cover over the (ball,
    half-radius class) states the scan visits, that is ceil(log2 M):

    - a ball the scan skips holds at most ``worst`` points, and a cover it
      caps is at most ``worst``, when met; ``worst`` never falls, so
      ``worst`` >= M at the end;
    - every value ``worst`` takes is 1 or 2^ceil(log2 c) for a cover
      c <= M, so ``worst`` <= 2^ceil(log2 M); being a power of two at or
      above M, it equals 2^ceil(log2 M).

    Which states the scan visits, and which balls it caches a cover for in
    each class, do not depend on ``worst``. A cover that could raise the
    running maximum only inside its power-of-two bucket is never finished:
    after a largest cover of 5, ``worst`` is 8 and covers of 6, 7 or 8 are
    capped.

    The masks of ``d < t`` depend on t only through its threshold class,
    the number of entries of d below t, so one stable sort of d and one
    ``searchsorted`` give the class of every radius r and half-radius r/2.
    Radii ascend, so both classes only grow: each ball (row of ``d < r``)
    and center (row of ``d < r/2``) bitmask grows by OR-ing in the pairs
    that enter its class. A radius whose two classes both repeat is
    skipped. No cover work is done that cannot raise ``worst``:

    - a row is revisited only when its ball gained a point, or, in greedy
      mode, when a center gained a point inside that ball (a cover depends
      only on the ball and on each center restricted to it);
    - covers are capped at the power of two ``worst`` (``_greedy_cover``'s
      ``cap``), and a ball of at most ``worst`` points is never covered;
    - exact mode runs ``_min_cover`` only when the capped greedy cover
      exceeds ``worst`` (exact <= greedy), and only at the last radius of
      each half-radius class. An exact cover never shrinks as its ball
      grows and never grows as its centers grow, so the balls of that
      radius, which contain the earlier ones, bound every cover of the
      class, and a ball that did not grow cannot raise ``worst``. Greedy
      covers are monotone in neither, so greedy mode visits every class
      pair and every ball whose centers grew inside it.

    Each distinct ball is covered at most once per half-radius class. Mask
    bits are point indices, a monotone relabeling of positions within the
    ball, so ``_min_cover`` branches and ``_greedy_cover`` breaks ties
    exactly as on subset-relative masks.
    """
    if m.n == 0:
        raise ValueError("doubling dimension of an empty space is undefined")
    if mode == "exact" and m.n > limit:
        raise ValueError(f"exact doubling limited to n <= {limit}, got {m.n}")
    if mode not in ("exact", "greedy"):
        raise ValueError("mode must be 'exact' or 'greedy'")
    n, d = m.n, m.dist
    upper = d[np.triu_indices(n, k=1)]
    positive = sorted_distinct(upper[upper > 0])
    radii = np.empty(2 * positive.size)
    radii[0::2] = positive
    radii[1::2] = positive * (1 + 1e-9)
    # A distance within a relative 1e-9 above another lies below the
    # other's perturbation: sort, or the classes would not ascend.
    radii.sort()
    order = np.argsort(d, axis=None, kind="stable")
    values = d.ravel()[order]
    ball_cls = np.searchsorted(values, radii)
    half_cls = np.searchsorted(values, radii / 2)
    # Visit the last radius of each run of equal classes: of equal half
    # classes in exact mode, of equal (ball, half) pairs in greedy mode.
    last = np.ones(radii.size, dtype=bool)
    last[:-1] = half_cls[1:] != half_cls[:-1]
    if mode == "greedy":
        last[:-1] |= ball_cls[1:] != ball_cls[:-1]
    rows, cols = (a.tolist() for a in np.divmod(order, n))
    bit = [1 << j for j in range(n)]
    balls, centers = [0] * n, [0] * n
    covers: dict[int, int] = {}
    ball_class = half_class = 0
    worst = 1
    for bc, hc in zip(ball_cls[last].tolist(), half_cls[last].tolist()):
        grown = 0  # points some center gained
        if hc != half_class:
            for k in range(half_class, hc):
                centers[rows[k]] |= bit[cols[k]]
                grown |= bit[cols[k]]
            half_class, covers = hc, {}
        todo = {x for x in range(n) if balls[x] & grown} if mode == "greedy" else set()
        if bc != ball_class:
            for k in range(ball_class, bc):
                balls[rows[k]] |= bit[cols[k]]
            todo.update(rows[ball_class:bc])
            ball_class = bc
        for x in sorted(todo):
            ball = balls[x]
            if ball.bit_count() <= worst:
                continue
            if (cover := covers.get(ball)) is None:
                cover = _greedy_cover(ball, centers, worst)
                if mode == "exact" and cover > worst:
                    cover = _min_cover(ball, centers)
                covers[ball] = cover
            if cover > worst:
                worst = 1 << (cover - 1).bit_length()
    return (worst - 1).bit_length()


# -- text formats ---------------------------------------------------------------
# FiniteMetric: first line "n", then n rows of n space-separated reals.
# PointSet: first line "n d p", then n coordinate rows. Lines starting with
# '#' are comments.

_Target = TypeVar("_Target", FiniteMetric, PointSet)


def checked(target: _Target, where: str) -> _Target:
    """``target`` as read from ``where`` (a path or a document) if its values
    are finite and, for a distance matrix, its entries pass ``validate_entries``;
    else ``ValueError`` naming ``where``. Every reader of outside data calls it."""
    is_points = isinstance(target, PointSet)
    if not np.isfinite(target.points if is_points else target.dist).all():
        raise ValueError(f"{where}: {'coordinates' if is_points else 'distances'} must be finite")
    bad = None if is_points else validate_entries(target.dist)
    if bad is not None:
        raise ValueError(f"{where}: distance matrix {bad}")
    return target


def _data_lines(path: str) -> list[str]:
    with open(path) as fh:
        lines = [ln for ln in (s.strip() for s in fh) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty file")
    return lines


def _header(path: str, line: str, shape: str, *kinds: type) -> list:
    """The tokens of a file's header line, read as ``kinds`` (int: a count
    >= 0; float: a norm of 1, 2 or inf); else ``ValueError`` naming the file
    and the line."""
    try:
        values = [kind(tok) for kind, tok in zip(kinds, line.split(), strict=True)]
        ok = all(v >= 0 if type(v) is int else v in (1.0, 2.0, math.inf) for v in values)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"{path}: header {line!r} must be {shape}")
    return values


def _table(path: str, lines: list[str], n: int, d: int) -> np.ndarray:
    """The (n, d) array of reals held by exactly n lines of d tokens each."""
    rows = [[float(tok) for tok in ln.split()] for ln in lines]
    if len(rows) != n or any(len(row) != d for row in rows):
        raise ValueError(f"{path}: header declares {n} rows of {d} values, the rows do not match")
    return np.array(rows, dtype=np.float64).reshape(n, d)


def write_metric(m: FiniteMetric, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"{m.n}\n")
        for row in m.dist:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_metric(path: str, pseudo: bool = False) -> FiniteMetric:
    lines = _data_lines(path)
    (n,) = _header(path, lines[0], "'n', one nonnegative integer", int)
    return checked(FiniteMetric(_table(path, lines[1:], n, n), pseudo=pseudo), path)


def write_points(p: PointSet, path: str) -> None:
    norm = "inf" if p.norm == math.inf else str(int(p.norm))
    with open(path, "w") as fh:
        fh.write(f"{p.n} {p.dim} {norm}\n")
        for row in p.points:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_points(path: str) -> PointSet:
    lines = _data_lines(path)
    shape = "'n d p', two nonnegative integers and a norm p of 1, 2 or inf"
    n, dim, norm = _header(path, lines[0], shape, int, int, float)
    return checked(PointSet(_table(path, lines[1:], n, dim), norm=norm), path)
