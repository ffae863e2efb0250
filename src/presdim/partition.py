"""Clique partitions, neighborhood partitions, clique and independence numbers.

The minimum clique partition is computed as an optimal coloring of the
complement graph (a DSATUR-ordered branch and bound seeded with a greedy
clique lower bound); the clique number uses a bitset branch and bound with
a greedy-coloring prune. That search peels the color classes that cannot
branch (size + class <= best clique) without recording their vertices, and
grows each class from a table of non-neighbor rows built once per search.
Exact modes are gated by size limits and node budgets; greedy modes return
valid partitions / one-sided bounds and are intended for bound reporting at
larger sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULT_LIMITS, check_mode
from .graph import Graph, _pack_rows, bits, complement_matrix, group_index, neighborhood_classes

__all__ = [
    "VertexPartition",
    "SearchBudgetExceeded",
    "clique_cover",
    "gated_clique_cover",
    "neighborhood_partition",
    "neighborhood_class_count",
    "clique_number",
    "independence_number",
    "max_clique",
    "greedy_clique",
    "format_partition",
]


class SearchBudgetExceeded(RuntimeError):
    """Raised when an exact search runs past its node budget."""


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint nonempty vertex blocks covering 0..n-1.

    Blocks are sorted internally and ordered by their minimum member, so
    equal partitions compare equal regardless of construction order.
    """

    blocks: tuple[tuple[int, ...], ...]
    mode: str  # "exact" | "greedy"

    @property
    def size(self) -> int:
        return len(self.blocks)

    def part_index(self) -> list[int]:
        """Vertex -> block index lookup."""
        return group_index(self.blocks, sum(len(b) for b in self.blocks))


def _normalize_blocks(groups: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    blocks = [tuple(sorted(b)) for b in groups if b]
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


def format_partition(p: VertexPartition) -> str:
    """Report serialization: one ``block_i: v v v`` line per block."""
    return "\n".join(
        f"block_{i}: " + " ".join(str(v) for v in b) for i, b in enumerate(p.blocks)
    )


# -- greedy primitives -------------------------------------------------------


def _greedy_clique_mask(rows: Sequence[int], cand: int) -> int:
    """Greedy clique inside ``cand``: repeatedly add the member with the most
    remaining candidate neighbors (ties to the lowest index). ``rows`` may be
    a larger graph's bit rows; only their bits inside ``cand`` are read."""
    clique = 0
    while cand:
        best_v, best_d = -1, -1
        top = cand.bit_count() - 1  # adjacent to every other member: no later one beats it
        q = cand
        while q:
            low = q & -q
            v = low.bit_length() - 1
            d = (rows[v] & cand).bit_count()
            if d > best_d:
                best_v, best_d = v, d
                if d == top:
                    break
            q ^= low
        clique |= 1 << best_v
        cand &= rows[best_v]
    return clique


def _greedy_cliques(rows: Sequence[int], cand: int) -> Iterator[int]:
    """The greedy clique cover of ``cand``, one greedy clique peeled off at a time."""
    while cand:
        block = _greedy_clique_mask(rows, cand)
        yield block
        cand &= ~block


def greedy_clique(g: Graph) -> list[int]:
    """Vertices of a greedily extended clique (a lower bound witness)."""
    return list(bits(_greedy_clique_mask(g.rows, (1 << g.n) - 1)))


# DSATUR colors next the uncolored vertex with the most distinct neighbor
# colors, then the highest degree, then the lowest index. Its key packs the
# first two into one int, colors times _SAT plus degree, so that ``max`` over
# an ascending vertex list picks it (``max`` keeps the first of equal keys).
_SAT = 1 << 32


def _dsatur_keys(rows: Sequence[int], cand: int, sat: Sequence[int]) -> list[int]:
    """DSATUR key of each vertex in ``cand`` (0 elsewhere): the popcount of
    its neighbor-color bitmask ``sat`` and its degree inside ``cand``."""
    key = [0] * len(rows)
    for v in bits(cand):
        key[v] = sat[v].bit_count() * _SAT + (rows[v] & cand).bit_count()
    return key


def _dsatur_greedy(rows: Sequence[int], cand: int) -> list[int]:
    """Greedy DSATUR coloring of the vertices in ``cand`` (-1 outside it), on
    the bit rows ``rows`` read inside ``cand``."""
    colors = [-1] * len(rows)
    sat = [0] * len(rows)  # bitmask of colors used by neighbors
    key = _dsatur_keys(rows, cand, sat)
    left = list(bits(cand))
    while left:
        v = max(left, key=key.__getitem__)
        left.remove(v)
        cand ^= 1 << v
        color = ~sat[v] & (sat[v] + 1)  # the lowest color no neighbor has
        colors[v] = color.bit_length() - 1
        for u in bits(rows[v] & cand):
            if not sat[u] & color:
                sat[u] |= color
                key[u] += _SAT
    return colors


# -- exact maximum clique ----------------------------------------------------


def _max_clique_mask(a: np.ndarray, budget: int | None = None) -> int:
    """Branch and bound with a greedy-coloring bound (bitset candidate sets)
    on boolean adjacency ``a``, vertices taken by nonincreasing degree.

    Each node colors its candidates greedily, class by class, and branches on
    them from the last class down while size + class exceeds the best clique.
    Classes 1 .. best - size can never pass that test (``best`` only grows),
    so they are peeled off the candidates without recording their vertices.
    A class is grown with one AND per vertex against a table of non-neighbor
    rows built once per search."""
    n = len(a)
    if n == 0:
        return 0
    budget = DEFAULT_LIMITS.clique_budget if budget is None else budget
    order = np.argsort(-np.count_nonzero(a, axis=1), kind="stable").tolist()
    rr = _pack_rows(a[np.ix_(order, order)])
    full = (1 << n) - 1
    non = [full ^ (row | 1 << v) for v, row in enumerate(rr)]

    best_mask = _greedy_clique_mask(rr, full)
    best = best_mask.bit_count()
    nodes = 0

    def expand(current: int, size: int, cand: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"max-clique budget {budget} exhausted")
        # Greedy color classes of cand; the color index bounds the clique
        # extension available at each vertex.
        rest = cand
        c = max(best - size, 0)
        for _ in range(c):
            if not rest:
                return
            q = rest
            while q:
                low = q & -q
                rest ^= low
                q &= non[low.bit_length() - 1]
        stack: list[tuple[int, int]] = []
        while rest:
            c += 1
            q = rest
            while q:
                low = q & -q
                v = low.bit_length() - 1
                stack.append((v, c))
                rest ^= low
                q &= non[v]
        for v, col in reversed(stack):
            if size + col <= best:
                return
            newcand = cand & rr[v]
            if newcand:
                expand(current | (1 << v), size + 1, newcand)
            elif size + 1 > best:
                best = size + 1
                best_mask = current | (1 << v)
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    out = 0
    for i in bits(best_mask):
        out |= 1 << order[i]
    return out


def max_clique(g: Graph, budget: int | None = None) -> list[int]:
    """Exact maximum clique (sorted vertex list)."""
    return list(bits(_max_clique_mask(g.matrix, budget)))


def _clique_size(a: np.ndarray, mode: str, budget: int | None) -> int:
    """Largest clique size on boolean adjacency ``a``, exact or a greedy lower bound."""
    check_mode(mode)
    if mode == "greedy":
        return _greedy_clique_mask(_pack_rows(a), (1 << len(a)) - 1).bit_count()
    return _max_clique_mask(a, budget).bit_count()


def clique_number(g: Graph, mode: str = "exact", budget: int | None = None) -> int:
    """Size of the largest clique; greedy mode returns a lower bound."""
    return _clique_size(g.matrix, mode, budget)


def independence_number(g: Graph, mode: str = "exact", budget: int | None = None) -> int:
    """Size of the largest independent set (clique number of the complement)."""
    return _clique_size(complement_matrix(g), mode, budget)


# -- minimum clique partition (coloring of the complement) -------------------


class _Done(Exception):
    pass


def _exact_coloring(rows: Sequence[int], n: int, budget: int) -> list[int]:
    """Optimal coloring color assignment via DSATUR-ordered branch and bound."""
    if n == 0:
        return []
    full = (1 << n) - 1
    best = _dsatur_greedy(rows, full)
    best_k = max(best) + 1
    clique = list(bits(_greedy_clique_mask(rows, full)))
    lb = len(clique)
    if best_k == lb:
        return best

    colors = [-1] * n
    sat = [0] * n
    # Symmetry breaking: a clique must take pairwise distinct colors.
    for c, v in enumerate(clique):
        colors[v] = c
        for u in bits(rows[v]):
            sat[u] |= 1 << c
    key = _dsatur_keys(rows, full, sat)
    left = [v for v in range(n) if colors[v] == -1]
    nodes = 0

    def bnb(colored: int, used: int) -> None:
        nonlocal best_k, best, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"coloring budget {budget} exhausted")
        if used >= best_k:
            return
        if colored == n:
            best_k = used
            best = colors[:]
            if best_k == lb:
                raise _Done
            return
        v = max(left, key=key.__getitem__)
        i = left.index(v)
        del left[i]
        for c in range(used + (1 if used < best_k - 1 else 0)):
            color = 1 << c
            if sat[v] & color:
                continue
            colors[v] = c
            touched = []
            for u in bits(rows[v]):
                if colors[u] == -1 and not sat[u] & color:
                    sat[u] |= color
                    key[u] += _SAT
                    touched.append(u)
            bnb(colored + 1, max(used, c + 1))
            for u in touched:
                sat[u] ^= color
                key[u] -= _SAT
            colors[v] = -1
        left.insert(i, v)

    try:
        bnb(len(clique), len(clique))
    except _Done:
        pass
    return best


def clique_cover(
    g: Graph,
    mode: str = "exact",
    limit: int | None = None,
    budget: int | None = None,
) -> VertexPartition:
    """Partition the vertices into cliques.

    Exact mode returns a minimum partition (= an optimal coloring of the
    complement graph) and requires ``n <= limit``. Greedy mode repeatedly
    peels off a greedily grown maximal clique; its block count is an upper
    bound on the optimum.
    """
    limit = DEFAULT_LIMITS.exact_cover if limit is None else limit
    budget = DEFAULT_LIMITS.clique_budget if budget is None else budget
    check_mode(mode, "clique cover", "n", g.n, limit)
    if mode == "exact":
        colors = _exact_coloring(_pack_rows(complement_matrix(g)), g.n, budget)
        groups = [[v for v, c in enumerate(colors) if c == k] for k in range(max(colors, default=-1) + 1)]
    else:
        groups = [list(bits(block)) for block in _greedy_cliques(g.rows, (1 << g.n) - 1)]
    return VertexPartition(_normalize_blocks(groups), mode=mode)


def gated_clique_cover(g: Graph, limit: int | None = None) -> VertexPartition:
    """Minimum clique partition up to ``limit`` vertices (default
    ``DEFAULT_LIMITS.exact_cover``), a greedy one above; the partition's
    ``mode`` records which."""
    limit = DEFAULT_LIMITS.exact_cover if limit is None else limit
    return clique_cover(g, mode="exact" if g.n <= limit else "greedy", limit=limit)


# -- neighborhood partition ---------------------------------------------------


def neighborhood_partition(g: Graph, subset: Sequence[int] | None = None) -> VertexPartition:
    """Group vertices by identical closed neighborhoods N(u) = {u} ∪ adj(u).

    Neighborhoods are always taken with respect to the full graph, also when
    a ``subset`` restricts which vertices are grouped; this is what makes the
    partition size monotone under taking subsets.
    """
    return VertexPartition(_normalize_blocks(neighborhood_classes(g, subset)), mode="exact")


def neighborhood_class_count(g: Graph, subset: Sequence[int] | None = None) -> int:
    """Number of distinct closed neighborhoods among ``subset`` (default all)."""
    return len(neighborhood_classes(g, subset))
