"""Clique partitions, neighborhood partitions, clique and independence numbers.

The minimum clique partition is computed as an optimal coloring of the
complement graph (a DSATUR-ordered branch and bound seeded with a greedy
clique lower bound); the clique number uses a bitset branch and bound with
a greedy-coloring prune. Exact modes are gated by size limits and node
budgets; greedy modes return valid partitions / one-sided bounds and are
intended for bound reporting at larger sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import DEFAULT_LIMITS
from .graph import Graph, bits

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
    "greedy_coloring_size",
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
        n = sum(len(b) for b in self.blocks)
        idx = [-1] * n
        for i, block in enumerate(self.blocks):
            for v in block:
                idx[v] = i
        return idx


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
    remaining candidate neighbors (ties to the lowest index)."""
    clique = 0
    while cand:
        best_v, best_d = -1, -1
        for v in bits(cand):
            d = (rows[v] & cand).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        clique |= 1 << best_v
        cand &= rows[best_v]
    return clique


def greedy_clique(g: Graph) -> list[int]:
    """Vertices of a greedily extended clique (a lower bound witness)."""
    return list(bits(_greedy_clique_mask(g.rows, (1 << g.n) - 1)))


def _dsatur_greedy(rows: Sequence[int], n: int) -> list[int]:
    """Greedy DSATUR coloring; ties broken by degree then lowest index."""
    colors = [-1] * n
    sat = [0] * n  # bitmask of colors used by neighbors
    for _ in range(n):
        v, key = -1, (-1, -1, 0)
        for u in range(n):
            if colors[u] == -1:
                k = (sat[u].bit_count(), rows[u].bit_count(), -u)
                if k > key:
                    key, v = k, u
        c = 0
        while (sat[v] >> c) & 1:
            c += 1
        colors[v] = c
        for u in bits(rows[v]):
            sat[u] |= 1 << c
    return colors


def greedy_coloring_size(g: Graph) -> int:
    """Number of colors the DSATUR greedy uses on g (upper bound on chi)."""
    if g.n == 0:
        return 0
    return max(_dsatur_greedy(g.rows, g.n)) + 1


# -- exact maximum clique ----------------------------------------------------


def _max_clique_mask(rows: Sequence[int], n: int, budget: int) -> int:
    """Branch and bound with a greedy-coloring bound (bitset candidate sets)."""
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    back = [0] * n
    for i, v in enumerate(order):
        back[v] = i
    rr = [0] * n
    for v in range(n):
        row = 0
        for u in bits(rows[v]):
            row |= 1 << back[u]
        rr[back[v]] = row

    best_mask = _greedy_clique_mask(rr, (1 << n) - 1)
    best = best_mask.bit_count()
    nodes = 0

    def expand(current: int, size: int, cand: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"max-clique budget {budget} exhausted")
        # Greedy color classes of cand; the color index bounds the clique
        # extension available at each vertex.
        stack: list[tuple[int, int]] = []
        rest = cand
        c = 0
        while rest:
            c += 1
            q = rest
            while q:
                low = q & -q
                v = low.bit_length() - 1
                stack.append((v, c))
                rest ^= low
                q &= ~rr[v]
                q ^= low
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
    budget = DEFAULT_LIMITS.clique_budget if budget is None else budget
    return list(bits(_max_clique_mask(g.rows, g.n, budget)))


def clique_number(g: Graph, mode: str = "exact", budget: int | None = None) -> int:
    """Size of the largest clique; greedy mode returns a lower bound."""
    if mode == "greedy":
        return _greedy_clique_mask(g.rows, (1 << g.n) - 1).bit_count()
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'greedy'")
    return len(max_clique(g, budget=budget))


def independence_number(g: Graph, mode: str = "exact", budget: int | None = None) -> int:
    """Size of the largest independent set (clique number of the complement)."""
    return clique_number(g.complement(), mode=mode, budget=budget)


# -- minimum clique partition (coloring of the complement) -------------------


class _Done(Exception):
    pass


def _exact_coloring(rows: Sequence[int], n: int, budget: int) -> list[int]:
    """Optimal coloring color assignment via DSATUR-ordered branch and bound."""
    if n == 0:
        return []
    greedy = _dsatur_greedy(rows, n)
    best_k = max(greedy) + 1
    best = greedy[:]
    clique = list(bits(_greedy_clique_mask(rows, (1 << n) - 1)))
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
        v, key = -1, (-1, -1, 0)
        for u in range(n):
            if colors[u] == -1:
                k = (sat[u].bit_count(), rows[u].bit_count(), -u)
                if k > key:
                    key, v = k, u
        for c in range(used + (1 if used < best_k - 1 else 0)):
            if (sat[v] >> c) & 1:
                continue
            colors[v] = c
            touched = []
            for u in bits(rows[v]):
                if colors[u] == -1 and not (sat[u] >> c) & 1:
                    sat[u] |= 1 << c
                    touched.append(u)
            bnb(colored + 1, max(used, c + 1))
            for u in touched:
                sat[u] &= ~(1 << c)
            colors[v] = -1

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
    if mode == "exact":
        if g.n > limit:
            raise ValueError(f"exact clique cover limited to n <= {limit}, got {g.n}")
        comp = g.complement()
        colors = _exact_coloring(comp.rows, comp.n, budget)
        k = max(colors) + 1 if colors else 0
        groups: list[list[int]] = [[] for _ in range(k)]
        for v, c in enumerate(colors):
            groups[c].append(v)
        return VertexPartition(_normalize_blocks(groups), mode="exact")
    if mode != "greedy":
        raise ValueError("mode must be 'exact' or 'greedy'")
    remaining = (1 << g.n) - 1
    groups = []
    while remaining:
        block = _greedy_clique_mask(g.rows, remaining)
        groups.append(list(bits(block)))
        remaining &= ~block
    return VertexPartition(_normalize_blocks(groups), mode="greedy")


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
    partition size monotone under taking subsets. The packed bit rows act as
    exact hash and comparison keys at once.
    """
    vertices = range(g.n) if subset is None else subset
    groups: dict[int, list[int]] = {}
    for v in vertices:
        groups.setdefault(g.closed_row(v), []).append(v)
    return VertexPartition(_normalize_blocks(list(groups.values())), mode="exact")


def neighborhood_class_count(g: Graph, subset: Sequence[int] | None = None) -> int:
    """Number of distinct closed neighborhoods among ``subset`` (default all)."""
    vertices = range(g.n) if subset is None else subset
    return len({g.closed_row(v) for v in vertices})
