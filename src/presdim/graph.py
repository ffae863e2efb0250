"""Graph container, named and random generators, and basic statistics.

Adjacency is stored as one packed bit row per vertex (arbitrary-precision
Python ints), which gives constant-time edge queries and word-parallel
neighborhood intersections. Graphs are immutable after construction and
safe to share across threads; every generator is a pure function of its
parameters and seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphStats",
    "GenerationError",
    "rng_for",
    "derive_seed",
    "bits",
    "from_edge_list",
    "gen_gnp",
    "gen_kregular",
    "gen_planted_partition",
    "gen_named",
    "NAMED_FAMILIES",
    "bfs_distances",
    "all_pairs_distances",
    "diameter",
    "connected_components",
    "neighborhood_class_masks",
    "quotient_by_neighborhood",
    "quotient_with_map",
    "spectrum_top2",
    "graph_stats",
    "write_edge_list",
    "read_edge_list",
]


class GenerationError(RuntimeError):
    """Raised when a rejection-sampling generator exhausts its budget."""


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an index key.

    Uses a splittable seed tree, so serial and parallel trial execution
    derive identical per-trial streams.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for the given trial key (splittable scheme)."""
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0])


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``rows[v]`` is the neighbor bitmask of ``v`` (self bit never set).
    ``blocks`` optionally records planted-partition labels per vertex.
    """

    n: int
    rows: tuple[int, ...]
    blocks: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count must equal vertex count")
        for v, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {v} references vertices >= n")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # Symmetry: u in rows[v] iff v in rows[u].
        for v, row in enumerate(self.rows):
            for u in bits(row):
                if not (self.rows[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        if self.blocks is not None and len(self.blocks) != self.n:
            raise ValueError("blocks must label every vertex")

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.rows), default=0)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.rows[v])

    def closed_row(self, v: int) -> int:
        """Bitmask of the closed neighborhood ``N(v) = {v} ∪ neighbors``."""
        return self.rows[v] | (1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        rows = tuple((full ^ self.rows[v]) & ~(1 << v) for v in range(self.n))
        return Graph(self.n, rows)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced by ``vertices`` (relabeled 0..len-1 in given order)."""
        idx = {v: i for i, v in enumerate(vertices)}
        if len(idx) != len(vertices):
            raise ValueError("duplicate vertices in induced subset")
        rows = [0] * len(vertices)
        for v, i in idx.items():
            for u in bits(self.rows[v]):
                j = idx.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(len(vertices), tuple(rows))

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u in range(self.n):
            for v in bits(self.rows[u]):
                a[u, v] = 1.0
        return a

    def digest(self) -> str:
        """Stable hex digest of the labeled graph (used in certificates)."""
        h = hashlib.sha256()
        h.update(f"n={self.n};".encode())
        for u, v in self.edges():
            h.update(f"{u},{v};".encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class GraphStats:
    """Diameter, maximum degree, and the two top adjacency eigenvalues."""

    diameter: float  # math.inf when disconnected
    max_degree: int
    lambda_max: float
    lambda_2: float


# -- construction ---------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate and reversed pairs collapse to one edge.

    Raises ``ValueError`` on out-of-range endpoints or self-loops.
    """
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi graph: each of the C(n,2) edges present with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = rng_for(seed)
    rows = [0] * n
    if n >= 2:
        draws = rng.random(n * (n - 1) // 2)
        idx = 0
        for u in range(n):
            for v in range(u + 1, n):
                if (p == 1.0) or (draws[idx] < p):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                idx += 1
    return Graph(n, tuple(rows))


def gen_kregular(n: int, k: int, seed: int, restarts: int = 1000) -> Graph:
    """Sample a simple k-regular graph by the pairing (configuration) model.

    Pairings producing self-loops or multi-edges are rejected wholesale and
    the shuffle is restarted, up to ``restarts`` attempts.
    """
    if k >= n:
        raise ValueError("degree must be smaller than vertex count")
    if (n * k) % 2 != 0:
        raise ValueError("n*k must be even for a k-regular graph")
    if k == 0:
        return Graph(n, tuple([0] * n))
    rng = rng_for(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    for _ in range(restarts):
        rng.shuffle(stubs)
        rows = [0] * n
        ok = True
        for i in range(0, len(stubs), 2):
            u = int(stubs[i])
            v = int(stubs[i + 1])
            if u == v or (rows[u] >> v) & 1:
                ok = False
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if ok:
            return Graph(n, tuple(rows))
    raise GenerationError(f"pairing model failed within {restarts} restarts")


def gen_planted_partition(
    sizes: Sequence[int], p: float, q: float, seed: int
) -> Graph:
    """Planted-partition graph: intra-block edges with probability p, inter with q.

    Block labels are recorded on the returned graph (``Graph.blocks``).
    """
    if any(s <= 0 for s in sizes):
        raise ValueError("blocks must be nonempty")
    if not (0.0 <= q <= p <= 1.0):
        raise ValueError("require 0 <= q <= p <= 1")
    n = sum(sizes)
    labels: list[int] = []
    for b, s in enumerate(sizes):
        labels.extend([b] * s)
    rng = rng_for(seed)
    rows = [0] * n
    if n >= 2:
        draws = rng.random(n * (n - 1) // 2)
        idx = 0
        for u in range(n):
            for v in range(u + 1, n):
                prob = p if labels[u] == labels[v] else q
                if (prob == 1.0) or (draws[idx] < prob):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                idx += 1
    return Graph(n, tuple(rows), blocks=tuple(labels))


NAMED_FAMILIES = (
    "complete",
    "empty",
    "star",
    "path",
    "cycle",
    "complete_bipartite",
    "two_cliques_matched",
)


def gen_named(family: str, n: int) -> Graph:
    """Canonical graph of a named family.

    ``two_cliques_matched``: two disjoint n/2-cliques plus a perfect matching
    joining them one-to-one (n even). ``complete_bipartite`` splits the
    vertices into halves of size floor/ceil.
    """
    if n < 1:
        raise ValueError("n must be positive")
    edges: list[tuple[int, int]] = []
    if family == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "empty":
        edges = []
    elif family == "star":
        edges = [(0, v) for v in range(1, n)]
    elif family == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif family == "complete_bipartite":
        if n < 2:
            raise ValueError("complete_bipartite needs n >= 2")
        h = n // 2
        edges = [(u, v) for u in range(h) for v in range(h, n)]
    elif family == "two_cliques_matched":
        if n < 2 or n % 2 != 0:
            raise ValueError("two_cliques_matched needs even n >= 2")
        h = n // 2
        edges = [(u, v) for u in range(h) for v in range(u + 1, h)]
        edges += [(h + u, h + v) for u in range(h) for v in range(u + 1, h)]
        edges += [(u, h + u) for u in range(h)]
    else:
        raise ValueError(f"unknown family {family!r}; choose from {NAMED_FAMILIES}")
    return from_edge_list(n, edges)


# -- traversal and statistics ---------------------------------------------


def bfs_distances(g: Graph, src: int) -> list[float]:
    """Hop distances from ``src``; unreachable vertices get ``inf``."""
    dist: list[float] = [math.inf] * g.n
    dist[src] = 0
    frontier = 1 << src
    visited = frontier
    d = 0
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.rows[v]
        nxt &= ~visited
        d += 1
        for v in bits(nxt):
            dist[v] = d
        visited |= nxt
        frontier = nxt
    return dist


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Dense matrix of BFS distances (``inf`` across components)."""
    out = np.full((g.n, g.n), np.inf)
    for s in range(g.n):
        out[s] = bfs_distances(g, s)
    return out


def diameter(g: Graph) -> float:
    """Exact diameter via all-pairs BFS; ``inf`` iff disconnected, 0 for n=1."""
    if g.n == 0:
        raise ValueError("diameter of the empty vertex set is undefined")
    worst = 0.0
    for s in range(g.n):
        ecc = max(bfs_distances(g, s))
        if math.isinf(ecc):
            return math.inf
        worst = max(worst, ecc)
    return worst


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of connected components, each sorted, ordered by minimum."""
    seen = 0
    comps: list[list[int]] = []
    for s in range(g.n):
        if (seen >> s) & 1:
            continue
        frontier = 1 << s
        comp = frontier
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(list(bits(comp)))
    return comps


def neighborhood_class_masks(g: Graph) -> list[int]:
    """Bitmasks of the closed-neighborhood equivalence classes, by min vertex."""
    groups: dict[int, int] = {}
    for v in range(g.n):
        key = g.closed_row(v)
        groups[key] = groups.get(key, 0) | (1 << v)
    masks = sorted(groups.values(), key=lambda m: (m & -m).bit_length())
    return masks


def quotient_with_map(g: Graph) -> tuple[Graph, list[int]]:
    """Contract each closed-neighborhood class to a single vertex.

    Classes are ordered by their lowest member; the lowest member acts as
    representative (adjacency between classes is representative-independent).
    Also returns the class index of every vertex.
    """
    masks = neighborhood_class_masks(g)
    reps = [(m & -m).bit_length() - 1 for m in masks]
    vmap = [-1] * g.n
    for i, mask in enumerate(masks):
        for v in bits(mask):
            vmap[v] = i
    k = len(reps)
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if g.has_edge(reps[i], reps[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(k, tuple(rows)), vmap


def quotient_by_neighborhood(g: Graph) -> Graph:
    """The neighborhood-class quotient of ``quotient_with_map`` without the map."""
    return quotient_with_map(g)[0]


def spectrum_top2(g: Graph) -> tuple[float, float]:
    """Two largest adjacency eigenvalues (second repeats the first when n=1)."""
    if g.n < 1:
        raise ValueError("spectrum of the empty vertex set is undefined")
    if g.n == 1:
        return (0.0, 0.0)
    evs = np.linalg.eigvalsh(g.adjacency_matrix())
    return (float(evs[-1]), float(evs[-2]))


def graph_stats(g: Graph) -> GraphStats:
    lam_max, lam_2 = spectrum_top2(g)
    return GraphStats(
        diameter=diameter(g),
        max_degree=g.max_degree(),
        lambda_max=lam_max,
        lambda_2=lam_2,
    )


# -- edge-list text format --------------------------------------------------
# First line "n m", then one "u v" pair per line (0-indexed). Lines starting
# with '#' are comments. Planted-partition labels serialize as an optional
# trailing "blocks: i_0 i_1 ... i_{n-1}" line.


def write_edge_list(g: Graph, path: str) -> None:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    if g.blocks is not None:
        lines.append("blocks: " + " ".join(str(b) for b in g.blocks))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path: str) -> Graph:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n <edge count>'")
    n, m = int(head[0]), int(head[1])
    edges: list[tuple[int, int]] = []
    blocks: tuple[int, ...] | None = None
    for ln in lines[1:]:
        if ln.startswith("blocks:"):
            blocks = tuple(int(tok) for tok in ln.split(":", 1)[1].split())
            continue
        u, v = ln.split()
        edges.append((int(u), int(v)))
    g = from_edge_list(n, edges)
    if g.edge_count != m:
        raise ValueError(f"header declares {m} edges, file carries {g.edge_count}")
    if blocks is not None:
        g = Graph(g.n, g.rows, blocks=blocks)
    return g
