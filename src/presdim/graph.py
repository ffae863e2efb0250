"""Graph container, named and random generators, and basic statistics.

A graph stores its adjacency once, as a read-only boolean matrix
(``Graph.matrix``) checked with whole-array operations at construction, which
drives induction and the distance computations. Packed bit rows (one Python
int per vertex, ``Graph.rows``) for constant-time edge queries and
word-parallel neighborhood intersections are derived from it on first use.
Graphs are immutable after construction and safe to share across threads;
every generator is a pure function of its parameters and seed.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

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
    "gen_family",
    "planted_sizes",
    "require_seed",
    "NAMED_FAMILIES",
    "RANDOM_FAMILIES",
    "bfs_distances",
    "all_pairs_distances",
    "diameter",
    "ball_matrices",
    "connected_components",
    "complement_matrix",
    "group_index",
    "neighborhood_classes",
    "quotient_by_neighborhood",
    "quotient_with_map",
    "spectrum_top2",
    "graph_stats",
    "write_edge_list",
    "read_edge_list",
]


class GenerationError(RuntimeError):
    """Raised when a rejection-sampling generator exhausts its budget."""


def require_seed(seed: int | None) -> int:
    """``seed`` itself; every random draw starts from an explicit seed >= 0."""
    if seed is None:
        raise ValueError("this operation is randomized; pass --seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got seed={seed}")
    return seed


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator from a root seed and an index key.

    Uses a splittable seed tree, so serial and parallel trial execution
    derive identical per-trial streams.
    """
    return np.random.default_rng(np.random.SeedSequence(require_seed(seed), spawn_key=tuple(key)))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for the given trial key (splittable scheme)."""
    return int(np.random.SeedSequence(require_seed(seed), spawn_key=tuple(key)).generate_state(1)[0])


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Entries per block of the random draws and of the symmetry check; bounds
# their transient memory.
_BLOCK_ENTRIES = 2**14
# Largest m*n*k of one block of a matrix product. OpenBLAS runs a product this
# small on the calling thread (measured: up to about 10^6 with 2 threads); a
# larger one wakes its worker threads, which then spin for about 0.13 s of CPU
# time after the call returns.
_GEMM_BLOCK = 2**19
# The right operand of a product is converted to float this many column
# panels at a time, each about as large as the boolean matrix itself.
_PANELS = 4
# float32 represents every integer below 2^24, so a 0/1 or count product stays
# exact in float32 while its partial sums do.
_FLOAT32_EXACT = 2**24


def _block_rows(n: int) -> int:
    """Rows per block of a pass over an array with n columns."""
    return max(1, _BLOCK_ENTRIES // max(n, 1))


def _pack_rows(a: np.ndarray) -> tuple[int, ...]:
    """Bit rows of a 2-d boolean array: bit j of row i is ``a[i, j]``."""
    packed = np.packbits(a, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(a)))


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``matrix`` is the adjacency as a read-only (n, n) boolean array and
    ``rows[v]`` the neighbor bitmask of ``v``; ``blocks`` optionally records
    planted-partition labels per vertex. ``Graph.of`` builds from a matrix.
    """

    n: int
    matrix: np.ndarray = field(repr=False)
    blocks: tuple[int, ...] | None = None

    def __init__(self, n: int, rows: Sequence[int], blocks: tuple[int, ...] | None = None) -> None:
        if n < 0 or len(rows) != n:
            raise ValueError("row count must equal vertex count")
        # Signed and one bit wider than n and every row: each bit a row sets at
        # or beyond n, a negative row's sign bits included, lands in a column >= n.
        width = max([n, *(row.bit_length() for row in rows)]) + 1
        size = (width + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(size, "little", signed=True) for row in rows), dtype=np.uint8)
        a = np.unpackbits(packed.reshape(n, size), axis=1, count=width, bitorder="little").view(bool)
        bad = a[:, n:].any(axis=1) | a.diagonal()
        if bad.any():  # the first bad row; its range error before its self-loop
            v = int(bad.argmax())
            raise ValueError(f"row {v} references vertices >= n" if a[v, n:].any() else f"self-loop at vertex {v}")
        vars(self).update(vars(Graph.of(a[:, :n], blocks)), rows=tuple(rows))

    @classmethod
    def of(cls, a: np.ndarray, blocks: tuple[int, ...] | None = None) -> "Graph":
        """Graph whose adjacency is the square boolean array ``a``, taken over
        without a copy and made read-only. Every graph passes this check."""
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != bool:
            raise ValueError("adjacency must be a square boolean matrix")
        n = len(a)
        if a.diagonal().any():
            raise ValueError(f"self-loop at vertex {int(a.diagonal().argmax())}")
        # Symmetry: u in row v iff v in row u; report the first (v, u) in row order.
        step = _block_rows(n)
        if not all(np.array_equal(a[lo : lo + step], a[:, lo : lo + step].T) for lo in range(0, n, step)):
            v, u = np.argwhere(a & ~a.T)[0]
            raise ValueError(f"asymmetric adjacency between {u} and {v}")
        if blocks is not None and len(blocks) != n:
            raise ValueError("blocks must label every vertex")
        return cls._checked(a, blocks)

    @classmethod
    def _checked(cls, a: np.ndarray, blocks: tuple[int, ...] | None = None) -> "Graph":
        """``Graph.of`` for a matrix known to pass its check."""
        a.flags.writeable = False
        g = cls.__new__(cls)
        vars(g).update(n=len(a), matrix=a, blocks=blocks)
        return g

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Neighbor bitmasks (self bit never set), packed from ``matrix`` on first read."""
        return _pack_rows(self.matrix)

    def __reduce__(self) -> tuple:
        """Unpickle through ``Graph.of``, so that the matrix is checked and read-only again."""
        return Graph.of, (self.matrix, self.blocks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.n, self.rows, self.blocks) == (other.n, other.rows, other.blocks)

    def __hash__(self) -> int:
        return hash((self.n, self.rows, self.blocks))

    # -- queries ---------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.matrix[v]))

    def degrees(self) -> list[int]:
        return np.count_nonzero(self.matrix, axis=1).tolist()

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.rows[v])

    def closed_row(self, v: int) -> int:
        """Bitmask of the closed neighborhood ``N(v) = {v} ∪ neighbors``."""
        return self.rows[v] | (1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v) with u < v, in row-major order."""
        u, v = np.nonzero(np.triu(self.matrix, 1))
        return zip(u.tolist(), v.tolist())

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced by ``vertices`` (relabeled 0..len-1 in given order)."""
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertices in induced subset")
        idx = np.asarray(vertices, dtype=np.intp)
        # A principal submatrix of a checked matrix passes the check: its
        # diagonal entries are diagonal entries, and it is symmetric.
        return Graph._checked(self.matrix.take(idx, 0).take(idx, 1))

    def adjacency_matrix(self) -> np.ndarray:
        return self.matrix.astype(np.float64)

    def digest(self) -> str:
        """Stable hex digest of the labeled graph (used in certificates): the
        SHA-256 of "n=<n>;" and then "u,v;" for every edge u < v in row-major
        order, built one row at a time from a table of vertex labels."""
        labels = np.array([str(v) for v in range(self.n)], dtype=object)
        text = [f"n={self.n};"]
        for u, row in enumerate(np.triu(self.matrix, 1)):
            if (later := labels[row]).size:
                text.append(f"{u}," + f";{u},".join(later) + ";")
        return hashlib.sha256("".join(text).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GraphStats:
    """Diameter, maximum degree, and the two top adjacency eigenvalues."""

    diameter: float  # math.inf when disconnected
    max_degree: int
    lambda_max: float
    lambda_2: float


# -- construction ---------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a simple graph from (u, v) pairs or a (k, 2) integer array;
    duplicate and reversed pairs collapse to one edge.

    Raises ``ValueError`` on anything but integer pairs, on out-of-range
    endpoints and on self-loops, naming the first offending edge.
    """
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if e.size == 0:
        e = np.zeros((0, 2), dtype=np.int64)
    elif e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
        raise ValueError("edges must be pairs of integer vertices")
    bad = ((e < 0) | (e >= n)).any(axis=1) | (e[:, 0] == e[:, 1])
    if bad.any():
        u, v = e[np.argmax(bad)].tolist()
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        raise ValueError(f"self-loop at vertex {u}")
    if n < 0:
        raise ValueError("row count must equal vertex count")
    a = np.zeros((n, n), dtype=bool)
    a[e[:, 0], e[:, 1]] = a[e[:, 1], e[:, 0]] = True
    return Graph.of(a)


def _sample_pairs(n: int, seed: int, prob: Callable[[int, int], float | np.ndarray]) -> np.ndarray:
    """Adjacency of a graph on n vertices whose pair u < v is an edge iff its uniform
    draw falls below its probability. Pairs take draws in row-major order, the
    order of a double loop over u then v > u; ``prob(lo, hi)`` gives the
    probabilities of rows lo:hi as a scalar or an (hi - lo, n) array."""
    rng = rng_for(seed)
    a = np.zeros((n, n), dtype=bool)
    cols = np.arange(n)
    step = _block_rows(n)
    for lo in range(0, n, step):
        upper = cols[None, :] > cols[lo : lo + step, None]
        limit = prob(lo, lo + step)
        if np.ndim(limit):
            limit = limit[upper]
        a[lo : lo + step][upper] = rng.random(int(np.count_nonzero(upper))) < limit
    a |= a.T
    return a


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi graph: each of the C(n,2) edges present with probability p."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    return Graph.of(_sample_pairs(n, seed, lambda lo, hi: p))


def gen_kregular(n: int, k: int, seed: int, restarts: int = 1000) -> Graph:
    """Sample a simple k-regular graph by the pairing (configuration) model.

    Pairings producing self-loops or multi-edges are rejected wholesale and
    the shuffle is restarted, up to ``restarts`` attempts. When all of them
    fail (likely for k >= 6), the same stream continues into up to
    ``restarts`` attempts of the batched Steger–Wormald sampler (Combin.
    Probab. Comput. 1999): pair the stubs left over at random and keep every
    pair that adds a new simple edge, until no stub is left, or no pair of
    the leftover stubs could add one (a failed attempt).
    """
    if n < 0 or k < 0:
        raise ValueError(f"k-regular graphs need n, k >= 0, got n={n}, k={k}")
    if k >= n:
        raise ValueError("degree must be smaller than vertex count")
    if (n * k) % 2 != 0:
        raise ValueError("n*k must be even for a k-regular graph")
    rng = rng_for(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    for _ in range(restarts):
        a = np.zeros((n, n), dtype=bool)
        if not _pair_stubs(a, stubs, rng).size:
            return Graph.of(a)
    for _ in range(restarts):
        a, left = np.zeros((n, n), dtype=bool), np.sort(stubs)  # every stub, in vertex order
        while left.size:
            left = _pair_stubs(a, left, rng)
            ends = np.unique(left)
            if left.size and (a[np.ix_(ends, ends)] | np.eye(len(ends), dtype=bool)).all():
                break
        else:
            return Graph.of(a)
    raise GenerationError(f"pairing model and Steger–Wormald sampler failed within {restarts} restarts each")


def _pair_stubs(a: np.ndarray, stubs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shuffle ``stubs`` in place, pair them up in order and add to ``a`` each
    pair that makes a new simple edge; return the stubs of the other pairs."""
    rng.shuffle(stubs)
    u, v = stubs.reshape(-1, 2).T
    first = np.zeros(len(u), dtype=bool)  # a repeated pair counts at its first occurrence only
    first[np.unique(np.minimum(u, v) * len(a) + np.maximum(u, v), return_index=True)[1]] = True
    keep = first & (u != v) & ~a[u, v]
    a[u[keep], v[keep]] = a[v[keep], u[keep]] = True
    return stubs.reshape(-1, 2)[~keep].ravel()


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
    labels = np.repeat(np.arange(len(sizes)), sizes)

    def prob(lo: int, hi: int) -> np.ndarray:
        return np.where(labels[lo:hi, None] == labels[None, :], p, q)

    return Graph.of(_sample_pairs(len(labels), seed, prob), blocks=tuple(labels.tolist()))


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


RANDOM_FAMILIES = ("gnp", "kregular", "planted")


def planted_sizes(n: int, k: int) -> list[int]:
    """Sizes of k equal planted blocks on n vertices."""
    if not 1 <= k <= n or n % k:
        raise ValueError(f"planted graphs need n >= k >= 1 with k dividing n, got n={n}, k={k}")
    return [n // k] * k


def gen_family(family: str, n: int, p: float, q: float, k: int, seed: int | None) -> Graph:
    """One graph of a named family or of a random one (``RANDOM_FAMILIES``):
    G(n, p), k-regular, or k equal planted blocks at p inside and q across.
    Random families need a seed; named ones ignore it and p, q, k."""
    if family == "gnp":
        return gen_gnp(n, p, seed)
    if family == "kregular":
        return gen_kregular(n, k, seed)
    if family == "planted":
        return gen_planted_partition(planted_sizes(n, k), p, q, seed)
    return gen_named(family, n)


# -- traversal and statistics ---------------------------------------------


def _hop_layers(g: Graph, src: int) -> Iterator[int]:
    """Bitmasks of the vertices 0, 1, 2, ... hops from ``src``, while any are left."""
    frontier = visited = 1 << src
    while frontier:
        yield frontier
        nxt = 0
        for v in bits(frontier):
            nxt |= g.rows[v]
        frontier = nxt & ~visited
        visited |= frontier


def bfs_distances(g: Graph, src: int) -> list[float]:
    """Hop distances from ``src``; unreachable vertices get ``inf``."""
    dist: list[float] = [math.inf] * g.n
    for d, layer in enumerate(_hop_layers(g, src)):
        for v in bits(layer):
            dist[v] = d
    return dist


def _product_blocks(x: np.ndarray, y: np.ndarray, bound: int) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Yield ``(rows, cols, x[rows] @ y[:, cols])`` over square blocks of the
    product x @ y, for a symmetric y. The product runs in float32 when every
    partial sum stays below ``bound`` < 2^24 (exact there), else in float64.
    y is converted one column panel at a time (a quarter of its columns, as
    many bytes as the boolean matrix), x one row block per panel."""
    n = len(x)
    dtype = np.float32 if bound < _FLOAT32_EXACT else np.float64
    step = max(1, math.isqrt(_GEMM_BLOCK // max(n, 1)))
    width = step * max(1, -(-n // (_PANELS * step)))
    for p in range(0, n, width):
        panel = y[p : p + width].astype(dtype)  # y[:, p:p+width], as y is symmetric
        for r in range(0, n, step):
            left = x[r : r + step].astype(dtype)
            for c in range(0, len(panel), step):
                yield slice(r, r + step), slice(p + c, p + c + step), left @ panel[c : c + step].T
        del panel, left  # before the next panel is allocated


def _reach_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean product: (x @ y)[u, w] is set iff some v has x[u, v] and y[v, w].
    Reachability matrices are symmetric, so y is."""
    out = np.empty(x.shape, dtype=bool)
    for rows, cols, block in _product_blocks(x, y, len(x)):
        np.greater(block, 0, out=out[rows, cols])
    return out


def ball_matrices(g: Graph, radius: int) -> list[np.ndarray]:
    """Boolean matrices whose entry ``r - 1`` holds, in row v, the vertices
    within r hops of v, for r = 1..radius (one product per radius above 1)."""
    step = g.matrix.copy()
    np.fill_diagonal(step, True)
    balls = [step]
    for _ in range(radius - 1):
        balls.append(_reach_product(balls[-1], step))
    return balls


def _seidel(a: np.ndarray, out: np.ndarray) -> None:
    """Write the hop distances of a connected graph, given by its boolean
    adjacency a, into ``out`` (Seidel, JCSS 1995). The square graph B (pairs
    within two hops) has distances t = ceil(d / 2), and d(i, j) is even iff
    the sum of t(i, k) over the neighbors k of j reaches deg(j) * t(i, j)."""
    n = len(a)
    b = _reach_product(a, a)
    b |= a
    np.fill_diagonal(b, False)
    if np.count_nonzero(b) == n * (n - 1):
        np.multiply(b, 2, out=out)
        np.subtract(out, a, out=out)
        return
    t = np.empty((n, n), dtype=np.int32)
    _seidel(b, t)
    del b
    deg = np.count_nonzero(a, axis=0)
    for rows, cols, x in _product_blocks(t, a, n * n):
        half = t[rows, cols]
        out[rows, cols] = 2 * half - (x < half * deg[cols])


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Dense matrix of hop distances (``inf`` across components), by Seidel's
    algorithm on each connected component."""
    out = np.full((g.n, g.n), np.inf)
    for comp in connected_components(g):
        if len(comp) == g.n:
            _seidel(g.matrix, out)
        else:
            idx = np.ix_(comp, comp)
            block = np.empty((len(comp), len(comp)))
            _seidel(g.matrix[idx], block)
            out[idx] = block
    return out


def diameter(g: Graph) -> float:
    """Exact diameter; ``inf`` iff disconnected, 0.0 for n=1, else an int.

    Squares the reachability matrix R = A or I until every pair is reached
    (``inf`` if it stops growing first), then binary-lifts from the last
    power that falls short: O(log D) boolean products in all.
    """
    if g.n == 0:
        raise ValueError("diameter of the empty vertex set is undefined")
    if g.n == 1:
        return 0.0
    powers = ball_matrices(g, 1)  # powers[i]: pairs within 2^i hops
    while not powers[-1].all():
        nxt = _reach_product(powers[-1], powers[-1])
        if np.count_nonzero(nxt) == np.count_nonzero(powers[-1]):  # a superset, so equal
            return math.inf
        powers.append(nxt)
    if len(powers) == 1:
        return 1
    # 2^(j-1) < D <= 2^j for j = len(powers) - 1; find the largest h < D.
    hops, reach = 2 ** (len(powers) - 2), powers[-2]
    for i in range(len(powers) - 3, -1, -1):
        nxt = _reach_product(reach, powers[i])
        if not nxt.all():
            hops, reach = hops + 2**i, nxt
    return hops + 1


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of connected components, each sorted, ordered by minimum."""
    seen = 0
    comps: list[list[int]] = []
    for s in range(g.n):
        if not (seen >> s) & 1:
            comp = sum(_hop_layers(g, s))  # the layers are disjoint
            seen |= comp
            comps.append(list(bits(comp)))
    return comps


def complement_matrix(g: Graph) -> np.ndarray:
    """Boolean adjacency of the complement graph, as a new writable array."""
    a = ~g.matrix
    np.fill_diagonal(a, False)
    return a


def group_index(groups: Iterable[Iterable[int]], n: int) -> list[int]:
    """Index of the group holding each vertex 0..n-1 (-1 where none does)."""
    idx = [-1] * n
    for i, members in enumerate(groups):
        for v in members:
            idx[v] = i
    return idx


def neighborhood_classes(g: Graph, vertices: Iterable[int] | None = None) -> list[list[int]]:
    """``vertices`` (default all) grouped by identical closed neighborhood in
    the full graph, groups in order of first appearance. The packed bit rows
    act as exact hash and comparison keys at once."""
    groups: dict[int, list[int]] = {}
    for v in range(g.n) if vertices is None else vertices:
        groups.setdefault(g.closed_row(v), []).append(v)
    return list(groups.values())


def quotient_with_map(g: Graph) -> tuple[Graph, list[int]]:
    """Contract each closed-neighborhood class to a single vertex.

    Classes are ordered by their lowest member; the lowest member acts as
    representative (adjacency between classes is representative-independent).
    Also returns the class index of every vertex.
    """
    classes = neighborhood_classes(g)
    reps = [members[0] for members in classes]
    return Graph.of(g.matrix[np.ix_(reps, reps)]), group_index(classes, g.n)


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
# First line "n m", then one "u v" pair per line (0-indexed): exactly two
# integer tokens. Lines starting with '#' are comments; a '#' elsewhere in a
# line is an error. Planted-partition labels serialize as an optional
# trailing "blocks: i_0 i_1 ... i_{n-1}" line. Leading and trailing
# whitespace of a line is ignored, and so are blank lines.

# The comment and blank lines before the header, then the header line.
_HEADER = re.compile(r"(?:\s*#[^\n]*)*\s*([^\n]*)")
# A comment or "blocks:" line after the header, with the newline before it
# (and any blank lines); group 1 is the labels text of a "blocks:" line.
_NOT_EDGES = re.compile(r"\n\s*(?:#[^\n]*|blocks:([^\n]*))")


def write_edge_list(g: Graph, path: str) -> None:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    if g.blocks is not None:
        lines.append("blocks: " + " ".join(str(b) for b in g.blocks))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path: str) -> Graph:
    """Read the edge-list text format above; ``ValueError`` names what is wrong.

    The comment and ``blocks:`` lines are cut out of the text by one regex
    split, and every remaining line goes to one ``np.loadtxt`` call.
    """
    with open(path) as fh:
        text = fh.read()
    head = _HEADER.match(text)
    if not head.group(1):
        raise ValueError("empty edge-list file")
    try:
        n, m = map(int, head.group(1).split())
    except ValueError:
        n = m = -1
    if n < 0 or m < 0:
        raise ValueError(f"header {head.group(1).strip()!r} must be 'n <edge count>', two nonnegative integers")
    parts = _NOT_EDGES.split(text[head.end() :])
    try:
        labels = [tuple(map(int, line.split())) for line in parts[1::2] if line is not None]
    except ValueError as exc:
        raise ValueError(f"'blocks:' line must hold one integer label per vertex ({exc})") from None
    body = "".join(parts[0::2])
    # comments=None: a '#' inside an edge line must fail to parse, not end it.
    # numpy releases still in their deprecation period parse a token such as
    # "1.5" or "2.0" via a float, truncate it and only issue a
    # DeprecationWarning; the filter turns that into their ValueError.
    # Without edge lines the parser is skipped; it warns on empty input.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            edges = np.loadtxt(body.split("\n"), dtype=np.int64, ndmin=2, comments=None) if body.strip() else ()
    except ValueError as exc:
        raise ValueError(f"edge lines must hold exactly two integers ({exc})") from None
    g = from_edge_list(n, edges)
    if g.edge_count != m:
        raise ValueError(f"header declares {m} edges, file carries {g.edge_count}")
    if labels:
        g = Graph.of(g.matrix, blocks=labels[-1])
    return g
