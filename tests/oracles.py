"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive enumeration over set
partitions, vertex subsets, center combinations, and vertex bijections.
None of it shares code paths with the library's search routines.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np
from scipy.sparse.csgraph import shortest_path

from presdim.graph import Graph, rng_for
from presdim.metric import PointSet


def set_partitions(items: list[int]):
    """All partitions of ``items`` (restricted-growth enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def is_clique(g: Graph, block: list[int]) -> bool:
    return all(g.has_edge(u, v) for u, v in itertools.combinations(block, 2))


def min_clique_cover_brute(g: Graph) -> int:
    best = g.n
    for part in set_partitions(list(range(g.n))):
        if len(part) < best and all(is_clique(g, b) for b in part):
            best = len(part)
    return best


def max_clique_brute(g: Graph) -> int:
    best = 0
    for mask in range(1, 1 << g.n):
        if mask.bit_count() <= best:
            continue
        members = [v for v in range(g.n) if (mask >> v) & 1]
        if is_clique(g, members):
            best = len(members)
    return best


def max_independent_brute(g: Graph) -> int:
    best = 0
    for mask in range(1, 1 << g.n):
        if mask.bit_count() <= best:
            continue
        members = [v for v in range(g.n) if (mask >> v) & 1]
        if all(not g.has_edge(u, v) for u, v in itertools.combinations(members, 2)):
            best = len(members)
    return best


def neighborhood_classes_brute(g: Graph, subset=None) -> int:
    """Count classes by direct pairwise comparison of closed neighborhoods."""
    vertices = list(range(g.n)) if subset is None else list(subset)
    classes: list[list[int]] = []
    for v in vertices:
        nv = {v} | set(g.neighbors(v))
        for cls in classes:
            u = cls[0]
            if ({u} | set(g.neighbors(u))) == nv:
                cls.append(v)
                break
        else:
            classes.append([v])
    return len(classes)


def covering_number_brute(dist: np.ndarray, subset, eps: float) -> int:
    n = dist.shape[0]
    subset = list(subset)
    if not subset:
        return 0
    balls = [frozenset(i for i in subset if dist[c, i] < eps) for c in range(n)]
    target = frozenset(subset)
    for k in range(1, len(subset) + 1):
        for combo in itertools.combinations(range(n), k):
            covered: set[int] = set()
            for c in combo:
                covered |= balls[c]
            if covered >= target:
                return k
    raise ValueError("uncoverable subset")


def packing_number_brute(dist: np.ndarray, subset, eps: float) -> int:
    subset = list(subset)
    best = 0
    for mask in range(1, 1 << len(subset)):
        if mask.bit_count() <= best:
            continue
        members = [subset[i] for i in range(len(subset)) if (mask >> i) & 1]
        if all(dist[u, v] >= eps for u, v in itertools.combinations(members, 2)):
            best = len(members)
    return best


def doubling_dimension_brute(dist: np.ndarray) -> int:
    n = dist.shape[0]
    if n == 1:
        return 0
    radii = []
    for r in sorted({float(x) for x in dist[np.triu_indices(n, k=1)] if x > 0}):
        radii.extend([r, r * (1 + 1e-9)])
    worst = 1
    for r in radii:
        for x in range(n):
            ball = [i for i in range(n) if dist[x, i] < r]
            worst = max(worst, covering_number_brute(dist, ball, r / 2))
    return (worst - 1).bit_length()


def _greedy_cover_seed(universe: int, sets: list[int]) -> int:
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


def covering_number_greedy_seed(dist: np.ndarray, subset, eps: float) -> int:
    """Greedy ``covering_number`` as first written: one bit per subset position,
    set point by point for every center, then max-coverage with ties to the
    lowest center. (Exact covers have one value, which ``covering_number_brute``
    pins.)"""
    sub = list(subset)
    if not sub:
        return 0
    masks = []
    idx = np.asarray(sub, dtype=int)
    for c in range(dist.shape[0]):
        inside = dist[c, idx] < eps
        mask = 0
        for i in np.nonzero(inside)[0]:
            mask |= 1 << int(i)
        masks.append(mask)
    return _greedy_cover_seed((1 << len(sub)) - 1, masks)


def doubling_dimension_greedy_seed(dist: np.ndarray) -> int:
    """Greedy ``doubling_dimension`` as first written: every (radius, center)
    pair builds its ball and covers it from scratch."""
    n = dist.shape[0]
    positive = sorted({float(x) for x in dist[np.triu_indices(n, k=1)] if x > 0})
    radii: list[float] = []
    for r in positive:
        radii.append(r)
        radii.append(r * (1 + 1e-9))
    worst = 1
    for r in radii:
        half = r / 2
        for x in range(n):
            ball = [i for i in range(n) if dist[x, i] < r]
            if len(ball) <= worst:
                continue
            worst = max(worst, covering_number_greedy_seed(dist, ball, half))
    return (worst - 1).bit_length()


def digest_oracle(g: Graph) -> str:
    """``Graph.digest`` as first written: one hash update per edge."""
    h = hashlib.sha256()
    h.update(f"n={g.n};".encode())
    for u, v in g.edges():
        h.update(f"{u},{v};".encode())
    return h.hexdigest()[:16]


def distance_matrix_oracle(points: np.ndarray, norm: float) -> np.ndarray:
    """Pairwise l_p distances from one (n, n, d) broadcast of all differences,
    symmetrised with a zero diagonal: the unblocked formula."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if pts.shape[1] == 0:
        return np.zeros((n, n))
    diff = pts[:, None, :] - pts[None, :, :]
    if norm == math.inf:
        d = np.abs(diff).max(axis=2)
    elif norm == 1.0:
        d = np.abs(diff).sum(axis=2)
    else:
        d = np.sqrt((diff * diff).sum(axis=2))
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def result_to_json_oracle(res) -> str:
    """``construct.result_to_json`` as first written: the whole document
    through ``json.dumps(doc, indent=2)``."""
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
        doc["points"] = res.target.points.tolist()
    else:
        doc["dim"] = res.target.n
        doc["pseudo"] = res.target.pseudo
        doc["distance_matrix"] = res.target.dist.tolist()
    return json.dumps(doc, indent=2)


def diameter_oracle(g: Graph) -> float:
    """Diameter through scipy's shortest-path solver."""
    if g.n == 1:
        return 0.0
    d = shortest_path(g.adjacency_matrix(), method="D", unweighted=True)
    worst = d.max()
    return math.inf if math.isinf(worst) else float(worst)


def isomorphic_brute(g1: Graph, g2: Graph) -> bool:
    """Backtracking graph isomorphism for small graphs (n <= 10)."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    n = g1.n
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for u in range(v):
                if g1.has_edge(v, u) != g2.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Test-local G(n, p) sampler, independent of the library generators."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def gnp_oracle(n: int, p: float, seed: int) -> tuple[int, ...]:
    """Rows of G(n, p) by the double loop over pairs u < v, one draw each."""
    return planted_oracle([n], p, p, seed) if n else ()


def planted_oracle(sizes, p: float, q: float, seed: int) -> tuple[int, ...]:
    """Rows of the planted-partition graph by the double loop over pairs u < v,
    one draw each: p inside a block, q across blocks."""
    labels = [b for b, s in enumerate(sizes) for _ in range(s)]
    n = len(labels)
    rows = [0] * n
    if n >= 2:
        draws = rng_for(seed).random(n * (n - 1) // 2)
        idx = 0
        for u in range(n):
            for v in range(u + 1, n):
                prob = p if labels[u] == labels[v] else q
                if (prob == 1.0) or (draws[idx] < prob):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                idx += 1
    return tuple(rows)


def from_edge_list_oracle(n: int, edges) -> tuple[int, ...]:
    """Rows of ``from_edge_list`` as first written: one bit per endpoint, edge
    by edge, raising at the first out-of-range endpoint or self-loop."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def graph_error_oracle(n: int, rows) -> str | None:
    """The message ``Graph(n, rows)`` must reject ``rows`` with, by a bit-by-bit
    scan: range and self-loop per row in order, then symmetry row by row."""
    for v, row in enumerate(rows):
        if row >> n:
            return f"row {v} references vertices >= n"
        if (row >> v) & 1:
            return f"self-loop at vertex {v}"
    for v, row in enumerate(rows):
        for u in range(n):
            if (row >> u) & 1 and not (rows[u] >> v) & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def induced_oracle(g: Graph, vertices) -> tuple[int, ...]:
    """Rows of the subgraph induced by ``vertices``, relabeled in the given order."""
    rows = [0] * len(vertices)
    for i, u in enumerate(vertices):
        for j, v in enumerate(vertices):
            if g.has_edge(u, v):
                rows[i] |= 1 << j
    return tuple(rows)


def distances_oracle(g: Graph) -> np.ndarray:
    """All-pairs hop distances through scipy's shortest-path solver on a dense
    matrix read edge by edge."""
    a = np.array([[1.0 if g.has_edge(u, v) else 0.0 for v in range(g.n)] for u in range(g.n)])
    return shortest_path(a.reshape(g.n, g.n), method="D", unweighted=True)
