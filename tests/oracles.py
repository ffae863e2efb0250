"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: exhaustive enumeration over set
partitions, vertex subsets, center combinations, and vertex bijections.
None of it shares code paths with the library's search routines, except
the subset-profile references, which take the library's hop balls,
diameters and exact ``independence_number`` (pinned against
``independence_nodes_oracle``) as given, and
``doubling_dimension_class_cached``, which covers balls with the library's
exact ``_min_cover`` (itself pinned against ``covering_number_brute``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np
from scipy.sparse.csgraph import shortest_path

from presdim.config import DEFAULT_LIMITS
from presdim.graph import Graph, ball_matrices, connected_components, diameter, rng_for
from presdim.metric import PointSet, _min_cover, _row_masks
from presdim.partition import SearchBudgetExceeded, independence_number, neighborhood_class_count


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


def doubling_dimension_class_cached(dist: np.ndarray, mode: str = "exact") -> int:
    """``doubling_dimension`` as written when its masks were first built once
    per threshold class: ball and half-ball masks are rebuilt from ``d < t``
    whenever the class of r or r/2 changes, every ball larger than the
    running maximum is looked up at every radius, and each distinct ball is
    covered in full once per half-radius class. Greedy covers use
    ``_greedy_cover_seed``; exact ones the library's ``_min_cover``."""
    d = dist
    n = d.shape[0]
    positive = sorted({float(x) for x in d[np.triu_indices(n, k=1)] if x > 0})
    radii: list[float] = []
    for r in positive:
        radii.append(r)
        radii.append(r * (1 + 1e-9))
    solve = _min_cover if mode == "exact" else _greedy_cover_seed
    values = np.sort(d, axis=None)
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


def sphere_packing_l2_seed(n: int, r: float, eps: float, seed: int, attempts: int = 10,
                           samples_per_attempt: int = 100_000) -> np.ndarray | None:
    """The points of ``sphere_packing_l2`` as first written: each sample is
    tested against the kept points one row at a time and appended with
    ``np.vstack``. None where the budget runs out."""
    from presdim.construct import packing_dim

    d = packing_dim(n, r, eps)
    if n == 1:
        return np.zeros((1, d))
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
            return kept
    return None


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


def kregular_oracle(n: int, k: int, seed: int, restarts: int = 1000) -> tuple[int, ...] | None:
    """Rows of ``gen_kregular`` by its per-pair loops as first written: pairing
    restarts that reject at the first self-loop or repeated edge, then
    Steger–Wormald attempts that keep each pair making a new simple edge, on
    the same stream. None where both give up."""
    rng = rng_for(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    for _ in range(restarts):
        rng.shuffle(stubs)
        rows = [0] * n
        for u, v in stubs.reshape(-1, 2).tolist():
            if u == v or (rows[u] >> v) & 1:
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            return tuple(rows)
    for _ in range(restarts):
        rows = [0] * n
        stubs = np.repeat(np.arange(n, dtype=np.int64), k)
        while stubs.size:
            rng.shuffle(stubs)
            left: list[int] = []
            for u, v in stubs.reshape(-1, 2).tolist():
                if u != v and not (rows[u] >> v) & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                else:
                    left += (u, v)
            ends = set(left)
            if left and not any(u != v and not (rows[u] >> v) & 1 for u in ends for v in ends):
                break
            stubs = np.array(left, dtype=np.int64)
        else:
            return tuple(rows)
    return None


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


def _closed_classes_oracle(g: Graph, vertices) -> list[list[int]]:
    """``vertices`` grouped by closed neighborhood (as vertex sets), each class
    sorted, classes ordered by their lowest member."""
    groups: dict[frozenset, list[int]] = {}
    for v in vertices:
        groups.setdefault(frozenset([v, *g.neighbors(v)]), []).append(v)
    return sorted((sorted(c) for c in groups.values()), key=lambda c: c[0])


def grid_packing_oracle(n: int, r: float, eps: float) -> np.ndarray:
    """``construct.grid_packing_linf`` points as first written: the base-s
    digits of each index, one axis at a time."""
    from presdim.construct import grid_dim
    from presdim.util import int_ceil

    if n == 1:
        return np.zeros((1, 1))
    s = int_ceil(r / eps)
    d = grid_dim(n, s)
    axis = [0.0]
    for _ in range(min(s, n) - 1):
        w = axis[-1] + eps
        while w - axis[-1] < eps:
            w = math.nextafter(w, math.inf)
        axis.append(w)
    pts = np.empty((n, d))
    for i in range(n):
        x = i
        for axis_idx in range(d - 1, -1, -1):
            pts[i, axis_idx] = axis[x % s]
            x //= s
    return pts


def pseudo_metric_oracle(g: Graph, alpha: float, limit=None):
    """``construct.pseudo_metric_embedding`` as first written: one distance
    per pair of class points, from the two points' grid coordinates inside a
    block and from an edge query between representatives across blocks."""
    from presdim.construct import EmbeddingResult, _largest_margin, pseudo_metric_dim
    from presdim.metric import FiniteMetric
    from presdim.partition import gated_clique_cover

    limiting = alpha == 1.0
    a = 1.0 + 1e-6 if limiting else alpha
    eps = _largest_margin(a)
    part = gated_clique_cover(g, limit)
    point_part: list[int] = []
    point_coords: list[np.ndarray] = []
    vmap = [-1] * g.n
    biggest_class_count = 1
    for bi, block in enumerate(part.blocks):
        ordered = _closed_classes_oracle(g, block)
        k = len(ordered)
        biggest_class_count = max(biggest_class_count, k)
        grid = grid_packing_oracle(k, 1.0 - eps, a - 1.0 + eps) if k > 1 else np.zeros((1, 1))
        for ci, members in enumerate(ordered):
            pid = len(point_part)
            point_part.append(bi)
            point_coords.append(grid[ci])
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
    label = "pseudo_metric[limit at 1]" if limiting else "pseudo_metric"
    return EmbeddingResult(
        target=FiniteMetric(dist),
        vertex_map=tuple(vmap),
        claimed_alpha=(0.0, alpha),
        claimed_r=1.0,
        claimed_dim_bound=pseudo_metric_dim(part.size, biggest_class_count, a),
        source=f"{label}[{part.mode}]",
    )


def frechet_quotient_oracle(g: Graph):
    """``construct.frechet_quotient_embedding`` as first written: on a
    disconnected quotient, each coordinate filled vertex by vertex, per
    component and landmark, then one indicator axis per component at
    2*(max eccentricity) + 1."""
    from presdim.construct import EmbeddingResult, linf_dim

    classes = _closed_classes_oracle(g, range(g.n))
    vmap = [-1] * g.n
    for i, members in enumerate(classes):
        for v in members:
            vmap[v] = i
    h = g.induced([members[0] for members in classes])
    d = distances_oracle(h)
    finite = d[np.isfinite(d)]
    if np.isfinite(d).all():
        coords = d[:, 1:] if h.n > 1 else np.zeros((1, 1))
    else:
        comps = []
        seen: set[int] = set()
        for s in range(h.n):
            if s not in seen:
                comp = sorted(int(v) for v in np.flatnonzero(np.isfinite(d[s])))
                seen.update(comp)
                comps.append(comp)
        spread = 2.0 * float(finite.max()) + 1.0
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


# -- reference searches on packed bit rows ------------------------------------
# The exact searches as they ran before they read the boolean matrix: vertices
# relabeled bit by bit, complements built as whole graphs, DSATUR recounting
# degrees at every step. Tests require the same results and node counts.


def _bit_list(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _greedy_clique_rows(rows, cand: int) -> int:
    clique = 0
    while cand:
        best_v, best_d = -1, -1
        for v in _bit_list(cand):
            d = (rows[v] & cand).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        clique |= 1 << best_v
        cand &= rows[best_v]
    return clique


def max_clique_nodes_oracle(g: Graph) -> tuple[int, int]:
    """(clique number, branch-and-bound nodes) of the greedy-coloring bounded
    max-clique search, its vertices sorted by (-degree, index) and each bit
    row relabeled one bit at a time."""
    n, rows = g.n, g.rows
    if n == 0:
        return 0, 0
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    back = [0] * n
    for i, v in enumerate(order):
        back[v] = i
    rr = [0] * n
    for v in range(n):
        row = 0
        for u in _bit_list(rows[v]):
            row |= 1 << back[u]
        rr[back[v]] = row
    best = _greedy_clique_rows(rr, (1 << n) - 1).bit_count()
    nodes = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best, nodes
        nodes += 1
        stack = []
        rest, c = cand, 0
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
                expand(size + 1, newcand)
            elif size + 1 > best:
                best = size + 1
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best, nodes


def max_clique_mask_oracle(a: np.ndarray, budget: int | None = None) -> tuple[int, int]:
    """(clique mask in ``a``'s labels, branch-and-bound nodes) of the same
    search with every color class recorded in full: each vertex of each class
    goes on the stack with its class index, and a class grows by clearing
    the vertex's neighbors and then the vertex itself. Raises
    ``SearchBudgetExceeded`` once the node count passes ``budget``."""
    n = len(a)
    if n == 0:
        return 0, 0
    rows = [sum(1 << u for u in range(n) if a[v][u]) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    rr = [sum(1 << i for i, u in enumerate(order) if a[v][u]) for v in order]
    best_mask = _greedy_clique_rows(rr, (1 << n) - 1)
    best = best_mask.bit_count()
    nodes = 0

    def expand(current: int, size: int, cand: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(f"max-clique budget {budget} exhausted")
        stack = []
        rest, c = cand, 0
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
    return sum(1 << order[i] for i in _bit_list(best_mask)), nodes


def complement_graph_oracle(g: Graph) -> Graph:
    """The complement as a validated Graph, built from the bit rows."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ g.rows[v]) & ~(1 << v) for v in range(g.n)))


def independence_nodes_oracle(g: Graph) -> tuple[int, int]:
    return max_clique_nodes_oracle(complement_graph_oracle(g))


def _dsatur_pick_oracle(rows, colors, sat) -> int:
    v, key = -1, (-1, -1, 0)
    for u in range(len(rows)):
        if colors[u] == -1:
            k = (sat[u].bit_count(), rows[u].bit_count(), -u)
            if k > key:
                key, v = k, u
    return v


def dsatur_greedy_oracle(rows) -> list[int]:
    """Greedy DSATUR colors, each pick a scan over every vertex."""
    n = len(rows)
    colors, sat = [-1] * n, [0] * n
    for _ in range(n):
        v = _dsatur_pick_oracle(rows, colors, sat)
        c = 0
        while (sat[v] >> c) & 1:
            c += 1
        colors[v] = c
        for u in _bit_list(rows[v]):
            sat[u] |= 1 << c
    return colors


def coloring_nodes_oracle(rows) -> tuple[list[int], int]:
    """(colors, branch-and-bound nodes) of an optimal coloring by
    DSATUR-ordered branch and bound, seeded with the DSATUR greedy and a
    greedy clique; no node budget."""
    n = len(rows)
    if n == 0:
        return [], 0
    colors = dsatur_greedy_oracle(rows)
    best, best_k = colors, max(colors) + 1
    clique = _bit_list(_greedy_clique_rows(rows, (1 << n) - 1))
    if best_k == len(clique):
        return best, 0
    colors, sat = [-1] * n, [0] * n
    for c, v in enumerate(clique):
        colors[v] = c
        for u in _bit_list(rows[v]):
            sat[u] |= 1 << c

    nodes = 0

    def bnb(colored: int, used: int) -> bool:
        nonlocal best, best_k, nodes
        nodes += 1
        if used >= best_k:
            return False
        if colored == n:
            best, best_k = colors[:], used
            return best_k == len(clique)
        v = _dsatur_pick_oracle(rows, colors, sat)
        for c in range(used + (1 if used < best_k - 1 else 0)):
            if (sat[v] >> c) & 1:
                continue
            colors[v] = c
            touched = [u for u in _bit_list(rows[v]) if colors[u] == -1 and not (sat[u] >> c) & 1]
            for u in touched:
                sat[u] |= 1 << c
            done = bnb(colored + 1, max(used, c + 1))
            for u in touched:
                sat[u] &= ~(1 << c)
            colors[v] = -1
            if done:
                return True
        return False

    bnb(len(clique), len(clique))
    return best, nodes


def clique_cover_oracle(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Blocks of the minimum clique partition, as an optimal coloring of the
    complement Graph, sorted and ordered by their minimum member."""
    colors = coloring_nodes_oracle(complement_graph_oracle(g).rows)[0]
    groups = [tuple(v for v in range(g.n) if colors[v] == c) for c in range(max(colors, default=-1) + 1)]
    return tuple(sorted((b for b in groups if b), key=lambda b: b[0]))


def packing_number_oracle(dist: np.ndarray, subset, eps: float) -> int:
    """Largest eps-separated subset as the clique number of the Graph whose
    edges join points at distance >= eps."""
    edges = [(i, j) for i, j in itertools.combinations(range(len(subset)), 2)
             if dist[subset[i], subset[j]] >= eps]
    rows = [0] * len(subset)
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return max_clique_nodes_oracle(Graph(len(subset), tuple(rows)))[0]


def alpha2_feasible_oracle(g: Graph) -> bool:
    """Every connected component's bit mask lies in the closed neighborhood
    of each of its vertices."""
    seen = 0
    for s in range(g.n):
        if (seen >> s) & 1:
            continue
        comp = frontier = 1 << s
        while frontier:
            nxt = 0
            for v in _bit_list(frontier):
                nxt |= g.rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        if any((g.closed_row(v) & comp) != comp for v in _bit_list(comp)):
            return False
    return True


# -- the subset profile on each induced subgraph's own bit rows ---------------
# The candidate pool and the partition floors as they ran before they read the
# parent graph's bit rows: candidates deduplicated as frozensets, every greedy
# bound computed on G|U with the reference greedy clique and DSATUR loops.


_BALL_RADII = (1, 2, 3)


def candidate_subsets_oracle(g: Graph, extra=None) -> list[list[int]]:
    seen, out = set(), []

    def add(vertices) -> None:
        key = frozenset(vertices)
        if len(key) >= 2 and key not in seen:
            seen.add(key)
            out.append(sorted(key))

    for comp in connected_components(g):
        add(comp)
    balls = ball_matrices(g, max(_BALL_RADII))
    for v in range(g.n):
        for rad in _BALL_RADII:
            add(np.flatnonzero(balls[rad - 1][v]).tolist())
    for subset in extra or ():
        add(subset)
    return out


def _dsatur_size_oracle(sub: Graph) -> int:
    return max(dsatur_greedy_oracle(sub.rows)) + 1


def partition_floor_oracle(sub: Graph, limits=DEFAULT_LIMITS) -> tuple[float, bool]:
    """(floor, exact) of ``bounds._partition_floor`` on G|U alone."""
    if sub.n <= limits.exact_cover:
        return float(len(clique_cover_oracle(sub))), True
    try:
        iota, exact = independence_number(sub, mode="exact", budget=limits.clique_budget), True
    except SearchBudgetExceeded:
        iota = _greedy_clique_rows(complement_graph_oracle(sub).rows, (1 << sub.n) - 1).bit_count()
        exact = False
    return float(max(iota, sub.n / _dsatur_size_oracle(sub))), exact


def floor_at_most_oracle(sub: Graph, bar: float, limits=DEFAULT_LIMITS) -> bool:
    """``bounds._floor_at_most`` on G|U alone."""
    full = (1 << sub.n) - 1
    if sub.n <= limits.exact_cover:
        blocks, rest = 0, full
        while rest:
            rest &= ~_greedy_clique_rows(sub.rows, rest)
            blocks += 1
        return blocks <= bar
    clique = _greedy_clique_rows(sub.rows, full).bit_count()
    return sub.n / clique <= bar or sub.n / _dsatur_size_oracle(sub) <= bar


def subset_profile_reference(g: Graph, subsets=None, limits=DEFAULT_LIMITS) -> list[tuple]:
    """``bounds.subset_profile``, dominance pruning included, on the
    references above."""
    profile, exact_entries = [], []
    for subset in sorted(candidate_subsets_oracle(g, subsets), key=len, reverse=True):
        sub = g.induced(subset)
        diam = diameter(sub)
        if not (math.isfinite(diam) and diam >= 1):
            continue
        mask = sum(1 << v for v in subset)
        bars = [floor for held, d, floor in exact_entries if mask & ~held == 0 and d <= diam]
        if bars and floor_at_most_oracle(sub, max(bars), limits):
            continue
        floor, exact = partition_floor_oracle(sub, limits)
        profile.append((diam, floor, neighborhood_class_count(g, subset)))
        if exact:
            exact_entries.append((mask, diam, floor))
    return profile


def subset_profile_oracle(g: Graph, subsets=None, limits=DEFAULT_LIMITS) -> list[tuple]:
    """``bounds.subset_profile`` without dominance pruning: one entry per
    connected candidate of diameter >= 1, in candidate order, on the
    references above."""
    profile = []
    for subset in candidate_subsets_oracle(g, subsets):
        sub = g.induced(subset)
        diam = diameter(sub)
        if math.isfinite(diam) and diam >= 1:
            floor = partition_floor_oracle(sub, limits)[0]
            profile.append((diam, floor, neighborhood_class_count(g, subset)))
    return profile
