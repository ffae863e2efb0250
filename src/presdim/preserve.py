"""Verify neighborhood preservation of concrete embeddings.

An embedding preserves a graph at level ``alpha`` when one threshold r > 0
puts every adjacent pair strictly inside r and every non-adjacent pair at
distance at least alpha*r. Feasibility is therefore the strict inequality
m > alpha*M, where M is the largest embedded neighbor distance and m the
smallest embedded non-neighbor distance; the supremal level is the ratio
m/M. Boundary levels fail: the supremum is not attained.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any

import numpy as np

from .graph import Graph, all_pairs_distances, complement_matrix, connected_components, neighborhood_classes
from .metric import FiniteMetric, PointSet
from .util import dump_json, json_bool, json_float, json_str, load_json, read_members

__all__ = [
    "PreservationCertificate",
    "vertex_distance_matrix",
    "mapped_distances",
    "alpha_max",
    "check",
    "alpha2_feasible",
    "measured_distortion",
    "certificate_to_json",
    "certificate_from_json",
]


@dataclass(frozen=True)
class PreservationCertificate:
    """Outcome of verifying one embedding against one graph at one level.

    ``r`` is a concrete witness threshold (None when the check fails);
    ``max_neighbor``/``min_nonneighbor`` are the measured extremes M and m,
    with the conventions M = 0 for edgeless graphs and m = inf when every
    pair is adjacent.
    """

    graph_digest: str
    space: str
    r: float | None
    max_neighbor: float
    min_nonneighbor: float
    alpha_max: float
    requested_alpha: float
    passed: bool


def _target_distances(target: Any) -> tuple[np.ndarray, str]:
    if isinstance(target, PointSet):
        norm = "inf" if target.norm == math.inf else str(int(target.norm))
        return target.distance_matrix(), f"l{norm}^{target.dim}"
    return target.dist, f"metric[{target.n}]"


def mapped_distances(target: Any, vertex_map: Any) -> tuple[np.ndarray, str]:
    """Distances between the points ``vertex_map`` assigns to the vertices,
    plus a space descriptor. Entries must be integers in [0, target.n):
    numpy would alias a negative index from the end and truncate a float."""
    idx = np.asarray(vertex_map)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError("vertex_map entries must be integer point indices")
    if idx.size and (idx.min() < 0 or idx.max() >= target.n):
        raise ValueError(f"vertex_map entries must lie in [0, {target.n})")
    idx = idx.astype(np.intp)
    base, kind = _target_distances(target)
    return base[np.ix_(idx, idx)], kind


def vertex_distance_matrix(g: Graph, emb: Any) -> tuple[np.ndarray, str]:
    """Vertex-indexed distance matrix plus a short space descriptor.

    Accepts a raw (n, n) array, a FiniteMetric or PointSet on the vertices,
    or any embedding result exposing ``target`` and ``vertex_map``. Raises
    ``ValueError`` on a NaN distance, which no level could be decided on.
    """
    if isinstance(emb, np.ndarray):
        if emb.shape != (g.n, g.n):
            raise ValueError("distance matrix shape must match vertex count")
        dists, kind = np.asarray(emb, dtype=np.float64), f"matrix[{g.n}]"
    elif isinstance(emb, (FiniteMetric, PointSet)):
        if emb.n != g.n:
            raise ValueError("point count must match vertex count")
        dists, kind = _target_distances(emb)
    elif hasattr(emb, "target") and hasattr(emb, "vertex_map"):
        if len(emb.vertex_map) != g.n:
            raise ValueError("vertex_map must be total over the vertex set")
        dists, kind = mapped_distances(emb.target, emb.vertex_map)
        kind = f"{getattr(emb, 'source', 'embedding')}:{kind}"
    else:
        raise TypeError(f"unsupported embedding object {type(emb).__name__}")
    if np.isnan(dists).any():
        raise ValueError("distance matrix holds a NaN entry")
    return dists, kind


def _extremes(g: Graph, dists: np.ndarray) -> tuple[float, float, float]:
    """M, m and the supremal level m/M, which is 0 when m = 0 and inf when
    M = 0 or no non-neighbor pair exists."""
    adj = g.matrix
    nonadj = complement_matrix(g)
    big = float(dists[adj].max()) if adj.any() else 0.0
    small = float(dists[nonadj].min()) if nonadj.any() else math.inf
    if small == 0.0:
        return big, small, 0.0
    if big == 0.0 or small == math.inf:
        return big, small, math.inf
    return big, small, small / big


def alpha_max(g: Graph, emb: Any) -> float:
    """Supremal preservation level of an embedding: m/M with conventions.

    Preservation holds exactly for levels strictly below the returned value.
    Coincident non-neighbors force 0; an edgeless extreme side forces inf.
    """
    return _extremes(g, vertex_distance_matrix(g, emb)[0])[2]


def _sign(x: float, a: float, b: float) -> int:
    """Sign of x - a*b, exact for finite floats (as integer ratios)."""
    xn, xd = x.as_integer_ratio()
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    diff = xn * ad * bd - an * bn * xd
    return (diff > 0) - (diff < 0)


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, or a/2 + b/2 where a + b overflows although the midpoint
    is finite: ``_witness`` would otherwise start from the largest float and
    walk down to the midpoint one ulp at a time."""
    mid = (a + b) / 2
    return mid if mid != math.inf else a / 2 + b / 2


def _witness(big: float, small: float, alpha: float, r: float) -> float | None:
    """The float nearest ``r`` by whole ulps with big < r and alpha*r <= small
    exactly, or None when no float lies in (big, small/alpha]."""
    while r <= big:
        r = math.nextafter(r, math.inf)
    if small == math.inf:
        return r
    r = min(r, sys.float_info.max)  # r = inf when small/alpha overflows
    while _sign(small, alpha, r) < 0:
        r = math.nextafter(r, -math.inf)
        if r <= big:
            return None
    return r


def check(g: Graph, emb: Any, alpha: float) -> PreservationCertificate:
    """Certify whether ``emb`` preserves ``g`` at level ``alpha``.

    m > alpha*M is decided in exact rational arithmetic. On success the
    witness threshold is r = (M + min(m/alpha, next larger distance)) / 2,
    moved by whole ulps until M < r and alpha*r <= m hold exactly; when no
    float lies in (M, m/alpha] the check fails closed.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    dists, space = vertex_distance_matrix(g, emb)
    big, small, amax = _extremes(g, dists)
    r: float | None = None
    if math.isfinite(big) and (small == math.inf or _sign(small, alpha, big) > 0):
        caps = []
        if small != math.inf:
            caps.append(small / alpha)
        larger = dists[dists > big]
        if larger.size:
            caps.append(float(larger.min()))
        r = _witness(big, small, alpha, _midpoint(big, min(caps)) if caps else big + 1.0)
    passed = r is not None
    return PreservationCertificate(
        graph_digest=g.digest(),
        space=space,
        r=r,
        max_neighbor=big,
        min_nonneighbor=small,
        alpha_max=amax,
        requested_alpha=alpha,
        passed=passed,
    )


def alpha2_feasible(g: Graph) -> bool:
    """True iff every connected component induces a clique.

    This characterizes the graphs that still admit preservation at levels
    >= 2 (one point per component, any tiny threshold). Neighborhood classes
    split the components, into one class each exactly when they are cliques.
    """
    return len(neighborhood_classes(g)) == len(connected_components(g))


def measured_distortion(g: Graph, p: PointSet) -> float:
    """Best-scaling distortion of a point set against the shortest-path metric.

    Computed as (max ratio)/(min ratio) of embedded over path distance across
    all vertex pairs; the scale constant cancels. Requires a connected graph
    and raises ``ValueError`` on a NaN distance, as ``check`` does.
    """
    emb = vertex_distance_matrix(g, p)[0]
    paths = all_pairs_distances(g)
    if math.isinf(paths.max()):
        raise ValueError("distortion needs a connected graph")
    if g.n < 2:
        return 1.0
    iu = np.triu_indices(g.n, k=1)
    ratios = emb[iu] / paths[iu]
    lo = float(ratios.min())
    if lo == 0.0:
        return math.inf
    return float(ratios.max()) / lo


# -- JSON serialization ---------------------------------------------------------


# The certificate document holds PreservationCertificate's fields, as
# ``asdict`` gives them, each read by the reader of its annotation.
_BY_ANNOTATION = {
    "str": json_str,
    "float": json_float,
    "float | None": lambda v: None if v is None else json_float(v),
    "bool": json_bool,
}
_CERTIFICATE = {f.name: _BY_ANNOTATION[f.type] for f in fields(PreservationCertificate)}


def certificate_to_json(cert: PreservationCertificate) -> str:
    return dump_json(asdict(cert))


def certificate_from_json(text: str) -> PreservationCertificate:
    """Inverse of ``certificate_to_json``; a document that is no JSON object,
    or a missing, unknown or ill-typed field, raises ``ValueError`` naming it."""
    what = "certificate document"
    return PreservationCertificate(**read_members(load_json(text, what), _CERTIFICATE, what))
