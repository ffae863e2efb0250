"""Closed-form lower/upper bounds on the preservation dimension, aggregated
into per-graph reports.

Lower bounds scan candidate vertex subsets (connected components, small BFS
balls, user-supplied sets): any connected subset yields a valid bound, so the
heuristic subset pool is sound, merely possibly loose. Upper bounds evaluate
the ceiling rules of ``construct.CONSTRUCTIONS`` on the graph's level-free
``construct.GraphFacts``, and a report can
cross-validate each constructive bound by building the embedding from the
same table row and certifying it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .construct import BY_TAG, CONSTRUCTIONS, GraphFacts, graph_facts
from .graph import Graph, ball_matrices, connected_components, diameter
from .partition import (
    SearchBudgetExceeded,
    clique_cover,
    greedy_coloring_size,
    independence_number,
    neighborhood_class_count,
)
from .preserve import alpha2_feasible, check
from .util import int_ceil

__all__ = [
    "LowerBound",
    "UpperBound",
    "BoundReport",
    "lower_clique_partition",
    "lower_neighborhood",
    "upper_bounds",
    "upper_bounds_from_facts",
    "theorem_formulas",
    "report",
    "report_to_json",
    "format_report",
]

@dataclass(frozen=True)
class LowerBound:
    tag: str
    value: float


@dataclass(frozen=True)
class UpperBound:
    tag: str
    value: float
    constructive: bool
    verified: bool | None = None  # None: not cross-validated
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    graph_digest: str
    alpha: float
    feasible: bool
    lower_bounds: tuple[LowerBound, ...]
    upper_bounds: tuple[UpperBound, ...]
    omitted: tuple[tuple[str, str], ...]
    interval: tuple[float, float] | None
    notes: tuple[str, ...]


# -- subset-maximized lower bounds: alpha enters only the denominators -----------


_BALL_RADII = (1, 2, 3)


def _candidate_subsets(g: Graph, extra: Sequence[Sequence[int]] | None) -> list[list[int]]:
    """Deduplicated subsets of 2+ vertices; user subsets come last, maybe disconnected."""
    seen: set[frozenset[int]] = set()
    out: list[list[int]] = []

    def add(vertices: Sequence[int]) -> None:
        key = frozenset(vertices)
        if len(key) < 2 or key in seen:
            return
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


def _partition_floor(sub: Graph, limits: Limits) -> float:
    """A certified lower bound on the minimum clique-partition size of the
    induced subgraph ``sub``: exact when small, else max of an independent
    set and |U| divided by a coloring upper bound on the clique number."""
    if sub.n <= limits.exact_cover:
        return float(clique_cover(sub, mode="exact").size)
    try:
        iota = independence_number(sub, mode="exact", budget=limits.clique_budget)
    except SearchBudgetExceeded:
        iota = independence_number(sub, mode="greedy")
    kappa_upper = max(greedy_coloring_size(sub), 1)
    return float(max(iota, sub.n / kappa_upper))


def subset_profile(
    g: Graph,
    subsets: Sequence[Sequence[int]] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> list[tuple[float, float, int]]:
    """The level-free part of both lower bounds: ``(diam, partition_floor, class_count)``
    per connected candidate subset U with diam(G|U) >= 1, each induced once."""
    profile = []
    for subset in _candidate_subsets(g, subsets):
        sub = g.induced(subset)
        diam = diameter(sub)
        if math.isfinite(diam) and diam >= 1:
            floor = _partition_floor(sub, limits)
            profile.append((diam, floor, neighborhood_class_count(g, subset)))
    return profile


def profile_lower(profile: Sequence[tuple[float, float, int]], alpha: float) -> tuple[float, float]:
    """(clique_partition, neighborhood) at level alpha from a ``subset_profile``;
    neighborhood is -inf unless alpha > 1, both are -inf on an empty profile."""
    cp = nb = -math.inf
    for diam, floor, classes in profile:
        cp = max(cp, math.log(floor) / math.log(4.0 * diam / alpha))
        if alpha > 1:
            nb = max(nb, math.log(classes) / math.log(4.0 * diam / (alpha - 1.0)))
    return cp, nb


def lower_clique_partition(
    g: Graph,
    alpha: float,
    subsets: Sequence[Sequence[int]] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> float:
    """max over candidate subsets U of log|P(G|U)| / log(4 diam(G|U) / alpha).

    Returns -inf when no connected candidate subset exists (the stated
    convention for an empty maximum).
    """
    if not 0 < alpha < 2:
        raise ValueError("clique-partition bound needs alpha in (0, 2)")
    return profile_lower(subset_profile(g, subsets, limits), alpha)[0]


def lower_neighborhood(
    g: Graph,
    alpha: float,
    subsets: Sequence[Sequence[int]] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> float:
    """max over candidate subsets U of log|C(G|U)| / log(4 diam(G|U)/(alpha-1)).

    Neighborhood classes are counted with respect to the full graph (that is
    what makes the count monotone under subsets); the diameter is of the
    induced subgraph. Only meaningful for alpha in (1, 2).
    """
    if not 1 < alpha < 2:
        raise ValueError("neighborhood bound needs alpha in (1, 2)")
    return profile_lower(subset_profile(g, subsets, limits), alpha)[1]


# -- upper bound formulas --------------------------------------------------------


def upper_bounds(
    g: Graph,
    alpha: float,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[list[UpperBound], list[tuple[str, str]]]:
    """Evaluate every applicable ceiling rule of the construction table.

    The clique-partition size enters upper formulas, so a greedy (over-)count
    is still valid when the graph is too large for the exact cover.
    """
    if not 0 < alpha < 2:
        raise ValueError("upper bounds cover alpha in (0, 2)")
    return upper_bounds_from_facts(graph_facts(g, limits), alpha)


def upper_bounds_from_facts(
    facts: GraphFacts, alpha: float
) -> tuple[list[UpperBound], list[tuple[str, str]]]:
    """``upper_bounds`` on facts computed once per graph, for alpha in (0, 2)."""
    ups: list[UpperBound] = []
    omitted: list[tuple[str, str]] = []
    for row in CONSTRUCTIONS:
        if row.ceiling is None:
            continue
        value, text = row.ceiling(facts, alpha)
        if value is None:
            omitted.append((row.tag, text))
        else:
            ups.append(UpperBound(row.tag, value, constructive=True, note=text))
    return ups, omitted


# -- named theorem formulas -------------------------------------------------------


def _clamped(x: float) -> tuple[float, bool]:
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def cluster_saliency(p: float, q: float) -> float:
    """Interpolation weight p - q + pq between clustered and unclustered regimes."""
    return p - q + p * q


def diameter2_probability_floor(n: int, q: float) -> tuple[float, bool]:
    """Floor on P[diameter <= 2] when edges appear with probability >= q;
    clamped into [0, 1] (vacuous values flagged)."""
    return _clamped(1.0 - n * n * math.exp(-q * q * (n - 1)))


def clique_number_markov_ceiling(n: int) -> tuple[float, bool]:
    """Ceiling on P[clique number >= ceil(2 sqrt(n))]: n^m 2^(-C(m,2)), clamped."""
    m = math.ceil(2.0 * math.sqrt(n))
    log2_val = m * math.log2(n) - m * (m - 1) / 2.0
    return _clamped(2.0**log2_val)


def regular_diameter_bound(n: int, k: int) -> int:
    """Spectral diameter ceiling for k-regular graphs (k >= 4, n >= 6 even)."""
    return int_ceil(math.log(n - 1) / math.log(k / (2.0 * math.sqrt(k - 1.0) + 0.5)))


def theorem_formulas(
    n: int | None = None,
    alpha: float | None = None,
    k: int | None = None,
    p: float | None = None,
    q: float | None = None,
    c: float = 1.0,
    lam: float | None = None,
    log_size: float | None = None,
    R: float | None = None,
) -> dict[str, object]:
    """Evaluate every named closed-form bound whose parameters were supplied.

    Ratios of same-base logarithms are computed base-free (natural logs);
    formulas that print a base-2 logarithm use base 2. Probability bounds are
    clamped into [0, 1] and flagged when vacuous.
    """
    out: dict[str, object] = {}
    notes: list[str] = []
    if n is not None and alpha is not None and 0 < alpha < 2:
        out["typical_gnp_lower"] = (math.log(n) - 2 * math.log(2)) / (
            2 * math.log(8 / alpha)
        )
        out["typical_gnp_fraction_floor"] = 1.0 - 2.0 ** (-n / 5.0)
        if n < 82:
            notes.append("typical_gnp bounds are stated for n >= 82")
    if n is not None and alpha is not None and k is not None and k >= 4:
        diam = regular_diameter_bound(n, k)
        out["regular_diameter_bound"] = diam
        out["typical_regular_lower"] = math.log(n / (k + 1)) / math.log(
            (4.0 / alpha) * diam
        )
        out["typical_regular_failure_probability"] = "O(n^(-k+2))"
        notes.append(
            "regular-graph failure probability is reported symbolically; "
            "its constant is not specified"
        )
    if n is not None and alpha is not None and 1 < alpha < 2:
        out["normed_space_lower"] = n / (3.0 * math.log2(16.0 / (alpha - 1.0)))
        out["planted_recovery_lower"] = math.log(n) / math.log(8.0 / (alpha - 1.0))
    if n is not None:
        out["euclidean_recovery_lower"] = n / 15.0 - 0.25
    if log_size is not None and n is not None and R is not None and alpha is not None:
        out["family_lower"] = log_size / (n * math.log(8.0 * R / (alpha - 1.0)))
    if p is not None and q is not None:
        xi = cluster_saliency(p, q)
        out["cluster_saliency"] = xi
        if n is not None and k is not None and alpha is not None and 0 < alpha < 2:
            out["planted_lower"] = (
                (1.0 - xi) * math.log(n) + xi * math.log(k / (2.0 * c))
            ) / math.log(8.0 / alpha)
            notes.append(
                "planted bound uses log(k/2c) as printed in the theorem "
                "statement; the surrounding discussion prints log(k/3c)"
            )
        if n is not None and k is not None:
            val, clamped = _clamped(
                1.0
                - n * n * (max(q, 1.0 - q) ** (2.0 * n * (1.0 - c / k))
                           + math.exp(-q * q * (n - 1)))
            )
            out["planted_recovery_floor"] = val
            if clamped:
                notes.append("planted_recovery_floor clamped (vacuous bound)")
    if n is not None and q is not None:
        val, clamped = diameter2_probability_floor(n, q)
        out["diameter2_floor"] = val
        if clamped:
            notes.append("diameter2_floor clamped (vacuous bound)")
    if n is not None:
        val, clamped = clique_number_markov_ceiling(n)
        out["clique_markov_ceiling"] = val
        if clamped:
            notes.append("clique_markov_ceiling clamped (vacuous bound)")
    if lam is not None:
        out["l2_level_ceiling"] = (
            math.inf if lam <= 1.0 else (1.0 - 1.0 / lam) ** -0.5
        )
    if notes:
        out["_notes"] = notes
    return out


# -- aggregation -------------------------------------------------------------------


def _validated(g: Graph, alpha: float, ub: UpperBound, limits: Limits) -> UpperBound:
    """Build the embedding behind an upper bound and certify it at alpha."""
    try:
        emb = BY_TAG[ub.tag].build(g, alpha, 0, limits)
    except Exception as exc:  # noqa: BLE001 - negative outcome is reportable
        return replace(ub, verified=False, note=f"{type(exc).__name__}: {exc}")
    passed = check(g, emb, alpha).passed
    return replace(ub, verified=passed, note=ub.note if passed else "certificate failed")


def report(
    g: Graph,
    alpha: float,
    subsets: Sequence[Sequence[int]] | None = None,
    limits: Limits = DEFAULT_LIMITS,
    validate: bool | None = None,
) -> BoundReport:
    """Aggregate feasibility, lower bounds, and upper bounds at one level.

    ``validate`` controls whether constructive uppers are built and
    certified; default: only for graphs up to the validation size limit.
    """
    if not alpha > 0:  # NaN too, before the subset profile is built
        raise ValueError("alpha must be positive")
    if alpha >= 2:
        feasible = alpha2_feasible(g)
        if not feasible:
            return BoundReport(
                graph_digest=g.digest(),
                alpha=alpha,
                feasible=False,
                lower_bounds=(),
                upper_bounds=(),
                omitted=(),
                interval=None,
                notes=("levels >= 2 need every component to induce a clique",),
            )
        ncomp = len(connected_components(g))
        value = 2.0 if ncomp > 1 else 0.0
        return BoundReport(
            graph_digest=g.digest(),
            alpha=alpha,
            feasible=True,
            lower_bounds=(LowerBound("trivial_nonneg", 0.0),),
            upper_bounds=(
                UpperBound(
                    "point_per_clique_component",
                    value,
                    constructive=True,
                    note="clique components collapse to separated points on a line",
                ),
            ),
            omitted=(),
            interval=(0.0, value),
            notes=(),
        )

    lc, ln = profile_lower(subset_profile(g, subsets, limits), alpha)
    lowers = [LowerBound("trivial_nonneg", 0.0), LowerBound("clique_partition_cover", lc)]
    if alpha > 1:
        lowers.append(LowerBound("neighborhood_classes", ln))

    ups, omitted = upper_bounds(g, alpha, limits=limits)
    if validate is None:
        validate = g.n <= limits.report_validation
    if validate:
        ups = [_validated(g, alpha, ub, limits) for ub in ups]

    max_lower = max(lb.value for lb in lowers)
    min_upper = min(ub.value for ub in ups)
    return BoundReport(
        graph_digest=g.digest(),
        alpha=alpha,
        feasible=True,
        lower_bounds=tuple(lowers),
        upper_bounds=tuple(ups),
        omitted=tuple(omitted),
        interval=(max_lower, min_upper),
        notes=(),
    )


def report_to_json(rep: BoundReport) -> str:
    def num(x: float) -> float | str:
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return x

    doc = {
        "graph_digest": rep.graph_digest,
        "alpha": rep.alpha,
        "feasible": rep.feasible,
        "lower_bounds": [[lb.tag, num(lb.value)] for lb in rep.lower_bounds],
        "upper_bounds": [
            {
                "tag": ub.tag,
                "value": num(ub.value),
                "constructive": ub.constructive,
                "verified": ub.verified,
                "note": ub.note,
            }
            for ub in rep.upper_bounds
        ],
        "omitted": [list(pair) for pair in rep.omitted],
        "interval": None if rep.interval is None else [num(x) for x in rep.interval],
        "notes": list(rep.notes),
    }
    return json.dumps(doc, indent=2)


def format_report(rep: BoundReport) -> str:
    lines = [
        f"graph {rep.graph_digest}  alpha={rep.alpha}  feasible={rep.feasible}",
    ]
    if rep.lower_bounds:
        lines.append("lower bounds:")
        for lb in rep.lower_bounds:
            lines.append(f"  {lb.tag:<24} {lb.value:.6g}")
    if rep.upper_bounds:
        lines.append("upper bounds:")
        for ub in rep.upper_bounds:
            mark = "" if ub.verified is None else ("  [verified]" if ub.verified else "  [FAILED]")
            note = f"  ({ub.note})" if ub.note else ""
            lines.append(f"  {ub.tag:<24} {ub.value:.6g}{mark}{note}")
    for tag, reason in rep.omitted:
        lines.append(f"  {tag:<24} omitted: {reason}")
    if rep.interval is not None:
        lines.append(f"interval: [{rep.interval[0]:.6g}, {rep.interval[1]:.6g}]")
    for note in rep.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
