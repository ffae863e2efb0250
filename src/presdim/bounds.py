"""Closed-form lower/upper bounds on the preservation dimension, aggregated
into per-graph reports.

Lower bounds scan candidate vertex subsets (connected components, small BFS
balls, user-supplied sets): any connected subset yields a valid bound, so the
heuristic subset pool is sound, merely possibly loose. The level-free subset
profile holds only the undominated candidates. A subset inside an already
profiled one with an exactly computed floor, of no smaller diameter and with
a floor provably no larger, cannot raise either bound at any level, as the
class count only grows with the subset; its exact search is skipped, and the
maxima over the profile equal those over every candidate.

Upper bounds evaluate the ceiling rules of ``construct.CONSTRUCTIONS`` on the
graph's ``GraphAnalysis``, which builds each level-free part a rule reads
(clique cover, quotient, degree, spectrum) on first read, and a report can
cross-validate each constructive bound by building the embedding from the
same table row and certifying it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

from .config import DEFAULT_LIMITS, Limits
from .construct import BY_TAG, CONSTRUCTIONS
from .graph import (
    Graph,
    _pack_rows,
    ball_matrices,
    bits,
    connected_components,
    diameter,
    quotient_by_neighborhood,
    spectrum_top2,
)
from .partition import (
    SearchBudgetExceeded,
    VertexPartition,
    _dsatur_greedy,
    _greedy_clique_mask,
    _greedy_cliques,
    clique_cover,
    gated_clique_cover,
    independence_number,
    neighborhood_class_count,
)
from .preserve import alpha2_feasible, check
from .util import dump_json, int_ceil

__all__ = [
    "LowerBound",
    "UpperBound",
    "BoundReport",
    "GraphAnalysis",
    "ProfileEntry",
    "graph_analysis",
    "lower_clique_partition",
    "lower_neighborhood",
    "upper_bounds",
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
    """Deduplicated subsets of 2+ vertices, each sorted; user subsets come
    last, maybe disconnected. Subsets are compared as vertex bitmasks."""
    masks = [sum(1 << v for v in comp) for comp in connected_components(g)]
    balls = [_pack_rows(ball) for ball in ball_matrices(g, max(_BALL_RADII))]
    masks += [balls[rad - 1][v] for v in range(g.n) for rad in _BALL_RADII]
    masks += [sum(1 << v for v in set(subset)) for subset in extra or ()]
    return [list(bits(mask)) for mask in dict.fromkeys(masks) if mask.bit_count() >= 2]


# The floors below read greedy bounds off the parent's bit rows ``rows`` inside
# the vertex mask ``cand`` of a candidate U; the exact searches take the
# induced subgraph ``sub`` = G|U. U is sorted, so G|U labels its vertices in
# the parent's order and every greedy pick and tie is the one on G|U.
# Two facts bound the floors: alpha(U) <= alpha(V) for U inside V, and
# |U| / colors <= alpha(U) for any proper coloring of U, as the largest of
# its color classes, each an independent set, has at least that many vertices.


def _partition_floor(sub: Graph, rows: Sequence[int], cand: int, limits: Limits) -> tuple[float, bool]:
    """A certified lower bound on the minimum clique-partition size of the
    induced subgraph ``sub``: exact when small, else max of an independent
    set and |U| divided by a coloring upper bound on the clique number.
    Also says whether the floor is exact: the exact cover or an exact
    independence number, not the greedy one a spent search budget falls
    back to. An exact independence number is the floor itself, as the
    coloring term is at most alpha(U); DSATUR runs only after the greedy
    fallback, and only where |U| over the greedy clique size, a bound on its
    term (DSATUR uses at least omega colors), beats the fallback."""
    if sub.n <= limits.exact_cover:
        return float(clique_cover(sub, mode="exact").size), True
    try:
        return float(independence_number(sub, mode="exact", budget=limits.clique_budget)), True
    except SearchBudgetExceeded:
        iota = independence_number(sub, mode="greedy")
    if sub.n / _greedy_clique_mask(rows, cand).bit_count() <= iota:
        return float(iota), False
    return float(max(iota, sub.n / (max(_dsatur_greedy(rows, cand)) + 1))), False


def _floor_at_most(rows: Sequence[int], cand: int, bar: float, limits: Limits) -> bool:
    """Whether ``_partition_floor`` of U is provably at most ``bar``, the
    exact floor of a superset V, without an exact search. That floor is at
    least alpha(V) >= alpha(U). Above the exact-cover limit, both terms of
    U's floor are at most alpha(U), so it always is. At or below it, U's
    floor is its minimum clique cover: a greedy cover with at most ``bar``
    cliques proves it."""
    if cand.bit_count() > limits.exact_cover:
        return True
    return sum(1 for _ in _greedy_cliques(rows, cand)) <= bar


class ProfileEntry(NamedTuple):
    """One undominated candidate U; ``exact`` as ``_partition_floor`` says."""

    mask: int
    diameter: float
    floor: float
    classes: int
    exact: bool


@dataclass(frozen=True)
class GraphAnalysis:
    """The level-free part of one graph's bounds; each part is computed on
    first read and at most once. ``iota`` is ι(G) where the profile's
    whole-graph entry (G connected, above ``limits.exact_cover`` vertices)
    ran the exact independence search; ``iota_spent``: it ran out of budget."""

    g: Graph
    subsets: tuple[tuple[int, ...], ...]  # the user subsets, checked
    limits: Limits

    @cached_property
    def entries(self) -> tuple[ProfileEntry, ...]:
        """Largest candidates first, so U's dominators come before it."""
        g, limits, entries = self.g, self.limits, []
        for subset in sorted(_candidate_subsets(g, self.subsets), key=len, reverse=True):
            sub = g.induced(subset)
            diam = diameter(sub)
            if not (math.isfinite(diam) and diam >= 1):
                continue
            mask = sum(1 << v for v in subset)
            bars = [e.floor for e in entries if e.exact and mask & ~e.mask == 0 and e.diameter <= diam]
            if bars and _floor_at_most(g.rows, mask, max(bars), limits):
                continue
            floor, exact = _partition_floor(sub, g.rows, mask, limits)
            entries.append(ProfileEntry(mask, diam, floor, neighborhood_class_count(g, subset), exact))
        return tuple(entries)

    @cached_property
    def profile(self) -> tuple[tuple[float, float, int], ...]:  # the ``subset_profile`` entries
        return tuple((e.diameter, e.floor, e.classes) for e in self.entries)

    @cached_property
    def cover(self) -> VertexPartition:  # the gated clique partition the ceilings count
        return gated_clique_cover(self.g, self.limits.exact_cover)

    @cached_property
    def quotient(self) -> Graph:  # by closed-neighborhood classes
        return quotient_by_neighborhood(self.g)

    @cached_property
    def block_classes(self) -> int:  # the most neighborhood classes inside one cover block
        return max((neighborhood_class_count(self.g, b) for b in self.cover.blocks), default=1)

    @cached_property
    def degree(self) -> int | None:  # the common degree of a regular graph on 2+ vertices
        degrees = set(self.g.degrees())
        return degrees.pop() if len(degrees) == 1 and self.g.n > 1 else None

    @cached_property
    def lam(self) -> float:
        """Top adjacency eigenvalue of the quotient, read only by the spectral
        rule (see ``graph.spectrum_top2`` for why it is not read eagerly)."""
        return spectrum_top2(self.quotient)[0]

    @cached_property
    def diameter(self) -> float:
        return diameter(self.g)

    @cached_property
    def _searched(self) -> ProfileEntry | None:  # the whole-graph entry, if it ran the exact ι search
        whole = next(iter(self.entries), None)
        return whole if whole and whole.mask == (1 << self.g.n) - 1 and self.g.n > self.limits.exact_cover else None

    @cached_property
    def iota(self) -> int | None:
        return int(self._searched.floor) if self._searched and self._searched.exact else None

    @cached_property
    def iota_spent(self) -> bool:
        return self._searched is not None and not self._searched.exact

    def lower_bounds(self, alpha: float) -> tuple[float, float]:  # as ``profile_lower``
        return profile_lower(self.profile, alpha)

    def upper_bounds(self, alpha: float) -> tuple[list[UpperBound], list[tuple[str, str]]]:  # alpha in (0, 2)
        rules = [(row.tag, *row.ceiling(self, alpha)) for row in CONSTRUCTIONS if row.ceiling is not None]
        ups = [UpperBound(tag, value, constructive=True, note=text) for tag, value, text in rules if value is not None]
        return ups, [(tag, text) for tag, value, text in rules if value is None]


def graph_analysis(
    g: Graph, subsets: Sequence[Sequence[int]] | None = None, limits: Limits = DEFAULT_LIMITS
) -> GraphAnalysis:
    """The level-free analysis of g, each of its searches run once, on first read."""
    if g.n == 0:
        raise ValueError("the empty vertex set has no bounds")
    for v in (v for subset in subsets or () for v in subset):
        if not (isinstance(v, numbers.Integral) and 0 <= v < g.n):
            raise ValueError(f"subset entry {v!r} is not a vertex 0..{g.n - 1}")
    return GraphAnalysis(g, tuple(tuple(int(v) for v in subset) for subset in subsets or ()), limits)


def subset_profile(
    g: Graph,
    subsets: Sequence[Sequence[int]] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> list[tuple[float, float, int]]:
    """The level-free part of both lower bounds: ``(diam, partition_floor,
    class_count)`` per undominated connected candidate subset U with
    diam(G|U) >= 1, each candidate induced once. The ``profile_lower``
    maxima are those over every candidate; only the number of entries falls.
    """
    return list(graph_analysis(g, subsets, limits).profile)


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
    return graph_analysis(g, subsets, limits).lower_bounds(alpha)[0]


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
    return graph_analysis(g, subsets, limits).lower_bounds(alpha)[1]


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
    return graph_analysis(g, limits=limits).upper_bounds(alpha)


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
    clamped into [0, 1] (vacuous values flagged). One vertex has no pairs,
    so the union bound is empty and the floor is 1."""
    if n == 1:
        return 1.0, False
    return _clamped(1.0 - n * n * math.exp(-q * q * (n - 1)))


def planted_recovery_floor(n: int, k: int, q: float, c: float = 1.0) -> tuple[float, bool]:
    """Floor on P[all n closed neighborhoods distinct] with k planted blocks and
    cross-block edge probability q; clamped into [0, 1] (vacuous values flagged)."""
    return _clamped(1.0 - n * n * (max(q, 1.0 - q) ** (2.0 * n * (1.0 - c / k)) + math.exp(-q * q * (n - 1))))


def clique_number_markov_ceiling(n: int) -> tuple[float, bool]:
    """Ceiling on P[clique number >= ceil(2 sqrt(n))]: n^m 2^(-C(m,2)), clamped."""
    m = math.ceil(2.0 * math.sqrt(n))
    log2_val = m * math.log2(n) - m * (m - 1) / 2.0
    return _clamped(2.0**log2_val)


def regular_diameter_bound(n: int, k: int) -> int:
    """Spectral diameter ceiling for k-regular graphs (k >= 4, n >= 6 even)."""
    return int_ceil(math.log(n - 1) / math.log(k / (2.0 * math.sqrt(k - 1.0) + 0.5)))


TYPICAL_GNP_MIN_N = 82  # the typical_gnp_* bounds are stated for n >= this


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

    def put_clamped(key: str, value: tuple[float, bool]) -> None:
        out[key] = value[0]
        if value[1]:
            notes.append(f"{key} clamped (vacuous bound)")

    if n is not None and alpha is not None and 0 < alpha < 2:
        out["typical_gnp_lower"] = (math.log(n) - 2 * math.log(2)) / (
            2 * math.log(8 / alpha)
        )
        out["typical_gnp_fraction_floor"] = 1.0 - 2.0 ** (-n / 5.0)
        if n < TYPICAL_GNP_MIN_N:
            notes.append(f"typical_gnp bounds are stated for n >= {TYPICAL_GNP_MIN_N}")
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
            put_clamped("planted_recovery_floor", planted_recovery_floor(n, k, q, c))
    if n is not None and q is not None:
        put_clamped("diameter2_floor", diameter2_probability_floor(n, q))
    if n is not None:
        put_clamped("clique_markov_ceiling", clique_number_markov_ceiling(n))
    if lam is not None:
        out["l2_level_ceiling"] = (
            math.inf if lam <= 1.0 else (1.0 - 1.0 / lam) ** -0.5
        )
    if notes:
        out["_notes"] = notes
    return out


# -- aggregation -------------------------------------------------------------------


VALIDATION_LIMIT = 40  # reports certify their constructive uppers up to this n


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
    certified; default: only for graphs of at most ``VALIDATION_LIMIT`` vertices.
    """
    if not 0 < alpha < math.inf:  # NaN too, before the subset profile is built
        raise ValueError("alpha must be positive and finite")
    feasible = alpha < 2 or alpha2_feasible(g)
    lowers = [LowerBound("trivial_nonneg", 0.0)] if feasible else []
    ups, omitted = [], []
    if alpha < 2:
        analysis = graph_analysis(g, subsets, limits)
        lc, ln = analysis.lower_bounds(alpha)
        lowers.append(LowerBound("clique_partition_cover", lc))
        if alpha > 1:
            lowers.append(LowerBound("neighborhood_classes", ln))
        ups, omitted = analysis.upper_bounds(alpha)
        if validate is None:
            validate = g.n <= VALIDATION_LIMIT
        if validate:
            ups = [_validated(g, alpha, ub, limits) for ub in ups]
    elif feasible:
        value = 2.0 if len(connected_components(g)) > 1 else 0.0
        note = "clique components collapse to separated points on a line"
        ups = [UpperBound("point_per_clique_component", value, constructive=True, note=note)]

    return BoundReport(
        graph_digest=g.digest(),
        alpha=alpha,
        feasible=feasible,
        lower_bounds=tuple(lowers),
        upper_bounds=tuple(ups),
        omitted=tuple(omitted),
        interval=(max(lb.value for lb in lowers), min(ub.value for ub in ups)) if feasible else None,
        notes=() if feasible else ("levels >= 2 need every component to induce a clique",),
    )


def report_to_json(rep: BoundReport) -> str:
    """The report's fields in order, each lower bound as a ``[tag, value]``
    pair; ``vars`` reads them without ``asdict``'s deep copy."""
    return dump_json({
        **vars(rep),
        "lower_bounds": [[lb.tag, lb.value] for lb in rep.lower_bounds],
        "upper_bounds": [vars(ub) for ub in rep.upper_bounds],
    })


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
