import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from presdim import bounds, construct, experiment, graph, partition
from presdim.bounds import (
    clique_number_markov_ceiling,
    cluster_saliency,
    diameter2_probability_floor,
    format_report,
    lower_clique_partition,
    lower_neighborhood,
    profile_lower,
    regular_diameter_bound,
    report,
    report_to_json,
    theorem_formulas,
    upper_bounds,
)
from presdim.config import DEFAULT_LIMITS, Limits
from presdim.experiment import rows_to_csv, sweep
from presdim.graph import (
    Graph,
    diameter,
    from_edge_list,
    gen_gnp,
    gen_kregular,
    gen_named,
    gen_planted_partition,
    quotient_by_neighborhood,
    spectrum_top2,
)
from presdim.partition import clique_cover, neighborhood_class_count

from oracles import candidate_subsets_oracle, random_graph, subset_profile_oracle, subset_profile_reference


def test_lower_clique_partition_star100():
    # |P| = 99 via the exact independent-set floor; diameter 2
    star = gen_named("star", 100)
    value = lower_clique_partition(star, 1.0)
    assert abs(value - 2.2097855400265365) < 1e-12  # ln(99)/ln(8), mpmath


def test_lower_clique_partition_cycle_is_small():
    # both the partition size and the diameter grow linearly on a cycle
    for n in (8, 12, 16):
        cyc = gen_named("cycle", n)
        value = lower_clique_partition(cyc, 1.0)
        assert value <= math.log(math.ceil(n / 2)) / math.log(4 * (n // 2))


def test_lower_clique_partition_complete_graph():
    assert lower_clique_partition(gen_named("complete", 9), 1.0) == 0.0


def test_lower_bounds_empty_graph_convention():
    empty = gen_named("empty", 5)
    assert lower_clique_partition(empty, 1.5) == -math.inf
    assert lower_neighborhood(empty, 1.5) == -math.inf


def test_the_empty_vertex_set_is_rejected():
    g = from_edge_list(0, [])
    for run in (
        lambda: bounds.graph_analysis(g),
        lambda: upper_bounds(g, 1.0),
        lambda: lower_clique_partition(g, 0.5),
        lambda: lower_neighborhood(g, 1.5),
        lambda: bounds.subset_profile(g),
        lambda: report(g, 0.5),
    ):
        with pytest.raises(ValueError, match="empty vertex set"):
            run()


def test_report_rejects_a_level_that_is_not_finite():
    g = gen_named("cycle", 6)
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            report(g, alpha)


def test_lower_neighborhood_two_cliques_matched():
    tcm = gen_named("two_cliques_matched", 10)
    value = lower_neighborhood(tcm, 1.5)
    assert abs(value - 0.8304820237218406) < 1e-12  # ln(10)/ln(16), mpmath


def test_lower_neighborhood_complete_graph():
    assert lower_neighborhood(gen_named("complete", 7), 1.5) == 0.0


def test_lower_accepts_user_subsets():
    g = gen_gnp(14, 0.5, 8)
    base = lower_clique_partition(g, 1.0)
    with_user = lower_clique_partition(g, 1.0, subsets=[list(range(10))])
    assert with_user >= base - 1e-12
    for bad in (99, -1, 1.5):  # checked when the analysis is made, each named
        with pytest.raises(ValueError, match=f"subset entry {bad} is not a vertex"):
            bounds.graph_analysis(g, [[0, bad]])
        with pytest.raises(ValueError, match=f"subset entry {bad} is not a vertex"):
            lower_clique_partition(g, 1.0, subsets=[[0, bad]])


def test_upper_bound_values():
    # two disjoint 8-cliques: |P| = 2, so the level-1 bound is ceil(1 + log2 3) = 3
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    edges += [(8 + u, 8 + v) for u in range(8) for v in range(u + 1, 8)]
    g = from_edge_list(16, edges)
    ups, _ = upper_bounds(g, 1.0)
    by_tag = {u.tag: u.value for u in ups}
    assert by_tag["pseudo_metric"] == 3.0
    assert by_tag["shortest_path"] == 4.0  # ceil(log2 16)


def test_upper_bound_regular_formula():
    g = gen_kregular(100, 3, seed=2)
    ups, _ = upper_bounds(g, 1.01)
    by_tag = {u.tag: u.value for u in ups}
    assert by_tag["l2_regular"] == 7958.0  # ceil(192*9*ln 100), mpmath
    ups, omitted = upper_bounds(g, 1.05)  # above sqrt(1 + 1/12)
    assert "l2_regular" not in {u.tag for u in ups}
    assert any(tag == "l2_regular" for tag, _ in omitted)


def test_upper_bound_trivial():
    g = gen_gnp(100, 0.5, 0)
    ups, _ = upper_bounds(g, 1.5)
    by_tag = {u.tag: u.value for u in ups}
    assert by_tag["shortest_path"] == 7.0  # ceil(log2 100)


def test_theorem_formula_values():
    f = theorem_formulas(n=82, alpha=1.0)
    assert abs(f["typical_gnp_lower"] - 0.7262586674363473) < 1e-12  # mpmath
    f = theorem_formulas(n=150)
    assert f["euclidean_recovery_lower"] == 9.75
    assert theorem_formulas(p=0.5, q=0.5)["cluster_saliency"] == 0.25
    for q in (0.1, 0.3, 0.9):
        assert theorem_formulas(p=1.0, q=q)["cluster_saliency"] == 1.0
    f = theorem_formulas(n=1024, k=16, c=1.0, p=0.5, q=0.5, alpha=1.0)
    assert abs(f["planted_lower"] - 2.75) < 1e-12  # mpmath
    f = theorem_formulas(n=100, alpha=1.5)
    assert abs(f["normed_space_lower"] - 100 / (3 * math.log2(32))) < 1e-12
    f = theorem_formulas(n=100, k=4, alpha=1.0)
    assert f["regular_diameter_bound"] == 510  # mpmath
    assert abs(f["typical_regular_lower"] - 0.3931043439442273) < 1e-12  # mpmath
    assert f["typical_regular_failure_probability"] == "O(n^(-k+2))"


def test_probability_bounds_and_clamping():
    floor, clamped = diameter2_probability_floor(40, 0.5)
    assert abs(floor - 0.9067285380306099) < 1e-12 and not clamped  # mpmath
    floor, clamped = diameter2_probability_floor(2, 0.5)
    assert floor == 0.0 and clamped
    ceiling, clamped = clique_number_markov_ceiling(64)
    assert ceiling == 2.0**-24 and not clamped
    ceiling, clamped = clique_number_markov_ceiling(4)
    assert ceiling == 1.0 and clamped


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_diameter2_floor_of_one_vertex_is_one(q):
    # No pairs, so the union bound is empty.
    assert diameter2_probability_floor(1, q) == (1.0, False)


def test_l2_level_ceiling_complete_bipartite():
    for m in (3, 4, 6):
        g = gen_named("complete_bipartite", 2 * m)
        lam = spectrum_top2(quotient_by_neighborhood(g))[0]
        assert abs(lam - m) < 1e-9
        ceiling = theorem_formulas(lam=lam)["l2_level_ceiling"]
        assert abs(ceiling - (1 - 1 / m) ** -0.5) < 1e-9


def test_report_complete_graph():
    rep = report(gen_named("complete", 8), 1.5)
    assert rep.feasible and rep.interval == (0.0, 0.0)


def test_report_infeasible_beyond_two():
    rep = report(gen_named("path", 3), 2.0)
    assert not rep.feasible and rep.interval is None
    rep = report(from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)]), 2.5)
    assert rep.feasible and rep.interval is not None


def test_report_lower_below_verified_upper():
    for seed, n in ((0, 14), (1, 14), (2, 20), (3, 20)):
        g = gen_gnp(n, 0.5, seed)
        for alpha in (0.5, 1.0, 1.5):
            rep = report(g, alpha)
            lo, hi = rep.interval
            assert lo <= hi
            for ub in rep.upper_bounds:
                assert ub.verified is True, (ub, alpha)
                assert lo <= ub.value


def test_report_envelopes_on_level_grid():
    # raw lower envelope is nondecreasing; the upper envelope is monotone
    # after closing it under "a bound for a larger level applies below it"
    grid = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    for seed in range(3):
        g = gen_gnp(12, 0.5, seed)
        reps = [report(g, a, validate=False) for a in grid]
        lowers = [max(lb.value for lb in r.lower_bounds) for r in reps]
        assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
        uppers = [min(ub.value for ub in r.upper_bounds) for r in reps]
        closed = [min(uppers[i:]) for i in range(len(uppers))]
        assert all(a <= b for a, b in zip(closed, closed[1:]))
        assert all(lo <= up for lo, up in zip(lowers, closed))


def test_lower_bounds_stay_below_trivial_upper():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n = int(rng.integers(4, 15))
        g = random_graph(n, 0.5, rng)
        cap = math.ceil(math.log2(n)) + 1
        for alpha in (0.25, 0.75, 1.25, 1.75):
            assert lower_clique_partition(g, alpha) <= cap
            if alpha > 1:
                assert lower_neighborhood(g, alpha) <= cap


def test_constant_diameter_sandwich():
    # diameter <= 2: the explicit-constant forms bracket the reported interval
    checked = 0
    seed = 0
    while checked < 6:
        g = gen_gnp(12, 0.6, seed)
        seed += 1
        if diameter(g) > 2:
            continue
        checked += 1
        p_size = clique_cover(g).size
        c_size = neighborhood_class_count(g)
        for alpha in (0.8, 1.5):
            rep = report(g, alpha, validate=False)
            lo, hi = rep.interval
            t1 = math.log(p_size) / math.log(8 / alpha)
            t2 = (
                math.log(c_size) / math.log(8 / (alpha - 1)) if alpha > 1 else 0.0
            )
            assert lo >= 0.5 * (t1 + t2) - 1e-9
            assert lo <= hi


def test_report_serialization_and_table():
    rep = report(gen_gnp(10, 0.5, 1), 1.25)
    doc = report_to_json(rep)
    assert '"alpha": 1.25' in doc
    table = format_report(rep)
    assert "lower bounds:" in table and "interval:" in table


def test_regular_diameter_bound_small_cases():
    assert regular_diameter_bound(100, 4) == 510
    assert regular_diameter_bound(100, 10) >= 1


def test_saliency_values():
    assert cluster_saliency(1.0, 0.0) == 1.0
    assert cluster_saliency(0.5, 0.5) == 0.25


def test_family_lower_formula():
    # log|S| / (n log(8R/(alpha-1))) for a diameter-R family of given size
    f = theorem_formulas(n=10, alpha=1.5, R=2.0, log_size=45 * math.log(2))
    want = 45 * math.log(2) / (10 * math.log(32))
    assert abs(f["family_lower"] - want) < 1e-12


def test_report_and_sweep_enumerate_the_candidates_once(monkeypatch):
    enumerations, induced = [], []
    enumerate_candidates, induce = bounds._candidate_subsets, Graph.induced
    monkeypatch.setattr(
        bounds, "_candidate_subsets",
        lambda *a: enumerations.append(1) or enumerate_candidates(*a),
    )
    monkeypatch.setattr(Graph, "induced", lambda *a: induced.append(1) or induce(*a))
    g = gen_gnp(30, 0.5, 3)
    report(g, 1.5, validate=False)
    assert len(enumerations) == 1
    induced.clear()
    bounds.subset_profile(g)
    assert len(induced) == len(enumerate_candidates(g, None))
    enumerations.clear()
    sweep({"family": "gnp", "n": 30, "trials": 2, "alpha_grid": "0.6,0.8,1.2,1.5,1.8"})
    assert len(enumerations) == 2  # one per trial


# The tight limits make exact independence searches run out of budget, so the
# greedy fallback fires; an entry with such a floor must prune nothing. The
# examples are graphs on which pruning by a fallback floor (first) or without
# the floor test (second) changes the bounds, and two on which |U| / DSATUR
# colors beats a greedy iota. The entries themselves must equal those of the
# reference, which computes every greedy bound on G|U's own rows.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 40),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
    subsets=st.lists(st.lists(st.integers(0, 39), min_size=1, max_size=40), max_size=4),
    levels=st.lists(st.floats(0, 2, exclude_min=True, exclude_max=True), min_size=1, max_size=6),
)
@example(n=16, p=0.36, seed=6, subsets=[], levels=[0.5, 1.5])
@example(n=21, p=0.85, seed=28, subsets=[], levels=[0.5, 1.5])
@example(n=16, p=0.6388809962673293, seed=1315, subsets=[], levels=[0.5, 1.5])
@example(n=28, p=0.6435608885818369, seed=2072, subsets=[], levels=[0.5, 1.5])
def test_pruned_profile_gives_the_unpruned_lower_bounds(n, p, seed, subsets, levels):
    g = random_graph(n, p, np.random.default_rng(seed))
    subsets = [[v % n for v in subset] for subset in subsets]
    assert bounds._candidate_subsets(g, subsets) == candidate_subsets_oracle(g, subsets)
    tight = (Limits(exact_cover=4, clique_budget=30), Limits(exact_cover=0, clique_budget=5))
    for limits in (Limits(), *tight):
        pruned = bounds.subset_profile(g, subsets, limits)
        assert pruned == subset_profile_reference(g, subsets, limits), limits
        full = subset_profile_oracle(g, subsets, limits)
        for alpha in levels:
            assert profile_lower(pruned, alpha) == profile_lower(full, alpha), (limits, alpha)


def test_repeated_user_vertices_collapse():
    g = gen_named("path", 6)  # {1, 2} is no component and no ball
    base = bounds._candidate_subsets(g, None)
    assert [1, 2] not in base
    for subsets in ([[1, 1, 2]], [[2, 1, 1], [1, 2]], [[1, 2], [2, 2, 1, 1]]):
        assert bounds._candidate_subsets(g, subsets) == base + [[1, 2]]
        assert bounds._candidate_subsets(g, subsets) == candidate_subsets_oracle(g, subsets)
        assert bounds.subset_profile(g, subsets) == bounds.subset_profile(g, [[1, 2]])
    assert bounds._candidate_subsets(g, [[3, 3], [0, 1, 1]]) == base  # a single vertex; a ball


def test_profile_skips_the_candidates_the_component_dominates(monkeypatch):
    searches, search = [], bounds.independence_number

    def counting(sub, mode="exact", budget=None):
        if mode == "exact":
            searches.append(sub.n)
        return search(sub, mode=mode, budget=budget)

    monkeypatch.setattr(bounds, "independence_number", counting)
    for g in [gen_gnp(60, 0.5, seed) for seed in range(8)] + [gen_named("two_cliques_matched", 60)]:
        searches.clear()
        assert len(bounds.subset_profile(g)) == 1
        assert searches == [60]  # the component's; 60 or 61 without the pruning
    searches.clear()
    bounds.subset_profile(gen_gnp(100, 0.1, 0))
    assert searches == [100]


def test_report_lower_bounds_match_the_public_functions():
    for seed in range(4):
        g = gen_gnp(14 + 4 * seed, 0.4, seed)
        apart = next([0, v] for v in range(1, g.n) if not g.has_edge(0, v))
        subsets = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 2], apart, list(range(g.n // 2))]
        for limits in (Limits(), Limits(exact_cover=4)):
            for alpha in (0.6, 1.0, 1.5):
                lowers = dict(
                    (lb.tag, lb.value)
                    for lb in report(g, alpha, subsets=subsets, limits=limits,
                                     validate=False).lower_bounds
                )
                assert lowers["clique_partition_cover"] == lower_clique_partition(
                    g, alpha, subsets=subsets, limits=limits
                )
                if alpha > 1:
                    assert lowers["neighborhood_classes"] == lower_neighborhood(
                        g, alpha, subsets=subsets, limits=limits
                    )


def test_l2_regular_omitted_on_disjoint_equal_cliques():
    two_k2 = from_edge_list(4, [(0, 1), (2, 3)])
    two_k3 = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    for g in (two_k2, two_k3):
        rep = report(g, 0.8)
        assert dict(rep.omitted)["l2_regular"] == "quotient has no edges"
        assert all(ub.verified for ub in rep.upper_bounds)
    # one neighborhood class: the complete graph keeps the row
    assert "l2_regular" in [ub.tag for ub in report(gen_named("complete", 5), 0.8).upper_bounds]


def _counted(monkeypatch, module, name):
    """Count calls to ``module.name`` from every presdim module that imported it."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (graph, partition, construct, bounds, experiment):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_graph_facts_are_computed_once_per_report_and_sweep_trial(monkeypatch):
    covers = _counted(monkeypatch, partition, "gated_clique_cover")
    quotients = _counted(monkeypatch, graph, "quotient_with_map")
    spectra = _counted(monkeypatch, graph, "spectrum_top2")

    def counts(run):
        for calls in (covers, quotients, spectra):
            calls.clear()
        run()
        return len(covers), len(quotients), len(spectra)

    g = gen_gnp(30, 0.5, 3)
    assert counts(lambda: report(g, 0.8, validate=False)) == (1, 0, 0)  # no rule reads the quotient below 1
    assert counts(lambda: report(g, 1.5, validate=False)) == (1, 1, 1)
    cfg = {"family": "gnp", "n": 30, "trials": 1, "alpha_grid": "0.6,0.8,1.2,1.5,1.8"}
    assert counts(lambda: sweep(cfg)) == (1, 1, 1)  # one of each per trial


GOLDEN_LEVELS = "0.5,0.7,0.9,1.0,1.2,1.5,1.8,2.0,2.5"
GOLDEN_SWEEPS = [
    ({"family": "gnp", "n": 24, "p": 0.5, "trials": 2, "seed": 5},
     "bce8f4edfee74fcdd1ab7d5fa0ede4cb1be808d5d6b2c63245f201cf6aedf167"),
    ({"family": "planted", "n": 12, "k": 3, "p": 0.9, "q": 0.2, "trials": 2, "seed": 5},
     "d4ad3f6ba7ec560dbae5b0524ef24798a72a33f111b7fd078752e2c4b48c7d8f"),
    ({"family": "kregular", "n": 12, "k": 4, "trials": 2, "seed": 5},
     "7c6b69d20cf02a6a1a8ada749846cc1cd15266ed1a2396ed04c6dc9e97f95066"),
    ({"family": "cycle", "n": 9},
     "d4c20401c2b7e8fc72696f1bccd26d9419dbe7be5ab91e4d3532cd793089602e"),
    ({"family": "two_cliques_matched", "n": 10},
     "4ca80bcc621f6514617c82d034960648bef744cab9dd4bacd5ba9ea43efb20c7"),
]
GOLDEN_REPORTS = {
    "exact": "a4f65a19b53a0dd623405d7f3cfd235d6623497ff218ad7072c57cacf60ac622",
    "greedy": "52326cae1f4d263a81942f8c6a989a5467dc662ed5f21f6127259e02e9a2a115",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_and_report_output_is_pinned():
    # Digests recorded before the ceiling rules moved onto per-graph facts.
    for cfg, digest in GOLDEN_SWEEPS:
        assert _sha256(rows_to_csv(sweep(dict(cfg, alpha_grid=GOLDEN_LEVELS)))) == digest, cfg
    graphs = [
        gen_gnp(14, 0.5, 1),
        gen_planted_partition([4, 4, 4], 0.9, 0.2, 2),
        gen_kregular(10, 3, 3),
        gen_named("cycle", 8),
        gen_named("two_cliques_matched", 8),
        gen_named("complete_bipartite", 7),
    ]
    greedy = replace(DEFAULT_LIMITS, exact_cover=0)
    for mode, limits in (("exact", DEFAULT_LIMITS), ("greedy", greedy)):
        docs = "\n".join(
            report_to_json(report(g, alpha, limits=limits))
            for g in graphs
            for alpha in (0.5, 0.8, 1.0, 1.5, 1.9, 2.0)
        )
        assert _sha256(docs) == GOLDEN_REPORTS[mode], mode


def test_sweep_reads_the_profiles_independence_search(monkeypatch):
    searches = _counted(monkeypatch, partition, "independence_number")
    counted, profile = bounds.independence_number, []
    monkeypatch.setattr(bounds, "independence_number", lambda *a, **kw: profile.append(1) or counted(*a, **kw))
    records = sweep({"family": "gnp", "n": 60, "trials": 2, "alpha_grid": "0.5,1.5"})
    assert len(searches) == 2  # one per trial; the sweep used to repeat it for its column
    assert len(profile) == 2  # each of them the profile's
    monkeypatch.undo()
    for t in range(2):
        g = gen_gnp(60, 0.5, graph.derive_seed(0, t))
        assert records[2 * t].row["independence_number"] == partition.independence_number(g)


def test_sweep_raises_at_once_when_the_profiles_search_is_spent(monkeypatch):
    tight = Limits(clique_budget=3)
    g = gen_gnp(40, 0.5, 2)
    spent = bounds.graph_analysis(g, limits=tight)
    assert (spent.iota, spent.iota_spent) == (None, True)
    assert spent.profile == tuple(bounds.subset_profile(g, None, tight))
    monkeypatch.setattr(experiment, "graph_analysis", lambda g: bounds.graph_analysis(g, limits=tight))
    monkeypatch.setattr(experiment, "independence_number", lambda *a, **kw: pytest.fail("searched again"))
    with pytest.raises(partition.SearchBudgetExceeded):
        sweep({"family": "gnp", "n": 60, "trials": 1, "alpha_grid": "1.5"})


@pytest.mark.parametrize(
    "g",
    [gen_gnp(40, 0.5, 2), gen_gnp(14, 0.5, 8), gen_gnp(30, 0.05, 1), gen_named("empty", 1), gen_named("star", 30)],
    ids=["searched", "within-exact-cover", "disconnected", "one-vertex", "star"],
)
def test_graph_analysis_equals_the_separate_computations(g):
    analysis = bounds.graph_analysis(g)
    assert analysis.profile == tuple(bounds.subset_profile(g))
    assert analysis.cover == partition.gated_clique_cover(g)
    quotient = graph.quotient_by_neighborhood(g)
    assert analysis.quotient == quotient
    assert analysis.block_classes == max(neighborhood_class_count(g, b) for b in analysis.cover.blocks)
    assert analysis.degree == (g.degree(0) if g.n > 1 and len(set(g.degrees())) == 1 else None)
    assert analysis.lam == graph.spectrum_top2(quotient)[0]
    assert analysis.diameter == diameter(g) and type(analysis.diameter) is type(diameter(g))
    connected_and_large = analysis.diameter < math.inf and g.n > DEFAULT_LIMITS.exact_cover
    assert analysis.iota == (partition.independence_number(g) if connected_and_large else None)
    assert not analysis.iota_spent
    for alpha in (0.5, 1.0, 1.5, 1.9):
        assert analysis.upper_bounds(alpha) == upper_bounds(g, alpha)
        cp, nb = analysis.lower_bounds(alpha)
        assert cp == lower_clique_partition(g, alpha)
        assert nb == (lower_neighborhood(g, alpha) if alpha > 1 else -math.inf)


@pytest.mark.parametrize(
    "cfg",
    [{"family": "gnp", "n": 40, "trials": 2, "seed": 3},
     {"family": "planted", "n": 24, "k": 3, "p": 0.9, "q": 0.2, "trials": 2, "seed": 5},
     {"family": "gnp", "n": 30, "p": 0.05, "seed": 4}],
    ids=["gnp", "planted", "disconnected"],
)
def test_a_sweep_without_levels_below_two_builds_no_profile(monkeypatch, cfg):
    enumerations = _counted(monkeypatch, bounds, "_candidate_subsets")
    above = sweep(dict(cfg, alpha_grid="2.5"))
    assert sweep(dict(cfg, alpha_grid="")) == []
    assert not enumerations
    mixed = sweep(dict(cfg, alpha_grid="1.5,2.5"))
    assert enumerations
    assert [rec.row for rec in above] == [rec.row for rec in mixed if rec.row["alpha"] == 2.5]


def test_upper_bounds_build_no_profile(monkeypatch):
    enumerations = _counted(monkeypatch, bounds, "_candidate_subsets")
    searches = _counted(monkeypatch, partition, "independence_number")
    for g in (gen_gnp(40, 0.5, 2), gen_named("star", 30), gen_gnp(30, 0.05, 1)):
        for alpha in (0.5, 1.5):
            upper_bounds(g, alpha)
    assert not enumerations and not searches


def test_each_part_of_an_analysis_is_computed_once(monkeypatch):
    calls = [_counted(monkeypatch, bounds, "_candidate_subsets"),
             _counted(monkeypatch, partition, "independence_number"),
             _counted(monkeypatch, graph, "diameter")]
    analysis = bounds.graph_analysis(gen_gnp(40, 0.5, 2))
    assert not any(calls)  # nothing runs before its first read

    def reads():
        return (analysis.profile, analysis.iota, analysis.iota_spent, analysis.diameter,
                analysis.lower_bounds(1.5), analysis.lower_bounds(0.5))

    first = reads()
    counts = [len(c) for c in calls]
    assert reads() == first and [len(c) for c in calls] == counts
    assert counts[:2] == [1, 1]  # one enumeration, one search: the whole graph's
    assert analysis.entries[0] == bounds.ProfileEntry(
        (1 << 40) - 1, analysis.diameter, float(analysis.iota), analysis.entries[0].classes, True
    )
