import hashlib
import json
import math
from dataclasses import replace

import pytest

from presdim.config import DEFAULT_LIMITS
from presdim.experiment import (
    mc_clique_number,
    mc_diameter2,
    mc_planted,
    mc_theorem2,
    parse_config,
    results_to_json,
    rows_to_csv,
    sweep,
    write_csv,
)
from presdim.graph import connected_components, derive_seed, gen_gnp
from presdim.partition import independence_number


def test_diameter2_complete_when_q_is_one():
    res = mc_diameter2(12, 1.0, 20, seed=1)
    assert res.empirical == 1.0 and res.bound_kind == "floor"


def test_diameter2_small_n_clamps():
    res = mc_diameter2(2, 0.5, 10, seed=1)
    assert res.bound == 0.0 and res.bound_clamped


def test_diameter2_deterministic_and_parallel_consistent():
    a = mc_diameter2(20, 0.5, 60, seed=5)
    b = mc_diameter2(20, 0.5, 60, seed=5)
    assert a == b
    c = mc_diameter2(20, 0.5, 60, seed=5, jobs=2)
    assert c.empirical == a.empirical


def test_clique_ceiling_small_n_clamps():
    res = mc_clique_number(4, 30, seed=2)
    assert res.bound == 1.0 and res.bound_clamped
    assert 0.0 <= res.empirical <= 1.0


def test_clique_empirical_respects_ceiling_with_slack():
    res = mc_clique_number(36, 60, seed=3)
    sigma = math.sqrt(max(res.bound * (1 - res.bound), 1e-12) / res.trials)
    assert res.empirical <= res.bound + 3 * sigma + 1e-9


def test_theorem2_out_of_regime_flag():
    res = mc_theorem2(30, 1.0, 20, seed=4)
    assert res.extras["in_regime"] is False
    assert 0.0 <= res.empirical <= 1.0


def test_theorem2_fraction_monotone_in_level():
    fractions = []
    for alpha in (0.5, 1.0, 1.5):
        fractions.append(mc_theorem2(40, alpha, 30, seed=6).empirical)
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_planted_fully_clustered():
    # p=1, q=0: k disjoint cliques; classes collapse and components separate
    res = mc_planted(24, 4, 1.0, 0.0, 1.5, 10, seed=7)
    assert res.empirical == 0.0  # |C| = k, never n
    assert res.extras["frac_diameter_le_2"] == 0.0  # disconnected
    assert res.extras["mean_clique_number"] == 6.0
    assert res.extras["cluster_saliency"] == 1.0


def test_planted_requires_equal_blocks():
    with pytest.raises(ValueError):
        mc_planted(25, 4, 1.0, 0.5, 1.5, 5, seed=0)


def test_results_json():
    res = mc_diameter2(10, 0.9, 5, seed=9)
    doc = results_to_json([res])
    assert '"diameter2"' in doc


def test_results_json_writes_infinities_as_text_and_refuses_nan():
    res = mc_theorem2(4, 1.0, 20, seed=1)  # n = 4 samples disconnected graphs
    assert res.extras["mean_trial_value"] == -math.inf
    doc = json.loads(results_to_json([res]), parse_constant=pytest.fail)
    assert doc[0]["extras"]["mean_trial_value"] == "-inf"
    with pytest.raises(ValueError):
        results_to_json([replace(res, empirical=math.nan)])


SWEEP_CFG = {
    "family": "gnp",
    "n": "10",
    "p": "0.5",
    "trials": "1",
    "seed": "11",
    "alpha_grid": "0.5,1.0,1.5",
}


def test_sweep_rows_match_grid():
    records = sweep(dict(SWEEP_CFG))
    assert len(records) == 3
    alphas = [rec.row["alpha"] for rec in records]
    assert alphas == [0.5, 1.0, 1.5]
    # one graph per trial: the sampled seed is shared across the grid
    assert len({rec.row["trial_seed"] for rec in records}) == 1


def test_sweep_empty_grid_gives_header_only():
    cfg = dict(SWEEP_CFG, alpha_grid="")
    text = rows_to_csv(sweep(cfg))
    assert text.splitlines()[0].startswith("family,")
    assert len(text.splitlines()) == 1


def test_sweep_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sweep(dict(SWEEP_CFG)), str(p1))
    write_csv(sweep(dict(SWEEP_CFG)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_malformed_config():
    with pytest.raises(ValueError):
        sweep({"family": "gnp"})  # missing n
    with pytest.raises(ValueError):
        sweep(dict(SWEEP_CFG, n="ten"))
    for n in ("0", "-3"):
        with pytest.raises(ValueError, match=f"needs n >= 1, got n={n}"):
            sweep(dict(SWEEP_CFG, n=n))
    for grid in ("nan", "-1", "0", "0.5,nan"):
        with pytest.raises(ValueError, match="alpha must be positive, got alpha="):
            sweep(dict(SWEEP_CFG, alpha_grid=grid))
    for trials in ("0", "-2"):
        with pytest.raises(ValueError, match=f"needs trials >= 1, got trials={trials}"):
            sweep(dict(SWEEP_CFG, trials=trials))
    for key in ("alpha-grid", "famliy", "jobs"):
        with pytest.raises(ValueError, match=f"unknown sweep config key '{key}'"):
            sweep(dict(SWEEP_CFG, **{key: "1.5"}))
    for key, value in (("p", "abc"), ("k", "x")):
        with pytest.raises(ValueError, match=f"sweep config: key '{key}'"):
            sweep(dict(SWEEP_CFG, **{key: value}))


def test_parse_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# sweep over levels\nfamily=gnp\nn = 8\nalpha_grid=0.5,1.5\n")
    parsed = parse_config(str(cfg))
    assert parsed == {"family": "gnp", "n": "8", "alpha_grid": "0.5,1.5"}
    bad = tmp_path / "bad.txt"
    bad.write_text("family gnp\n")
    with pytest.raises(ValueError):
        parse_config(str(bad))


# (result, SHA-256 of its results_to_json) for every Monte Carlo kind, with
# clamped and unclamped bounds, and planted levels below 1, in (1, 2) and >= 2.
GOLDEN_MC = [
    (lambda: mc_diameter2(2, 0.5, 4, seed=1),
     "16f40580d1852e62d808648e7e68992049aa9751f628647763d927d480970722"),
    (lambda: mc_diameter2(30, 0.6, 6, seed=2),
     "1124a49402c5a9a7dfcb048027437601635460c82ccb3341196989e289b87f62"),
    (lambda: mc_clique_number(4, 6, seed=3),
     "dd6d6be8dfd7452fad13b51413243e8d59ea17904da2a76ea2317431f6d3796d"),
    (lambda: mc_clique_number(40, 6, seed=4),
     "234176ea47ab0dce9747e7a0bd24b073d9e30ae74b1b806d61e39ffffbef8b55"),
    (lambda: mc_theorem2(20, 1.0, 4, seed=5),
     "387f7d948e03b7a90dfebb5ba88c91715fce77a6654f682b7313ce92f4fd5d9f"),
    (lambda: mc_theorem2(90, 0.5, 3, seed=6),
     "9959c9634f1bf2fa8ec6da3357758c9881475c3bdde03faec33cb16250941be1"),
    (lambda: mc_planted(24, 4, 0.9, 0.2, 1.5, 4, seed=7),
     "d56768916d317e24c816fe4855a8e4ffcd38cb4ccfe582d235e216d3971f5fdc"),
    (lambda: mc_planted(120, 2, 0.5, 0.5, 1.2, 2, seed=8),
     "83e14883c713840670dfaf299e3d054dc15ffe7e0b0ed720069ead88a04c67ef"),
    (lambda: mc_planted(12, 3, 1.0, 0.0, 2.5, 3, seed=9),
     "7f9f7b626e7213a64d35169f769383027c1e8a02903c9a7b75923adb5dd41a0b"),
    (lambda: mc_planted(16, 2, 0.8, 0.3, 0.5, 3, seed=10),
     "259b72bd69e129322227be9746b315ae9ad4e8013435d745f99138205d49589e"),
]


def test_monte_carlo_output_is_pinned():
    for i, (run, digest) in enumerate(GOLDEN_MC):
        assert hashlib.sha256(results_to_json([run()]).encode()).hexdigest() == digest, i


def test_planted_recovery_formula_only_where_it_is_stated():
    # theorem_formulas states planted_recovery_lower for 1 < alpha < 2 only.
    for alpha, stated in ((0.5, False), (1.5, True), (2.5, False)):
        extras = mc_planted(12, 3, 1.0, 0.0, alpha, 1, seed=9).extras
        assert ("planted_recovery_formula" in extras) == stated
        assert None not in extras.values()


# Where the subset profile ran no exact independence search on the whole
# graph, the sweep searches it itself: a disconnected graph (here one of
# whose components, of 24 vertices, the profile does search), a graph within
# the exact-cover limit, where the profile's floor is the cover, and n = 1.
@pytest.mark.parametrize(
    "cfg",
    [
        {"family": "gnp", "n": 30, "p": 0.05, "seed": 4},
        {"family": "gnp", "n": 16, "p": 0.5, "seed": 2},
        {"family": "gnp", "n": 1},
    ],
    ids=["disconnected", "within-exact-cover", "one-vertex"],
)
def test_sweep_searches_iota_where_the_profile_did_not(cfg):
    records = sweep(dict(cfg, alpha_grid="0.5,1.5"))
    g = gen_gnp(cfg["n"], cfg.get("p", 0.5), derive_seed(cfg.get("seed", 0), 0))
    assert [rec.row["independence_number"] for rec in records] == [independence_number(g)] * 2
    if cfg["n"] == 30:
        assert len(connected_components(g)) > 1
        assert max(map(len, connected_components(g))) > DEFAULT_LIMITS.exact_cover


def test_sweep_row_of_one_vertex():
    for rec in sweep({"family": "gnp", "n": 1, "alpha_grid": "0.5,1.5"}):
        row = rec.row
        assert (row["diameter"], row["independence_number"], row["upper_min"]) == (0.0, 1, 0.0)
        assert row["lower_clique_partition"] == row["lower_neighborhood"] == -math.inf
