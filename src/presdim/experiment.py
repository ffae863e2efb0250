"""Seeded Monte Carlo checks of the high-probability claims, plus a sweep
harness with CSV/JSON output.

Trials are independent and derive their seeds from the root seed and trial
index, so serial and parallel runs aggregate to identical results; outputs
are byte-identical across reruns with the same configuration.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .bounds import (
    clique_number_markov_ceiling,
    cluster_saliency,
    diameter2_probability_floor,
    lower_clique_partition,
    lower_neighborhood,
    theorem_formulas,
    upper_bounds,
)
from .graph import (
    Graph,
    derive_seed,
    diameter,
    gen_gnp,
    gen_kregular,
    gen_named,
    gen_planted_partition,
    NAMED_FAMILIES,
)
from .partition import (
    clique_number,
    gated_clique_cover,
    independence_number,
    neighborhood_class_count,
)

__all__ = [
    "MCResult",
    "TrialRecord",
    "mc_diameter2",
    "mc_clique_number",
    "mc_theorem2",
    "mc_planted",
    "sweep",
    "parse_config",
    "rows_to_csv",
    "write_csv",
    "SWEEP_COLUMNS",
]


@dataclass(frozen=True)
class MCResult:
    """Aggregate of one Monte Carlo experiment against its paper bound."""

    name: str
    params: dict
    trials: int
    empirical: float
    bound: float
    bound_kind: str  # "floor" | "ceiling"
    bound_clamped: bool
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "trials": self.trials,
            "empirical": self.empirical,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "bound_clamped": self.bound_clamped,
            "extras": self.extras,
        }


@dataclass
class TrialRecord:
    """One sweep row."""

    row: dict


def _run(fn: Callable, args: list, jobs: int) -> list:
    if jobs <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(args) // (jobs * 4))
        return list(pool.map(fn, args, chunksize=chunk))


# -- individual experiments ----------------------------------------------------


def _trial_diameter2(args: tuple) -> bool:
    n, q, seed, t = args
    return diameter(gen_gnp(n, q, derive_seed(seed, t))) <= 2


def mc_diameter2(n: int, q: float, trials: int, seed: int, jobs: int = 1) -> MCResult:
    """Fraction of G(n, q) samples with diameter <= 2 against the union-bound
    floor 1 - n^2 exp(-q^2 (n-1)) (clamped when vacuous)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    hits = sum(_run(_trial_diameter2, [(n, q, seed, t) for t in range(trials)], jobs))
    floor, clamped = diameter2_probability_floor(n, q)
    return MCResult(
        name="diameter2",
        params={"n": n, "q": q, "seed": seed},
        trials=trials,
        empirical=hits / trials,
        bound=floor,
        bound_kind="floor",
        bound_clamped=clamped,
    )


def _trial_clique(args: tuple) -> int:
    n, seed, t = args
    return clique_number(gen_gnp(n, 0.5, derive_seed(seed, t)), mode="exact")


def mc_clique_number(n: int, trials: int, seed: int, jobs: int = 1) -> MCResult:
    """Frequency of clique number >= ceil(2 sqrt(n)) in G(n, 1/2) against the
    first-moment ceiling n^m 2^(-C(m,2))."""
    if trials < 1:
        raise ValueError("need at least one trial")
    m = math.ceil(2.0 * math.sqrt(n))
    kappas = _run(_trial_clique, [(n, seed, t) for t in range(trials)], jobs)
    ceiling, clamped = clique_number_markov_ceiling(n)
    return MCResult(
        name="clique_number",
        params={"n": n, "threshold": m, "seed": seed},
        trials=trials,
        empirical=sum(1 for k in kappas if k >= m) / trials,
        bound=ceiling,
        bound_kind="ceiling",
        bound_clamped=clamped,
        extras={"max_clique_number": max(kappas), "mean_clique_number": sum(kappas) / trials},
    )


def _trial_theorem2(args: tuple) -> tuple[float, int, float]:
    n, alpha, seed, t = args
    g = gen_gnp(n, 0.5, derive_seed(seed, t))
    kappa = clique_number(g, mode="exact")
    diam = diameter(g)
    if not math.isfinite(diam):
        return (-math.inf, kappa, diam)
    return (math.log(n / kappa) / math.log(4.0 * diam / alpha), kappa, diam)


def mc_theorem2(
    n: int, alpha: float, trials: int, seed: int, jobs: int = 1
) -> MCResult:
    """Fraction of G(n, 1/2) samples whose clique-partition lower bound (via
    n/kappa and the diameter) meets the typical-graph formula value.

    The formula's guarantee holds in the n >= 82 regime; smaller n is
    reported without asserting the floor.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    formula = (math.log(n) - 2 * math.log(2)) / (2 * math.log(8.0 / alpha))
    rows = _run(_trial_theorem2, [(n, alpha, seed, t) for t in range(trials)], jobs)
    meets = sum(1 for value, _, _ in rows if value >= formula - 1e-12)
    return MCResult(
        name="theorem2",
        params={"n": n, "alpha": alpha, "seed": seed},
        trials=trials,
        empirical=meets / trials,
        bound=1.0 - 2.0 ** (-n / 5.0),
        bound_kind="floor",
        bound_clamped=False,
        extras={
            "formula_value": formula,
            "in_regime": n >= 82,
            "mean_trial_value": sum(v for v, _, _ in rows) / trials,
        },
    )


def _trial_planted(args: tuple) -> tuple[bool, bool, int]:
    sizes, p, q, seed, t = args
    g = gen_planted_partition(list(sizes), p, q, derive_seed(seed, t))
    full_classes = neighborhood_class_count(g) == g.n
    diam2 = diameter(g) <= 2
    kappa = clique_number(g, mode="exact")
    return (full_classes, diam2, kappa)


def mc_planted(
    n: int,
    k: int,
    p: float,
    q: float,
    alpha: float,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> MCResult:
    """Planted-partition experiment: frequency of all-distinct neighborhoods
    (the event behind the recoverability lower bound) against its floor, with
    per-trial diameter and clique-number aggregates."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if n % k:
        raise ValueError("n must split into k equal blocks")
    sizes = tuple([n // k] * k)
    rows = _run(_trial_planted, [(sizes, p, q, seed, t) for t in range(trials)], jobs)
    frac_full = sum(1 for f, _, _ in rows if f) / trials
    frac_diam2 = sum(1 for _, d, _ in rows if d) / trials
    kappas = [kk for _, _, kk in rows]
    formulas = theorem_formulas(n=n, alpha=alpha, k=k, p=p, q=q, c=1.0)
    floor = formulas.get("planted_recovery_floor", 0.0)
    clamped = any("planted_recovery_floor clamped" in s for s in formulas.get("_notes", []))
    extras = {
        "frac_diameter_le_2": frac_diam2,
        "mean_clique_number": sum(kappas) / trials,
        "cluster_saliency": cluster_saliency(p, q),
    }
    if 0 < alpha < 2:
        extras["planted_lower_formula"] = formulas.get("planted_lower")
    if alpha > 1:
        extras["planted_recovery_formula"] = formulas.get("planted_recovery_lower")
    return MCResult(
        name="planted",
        params={"n": n, "k": k, "p": p, "q": q, "alpha": alpha, "seed": seed},
        trials=trials,
        empirical=frac_full,
        bound=float(floor),
        bound_kind="floor",
        bound_clamped=clamped,
        extras=extras,
    )


# -- sweep harness ---------------------------------------------------------------

SWEEP_COLUMNS = [
    "family",
    "n",
    "p",
    "q",
    "k",
    "alpha",
    "trial",
    "trial_seed",
    "diameter",
    "max_degree",
    "clique_number",
    "independence_number",
    "clique_mode",
    "cover_size",
    "cover_mode",
    "n_classes",
    "lower_clique_partition",
    "lower_neighborhood",
    "upper_min",
]


def _sample_graph(family: str, n: int, p: float, q: float, k: int, trial_seed: int) -> Graph:
    if family == "gnp":
        return gen_gnp(n, p, trial_seed)
    if family == "kregular":
        return gen_kregular(n, k, trial_seed)
    if family == "planted":
        if n % k:
            raise ValueError("planted sweep needs n divisible by k")
        return gen_planted_partition([n // k] * k, p, q, trial_seed)
    if family in NAMED_FAMILIES:
        return gen_named(family, n)
    raise ValueError(f"unknown family {family!r}")


def parse_config(path: str) -> dict[str, str]:
    """Flat key=value configuration file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError(f"malformed config line: {ln!r}")
            key, val = ln.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def sweep(config: dict, jobs: int = 1) -> list[TrialRecord]:
    """Run one TrialRecord per (alpha grid point, trial index).

    Config keys: family, n, trials, seed, alpha_grid (comma separated), and
    p / q / k as the family requires. The sampled graph depends only on the
    trial index, so an alpha grid sweeps the same graph per trial.
    """
    try:
        family = str(config["family"])
        n = int(config["n"])
        trials = int(config.get("trials", 1))
        seed = int(config.get("seed", 0))
        alphas = [float(tok) for tok in str(config.get("alpha_grid", "1.0")).split(",") if tok]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed sweep config: {exc}") from exc
    p = float(config.get("p", 0.5))
    q = float(config.get("q", 0.0))
    k = int(config.get("k", 0))
    args = [(family, n, p, q, k, seed, t, tuple(alphas)) for t in range(trials)]
    nested = _run(_sweep_trial, args, jobs)
    return [rec for group in nested for rec in group]


def _sweep_trial(args: tuple) -> list[TrialRecord]:
    family, n, p, q, k, seed, t, alphas = args
    trial_seed = derive_seed(seed, t)
    g = _sample_graph(family, n, p, q, k, trial_seed)
    diam = diameter(g)
    clique_mode = "exact" if g.n <= 128 else "greedy"
    kappa = clique_number(g, mode=clique_mode)
    iota = independence_number(g, mode=clique_mode)
    cover = gated_clique_cover(g)
    classes = neighborhood_class_count(g)
    records = []
    for alpha in alphas:
        lower_cp = lower_clique_partition(g, alpha) if 0 < alpha < 2 else -math.inf
        lower_nb = lower_neighborhood(g, alpha) if 1 < alpha < 2 else -math.inf
        if 0 < alpha < 2:
            ups, _ = upper_bounds(g, alpha)
            upper_min = min(ub.value for ub in ups)
        else:
            upper_min = math.inf
        row = {
            "family": family,
            "n": n,
            "p": p,
            "q": q,
            "k": k,
            "alpha": alpha,
            "trial": t,
            "trial_seed": trial_seed,
            "diameter": diam,
            "max_degree": g.max_degree(),
            "clique_number": kappa,
            "independence_number": iota,
            "clique_mode": clique_mode,
            "cover_size": cover.size,
            "cover_mode": cover.mode,
            "n_classes": classes,
            "lower_clique_partition": lower_cp,
            "lower_neighborhood": lower_nb,
            "upper_min": upper_min,
        }
        records.append(TrialRecord(row=row))
    return records


def rows_to_csv(records: Sequence[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    for rec in records:
        writer.writerow(rec.row)
    return buf.getvalue()


def write_csv(records: Sequence[TrialRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(records))


def results_to_json(results: Sequence[MCResult]) -> str:
    return json.dumps([r.to_dict() for r in results], indent=2)
