"""Seeded Monte Carlo checks of the high-probability claims, plus a sweep
harness with CSV/JSON output.

Trials are independent and derive their seeds from the root seed and trial
index, so serial and parallel runs aggregate to identical results; outputs
are byte-identical across reruns with the same configuration.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Sequence

from .bounds import (
    TYPICAL_GNP_MIN_N,
    clique_number_markov_ceiling,
    cluster_saliency,
    diameter2_probability_floor,
    graph_analysis,
    planted_recovery_floor,
    theorem_formulas,
)
from .config import DEFAULT_LIMITS
from .graph import derive_seed, diameter, gen_family, gen_gnp, gen_planted_partition, planted_sizes
from .partition import SearchBudgetExceeded, clique_number, independence_number, neighborhood_class_count
from .util import dump_json, read_members

__all__ = [
    "MCResult",
    "TrialRecord",
    "mc_diameter2",
    "mc_clique_number",
    "mc_theorem2",
    "mc_planted",
    "MONTE_CARLO",
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
        return asdict(self)


@dataclass
class TrialRecord:
    """One sweep row."""

    row: dict


def _run(trial: Callable[[int], object], trials: int, jobs: int) -> list:
    """``trial`` of each index in range(trials), in order, on ``jobs`` processes."""
    if trials < 1:
        raise ValueError(f"needs trials >= 1, got trials={trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return [trial(t) for t in range(trials)]
    from concurrent.futures import ProcessPoolExecutor  # a single process loads no pool
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(trial, range(trials), chunksize=max(1, trials // (jobs * 4))))


# -- individual experiments ----------------------------------------------------


def _trial_diameter2(n: int, q: float, seed: int, t: int) -> bool:
    return diameter(gen_gnp(n, q, derive_seed(seed, t))) <= 2


def mc_diameter2(n: int, q: float, trials: int, seed: int, jobs: int = 1) -> MCResult:
    """Fraction of G(n, q) samples with diameter <= 2 against the union-bound
    floor 1 - n^2 exp(-q^2 (n-1)) (clamped when vacuous)."""
    if n < 1:
        raise ValueError(f"diameter2 experiment needs n >= 1, got n={n}")
    hits = sum(_run(partial(_trial_diameter2, n, q, seed), trials, jobs))
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


def _trial_clique(n: int, seed: int, t: int) -> int:
    return clique_number(gen_gnp(n, 0.5, derive_seed(seed, t)), mode="exact")


def mc_clique_number(n: int, trials: int, seed: int, jobs: int = 1) -> MCResult:
    """Frequency of clique number >= ceil(2 sqrt(n)) in G(n, 1/2) against the
    first-moment ceiling n^m 2^(-C(m,2))."""
    if n < 1:
        raise ValueError(f"clique experiment needs n >= 1, got n={n}")
    m = math.ceil(2.0 * math.sqrt(n))
    kappas = _run(partial(_trial_clique, n, seed), trials, jobs)
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


def _trial_theorem2(n: int, alpha: float, seed: int, t: int) -> tuple[float, int, float]:
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
    if n < 2:
        raise ValueError(f"theorem 2 needs n >= 2, got n={n}")
    if not 0 < alpha < 2:
        raise ValueError(f"theorem 2 needs alpha in (0, 2), got alpha={alpha}")
    formulas = theorem_formulas(n=n, alpha=alpha)
    formula = formulas["typical_gnp_lower"]
    rows = _run(partial(_trial_theorem2, n, alpha, seed), trials, jobs)
    meets = sum(1 for value, _, _ in rows if value >= formula - 1e-12)
    return MCResult(
        name="theorem2",
        params={"n": n, "alpha": alpha, "seed": seed},
        trials=trials,
        empirical=meets / trials,
        bound=formulas["typical_gnp_fraction_floor"],
        bound_kind="floor",
        bound_clamped=False,
        extras={
            "formula_value": formula,
            "in_regime": n >= TYPICAL_GNP_MIN_N,
            "mean_trial_value": sum(v for v, _, _ in rows) / trials,
        },
    )


def _trial_planted(sizes: tuple[int, ...], p: float, q: float, seed: int, t: int) -> tuple[bool, bool, int]:
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
    if not 0 < alpha < math.inf:  # NaN too
        raise ValueError(f"planted experiment needs a positive finite alpha, got alpha={alpha}")
    sizes = tuple(planted_sizes(n, k))
    rows = _run(partial(_trial_planted, sizes, p, q, seed), trials, jobs)
    frac_full = sum(1 for f, _, _ in rows if f) / trials
    frac_diam2 = sum(1 for _, d, _ in rows if d) / trials
    kappas = [kk for _, _, kk in rows]
    formulas = theorem_formulas(n=n, alpha=alpha, k=k, p=p, q=q, c=1.0)
    floor, clamped = planted_recovery_floor(n, k, q)
    extras = {
        "frac_diameter_le_2": frac_diam2,
        "mean_clique_number": sum(kappas) / trials,
        "cluster_saliency": cluster_saliency(p, q),
    }
    if 0 < alpha < 2:
        extras["planted_lower_formula"] = formulas.get("planted_lower")
    if 1 < alpha < 2:
        extras["planted_recovery_formula"] = formulas.get("planted_recovery_lower")
    return MCResult(
        name="planted",
        params={"n": n, "k": k, "p": p, "q": q, "alpha": alpha, "seed": seed},
        trials=trials,
        empirical=frac_full,
        bound=floor,
        bound_kind="floor",
        bound_clamped=clamped,
        extras=extras,
    )


# The Monte Carlo kinds: kind -> (runner, the parameters it takes before trials
# and seed, by their CLI names, default number of trials).
MONTE_CARLO: dict[str, tuple[Callable[..., MCResult], tuple[str, ...], int]] = {
    "diameter2": (mc_diameter2, ("n", "q"), 500),
    "clique": (mc_clique_number, ("n",), 200),
    "theorem2": (mc_theorem2, ("n", "alpha"), 200),
    "planted": (mc_planted, ("n", "k", "p", "q", "alpha"), 500),
}


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


def _levels(grid: object) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(grid).split(",") if tok)


# The sweep config: key -> converter, and the values of the keys left out.
_SWEEP_CONFIG = {
    "family": str, "n": int, "trials": int, "seed": int, "alpha_grid": _levels, "p": float, "q": float, "k": int
}
_SWEEP_DEFAULTS = {"trials": 1, "seed": 0, "alpha_grid": (1.0,), "p": 0.5, "q": 0.0, "k": 0}


def sweep(config: dict, jobs: int = 1) -> list[TrialRecord]:
    """Run one TrialRecord per (alpha grid point, trial index).

    Config keys: family, n, trials, seed, alpha_grid (comma separated), and
    p / q / k as the family requires. The sampled graph depends only on the
    trial index, so an alpha grid sweeps the same graph per trial.
    """
    cfg = read_members(config, _SWEEP_CONFIG, "sweep config", _SWEEP_DEFAULTS)
    n, alphas = cfg["n"], cfg["alpha_grid"]
    if n < 1:
        raise ValueError(f"sweep needs n >= 1, got n={n}")
    for alpha in alphas:
        if not alpha > 0:  # NaN too
            raise ValueError(f"alpha must be positive, got alpha={alpha}")
    trial = partial(_sweep_trial, cfg["family"], n, cfg["p"], cfg["q"], cfg["k"], cfg["seed"], alphas)
    nested = _run(trial, cfg["trials"], jobs)
    return [rec for group in nested for rec in group]


def _sweep_trial(
    family: str, n: int, p: float, q: float, k: int, seed: int, alphas: tuple[float, ...], t: int
) -> list[TrialRecord]:
    trial_seed = derive_seed(seed, t)
    g = gen_family(family, n, p, q, k, trial_seed)
    analysis = graph_analysis(g)
    clique_mode = "exact" if g.n <= 128 else "greedy"
    kappa = clique_number(g, mode=clique_mode)
    profiled = clique_mode == "exact" and any(0 < alpha < 2 for alpha in alphas)  # only they read the profile
    if profiled and analysis.iota_spent:  # the same search on the same graph
        raise SearchBudgetExceeded(f"max-clique budget {DEFAULT_LIMITS.clique_budget} exhausted")
    iota = analysis.iota if profiled else None
    if iota is None:
        iota = independence_number(g, mode=clique_mode)
    records = []
    for alpha in alphas:
        lower_cp, lower_nb, upper_min = -math.inf, -math.inf, math.inf
        if 0 < alpha < 2:
            lower_cp, lower_nb = analysis.lower_bounds(alpha)
            upper_min = min(ub.value for ub in analysis.upper_bounds(alpha)[0])
        values = (family, n, p, q, k, alpha, t, trial_seed, analysis.diameter, g.max_degree(), kappa, iota,
                  clique_mode, analysis.cover.size, analysis.cover.mode, analysis.quotient.n,
                  lower_cp, lower_nb, upper_min)
        records.append(TrialRecord(row=dict(zip(SWEEP_COLUMNS, values, strict=True))))
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
    return dump_json([r.to_dict() for r in results])
