"""Default size limit and node budget for exact-mode combinatorial searches.

Every exact-mode operation accepts an explicit ``limit``/``budget`` override
and falls back to these defaults; ``--mode greedy`` sets ``exact_cover`` to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Limits", "DEFAULT_LIMITS", "check_mode"]


@dataclass(frozen=True)
class Limits:
    exact_cover: int = 20          # clique cover via complement coloring
    clique_budget: int = 2_000_000  # max-clique branch-and-bound node budget


DEFAULT_LIMITS = Limits()


def check_mode(mode: str, what: str = "", measure: str = "n", size: int = 0, limit: float = float("inf")) -> None:
    """The rule of every search's ``mode``: refuse one other than "exact" or
    "greedy", and an exact ``what`` whose ``measure`` (here ``size``) is above ``limit``."""
    if mode not in ("exact", "greedy"):
        raise ValueError("mode must be 'exact' or 'greedy'")
    if mode == "exact" and size > limit:
        raise ValueError(f"exact {what} limited to {measure} <= {limit}, got {size}")
