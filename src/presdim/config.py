"""Default size limit and node budget for exact-mode combinatorial searches.

Every exact-mode operation accepts an explicit ``limit``/``budget`` override
and falls back to these defaults; ``--mode greedy`` sets ``exact_cover`` to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Limits", "DEFAULT_LIMITS"]


@dataclass(frozen=True)
class Limits:
    exact_cover: int = 20          # clique cover via complement coloring
    clique_budget: int = 2_000_000  # max-clique branch-and-bound node budget


DEFAULT_LIMITS = Limits()
