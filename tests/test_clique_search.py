"""The exact max-clique search against the unpeeled search in ``oracles``:
the same clique mask, and the same node count as the smallest budget that
lets it finish."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim.partition import SearchBudgetExceeded, _max_clique_mask

from oracles import max_clique_mask_oracle


def _adjacency(n: int, p: float, seed: int, complement: bool) -> np.ndarray:
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    a = upper | upper.T
    if complement:
        a = ~a
        np.fill_diagonal(a, False)
    return a


def _assert_matches_reference(a: np.ndarray) -> None:
    mask, nodes = max_clique_mask_oracle(a)
    assert _max_clique_mask(a) == mask
    assert _max_clique_mask(a, budget=nodes) == mask
    if nodes:
        with pytest.raises(SearchBudgetExceeded):
            _max_clique_mask(a, budget=nodes - 1)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_empty_and_complete_graphs(n, p):
    # n = 0 needs no node at all, so it also runs with budget 0.
    a = _adjacency(n, p, 0, False)
    want = (1 << n) - 1 if p == 1.0 else min(n, 1)
    assert max_clique_mask_oracle(a)[0] == want
    _assert_matches_reference(a)


def test_greedy_seed_far_below_the_clique():
    # A hub over 10 independent leaves, beside a K6: the greedy seed is the hub
    # and one leaf, so the search enters nodes whose clique outgrows ``best``.
    a = np.zeros((17, 17), dtype=bool)
    a[0, 1:11] = a[1:11, 0] = True
    a[11:, 11:] = True
    np.fill_diagonal(a, False)
    assert max_clique_mask_oracle(a)[0] == 0b111111 << 11
    _assert_matches_reference(a)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 40),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_max_clique_mask_matches_reference(n, p, seed, complement):
    _assert_matches_reference(_adjacency(n, p, seed, complement))
