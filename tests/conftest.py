"""Fixtures shared by the test modules."""

import functools

import numpy as np
import pytest

from xpforge.groups import group_from_presentation
from xpforge.homology import schur_multiplier_bar
from xpforge.words import parse_presentation


@pytest.fixture(scope="session")
def bar_oracle():
    """The bar-resolution H2 of the group a presentation text presents,
    computed once per text and test session: each order-27 catalog group
    costs seconds, and both test_homology and acceptance criterion 01
    hold the other routes to it."""

    @functools.lru_cache(maxsize=None)
    def bar(text):
        return schur_multiplier_bar(group_from_presentation(parse_presentation(text)))

    return bar


def _unique_bfs(gen_cols, source=0):
    """shortlex_bfs as it was first written: each level's first
    discoveries from np.unique(..., return_index=True), put back in
    candidate order by a sort."""
    ngens = len(gen_cols)
    seen = np.zeros(gen_cols.shape[1], dtype=bool)
    seen[source] = True
    level = np.array([source], dtype=np.int32)
    levels = []
    while True:
        cand = gen_cols[:, level].T.ravel()
        fresh = np.flatnonzero(~seen[cand])
        if not fresh.size:
            return levels
        _, first = np.unique(cand[fresh], return_index=True)
        hit = fresh[np.sort(first)]
        found = cand[hit]
        seen[found] = True
        levels.append((found, level[hit // ngens], hit % ngens))
        level = found


@pytest.fixture(scope="session")
def unique_bfs():
    """The sorting BFS that coset.shortlex_bfs replaced, as its oracle."""
    return _unique_bfs
