"""Fixtures shared by the test modules."""

import functools

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
