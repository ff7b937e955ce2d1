"""The golden-number table: every row passes, one test id per row."""

import pytest

from thetablocks.goldens import GOLDENS, context


@pytest.fixture(scope="module")
def ctx():
    return context()


def test_names_are_unique():
    assert len({row.name for row in GOLDENS}) == len(GOLDENS) == 21


@pytest.mark.parametrize("row", GOLDENS, ids=lambda row: row.name)
def test_row(ctx, row):
    assert row.compute(ctx) == row.want
