"""The golden-number table: every row passes, one test id per row."""

import pytest

from thetablocks.goldens import GOLDENS, Context, _dual_oracle, context


@pytest.fixture(scope="module")
def ctx():
    return context()


def test_names_are_unique():
    assert len({row.name for row in GOLDENS}) == len(GOLDENS) == 21


@pytest.mark.parametrize("row", GOLDENS, ids=lambda row: row.name)
def test_row(ctx, row):
    assert row.compute(ctx) == row.want


class _OffByOne:
    """A FusionTable whose triple reads one more on one unordered triple."""

    def __init__(self, table, bad):
        self._table, self._bad = table, bad

    def __getattr__(self, name):
        return getattr(self._table, name)

    def triple(self, *t):
        return self._table.triple(*t) + (t == self._bad)


def test_the_dual_oracle_names_exactly_the_wrong_triple(ctx):
    ws = ctx.table.weights()
    for bad in ((ws[0], ws[0], ws[0]), (ws[1], ws[2], ws[3]), (ws[-1],) * 3):
        assert _dual_oracle(Context(_OffByOne(ctx.table, bad), None)) == (bad,)
