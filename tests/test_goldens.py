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
    """A FusionTable whose product rows read one more on every entry of one
    unordered triple."""

    def __init__(self, table, bad):
        self._table, self._bad = table, sorted(bad)

    def __getattr__(self, name):
        return getattr(self._table, name)

    def product(self, lam, mu):
        row = dict(self._table.product(lam, mu))
        for nu in self._table.weights():
            if sorted((lam, mu, nu)) == self._bad:
                row[nu] = row.get(nu, 0) + 1
        return row


def test_the_dual_oracle_names_exactly_the_wrong_triple(ctx):
    ws = ctx.table.weights()
    for bad in ((ws[0], ws[0], ws[0]), (ws[1], ws[2], ws[3]), (ws[-1],) * 3):
        got = _dual_oracle(Context(_OffByOne(ctx.table, bad), None))
        # one entry per way of splitting the triple into a row and an entry
        assert len(got) == len(set(bad))
        assert {tuple(sorted(entry[:3])) for entry in got} == {tuple(sorted(bad))}
        assert all(n == want + 1 for *_, n, want in got)
