import gc
import hashlib
import itertools
import logging
import os
import weakref
from fractions import Fraction as F

import pytest

from thetablocks import fusion
from thetablocks.fusion import FusionTable, LevelOneTable, _affine_fold, _fusion_product_dbl
from thetablocks.rootsys import Weight, _dbl_rho
from thetablocks.weights import LevelError, sigma

from reference import tensor_product


def vector_rep_weights():
    return [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]


def adjoint_weights():
    w = [(0, 0), (0, 0)]
    for i, j in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        w.append((i, j))
    for v in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        w.append(v)
    return w


def sym2_traceless_weights():
    # V_(2,0) of so(5): Sym^2(vector) minus a trivial summand
    vec = vector_rep_weights()
    out = []
    for i in range(5):
        for j in range(i, 5):
            out.append((vec[i][0] + vec[j][0], vec[i][1] + vec[j][1]))
    out.remove((0, 0))
    return out


def d(text):
    """Doubled coordinates of a weight written in L-coordinates."""
    return Weight.parse(text).d


class TestTensor:
    """The Klimyk reference that the fusion rows are checked against."""

    def test_vector_square_so5(self):
        """Independent oracle: the weight multiset of V (x) V must equal the
        sum of the claimed components' (hand-derived) weight multisets."""
        w1 = d("1,0")
        assert tensor_product(w1, w1) == {d("0,0"): 1, d("1,1"): 1, d("2,0"): 1}
        convolution = {}
        for a in vector_rep_weights():
            for b in vector_rep_weights():
                k = (a[0] + b[0], a[1] + b[1])
                convolution[k] = convolution.get(k, 0) + 1
        rebuilt = {}
        for ws in ([(0, 0)], adjoint_weights(), sym2_traceless_weights()):
            for k in ws:
                rebuilt[k] = rebuilt.get(k, 0) + 1
        assert convolution == rebuilt
        assert 5 * 5 == 1 + 10 + 14

    def test_self_dual_vacuum(self):
        for coords in ("1,0", "1/2,1/2", "2,1", "5/2,1/2"):
            assert tensor_product(d(coords), d(coords))[(0, 0)] == 1

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_spin_square_components(self, r):
        """V_{omega_r} (x) V_{omega_r} = sum of Lambda^k: multiplicity one on
        {omega_0..omega_{r-1}, 2omega_r} and zero elsewhere."""
        wr = Weight.fundamental(r, r).d
        allowed = [Weight.fundamental(r, i) for i in range(r)]
        allowed.append(Weight(tuple([F(1)] * r)))
        assert tensor_product(wr, wr) == {w.d: 1 for w in allowed}


class TestFusion:
    def test_level_guard(self):
        w = Weight.parse("2,0")
        with pytest.raises(LevelError):
            FusionTable(2, 1).triple(w, w, w)
        # one weight above the level, in each of the three slots
        w1 = Weight.fundamental(2, 1)
        for slot in range(3):
            args = [w1, w1, w1]
            args[slot] = Weight.parse("9,0")
            with pytest.raises(LevelError):
                FusionTable(2, 3).triple(*args)
        w0, bad = Weight.zero(2), Weight.parse("3,1")
        for args in ((bad, w0, w0), (w0, bad, w0), (w0, w0, bad)):
            with pytest.raises(LevelError):
                LevelOneTable(2).triple(*args)

    def test_vacuum_column(self):
        t = FusionTable(2, 3)
        for a in t.weights():
            for b in t.weights():
                assert t.triple(a, b, Weight.zero(2)) == (1 if a == b else 0)

    def test_spin_fusion_r2_l3(self):
        s = Weight.parse("1/2,1/2")
        assert FusionTable(2, 3).triple(s, s, Weight.parse("1,1")) == 1

    def test_spin_diagonal_with_vector_is_one(self):
        # N(lam, lam, omega_1) = 1 for spin lam at level
        for r, ell in ((2, 5), (3, 7)):
            t = FusionTable(r, ell)
            w1 = Weight.fundamental(r, 1)
            for lam in t.weights():
                if not lam.is_so:
                    assert t.triple(lam, lam, w1) == 1, lam

    def test_sigma_equivariance_exhaustive(self):
        t = FusionTable(2, 5)
        ws = t.weights()
        for a, b in itertools.combinations_with_replacement(ws, 2):
            row = t.product(a, b)
            twisted = t.product(sigma(a, 5), sigma(b, 5))
            assert row == twisted, (a, b)

    def test_rank_mismatch_raises(self):
        w2, w3 = Weight.parse("1,0"), Weight.parse("1,0,0")
        t = FusionTable(3, 3)
        with pytest.raises(ValueError, match="expected rank 3"):
            t.triple(w3, w2, w3)
        for slot in range(3):
            args = [w3, w3, w3]
            args[slot] = w2
            with pytest.raises(ValueError, match="expected rank 3"):
                t.triple(*args)
        with pytest.raises(ValueError, match="expected rank 2"):
            LevelOneTable(2).triple(w2, w2, Weight.zero(3))
        with pytest.raises(ValueError, match="expected rank 3"):
            t.product(w2, w3)
        with pytest.raises(ValueError, match="expected rank 3"):
            t.dim_genus0([w3, w3, w2])

    def test_full_s3_symmetry(self):
        t = FusionTable(2, 3)
        ws = t.weights()
        for a, b, c in itertools.product(ws, repeat=3):
            n = t.triple(a, b, c)
            assert n == t.triple(b, a, c) == t.triple(a, c, b) == t.triple(c, b, a)


def two_step_row(a_d, b_d, r, ell):
    """Reference fusion row: the classical Klimyk product, then each
    component folded through the affine Weyl group on its own."""
    rho = _dbl_rho(r)
    k2 = 2 * (ell + 2 * r - 1)
    acc = {}
    for nu, m in tensor_product(a_d, b_d).items():
        folded = _affine_fold(tuple(x + y for x, y in zip(nu, rho)), k2)
        if folded is None:
            continue
        dom, sign = folded
        key = tuple(x - y for x, y in zip(dom, rho))
        acc[key] = acc.get(key, 0) + sign * m
    return {k: v for k, v in acc.items() if v}


class TestReferenceRows:
    @pytest.mark.parametrize("r, ell", [(2, 3), (2, 5), (3, 3), (3, 4)])
    def test_rows_match_two_step_reference(self, r, ell):
        t = FusionTable(r, ell)
        for a, b in itertools.combinations_with_replacement(t.weights(), 2):
            got = {nu.d: n for nu, n in t.product(a, b).items()}
            assert got == two_step_row(a.d, b.d, r, ell), (a, b)

    @pytest.mark.parametrize("r, ell", [(2, 3), (2, 5), (3, 3), (3, 4)])
    def test_simple_current_acts_on_rows(self, r, ell):
        """product(sigma a, b) = sigma product(a, b) for every ordered pair."""
        t = FusionTable(r, ell)
        for a, b in itertools.product(t.weights(), repeat=2):
            twisted = {sigma(nu, ell): n for nu, n in t.product(a, b).items()}
            assert t.product(sigma(a, ell), b) == twisted, (a, b)


class TestLevelOne:
    def test_rules(self):
        for d in (2, 3, 7):
            t = LevelOneTable(d)
            w0, w1, wd = t.weights()
            assert t.product(w1, w1) == {w0: 1}
            assert t.product(w1, wd) == {wd: 1}
            assert t.product(wd, wd) == {w0: 1, w1: 1}
            assert t.triple(w1, w1, w1) == 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_kac_walton(self, d):
        kw = FusionTable(d, 1)
        l1 = LevelOneTable(d)
        for a in l1.weights():
            for b in l1.weights():
                assert kw.product(a, b) == l1.product(a, b)

    def test_large_rank_level_one_blocks(self):
        t = LevelOneTable(17)
        w0, w1, wd = t.weights()
        assert t.dim_genus0([wd, wd, w1, w1]) == 1
        t = LevelOneTable(31)
        w0, w1, wd = t.weights()
        assert t.dim_genus0([wd, wd, w1]) == 1

    def test_level_one_three_point_spin(self):
        t = LevelOneTable(5)
        w0, w1, wd = t.weights()
        assert t.triple(wd, wd, w0) == 1
        assert t.triple(wd, wd, w1) == 1
        assert t.triple(wd, wd, wd) == 0


class TestGenus:
    def test_genus0_padding(self):
        t = FusionTable(2, 2)
        assert t.dim_genus0([]) == 1
        assert t.dim_genus0([Weight.zero(2)]) == 1
        assert t.dim_genus0([Weight.parse("1,0")]) == 0
        assert t.dim_genus0([Weight.parse("1,0"), Weight.parse("1,0")]) == 1

    def test_torus_counts_weights(self):
        for r, ell in ((2, 2), (2, 3), (3, 2)):
            t = FusionTable(r, ell)
            assert t.dim_genus_g(1, []) == len(t.weights())

    def test_level_one_closed_forms(self):
        # N_g(omega_1) on this table is a golden row; a 2n-tuple of spin
        # weights gives N_g = 2^(2g+n-1) here as on LevelOneTable: g = 1, n = 1
        t = FusionTable(2, 1)
        assert t.dim_genus_g(1, [Weight.fundamental(2, 2)] * 2) == 4

    def test_failure_example_sources(self):
        lam = Weight.parse("5/2,1/2")
        w1 = Weight.fundamental(2, 1)
        assert FusionTable(2, 7).dim_genus0([lam, lam, w1, w1]) == 4
        mu = Weight.parse("5/2,3/2,3/2")
        w1b = Weight.fundamental(3, 1)
        assert FusionTable(3, 5).dim_genus0([mu, mu, w1b, w1b]) == 5


class TestCache:
    def test_round_trip(self, tmp_path):
        t = FusionTable(2, 2, cache_dir=str(tmp_path))
        a, b = Weight.parse("1,0"), Weight.parse("1/2,1/2")
        row = t.product(a, b)
        t.save()
        path = t.cache_path
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "B 2 level 2 version 1"
        assert all(line.count("|") == 3 for line in lines[1:])
        assert lines[1:] == sorted(lines[1:])
        info = _fusion_product_dbl.cache_info()
        t2 = FusionTable(2, 2, cache_dir=str(tmp_path))
        assert len(t2._products) == 1
        assert t2.product(b, a) == row
        after = _fusion_product_dbl.cache_info()
        assert after.hits + after.misses == info.hits + info.misses  # not recomputed

    def test_full_table_file_and_reload(self, tmp_path):
        """The so(5) level-5 file is pinned byte for byte; a fresh table
        answers every row from it without computing any."""
        t = FusionTable(2, 5, cache_dir=str(tmp_path))
        pairs = list(itertools.combinations_with_replacement(t.weights(), 2))
        rows = {(a, b): t.product(a, b) for a, b in pairs}
        t.save()
        with open(t.cache_path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        assert sha == "c8e4c3b9d45f3b10ef8373fea57b30828cd13da8b88573c9c905ace3717fb5c6"
        info = _fusion_product_dbl.cache_info()
        t2 = FusionTable(2, 5, cache_dir=str(tmp_path))
        assert len(t2._products) == len(pairs)
        for (a, b), row in rows.items():
            assert t2.product(a, b) == row, (a, b)
        after = _fusion_product_dbl.cache_info()
        assert after.misses == info.misses
        assert after.hits == info.hits

    def test_interrupted_save_keeps_old_file(self, tmp_path, monkeypatch):
        t = FusionTable(2, 3, cache_dir=str(tmp_path))
        w = t.weights()
        t.product(w[1], w[1])
        t.save()
        with open(t.cache_path, "rb") as fh:
            before = fh.read()
        for a, b in itertools.combinations_with_replacement(w, 2):
            t.product(a, b)

        class DiskFull:
            """A file that takes half of the first write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("no space left on device")

        real_open = open
        monkeypatch.setattr(
            fusion, "open", lambda *a, **k: DiskFull(real_open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="no space left"):
            t.save()
        monkeypatch.undo()
        assert os.listdir(tmp_path) == [os.path.basename(t.cache_path)]
        with open(t.cache_path, "rb") as fh:
            assert fh.read() == before
        t2 = FusionTable(2, 3, cache_dir=str(tmp_path))
        assert len(t2._products) == 1

    def test_version_bump_invalidates(self, tmp_path):
        t = FusionTable(2, 2, cache_dir=str(tmp_path))
        t.product(Weight.parse("1,0"), Weight.parse("1,0"))
        t.save()
        with open(t.cache_path, "r+", encoding="utf-8") as fh:
            body = fh.read().replace("version 1", "version 0")
            fh.seek(0)
            fh.write(body)
            fh.truncate()
        t2 = FusionTable(2, 2, cache_dir=str(tmp_path))
        assert not t2._products

    @pytest.mark.parametrize(
        "bad_line",
        [
            "1,0|1,0|0,0",  # short line
            "1,0|1,0|9,9|1",  # weight above the level
            "1,0|1,0|1,0,0|1",  # weight of another rank
            "1,0|1,0|0,0|1.5",  # non-integer count
            "1,0|1,0|0,0|-1",  # negative count
        ],
    )
    def test_bad_line_ignores_the_file(self, tmp_path, caplog, bad_line):
        t = FusionTable(2, 3, cache_dir=str(tmp_path))
        pairs = list(itertools.combinations_with_replacement(t.weights(), 2))
        for a, b in pairs:
            t.product(a, b)
        t.save()
        with open(t.cache_path, "a", encoding="utf-8") as fh:
            fh.write(bad_line + "\n")
        with caplog.at_level(logging.WARNING, logger="thetablocks.fusion"):
            t2 = FusionTable(2, 3, cache_dir=str(tmp_path))
        assert not t2._products
        assert len(caplog.records) == 1
        assert "bad cache line" in caplog.records[0].getMessage()
        fresh = FusionTable(2, 3)
        for a, b in pairs:
            assert t2.product(a, b) == fresh.product(a, b), (a, b)
        t2.save()  # the next save replaces the bad file
        with open(t2.cache_path, encoding="utf-8") as fh:
            assert bad_line not in fh.read().splitlines()

    def test_table_dies_with_its_owner(self, tmp_path):
        """No module-level registry keeps a table alive."""
        for cache_dir in (None, str(tmp_path)):
            t = FusionTable(2, 3, cache_dir)
            t.dim_genus_g(1, [])
            ref = weakref.ref(t)
            del t
            gc.collect()
            assert ref() is None
