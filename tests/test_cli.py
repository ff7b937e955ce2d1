import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

import thetablocks
from thetablocks.cli import main
from thetablocks.fusion import FusionTable
from thetablocks.goldens import GOLDENS
from thetablocks.rootsys import Weight

from reference import want


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    """Keep the default cache directory out of the source checkout."""
    monkeypatch.chdir(tmp_path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv, "--json")
    return rc, json.loads(out)


class TestSubcommands:
    def test_dim_level_one(self, capsys):
        rc, blob = run_json(
            capsys, "dim", "--genus", "2", "--rank", "2", "--level", "1",
            "--weights", "1,0",
        )
        assert rc == 0
        assert blob["outputs"]["dim"] == want("N_2(omega_1")
        assert blob["command"] == "dim"
        assert blob["version"]

    def test_fusion_both_methods(self, capsys):
        rc, blob = run_json(
            capsys, "fusion", "--rank", "2", "--level", "3",
            "--weights", "1/2,1/2;1/2,1/2;1,1", "--method", "both",
        )
        assert rc == 0
        assert blob["outputs"]["N"] == 1
        assert blob["engine"] == "fusion+trig"

    def test_oxbury_genus14_equality_holds(self, capsys):
        rc, out = run(capsys, "oxbury", "--genus", "14", "--r", "3", "--s", "2")
        assert rc == 0
        assert "equal   : True" in out.splitlines()

    def test_dim_both_on_so7_level9(self, capsys):
        # the trig S-matrix of this ring crashed in mpmath.det
        rc, out = run(capsys, "dim", "--genus", "0", "--rank", "3", "--level", "9",
                      "--method", "both")
        assert rc == 0
        for line in ("dim     : 1", "dim_exact: 1", "dim_trig: 1"):
            assert line in out.splitlines()

    def test_dim_trig_past_the_str_digit_limit_of_its_bound(self, capsys):
        # the bound has more than 4300 digits, the answer 1596
        rc, out = run(capsys, "dim", "--genus", "2650", "--rank", "2", "--level", "1",
                      "--method", "trig")
        assert rc == 0
        assert f"dim     : {2 ** 2649 * (2 ** 2650 + 1)}" in out.splitlines()

    def test_dim_trig_at_rank_12(self, capsys):
        # each S entry a 12 x 12 determinant, which 12! terms would not finish
        rc, out = run(capsys, "dim", "--genus", "1", "--rank", "12", "--level", "1",
                      "--method", "trig", "--cache-dir", "")
        assert rc == 0
        assert "dim     : 3" in out.splitlines()

    def test_ranklevel_examples(self, capsys):
        for n in (1, 2, 3):
            rc, blob = run_json(capsys, "ranklevel", "--example", str(n))
            assert rc == 0
            o = blob["outputs"]
            got = (o["dim_source"], o["dim_target"], o["dim_level1"])
            assert got == want(f"rank-level failure example {n}:")

    def test_theta_counts(self, capsys):
        rc, blob = run_json(capsys, "theta-counts", "--genus", "2")
        assert rc == 0
        o = blob["outputs"]
        assert (o["total"], o["even"], o["odd"]) == want("theta counts g=2")

    def test_oxbury_check(self, capsys):
        rc, blob = run_json(capsys, "oxbury", "--genus", "2", "--r", "2", "--s", "2")
        assert rc == 0
        o = blob["outputs"]
        assert o["equal"] is True
        assert {o["lhs"], o["rhs"]} == want("Oxbury-Wilson N_2^0(so(5),5)")

    def test_branch_and_sewing(self, capsys):
        rc, blob = run_json(capsys, "branch", "--r", "2", "--s", "2", "--Lambda", "d")
        assert rc == 0
        assert blob["outputs"]["count"] == 12
        rc, blob = run_json(
            capsys, "sewing", "--r", "2", "--s", "3", "--Lambda", "1",
            "--weights", "1,0;1,0,0",
        )
        assert rc == 0
        assert blob["outputs"]["exponent"] == 0

    def test_ranklevel_matrix(self, capsys):
        rc, blob = run_json(
            capsys, "ranklevel-matrix", "--r", "2", "--s", "2", "--weights", "[1]"
        )
        assert rc == 0
        assert blob["outputs"]["determinant"] == "0"
        assert blob["outputs"]["determinant_zero"] is True

    def test_clifford_eval(self, capsys):
        rc, blob = run_json(
            capsys, "clifford-eval",
            "Psi(1 ; B{1,1;0,0}(-1)·v[2] ; B{0,0;1,1}(-1)·vopp[2])",
            "--r", "2", "--s", "2",
        )
        assert rc == 0
        assert blob["outputs"]["value"] == "-1/2"


class TestExitCodes:
    def test_parse_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--genus", "nope"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("method", ["exact", "trig", "both"])
    def test_negative_genus_is_1_under_every_method(self, capsys, method):
        rc = main(["dim", "--genus", "-1", "--rank", "2", "--level", "3",
                   "--weights", "1/2,1/2", "--method", method])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: genus must be >= 0\n"

    def test_unknown_subcommand_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_engine_error_is_1_on_bad_weight(self, capsys):
        rc = main(["dim", "--genus", "0", "--rank", "2", "--level", "1",
                   "--weights", "9,9"])
        assert rc == 1

    def test_rank_mismatch_is_1(self, capsys):
        rc = main(["fusion", "--rank", "3", "--level", "3",
                   "--weights", "1,0;1,0;0,0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has rank 2, expected rank 3" in captured.err

    @pytest.mark.parametrize("argv", [
        ["dim", "--genus", "1", "--rank", "2", "--level", "3", "--weights", "1,0,0",
         "--method", "trig"],
        ["fusion", "--rank", "2", "--level", "3", "--weights", "1,0;1,0;1,0,0",
         "--method", "trig"],
        ["sewing", "--r", "2", "--s", "3", "--Lambda", "1", "--weights", "1,0,0;1,0"],
    ], ids=["dim", "fusion", "sewing"])
    def test_rank_mismatch_is_1_in_trig_and_sewing(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 1,0,0 has rank 3, expected rank 2\n"

    @pytest.mark.parametrize("argv", [
        ["--rank", "2", "--level", "3", "--r", "2", "--s", "3"],
        ["--rank", "2", "--r", "2", "--s", "3"],
        ["--level", "3", "--s", "3"],
    ], ids=["all-four", "rank-r-s", "level-s"])
    def test_oxbury_mixed_forms_is_1(self, capsys, monkeypatch, argv):
        from thetablocks import verlinde

        def no_sum(*args):
            raise AssertionError("a sum ran although the arguments mix both forms")

        monkeypatch.setattr(verlinde, "n0_oxbury", no_sum)
        monkeypatch.setattr(verlinde, "oxbury_check", no_sum)
        with pytest.raises(SystemExit) as exc:
            main(["oxbury", "--genus", "2", *argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: oxbury takes --rank/--level or --r/--s, not both\n"

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_unprintable_result_is_1(self, capsys, flags):
        # 4^8000 has 4817 digits, past Python's default limit of 4300 for
        # converting an int to a string: rendering the report raises
        rc = main(["theta-counts", "--genus", "8000", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Exceeds the limit (4300 digits)")

    def test_genus_past_the_recursion_limit_is_1(self, capsys):
        # the exact engine recurses once per genus, two frames a level
        # (dim_genus_g and its sum's generator): genus 600 passes Python's
        # default recursion limit of 1000 frames
        rc = main(["dim", "--genus", "600", "--rank", "2", "--level", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: genus too deep for the exact engine's genus recursion\n"

    def test_engine_disagreement_is_2(self, capsys, monkeypatch):
        import thetablocks.verlinde

        monkeypatch.setattr(thetablocks.verlinde, "dim_trig", lambda *a, **k: 999)
        rc = main([
            "fusion", "--rank", "2", "--level", "1",
            "--weights", "1,0;1,0;0,0", "--method", "both",
        ])
        assert rc == 2

    def test_unreducible_is_3(self, capsys):
        # a mode -1 excitation with no operator handle cannot be reduced
        rc = main([
            "clifford-eval",
            "Psi(1 ; phi^{1,1}(-1)·v[] ; vopp[])",
            "--r", "2", "--s", "2",
        ])
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["clifford-eval", "Psi(1; v[]; vopp[])", "--r", "2", "--s", "-1"],
        ["clifford-eval", "Psi(1; v[]; vopp[])", "--r", "-1", "--s", "2"],
        ["ranklevel-matrix", "--weights", "[1]", "--r", "1", "--s", "2"],
        ["ranklevel-matrix", "--weights", "[]", "--r", "2", "--s", "1"],
    ])
    def test_out_of_domain_r_or_s_is_1(self, capsys, argv):
        rc = main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("expr", ["B{9,9;0,0}(-1)·v[2]", "phi^{9,9}(-1/2)·1"])
    def test_clifford_index_outside_the_grid_is_1(self, capsys, expr):
        rc = main(["clifford-eval", expr, "--r", "2", "--s", "2"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: index (9,9) out of range")

    @pytest.mark.parametrize("argv, name", [
        (["ranklevel-matrix", "--weights", "[]", "--r", "2", "--s", "1"], "s"),
        (["branch", "--r", "2", "--s", "1", "--Lambda", "0"], "s"),
        (["branch", "--r", "1", "--s", "2", "--Lambda", "0"], "r"),
        (["oxbury", "--genus", "2", "--r", "2", "--s", "1"], "s"),
        (["oxbury", "--genus", "2", "--r", "1", "--s", "2"], "r"),
    ])
    def test_rank_error_names_its_argument(self, capsys, argv, name):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: so(2{name}+1) requires {name} >= 2 (got {name}=1)" in err
        assert f"breaks at {name} = 1" in err

    def test_oxbury_rejects_s_before_any_sum(self, capsys, monkeypatch):
        from thetablocks import verlinde

        def no_sum(*args):
            raise AssertionError("n0_oxbury ran before the rank checks")

        monkeypatch.setattr(verlinde, "n0_oxbury", no_sum)
        assert main(["oxbury", "--genus", "2", "--r", "2", "--s", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: so(2s+1) requires s >= 2 (got s=0)")

    @pytest.mark.parametrize("expr", ["Psi(1; 1; 1)", "PsiTilde(1; v[]; vopp[])"])
    def test_off_ground_stratum_is_3_under_both_forms(self, capsys, expr):
        rc = main(["clifford-eval", expr, "--r", "2", "--s", "2"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("UNREDUCIBLE: ")


# stdout, stderr and exit code of `theta-blocks --help`, of `--help` for each
# subcommand and of three usage errors, recorded at 80 columns; the last
# passes the removed `--precision`, now an unrecognized argument
with open(os.path.join(os.path.dirname(__file__), "cli_surface.json"), encoding="utf-8") as _fh:
    PINNED_SURFACE = json.load(_fh)


class TestPinnedSurface:
    def test_covers_every_subcommand(self):
        from thetablocks.cli import SUBCOMMANDS

        helped = {r["argv"][0] for r in PINNED_SURFACE if r["argv"][1:] == ["--help"]}
        assert helped == {name for name, *_ in SUBCOMMANDS}

    @pytest.mark.parametrize("pinned", PINNED_SURFACE, ids=lambda r: " ".join(r["argv"]))
    def test_output_unchanged(self, capsys, monkeypatch, pinned):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(pinned["argv"])
        assert exc.value.code == pinned["exit"]
        captured = capsys.readouterr()
        assert captured.out == pinned["stdout"]
        assert captured.err == pinned["stderr"]


# sha256 of the 21 PASS lines and "all golden checks passed" that
# paper-check printed before its checks became the golden table; it pins the
# text without writing the golden numbers of thetablocks.goldens a second time
PAPER_CHECK_SHA256 = "9e409dc9ec2b0414af06a728f0bf0234b542c3390606d865eb0bcd22575a576d"


class TestPaperCheck:
    def test_cold_and_warm_stdout_pinned(self, capsys, tmp_path):
        argv = ["paper-check", "--cache-dir", str(tmp_path)]
        want_out = "".join(f"PASS  {row.name}\n" for row in GOLDENS)
        want_out += "all golden checks passed\n"
        saved = []
        for _cold_then_warm in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == want_out
            assert hashlib.sha256(out.encode()).hexdigest() == PAPER_CHECK_SHA256
            saved.append((tmp_path / "B2_level3.fusion.txt").read_bytes())
        assert saved[0] == saved[1]

    def test_a_failing_row_exits_2_and_saves_no_table(self, capsys, monkeypatch, tmp_path):
        from thetablocks import goldens

        first, second = GOLDENS[:2]
        failing = dataclasses.replace(second, want=second.want + 1)
        monkeypatch.setattr(goldens, "GOLDENS", (first, failing))
        with pytest.raises(SystemExit) as exc:
            main(["paper-check", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == (
            f"PASS  {first.name}\n"
            f"FAIL  {second.name}   [got {second.want}]\n"
            "1 golden check(s) FAILED\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_json_is_one_report(self, capsys, tmp_path):
        argv = ["paper-check", "--cache-dir", str(tmp_path), "--json"]
        assert main(argv) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["command"] == "paper-check"
        assert blob["outputs"] == {"passed": len(GOLDENS), "failed": []}
        assert (tmp_path / "B2_level3.fusion.txt").exists()

    def test_json_names_a_failing_row_and_exits_2(self, capsys, monkeypatch, tmp_path):
        from thetablocks import goldens

        first, second = GOLDENS[:2]
        failing = dataclasses.replace(second, want=second.want + 1)
        monkeypatch.setattr(goldens, "GOLDENS", (first, failing))
        with pytest.raises(SystemExit) as exc:
            main(["paper-check", "--cache-dir", str(tmp_path), "--json"])
        assert exc.value.code == 2
        blob = json.loads(capsys.readouterr().out)
        assert blob["outputs"] == {"passed": 1, "failed": [second.name]}
        assert list(tmp_path.iterdir()) == []


class TestCacheDeterminism:
    def test_cold_vs_warm_identical_json(self, capsys, tmp_path):
        argv = [
            "dim", "--genus", "0", "--rank", "2", "--level", "7",
            "--weights", "5/2,1/2;5/2,1/2;1,0;1,0",
            "--cache-dir", str(tmp_path), "--json",
        ]
        rc1, out_cold = run(capsys, *argv)
        assert rc1 == 0
        assert (tmp_path / "B2_level7.fusion.txt").exists()
        rc2, out_warm = run(capsys, *argv)
        assert rc2 == 0
        assert out_cold == out_warm
        assert json.loads(out_cold)["outputs"]["dim"] == 4

    def test_cache_file_stable_bytes(self, capsys, tmp_path):
        argv = [
            "fusion", "--rank", "2", "--level", "2",
            "--weights", "1,0;1,0;1,1", "--cache-dir", str(tmp_path),
        ]
        run(capsys, *argv)
        blob1 = (tmp_path / "B2_level2.fusion.txt").read_bytes()
        run(capsys, *argv)
        blob2 = (tmp_path / "B2_level2.fusion.txt").read_bytes()
        assert blob1 == blob2

    def test_bad_cache_line_is_ignored(self, capsys, caplog, tmp_path):
        argv = ["ranklevel", "--example", "1", "--cache-dir", str(tmp_path)]
        rc, cold = run(capsys, *argv)
        assert rc == 0
        path = tmp_path / "B2_level7.fusion.txt"
        bad = "this line is not a cache entry"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        rc, again = run(capsys, *argv)
        assert rc == 0
        assert again == cold
        assert "bad cache line" in caplog.text
        assert bad not in path.read_text(encoding="utf-8")  # saved afresh

    def test_a_warm_run_leaves_the_cache_files_untouched(self, capsys, monkeypatch, tmp_path):
        from thetablocks import fusion

        argv = ["ranklevel", "--example", "1", "--cache-dir", str(tmp_path)]
        rc, cold = run(capsys, *argv)
        assert rc == 0
        paths = sorted(tmp_path.iterdir())
        assert [p.name for p in paths] == ["B2_level7.fusion.txt", "B3_level5.fusion.txt"]
        before = []
        for path in paths:
            os.utime(path, ns=(10 ** 9, 10 ** 9))
            before.append(path.read_bytes())

        def no_write(*args):
            raise PermissionError("a warm run wrote its cache")

        monkeypatch.setattr(fusion.os, "replace", no_write)
        rc, warm = run(capsys, *argv)
        assert (rc, warm) == (0, cold)
        assert sorted(tmp_path.iterdir()) == paths
        for path, blob in zip(paths, before):
            assert path.read_bytes() == blob
            assert path.stat().st_mtime_ns == 10 ** 9

    @pytest.mark.parametrize("blob", [b"", b"B 2 level 2 version 0\n", b"B 2 level 2 version 1\nx\n",
                                      b"\xff\xfe", b"B 2 level 2 version 1\n\x80\n"],
                             ids=["empty", "other-version", "bad-line", "not-utf8", "bad-byte-line"])
    def test_a_rejected_file_is_rewritten_without_new_rows(self, tmp_path, blob):
        path = tmp_path / "B2_level2.fusion.txt"
        path.write_bytes(blob)
        table = FusionTable(2, 2, str(tmp_path))
        assert table._products == {}
        table.save()
        assert path.read_text(encoding="utf-8") == "B 2 level 2 version 1\n"

    @pytest.mark.parametrize("blob", [b"\xff\xfe", b"B 2 level 3 version 1\n\x80\n"],
                             ids=["not-utf8", "bad-byte-line"])
    def test_an_undecodable_file_is_read_as_absent(self, capsys, caplog, tmp_path, blob):
        """Every cache file a clean run writes, replaced by blob: the same
        stdout, exit 0, and the same bytes saved over it."""
        for argv in (["fusion", "--rank", "2", "--level", "3", "--weights", "1,0;1,0;1,1"],
                     ["paper-check"]):
            clean, dirty = tmp_path / argv[0] / "clean", tmp_path / argv[0] / "dirty"
            rc, want_out = run(capsys, *argv, "--cache-dir", str(clean))
            assert rc == 0
            names = sorted(p.name for p in clean.iterdir())
            dirty.mkdir()
            for name in names:
                (dirty / name).write_bytes(blob)
            caplog.clear()
            assert run(capsys, *argv, "--cache-dir", str(dirty)) == (0, want_out)
            assert caplog.text.count("undecodable cache file") == len(names)
            for name in names:
                assert (dirty / name).read_bytes() == (clean / name).read_bytes(), name

    def test_unusable_cache_dir_is_1(self, capsys, tmp_path):
        (tmp_path / "plain").write_text("")
        rc = main([
            "fusion", "--rank", "2", "--level", "2", "--weights", "1,0;1,0;1,1",
            "--cache-dir", str(tmp_path / "plain" / "sub"),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_each_invocation_saves_only_its_own_table(self, capsys, tmp_path):
        """A table opened elsewhere in the process is not re-saved over the
        rows a later invocation computed."""
        d = str(tmp_path)
        step1 = "1,0;1,0;0,0"
        step3 = "1/2,1/2;1/2,1/2;0,0"
        w = Weight.parse("1,1")

        def run_fusion(weights):
            argv = ["fusion", "--rank", "2", "--level", "3", "--weights", weights]
            assert main(argv + ["--cache-dir", d]) == 0

        run_fusion(step1)
        other = FusionTable(2, 3, d)
        other.product(w, w)
        other.save()
        run_fusion(step3)
        capsys.readouterr()
        want = FusionTable(2, 3)
        for weights in (step1, step3):
            want.dim_genus_g(0, [Weight.parse(x) for x in weights.split(";")])
        want.product(w, w)
        assert FusionTable(2, 3, d)._products == want._products


def _python(code: str, *flags: str, **kwargs) -> subprocess.CompletedProcess:
    """`code` run by a fresh interpreter, given the interpreter flags, that
    imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(thetablocks.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), **kwargs,
    )


def _modules_after(code: str, *flags: str) -> set:
    """The modules a fresh interpreter holds after running `code`."""
    proc = _python(code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))",
                   *flags, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded(modules: set, *packages: str) -> set:
    return {m for m in modules for p in packages if m == p or m.startswith(p + ".")}


class TestStartUp:
    """Start-up loads no engine: each subcommand imports what it uses."""

    ENGINES = (
        "thetablocks.fusion", "thetablocks.verlinde", "thetablocks.branching",
        "thetablocks.fock", "mpmath",
    )

    def test_import_and_parsing_load_no_engine(self):
        modules = _modules_after(
            "import thetablocks.cli\n"
            "parser = thetablocks.cli.build_parser()\n"
            "argv = ['dim', '--genus', '2', '--rank', '2', '--level', '1']\n"
            "assert parser.parse_args(argv).genus == 2\n"
            "assert parser.parse_args(['paper-check']).cache_dir"
        )
        assert "thetablocks.cli" in modules
        assert _loaded(modules, "thetablocks.goldens", *self.ENGINES) == set()

    def test_the_golden_table_loads_no_engine(self):
        modules = _modules_after(
            "from thetablocks.goldens import GOLDENS\n"
            "assert len(GOLDENS) == 21"
        )
        assert _loaded(modules, *self.ENGINES) == set()

    def test_theta_counts_loads_no_engine(self):
        modules = _modules_after(
            "from thetablocks.cli import main\n"
            "assert main(['theta-counts', '--genus', '2']) == 0"
        )
        assert "thetablocks.common" in modules
        assert _loaded(modules, *self.ENGINES, "thetablocks.rootsys") == set()

    @pytest.mark.parametrize("argv", [
        ["branch", "--r", "2", "--s", "3", "--Lambda", "1"],
        ["sewing", "--r", "2", "--s", "3", "--Lambda", "1", "--weights", "1,0;1,0,0"],
    ], ids=["branch", "sewing"])
    def test_branch_and_sewing_load_no_fusion(self, argv):
        modules = _modules_after(
            "from thetablocks.cli import main\n"
            f"assert main({argv!r}) == 0"
        )
        assert "thetablocks.branching" in modules
        assert _loaded(modules, "thetablocks.fusion", "thetablocks.verlinde",
                       "thetablocks.fock", "mpmath") == set()

    @pytest.mark.parametrize("argv", [
        ["oxbury", "--genus", "2", "--r", "2", "--s", "3"],
        ["oxbury", "--genus", "3", "--rank", "2", "--level", "5"],
    ])
    def test_the_oxbury_sums_load_no_mpmath(self, argv):
        modules = _modules_after(
            "from thetablocks.cli import main\n"
            f"assert main({argv!r}) == 0"
        )
        assert "thetablocks.verlinde" in modules
        assert _loaded(modules, "mpmath") == set()

    def test_paper_check_loads_neither_mpmath_nor_typing(self, tmp_path):
        # -S: without site nothing loads typing before the program does
        modules = _modules_after(
            "from thetablocks.cli import main\n"
            f"assert main(['paper-check', '--cache-dir', {str(tmp_path)!r}]) == 0",
            "-S",
        )
        assert "thetablocks.verlinde" in modules
        assert _loaded(modules, "mpmath", "typing") == set()

    def test_importing_the_engines_builds_no_weight(self):
        # every Weight passes Weight._admit, whichever constructor made it
        proc = _python(
            "from thetablocks import rootsys\n"
            "admit, built = rootsys.Weight._admit, []\n"
            "def counted(self, *args):\n"
            "    built.append(args[1])\n"
            "    admit(self, *args)\n"
            "rootsys.Weight._admit = counted\n"
            "import thetablocks.branching, thetablocks.verlinde\n"
            "import thetablocks.weights, thetablocks.fock\n"
            "print(len(built))\n"
            "rootsys.Weight.parse('1,0')\n"
            "rootsys.Weight.from_dbl((1, 1))\n"
            "print(len(built))",
            check=True,
        )
        assert proc.stdout.split() == ["0", "2"]

    def test_the_trig_sum_loads_mpmath(self):
        modules = _modules_after(
            "from thetablocks.cli import main\n"
            "argv = ['dim', '--genus', '3', '--rank', '2', '--level', '3', '--method', 'trig']\n"
            "assert main(argv) == 0"
        )
        assert "mpmath" in modules


class TestExitFreeze:
    """`main` has the heap frozen at exit, so the interpreter's final
    collections walk nothing; it freezes nothing while its caller runs."""

    def test_in_process_main_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert main(["theta-counts", "--genus", "2"]) == 0
        assert gc.get_freeze_count() == before

    def test_a_process_exits_frozen_with_its_report_and_cache(self, capsys, tmp_path):
        argv = ["ranklevel", "--example", "1"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        (tmp_path / "proc").mkdir()
        # a hook registered before main runs after main's own
        proc = _python(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0))\n"
            "from thetablocks.cli import main\n"
            f"sys.exit(main({argv!r}))",
            cwd=tmp_path / "proc",
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == report + "frozen at exit: True\n"
        cache = tmp_path / ".theta-blocks-cache"
        files = sorted(f.name for f in cache.iterdir())
        assert files
        for name in files:
            left = tmp_path / "proc" / ".theta-blocks-cache" / name
            assert left.read_bytes() == (cache / name).read_bytes()
