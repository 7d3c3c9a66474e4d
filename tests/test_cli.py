"""Tests for the command-line front end."""

import json

import pytest

from repro.cli import build_parser, main


class TestDecideCQ:
    def test_determined(self, capsys):
        code = main([
            "decide", "cq", "--view", "R(x,y)", "--query", "R(x,y), R(u,v)",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DETERMINED" in out
        assert "rewriting" in out

    def test_not_determined_with_witness(self, capsys):
        code = main([
            "decide", "cq", "--view", "R(x,y), R(y,z)", "--query", "R(x,y)",
            "--witness",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOT DETERMINED" in out
        assert "witness verified: True" in out

    def test_parse_error_reported(self, capsys):
        code = main(["decide", "cq", "--query", "R(x,,y)"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestDecidePath:
    def test_determined(self, capsys):
        code = main([
            "decide", "path",
            "--view", "A.B.C", "--view", "B.C", "--view", "B.C.D",
            "--query", "A.B.C.D",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DETERMINED" in out
        assert "Theorem 1" in out

    def test_not_determined(self, capsys):
        code = main(["decide", "path", "--view", "B", "--query", "A"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOT DETERMINED" in out


class TestCertifyUCQ:
    def test_example3(self, capsys):
        code = main([
            "decide", "ucq",
            "--view", "P(x)", "--view", "P(x) or R(x)",
            "--query", "R(x)",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DETERMINED via linear identity" in out

    def test_no_certificate(self, capsys):
        code = main(["decide", "ucq", "--view", "P(x)", "--query", "R(x)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NO LINEAR CERTIFICATE" in out


class TestHilbert:
    def test_solvable(self, capsys):
        # negative coefficients need --monomial=... (argparse would
        # otherwise read "-1:y" as a flag)
        code = main([
            "hilbert", "--monomial", "1:x", "--monomial=-1:y",
            "--bound", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOT DETERMINED" in out

    def test_unsolvable(self, capsys):
        code = main([
            "hilbert", "--monomial", "1:x^2", "--monomial", "1:",
            "--bound", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "no counterexample" in out

    def test_monomial_syntax(self):
        from repro.cli import _parse_monomial

        m = _parse_monomial("-2:x^2*y")
        assert m.coefficient == -2
        assert m.degree("x") == 2
        assert m.degree("y") == 1
        constant = _parse_monomial("3:")
        assert constant.coefficient == 3
        assert constant.variables() == ()


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# Grouped command tree
# ----------------------------------------------------------------------
class TestGroupedCommands:
    def test_decide_cq(self, capsys):
        code = main(["decide", "cq", "--view", "R(x,y)",
                     "--query", "R(x,y), R(u,v)"])
        assert code == 0
        assert "DETERMINED" in capsys.readouterr().out

    def test_decide_path(self, capsys):
        code = main(["decide", "path", "--view", "B", "--query", "A"])
        assert code == 0
        assert "NOT DETERMINED" in capsys.readouterr().out

    def test_decide_ucq(self, capsys):
        code = main(["decide", "ucq", "--view", "P(x)",
                     "--view", "P(x) or R(x)", "--query", "R(x)"])
        assert code == 0
        assert "DETERMINED via linear identity" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["decide-cq", "--query", "R(x,y)"],
        ["decide-path", "--query", "A"],
        ["certify-ucq", "--query", "R(x)"],
        ["serve", "--workers", "2"],
        ["bench", "--json"],
        ["batch", "cache", "--cache", "x"],
    ])
    def test_flat_spellings_are_unknown_commands(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "required" in err

    def test_serve_start_has_no_strategy_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "start", "--strategy", "dp"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --strategy dp" in \
            capsys.readouterr().err


# ----------------------------------------------------------------------
# cache info / flush
# ----------------------------------------------------------------------
class TestCacheCommands:
    def test_info_then_flush_then_empty(self, tmp_path, capsys,
                                        write_v2_store):
        from repro.structures.generators import clique_structure, path_structure

        # A v2 single file migrates on its first open, `cache info`'s
        # included.
        cache_file = tmp_path / "homs.sqlite"
        write_v2_store(cache_file,
                       counts=[(path_structure(["R"]), clique_structure(2), 4)],
                       exists=[(path_structure(["R"]), clique_structure(2),
                                True)])

        assert main(["cache", "info", "--cache", str(cache_file)]) == 0
        out = capsys.readouterr().out
        assert "1 persisted hom counts" in out
        assert "1 existence verdicts" in out
        assert "8 shards" in out
        assert cache_file.is_dir()
        assert (tmp_path / "homs.sqlite.v2-backup").is_file()

        assert main(["cache", "flush", "--cache", str(cache_file)]) == 0
        assert "flushed 2 persisted answers" in capsys.readouterr().out

        assert main(["cache", "info", "--cache", str(cache_file)]) == 0
        assert "0 persisted hom counts" in capsys.readouterr().out

    def test_missing_file_is_an_error_not_an_empty_store(
            self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sqlite")
        for verb in ("info", "flush"):
            assert main(["cache", verb, "--cache", missing]) == 2
            assert "no such cache file" in capsys.readouterr().err


# ----------------------------------------------------------------------
# bench check (the regression gate as a CLI verb)
# ----------------------------------------------------------------------
class TestBenchCheck:
    @staticmethod
    def _report(path, seconds):
        path.write_text(json.dumps(
            {"suite": "repro-engine-bench", "repeat": 1,
             "workloads": {"w": {"thing_s": seconds}}}))

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        base, good, bad = (tmp_path / name for name in
                           ("base.json", "good.json", "bad.json"))
        self._report(base, 0.1)
        self._report(good, 0.11)
        self._report(bad, 9.9)
        assert main(["bench", "check", "--baseline", str(base),
                     "--current", str(good)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["bench", "check", "--baseline", str(base),
                     "--current", str(bad)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_unreadable_report_is_a_clean_error(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        self._report(base, 0.1)
        assert main(["bench", "check", "--baseline", str(base),
                     "--current", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err
