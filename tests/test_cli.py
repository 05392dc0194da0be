"""CLI surface: exit codes, JSON shapes, checkpoints, ledger."""

import hashlib
import json
import os
import re
import select
import sys
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from radlab import cli, counting, search, verify
from radlab.cli import EXIT_INTERNAL, EXIT_INTERRUPT, EXIT_USAGE, EXIT_VIOLATION, main, verify_ledger
from radlab.conjectures import CHECKERS, VIOLATED, CheckReport
from radlab.core import CoeffVec
from radlab.counting import TailCounts
from radlab.errors import NoWitness

# sha256 of `radlab verify-paper --out` at the default seed
QUICK_SHA256 = "8b4eb017a3700c217d7c4b1e3950330ccb0149586fae7619715e41df89dffc39"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_seven_dim_extremal(self, capsys):
        code, out = run(capsys, "eval", "--vector", "1,1,1,1,1,1,0")
        assert code == 0
        obj = json.loads(out)
        assert obj["p_ge_norm"] == "7/32"
        assert obj["counts"] == {"below": 100, "at": 0, "above": 28}
        assert obj["class"] == "A"
        assert obj["engine"] == "gf"

    def test_counts_once(self, capsys, monkeypatch):
        # the class comes from the same count as the probabilities: one
        # call of the count kernel, which every engine's count goes through
        calls = []
        kernel = counting._tail_le
        monkeypatch.setattr(counting, "_tail_le", lambda *a: calls.append(a) or kernel(*a))
        code, out = run(capsys, "eval", "--vector", "2,2,1,1,1")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out) == {
            "vector": "2,2,1,1,1", "canonical": "2,2,1,1,1", "n": 5, "norm_sq": 11,
            "counts": {"below": 24, "at": 0, "above": 8},
            "p_lt_norm": "3/4", "p_le_norm": "3/4", "p_eq_norm": "0",
            "p_ge_norm": "1/4", "p_gt_norm": "1/4", "class": "A", "engine": "gf",
        }

    def test_engine_reports_fallback(self, capsys):
        code, out = run(capsys, "eval", "--vector", "1048576,1048575,999999,3")
        assert code == 0
        assert json.loads(out)["engine"] == "mitm"

    def test_internal_error_is_not_usage_error(self, capsys, monkeypatch):
        # a broken counting invariant is a bug: traceback and its own code
        monkeypatch.setattr(cli, "tail_counts", lambda *a, **k: TailCounts(3, 1, 0, 0))
        assert main(["eval", "--vector", "1,1,1"]) == EXIT_INTERNAL
        assert EXIT_INTERNAL not in (0, 1, EXIT_USAGE)
        err = capsys.readouterr().err
        assert "Traceback" in err and "counts 1+0+0 != 2^3" in err

    def test_rational_input_canonicalized(self, capsys):
        code, out = run(capsys, "eval", "--vector", "1/2,1/2,1/2,1/2")
        obj = json.loads(out)
        assert code == 0
        assert obj["canonical"] == "1,1,1,1"
        assert obj["p_eq_norm"] == "1/2"
        assert obj["class"] == "B"

    def test_zero_vector_exit_2(self, capsys):
        assert main(["eval", "--vector", "0,0"]) == 2

    def test_wide_rational_input_exit_2(self, capsys, prime_reciprocals_46):
        # lcm scaling makes ~270-bit entries whose tables fit no budget
        assert main(["eval", "--vector", prime_reciprocals_46]) == 2
        assert capsys.readouterr().err.startswith("error: n=46 with a 274-bit entry sum")

    def test_parse_failure_exit_2(self, capsys):
        assert main(["eval", "--vector", "1,x"]) == 2

    def test_distribution_stat(self, capsys):
        code, out = run(capsys, "eval", "--vector", "1,1", "--stats", "all")
        obj = json.loads(out)
        assert obj["distribution"] == [[-2, 1], [0, 2], [2, 1]]

    def test_distribution_beyond_n24(self, capsys):
        code, out = run(capsys, "eval", "--vector", ",".join(["1"] * 30), "--stats", "all")
        assert code == 0
        assert json.loads(out)["distribution"] == [[30 - 2 * k, comb(30, k)] for k in range(30, -1, -1)]

    def test_no_floats_in_report(self, capsys):
        _, out = run(capsys, "eval", "--vector", "2,2,1,1,1", "--stats", "all")

        def walk(x):
            assert not isinstance(x, float)
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(json.loads(out))

    @pytest.mark.parametrize("argv, prog, leftover", [
        (["eval", "--vector", "1,1", "--bogus"], "radlab eval", "--bogus"),
        (["--bogus", "eval", "--vector", "1,1"], "radlab", "--bogus"),
        # a stray token equal to the command name is still after the command
        (["eval", "--vector", "1,1", "eval"], "radlab eval", "eval"),
    ], ids=["after-command", "before-command", "command-name-repeated"])
    def test_unknown_flag_names_the_parser_it_reached(self, capsys, argv, prog, leftover):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: {prog} [-h]")
        assert err[-1] == f"{prog}: error: unrecognized arguments: {leftover}"


class TestCheck:
    def test_pairing(self, capsys):
        code, out = run(capsys, "check", "pairing", "--vector", "1,1,1")
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"

    def test_comb_fraction(self, capsys):
        code, out = run(capsys, "check", "comb", "--vector", "1,1,1")
        assert code == 0
        assert json.loads(out)["values"]["fraction"] == "3/4"

    def test_gprime_equality(self, capsys):
        code, out = run(capsys, "check", "gprime", "--vector", "2,2,2,1,1,1,1")
        obj = json.loads(out)
        assert code == 0
        assert obj["values"]["p_gt_norm"] == "7/32"
        assert obj["values"]["equality"] is True

    def test_delta_requires_value_or_sweep(self, capsys):
        assert main(["check", "delta", "--vector", "1,1"]) == 2
        assert main(["check", "delta", "--vector", "1,1", "--delta", "1"]) == 0
        assert main(["check", "delta-sweep", "--vector", "1,1"]) == 0
        # only the two delta predicates take a --delta
        assert main(["check", "tomaszewski", "--vector", "1,1", "--delta", "1/2"]) == 2
        assert main(["check", "delta-sweep", "--vector", "1,1", "--delta", "1"]) == 2
        assert main(["check", "delta", "--vector", "1,1", "--delta", "x"]) == 2
        assert main(["check", "delta-alt", "--vector", "1,1", "--delta", "1/0"]) == 2
        assert main(["check", "delta-alt", "--vector", "1,1"]) == 2

    def test_predicates_are_the_checkers(self):
        check = cli.build_parser()._subparsers._group_actions[0].choices["check"]
        predicate = next(a for a in check._actions if a.dest == "predicate")
        assert predicate.choices == list(CHECKERS)

    def test_pairing_too_large_exit_2(self, capsys):
        wide = ",".join(str((1 << 20) - 3 * i) for i in range(25))
        assert main(["check", "pairing", "--vector", wide]) == 2

    def test_hk_out_of_scope_still_exits_zero(self, capsys):
        code, out = run(capsys, "check", "hk", "--vector", "1,1,1,1,1,1,1,1")
        assert code == 0
        assert json.loads(out)["verdict"] == "out-of-scope"


class TestSearch:
    def test_exhaustive_stream(self, capsys, tmp_path):
        code, out = run(
            capsys, "search", "exhaustive", "--target", "G", "--n", "7", "--bound", "12",
            "--checkpoint", str(tmp_path / "ck.json"),
        )
        assert code == 0
        final = json.loads(out.strip().splitlines()[-1])
        assert final["kind"] == "final"
        assert final["best_value"] == "7/32"
        assert final["witness"] == "1,1,1,1,1,1,0"

    def test_random_mode(self, capsys, monkeypatch):
        monkeypatch.setenv("RADLAB_THREADS", "1")
        code, out = run(capsys, "search", "random", "--target", "T", "--n", "4",
                        "--trials", "50", "--seed", "3")
        assert code == 0
        final = json.loads(out.strip().splitlines()[-1])
        assert final["mode"] == "random" and final["seed"] == 3

    def test_negative_steps_exit_2(self, capsys):
        assert main(["search", "descent", "--target", "G", "--start", "2,2,1,1,1", "--steps", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: steps must be >= 0, got -5\n"
        code, out = run(capsys, "search", "descent", "--target", "G", "--start", "2,2,1,1,1", "--steps", "0")
        final = json.loads(out.strip().splitlines()[-1])
        assert code == 0 and final["bound"] == 0 and final["vectors_examined"] == 1

    def test_descent_mode(self, capsys):
        # the target is read in any case; n is the start vector's length
        code, out = run(capsys, "search", "descent", "--target", "g",
                        "--start", "1,1,1,1,1,1,0", "--steps", "5")
        assert code == 0
        final = json.loads(out.strip().splitlines()[-1])
        assert final["best_value"] == "7/32" and final["target"] == "G" and final["n"] == 7

    def test_resume_from_checkpoint_file(self, capsys, tmp_path):
        # a progress line every 25 vectors, each also written as the checkpoint
        ck = tmp_path / "ck.json"
        code, out = run(capsys, "search", "exhaustive", "--target", "G", "--n", "5", "--bound", "10",
                        "--progress-every", "25", "--checkpoint", str(ck))
        assert code == 0
        *progress, final = map(json.loads, out.strip().splitlines())
        assert [p.pop("kind") for p in progress] == ["progress"] * 3
        assert [p["examined"] for p in progress] == [25, 50, 75]
        assert final["vectors_examined"] == 86
        assert json.loads(ck.read_text()) == progress[-1]
        code, out = run(capsys, "search", "resume", str(ck), "--checkpoint", str(tmp_path / "ck2.json"))
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1]) == final

    @pytest.mark.parametrize("mode, argv", [
        ("exhaustive", ["--target", "G", "--n", "5", "--bound", "10"]),
        ("random", ["--target", "G", "--n", "5", "--trials", "5"]),
        ("descent", ["--target", "G", "--start", "1,1,1,1,1"]),
    ], ids=["exhaustive", "random", "descent"])
    def test_interrupt_names_only_a_written_checkpoint(self, capsys, tmp_path, monkeypatch, mode, argv):
        def interrupt(*args):
            raise KeyboardInterrupt

        # the sweep's one isqrt per vector, and the scorer of random and descent
        monkeypatch.setattr(search, "isqrt", interrupt)
        monkeypatch.setattr(search, "_tail_le", interrupt)
        monkeypatch.chdir(tmp_path)  # where a sweep writes its default checkpoint
        assert main(["search", mode, *argv]) == EXIT_INTERRUPT
        written = mode == "exhaustive"
        assert (tmp_path / "radlab-checkpoint.json").exists() == written
        assert ("checkpoint written to radlab-checkpoint.json" in capsys.readouterr().err) == written

    def test_falsified_exit_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(search, "_floor", lambda target, n: Fraction(1))
        assert main(["search", "exhaustive", "--target", "G", "--n", "3", "--bound", "5",
                     "--checkpoint", str(tmp_path / "ck.json")]) == EXIT_VIOLATION
        assert json.loads(capsys.readouterr().err)["kind"] == "falsified"

    @pytest.mark.parametrize("argv", [
        # the three combinations the single search namespace ran with flags dropped
        ["descent", "--target", "G", "--n", "9", "--start", "2,1,1"],
        ["resume", "ck.json", "--target", "T", "--n", "9", "--trials", "3"],
        ["random", "--target", "G", "--n", "5", "--trials", "5", "--bound", "3",
         "--start", "9,9", "--progress-every", "2"],
        # each flag that only another mode reads
        ["random", "--target", "G", "--n", "5", "--trials", "5", "--bound", "3"],
        ["random", "--target", "G", "--n", "5", "--trials", "5", "--start", "9,9"],
        ["random", "--target", "G", "--n", "5", "--trials", "5", "--progress-every", "2"],
        ["exhaustive", "--target", "G", "--n", "5", "--bound", "6", "--trials", "3"],
        ["exhaustive", "--target", "G", "--n", "5", "--bound", "6", "--entry-bound", "2"],
        ["descent", "--target", "G", "--start", "2,1,1", "--n", "9"],
        ["resume", "ck.json", "--target", "T"],
    ], ids=["descent-n-9", "resume-n-trials", "random-all", "random-bound", "random-start",
            "random-progress", "exhaustive-trials", "exhaustive-entry-bound", "descent-n", "resume-target"])
    def test_flags_of_another_mode_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["search", *argv])
        assert exc.value.code == 2
        # the message shows the usage of the mode that refused the flag
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: radlab search {argv[0]} [-h]")
        assert err[-1].startswith(f"radlab search {argv[0]}: error: unrecognized arguments: --")

    def test_missing_flags_exit_2(self, capsys):
        for argv in (["--target", "G"], ["exhaustive", "--target", "G", "--n", "5"],
                     ["random", "--target", "G", "--n", "5"], ["descent", "--target", "G"], ["resume"]):
            with pytest.raises(SystemExit) as exc:
                main(["search", *argv])
            assert exc.value.code == 2, argv

    def test_bad_search_input_exit_2(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        assert main(["search", "exhaustive", "--target", "X", "--n", "3", "--bound", "4"]) == 2
        assert main(["search", "random", "--target", "T", "--n", "3", "--trials", "0"]) == 2
        assert main(["search", "descent", "--target", "G", "--start", "1,x"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["search", "resume", str(bad), "--checkpoint", ck]) == 2
        # a best value that is no count over 2^5, and a 2-vector witness
        bad.write_text(json.dumps({"target": "G", "n": 5, "bound": 10, "cursor": [9, 1, 0, 0, 0],
                                   "best_value": "1/3", "witness": "1,1", "examined": 3}))
        assert main(["search", "resume", str(bad), "--checkpoint", ck]) == 2
        # a target that is no string, and a checkpoint that is no object
        for checkpoint in ({"target": 5, "n": 3, "bound": 5, "examined": 0}, [1]):
            bad.write_text(json.dumps(checkpoint))
            assert main(["search", "resume", str(bad), "--checkpoint", ck]) == 2

    @pytest.mark.parametrize("n", [64, 900, 1200])
    def test_oversized_sweep_exits_2_before_counting(self, capsys, tmp_path, monkeypatch, n):
        def spy(*args):
            raise AssertionError("canonical_count called")

        monkeypatch.setattr(search, "canonical_count", spy)
        ck = tmp_path / "ck.json"
        assert main(["search", "exhaustive", "--target", "G", "--n", str(n), "--bound", "3",
                     "--checkpoint", str(ck)]) == EXIT_USAGE
        ck.write_text(json.dumps({"target": "G", "n": n, "bound": 3, "examined": 0}))  # a fresh sweep
        assert main(["search", "resume", str(ck), "--checkpoint", str(tmp_path / "ck2.json")]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"dimension {n} exceeds cap 63") == 2

    @pytest.mark.parametrize("every", ["-3", "0"])
    def test_progress_every_below_one_exits_2(self, capsys, tmp_path, every):
        ck = tmp_path / "ck.json"
        argv = ["--progress-every", every, "--checkpoint", str(ck)]
        assert main(["search", "exhaustive", "--target", "G", "--n", "4", "--bound", "6", *argv]) == 2
        ck.write_text(json.dumps({"target": "G", "n": 4, "bound": 6, "examined": 0}))  # a fresh sweep
        assert main(["search", "resume", str(ck), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --progress-every must be >= 1, got {every}"] * 2

    @pytest.mark.skipif(not hasattr(select, "poll"), reason="a closed pipe is told by poll")
    def test_closed_stdout_exits_141_without_traceback(self, capsys, tmp_path, monkeypatch):
        # what `radlab search ... | head -3` meets once head has exited: a
        # pipe with no reader, whose writes raise BrokenPipeError
        reader, writer = os.pipe()
        os.close(reader)
        with open(writer, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            code = main(["search", "exhaustive", "--target", "G", "--n", "4", "--bound", "6",
                         "--progress-every", "3", "--checkpoint", str(tmp_path / "ck.json")])
            # now devnull, so that the flush at exit does not raise again
            assert os.path.samestat(os.fstat(writer), os.stat(os.devnull))
            monkeypatch.undo()
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_a_broken_pipe_elsewhere_is_a_bug(self, capsys, monkeypatch):
        # stdout is an open pipe, or has no descriptor: a BrokenPipeError
        # from anything else is an internal error, with its traceback
        def broken(*args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "hunt", broken)
        argv = ["hunt", "--predicate", "delta", "--n", "3", "--trials", "5"]
        assert main(argv) == EXIT_INTERNAL
        assert "BrokenPipeError" in capsys.readouterr().err
        reader, writer = os.pipe()
        with open(reader) as _, open(writer, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(argv) == EXIT_INTERNAL
            monkeypatch.undo()
        assert "BrokenPipeError" in capsys.readouterr().err

    def test_bad_thread_cap_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RADLAB_THREADS", "abc")
        assert main(["search", "random", "--target", "G", "--n", "3", "--trials", "5"]) == 2
        assert "RADLAB_THREADS" in capsys.readouterr().err


class TestHunt:
    def test_clean_run(self, capsys):
        code, out = run(
            capsys, "hunt", "--predicate", "tomaszewski", "--n", "2..5",
            "--trials", "200", "--seed", "7",
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["kind"] == "summary"
        assert summary["violations"] == 0
        assert summary["n"] == [2, 3, 4, 5]

    def test_single_dimension_syntax(self, capsys):
        code, out = run(
            capsys, "hunt", "--predicate", "pairing", "--n", "4",
            "--trials", "50", "--seed", "7",
        )
        assert code == 0

    def test_violation_lines_and_exit_1(self, capsys, monkeypatch):
        monkeypatch.setitem(search.CHECKERS, "pairing", lambda vec: CheckReport("pairing", vec, VIOLATED))
        code, out = run(capsys, "hunt", "--predicate", "pairing", "--n", "3", "--trials", "4")
        assert code == EXIT_VIOLATION
        *violations, summary = map(json.loads, out.strip().splitlines())
        assert [v["kind"] for v in violations] == ["violation"] * 4
        assert summary["violations"] == 4

    def test_bad_dimension_range_exit_2(self, capsys):
        assert main(["hunt", "--predicate", "pairing", "--n", "5..3"]) == 2
        assert main(["hunt", "--predicate", "pairing", "--n", "a..b"]) == 2

    def test_repeated_dimension_exit_2(self, capsys):
        # a dimension listed twice would evaluate its keys twice
        argv = ["hunt", "--predicate", "tomaszewski", "--n", "3,3", "--trials", "10", "--seed", "7"]
        assert main(argv) == EXIT_USAGE
        assert "dimension 3 is listed twice" in capsys.readouterr().err

    def test_oversized_dimension_exit_2_before_any_draw(self, capsys, monkeypatch):
        def no_draws(key):
            raise AssertionError(f"drew key {key!r}")

        monkeypatch.setattr(search, "Substream", no_draws)
        argv = ["hunt", "--predicate", "tomaszewski", "--n", "3,30000000", "--trials", "2"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: dimension 30000000 exceeds cap 63\n")

    def test_nothing_to_evaluate_exit_2(self, capsys):
        # each of these evaluates no vector, which is not a clean pass
        base = ["hunt", "--predicate", "tomaszewski", "--n", "3", "--trials", "40"]
        for extra in (["--entry-bound", "0"], ["--entry-bound", "-1"],
                      ["--trials", "0"], ["--n", "0"]):
            assert main(base + extra) == EXIT_USAGE, extra


class TestLedger:
    @pytest.mark.parametrize("flag, argv, work", [
        ("--out", ["eval", "--vector", "1,1,1"], "tail_counts"),
        ("--ledger", ["hunt", "--predicate", "tomaszewski", "--n", "3", "--trials", "5"], "hunt"),
        ("--checkpoint", ["search", "exhaustive", "--target", "G", "--n", "3", "--bound", "5",
                          "--progress-every", "1"], "exhaustive_integer_search"),
        ("--out", ["verify-paper"], "verify_paper"),
    ], ids=["out", "ledger", "checkpoint", "verify-paper"])
    def test_unwritable_path_exits_2(self, capsys, monkeypatch, tmp_path, flag, argv, work):
        calls = []
        monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
        # no directory, a file where the directory should be, a directory
        (tmp_path / "file").write_text("")
        for path, reason in ((tmp_path / "missing" / "dir" / "c.json", "No such file or directory"),
                             (tmp_path / "file" / "c.json", "Not a directory"),
                             (tmp_path, "Is a directory")):
            assert main([*argv, flag, str(path)]) == 2
            assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
        assert calls == [] and [f.name for f in tmp_path.iterdir()] == ["file"]

    def test_digest_matches_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        ledger = tmp_path / "ledger.jsonl"
        code, _ = run(
            capsys, "check", "gprime", "--vector", "2,2,1,1,1",
            "--out", str(report), "--ledger", str(ledger),
        )
        assert code == 0
        entries = verify_ledger(str(ledger))
        assert len(entries) == 1
        entry, ok = entries[0]
        assert ok
        assert entry["digest"] == hashlib.sha256(report.read_bytes()).hexdigest()

    def test_tamper_detected(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        ledger = tmp_path / "ledger.jsonl"
        run(capsys, "eval", "--vector", "1,1", "--out", str(report), "--ledger", str(ledger))
        report.write_bytes(report.read_bytes() + b" ")
        (entry, ok), = verify_ledger(str(ledger))
        assert not ok

    def test_append_only(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        run(capsys, "eval", "--vector", "1,1", "--ledger", str(ledger))
        run(capsys, "eval", "--vector", "1,1,1", "--ledger", str(ledger))
        assert len(verify_ledger(str(ledger))) == 2

    def test_arguments_are_the_argv_given(self, capsys, tmp_path, monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setattr(sys, "argv", ["radlab", "extra-host-arg"])
        argv = ["eval", "--vector", "1,1", "--ledger", str(ledger)]
        assert main(argv) == 0
        (entry, ok), = verify_ledger(str(ledger))
        assert entry["arguments"] == argv and entry["command"] == "eval"

    def test_jsonl_artifact_digest(self, capsys, tmp_path):
        out_file = tmp_path / "hunt.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        run(
            capsys, "hunt", "--predicate", "pairing", "--n", "3",
            "--trials", "20", "--seed", "1",
            "--out", str(out_file), "--ledger", str(ledger),
        )
        (entry, ok), = verify_ledger(str(ledger))
        assert ok and entry["report"] == str(out_file)


class TestVerifyPaperCommand:
    def test_quick_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "claims.json"
        code, out = run(capsys, "verify-paper", "--out", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["all_passed"] is True
        assert "PASS" in out
        assert hashlib.sha256(report.read_bytes()).hexdigest() == QUICK_SHA256
        # each pass logs its seconds on its first claim only
        lines = dict(re.findall(r"^PASS  ([\w-]+): .*\[(.*)\]$", out, re.M))
        assert len(lines) == len(obj["claims"])
        assert re.fullmatch(r"\d+\.\d\d s", lines["dim7-floor-sample"])
        assert lines["dim7-case-rule-sample"] == "in the dim7-floor-sample pass"
        assert lines["hunt-delta-empty"] == "in the hunt-tomaszewski-empty pass"

    def test_log_leaves_the_report_bytes(self, monkeypatch):
        passes = [[verify.ClaimResult("a", "one", True, {"k": 1})],
                  [verify.ClaimResult("b", "two", True), verify.ClaimResult("c", "three", False)]]
        monkeypatch.setattr(verify, "_claims", lambda full, seed: iter(passes))
        lines = []
        report = verify.verify_paper(log=lines.append)
        assert cli.canonical_json_bytes(report) == cli.canonical_json_bytes(verify.verify_paper())
        assert [re.sub(r"\d+\.\d\d s", "T", line) for line in lines] == [
            "PASS  a: one [T]", "PASS  b: two [T]", "FAIL  c: three [in the b pass]"]

    def test_empty_samples_fail(self):
        # a sampled claim that evaluated nothing is not a clean pass
        claims = [*verify._dim7_sample_claims(0, 7), verify._comb_random_claim(0, 7),
                  verify._pairing_claim(0, 7), verify._dominance_claims(1, 0, 10, 7)[2],
                  verify._crossval_claim(0, 0, 7)]
        assert [c.passed for c in claims] == [False] * 7

    @pytest.mark.parametrize("name, fake, claims", [
        ("tail_counts", lambda a, rho, side: TailCounts(7, 115, 0, 13),
         lambda: verify._dim7_sample_claims(3, 7)[:2]),
        ("combinatorial_fraction_gray", lambda a: SimpleNamespace(fraction=None),
         lambda: [verify._comb_random_claim(3, 7)]),
        # the claim decides with the pairing hunt's predicate, which reads CHECKERS
        ("pairing", lambda a: SimpleNamespace(violated=True), lambda: [verify._pairing_claim(1, 7)]),
        # every pair dominates: soundness fails; none does: completeness fails
        ("dominates", lambda s, t: True, lambda: verify._dominance_claims(1, 50, 6, 7)[2:]),
        ("dominates", lambda s, t: False, lambda: verify._dominance_claims(1, 50, 6, 7)[2:]),
        # any one of the three counts, wrong, fails the cross-check
        ("tail_counts_gf", lambda a, rho, side: None, lambda: [verify._crossval_claim(8, 0, 7)]),
        ("tail_counts_mitm", lambda a, rho, side: None, lambda: [verify._crossval_claim(8, 0, 7)]),
        ("_reference_counts", lambda a, rho, side: None, lambda: [verify._crossval_claim(8, 0, 7)]),
    ], ids=["dim7", "comb-random", "pairing", "dominance-sound", "dominance-complete",
            "crossval", "crossval-mitm", "crossval-reference"])
    def test_sampled_claim_fails_when_its_checker_disagrees(self, monkeypatch, name, fake, claims):
        if name in CHECKERS:
            monkeypatch.setitem(CHECKERS, name, fake)
        else:
            monkeypatch.setattr(verify, name, fake)
        assert {c.passed for c in claims()} == {False}

    def test_dim7_rule_failure_names_vector(self, monkeypatch):
        def no_witness(a, strict=False):
            raise NoWitness(str(a))

        monkeypatch.setattr(verify, "case_lemma_7", no_witness)
        rule = verify._dim7_sample_claims(3, 7)[2]
        _, first, _ = next(search.KeySchedule(7, "{seed}:dim7:{k}", ((7, 1),), 0, 50).draws())
        assert not rule.passed
        assert rule.to_json_dict()["details"]["first_failure"] == str(CoeffVec(first))

    def test_dim7_rule_is_one_call_per_sample(self, monkeypatch):
        # on one worker the sample is one pass in key order; on more, a
        # timing probe calls the rule again on ~16 samples
        monkeypatch.setenv("RADLAB_THREADS", "1")
        calls = []
        monkeypatch.setattr(verify, "case_lemma_7", lambda a, strict=False: calls.append(a))
        verify._dim7_sample_claims(300, 7)
        schedule = search.KeySchedule(7, "{seed}:dim7:{k}", ((7, 300),), 0, 50)
        assert calls == [CoeffVec(a) for _, a, _ in schedule.draws()]

    def test_dim7_strict_failure_names_first_positive_sample(self, monkeypatch):
        def strict_fails(a, strict=False):
            if strict:
                raise NoWitness(str(a))

        monkeypatch.setattr(verify, "case_lemma_7", strict_fails)
        rule = verify._dim7_sample_claims(50, 7)[2]
        schedule = search.KeySchedule(7, "{seed}:dim7:{k}", ((7, 50),), 0, 50)
        first = next(CoeffVec(a) for _, a, _ in schedule.draws() if a[6] > 0)
        assert not rule.passed
        assert rule.to_json_dict()["details"]["first_failure"] == str(first)

    def test_dim7_rule_does_not_hide_other_errors(self, monkeypatch):
        def broken(a, strict=False):
            raise ZeroDivisionError

        monkeypatch.setattr(verify, "case_lemma_7", broken)
        with pytest.raises(ZeroDivisionError):
            verify._dim7_sample_claims(3, 7)
