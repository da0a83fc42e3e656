"""Command-line interface: subcommands, outputs, and exit codes."""
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from tangleca import automaton, cli, compiler, corpusgen, difftest, tangle

from conftest import CORPUS_DIR


def case(name):
    return (str(CORPUS_DIR / (name + ".asml")),
            str(CORPUS_DIR / (name + ".state")))


def run_main(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestInterpret:
    def test_terminal_case(self, capsys):
        prog, state = case("02-counter")
        code, out, _ = run_main(["interpret", prog, state], capsys)
        assert code == 0
        assert "outcome terminal after" in out
        assert out.startswith("term cnt =")

    def test_empty_choice_reported(self, capsys):
        prog, state = case("12-empty-choice")
        code, out, _ = run_main(["interpret", prog, state], capsys)
        assert code == 0
        assert "outcome empty-choice" in out

    def test_default_state_all_empty(self, capsys):
        prog, _ = case("02-counter")
        code, out, _ = run_main(["interpret", prog], capsys)
        # cnt = lim = {} from the start, so the guard fails immediately
        assert code == 0
        assert "after 0 steps" in out

    def test_budget_exit_code(self, capsys):
        prog, state = case("02-counter")
        code, out, _ = run_main(
            ["interpret", prog, state, "--max-steps", "1"], capsys)
        assert code == 3
        assert "step-budget-exhausted" in out


class TestCompile:
    def test_stdout_ruleset(self, capsys):
        prog, _ = case("02-counter")
        code, out, _ = run_main(["compile", prog], capsys)
        assert code == 0
        assert out.startswith("ruleset")
        assert "rule " in out

    def test_output_file(self, tmp_path, capsys):
        prog, _ = case("02-counter")
        target = tmp_path / "counter.rules"
        code, out, _ = run_main(["compile", prog, "-o", str(target)],
                                capsys)
        assert code == 0
        assert "rules ->" in out
        assert target.read_text().startswith("ruleset")

    def test_negative_edges_flag(self, capsys):
        prog, _ = case("02-counter")
        code, out, _ = run_main(
            ["compile", prog, "--negative-edges"], capsys)
        assert code == 0
        assert out.startswith("ruleset")
        # negated scan guards serialize as "neg" lines in this mode
        assert any(line.strip().startswith("neg ")
                   for line in out.splitlines())


class TestSimulate:
    def test_final_state_and_phases(self, capsys):
        prog, state = case("03-accumulate")
        code, out, _ = run_main(
            ["simulate", prog, state, "--check-invariants"], capsys)
        assert code == 0
        assert "outcome terminal after" in out
        assert "term acc =" in out
        # per-phase tick accounting is printed after the outcome line
        phases = {line.split()[1] for line in out.splitlines()
                  if line.startswith("phase ")}
        assert phases == {"boot", "conditional", "singleton", "union-check",
                          "union-build", "commit", "cleanup"}

    def test_trace_file(self, tmp_path, capsys):
        prog, state = case("02-counter")
        target = tmp_path / "run.trace"
        code, out, _ = run_main(
            ["simulate", prog, state, "--trace", str(target)], capsys)
        assert code == 0
        text = target.read_text()
        assert "tick" in text

    def test_trace_file_keeps_invariant_checks(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(tangle, "check_invariants",
                            lambda g, universe=None, memo=None:
                            ["planted violation"])
        prog, state = case("02-counter")
        code, _, err = run_main(
            ["simulate", prog, state, "--trace", str(tmp_path / "t"),
             "--check-invariants"], capsys)
        assert code == cli.INVARIANT
        assert "planted violation" in err

    def test_dot_snapshots(self, tmp_path, capsys, monkeypatch):
        prog, state = case("02-counter")
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_main(
            ["simulate", prog, state, "--dot-every", "5",
             "--dot-prefix", "snap"], capsys)
        assert code == 0
        dots = sorted(tmp_path.glob("snap-*.dot"))
        assert dots
        assert "digraph" in dots[0].read_text()

    def test_dot_snapshots_with_trace(self, tmp_path, capsys, monkeypatch):
        prog, state = case("02-counter")
        dots = {}
        for sub, extra in (("plain", []), ("traced", ["--trace", "t.txt"])):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            code, _, _ = run_main(
                ["simulate", prog, state, "--dot-every", "5",
                 "--dot-prefix", "snap"] + extra, capsys)
            assert code == 0
            dots[sub] = {p.name: p.read_text()
                         for p in (tmp_path / sub).glob("snap-*.dot")}
        assert dots["plain"]
        assert dots["traced"] == dots["plain"]

    def test_stats_json(self, tmp_path, capsys):
        prog, state = case("03-accumulate")
        target = tmp_path / "stats.json"
        code, out, _ = run_main(
            ["simulate", prog, state, "--stats-json", str(target)], capsys)
        assert code == 0
        stats = json.loads(target.read_text())
        assert set(stats) == {"total", "matches", "settled", "idle_checks",
                              "fallbacks", "redecoded", "phases", "rules",
                              "rounds", "max_round_ticks"}
        assert "outcome terminal after %d ticks" % stats["total"] in out
        # a round per interpreter step, then one that fires nothing
        _code, interpreted, _ = run_main(["interpret", prog, state], capsys)
        steps = int(re.search(r"after (\d+) steps", interpreted).group(1))
        assert stats["rounds"] == steps + 1
        assert 0 < stats["max_round_ticks"] < stats["total"]
        # every tick applies one of the pairs the kernel returned
        assert stats["matches"] >= stats["total"]
        assert sum(stats["rules"].values()) == stats["total"]
        phases = {}
        for name, ticks in stats["rules"].items():
            phase = name.split(":", 1)[0]
            phases[phase] = phases.get(phase, 0) + ticks
        assert stats["phases"] == phases
        # the printed per-phase lines carry the same counts
        for phase, ticks in phases.items():
            assert "phase %s %d\n" % (phase, ticks) in out
        assert len(stats["rules"]) > len(phases)

    def test_stats_json_on_budget_exhaustion(self, tmp_path, capsys):
        prog, state = case("03-accumulate")
        target = tmp_path / "stats.json"
        code, _, _ = run_main(
            ["simulate", prog, state, "--max-ticks", "3",
             "--stats-json", str(target)], capsys)
        assert code == cli.EXHAUSTED
        stats = json.loads(target.read_text())
        assert stats["total"] == 3
        assert sum(stats["phases"].values()) == 3

    def test_stats_json_on_invariant_violation(self, tmp_path, capsys,
                                               monkeypatch):
        # every checked tick after the first runs _check
        checked = []

        def planted(*args):
            checked.append(args)
            return ["planted violation"] if len(checked) == 5 else []

        monkeypatch.setattr(automaton, "_check", planted)
        target = tmp_path / "stats.json"
        code, _, err = run_main(
            ["simulate", *case("02-counter"), "--check-invariants",
             "--stats-json", str(target)], capsys)
        assert code == cli.INVARIANT
        tick = int(re.fullmatch(r"invariant violation: tick (\d+): "
                                r"planted violation\n", err).group(1))
        stats = json.loads(target.read_text())
        assert stats["total"] == tick == 5
        assert sum(stats["rules"].values()) == tick

    def test_random_mode(self, capsys):
        prog, state = case("03-accumulate")
        code, out, _ = run_main(
            ["simulate", prog, state, "--random", "--seed", "7"], capsys)
        assert code == 0
        assert "outcome terminal" in out

    def test_tick_budget_exit_code(self, capsys):
        prog, state = case("03-accumulate")
        code, out, _ = run_main(
            ["simulate", prog, state, "--max-ticks", "3"], capsys)
        assert code == 3
        assert "budget" in out


# sha256 over every output of `simulate --check-invariants --trace
# --dot-every 25 --stats-json` (stdout, exit code, trace, .dot files and
# stats JSON) on a union, a singleton, a location-write and a choice
# case, each in three schedule and edge modes.  The stats JSON is hashed
# without its "matches" and "settled" counts, which it gained after the
# digest was recorded; they are pinned by SIMULATE_MATCHES and
# SIMULATE_SETTLED (random schedules settle no tick).  Its later
# "idle_checks", "fallbacks" and "redecoded" counts are left out the
# same way and pinned by SIMULATE_IDLE_CHECKS (one per tick that ends at
# an idle color), SIMULATE_FALLBACKS (no idle check needs the full walk)
# and SIMULATE_REDECODED (the nodes the idle checks decode again), and
# its "rounds" and "max_round_ticks" by SIMULATE_ROUNDS and
# SIMULATE_MAX_ROUND_TICKS (a round per ASM step, then a last round that
# fires nothing).  The digest, matches and settled counts were
# re-recorded when the wind-down chain was folded into the cleanup
# chain, which renamed rules in the traces but left stdout and tick
# counts as they were, and again when each run of same-condition stages
# got one guard and each run of commits one decide stage, which removed
# guard and decide ticks from the traces and stats, and again when the
# empty set became a plain set and a decide fire began to enter its
# commit run past the run's guard, which removed empty-set stages and
# commit guard ticks, and again when cleanup began to drop a path
# condition's registers and bits in grouped ticks, which removed cleanup
# ticks, and again (with SIMULATE_MAX_ROUND_TICKS) when critical terms,
# atoms and {} began to be read where they sit instead of copied into
# registers, which removed those copy ticks, and again when a guard
# began to emit only its satisfying rows plus one bare-focus skip rule,
# which renamed skip ticks in the traces and added the skip rule's pair
# to the matches of each satisfying guard tick, but changed no tick; the
# idle checks and rounds did not change.  The digest and settled counts
# were re-recorded again when the decide chain was deleted and commit
# guards began to mark the round, and cleanup rules began to bind bits
# as pooled marker cells: decide ticks became commit guard ticks and
# drop rules were renamed, and one more tick of each deterministic run
# is settled by the final table, but no tick or match count changed.
SIMULATE_CASES = ("04-union-reuse", "06-singleton-nest", "08-location-table",
                  "11-choice-collapse")
SIMULATE_MODES = ([], ["--negative-edges"],
                  ["--random", "--seed", "3", "--negative-edges"])
SIMULATE_DIGEST = (
    "b070c3b6b0d4d0d350204bc919684f04651abd78988d4e54ba5e3e2a870f3eaf")
SIMULATE_MATCHES = [92, 92, 52, 33, 33, 33, 53, 53, 53, 54, 54, 55]
SIMULATE_SETTLED = [47, 47, 0, 20, 20, 0, 38, 38, 0, 31, 32, 0]
SIMULATE_IDLE_CHECKS = [3, 3, 3, 3, 3, 3, 4, 4, 4, 3, 3, 3]
SIMULATE_FALLBACKS = [0] * 12
SIMULATE_REDECODED = [0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 1, 1]
SIMULATE_ROUNDS = [2, 2, 2, 2, 2, 2, 3, 3, 3, 2, 2, 2]
SIMULATE_MAX_ROUND_TICKS = [44, 44, 23, 17, 17, 17, 18, 18, 18, 28, 28, 28]


def test_simulate_outputs_pinned(tmp_path, capsys, monkeypatch):
    digest = hashlib.sha256()
    matches = []
    settled = []
    idle_checks = []
    fallbacks = []
    redecoded = []
    rounds = []
    max_round_ticks = []
    for name in SIMULATE_CASES:
        for mode in SIMULATE_MODES:
            run_dir = tmp_path / ("%s%d" % (name, len(mode)))
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            argv = (["simulate", *case(name), "--check-invariants",
                     "--trace", "run.trace", "--dot-every", "25",
                     "--stats-json", "stats.json"] + mode)
            code, out, err = run_main(argv, capsys)
            assert err == ""
            digest.update(("%s %s exit %d\n" % (name, " ".join(mode), code))
                          .encode())
            digest.update(out.encode())
            for path in sorted(run_dir.iterdir()):
                digest.update(("== %s\n" % path.name).encode())
                data = path.read_bytes()
                if path.name == "stats.json":
                    stats = json.loads(data)
                    matches.append(stats.pop("matches"))
                    settled.append(stats.pop("settled"))
                    idle_checks.append(stats.pop("idle_checks"))
                    fallbacks.append(stats.pop("fallbacks"))
                    redecoded.append(stats.pop("redecoded"))
                    rounds.append(stats.pop("rounds"))
                    max_round_ticks.append(stats.pop("max_round_ticks"))
                    data = (json.dumps(stats, indent=2, sort_keys=True)
                            + "\n").encode()
                digest.update(data)
    assert digest.hexdigest() == SIMULATE_DIGEST
    assert matches == SIMULATE_MATCHES
    assert settled == SIMULATE_SETTLED
    assert idle_checks == SIMULATE_IDLE_CHECKS
    assert fallbacks == SIMULATE_FALLBACKS
    assert redecoded == SIMULATE_REDECODED
    assert rounds == SIMULATE_ROUNDS
    assert max_round_ticks == SIMULATE_MAX_ROUND_TICKS


class TestDifftest:
    def test_generated_cases_agree(self, capsys):
        code, out, _ = run_main(
            ["difftest", "--count", "3", "--seed", "5"], capsys)
        assert code == 0
        assert "3/3 cases agree" in out

    def test_choice_cases_agree(self, capsys):
        code, out, _ = run_main(
            ["difftest", "--count", "2", "--seed", "5", "--only-choice"],
            capsys)
        assert code == 0
        assert "2/2 cases agree" in out

    def test_no_acceptable_case_exits_3(self, capsys, monkeypatch):
        def no_case(*args, **kwargs):
            raise corpusgen.GenLimit("no acceptable case in 2000 attempts")

        monkeypatch.setattr(corpusgen, "generate_case", no_case)
        code, out, err = run_main(["difftest", "--count", "1"], capsys)
        assert code == cli.EXHAUSTED
        assert out == ("stopped before case000: no acceptable case in "
                       "2000 attempts\n0/0 cases agree\n")
        assert err == ""

    def _cases_then_limit(self, monkeypatch, cases):
        real = corpusgen.generate_case
        calls = []

        def some_cases(*args, **kwargs):
            calls.append(None)
            if len(calls) > cases:
                raise corpusgen.GenLimit("no acceptable case in 2000 "
                                         "attempts")
            return real(*args, **kwargs)

        monkeypatch.setattr(corpusgen, "generate_case", some_cases)

    def test_limit_after_agreeing_cases_summarises_them(self, capsys,
                                                        monkeypatch):
        self._cases_then_limit(monkeypatch, 2)
        code, out, err = run_main(
            ["difftest", "--count", "5", "--seed", "5"], capsys)
        assert code == cli.EXHAUSTED
        lines = out.splitlines()
        assert [ln.split()[:2] for ln in lines[:2]] == [
            ["ok", "case000"], ["ok", "case001"]]
        assert lines[2:] == [
            "stopped before case002: no acceptable case in 2000 attempts",
            "2/2 cases agree"]
        assert err == ""

    def test_limit_after_a_disagreement_exits_1(self, capsys, monkeypatch):
        self._cases_then_limit(monkeypatch, 1)
        monkeypatch.setattr(difftest, "run_case",
                            lambda *args, label, **kwargs: difftest.CaseResult(
                                label, ["%s: planted" % label], 0))
        code, out, _ = run_main(["difftest", "--count", "3", "--seed", "5"],
                                capsys)
        assert code == cli.FAIL
        assert out.splitlines()[-2:] == [
            "stopped before case001: no acceptable case in 2000 attempts",
            "0/1 cases agree"]

    def test_invariant_violation_is_a_failed_case(self, capsys, monkeypatch):
        monkeypatch.setattr(automaton, "_check",
                            lambda *args: ["planted violation"])
        code, out, err = run_main(
            ["difftest", "--count", "2", "--seed", "5"], capsys)
        assert code == cli.FAIL
        fails = [ln for ln in out.splitlines() if ln.startswith("FAIL ")]
        for case_label in ("case000", "case001"):
            for schedule in ("deterministic/0", "random/1", "random/2"):
                assert any(re.fullmatch(
                    r"FAIL %s\[%s\]: invariant violation at tick \d+: "
                    r"planted violation" % (case_label, schedule), ln)
                    for ln in fails), (case_label, schedule)
        assert out.endswith("0/2 cases agree\n")
        assert "Traceback" not in out + err


class TestBench:
    def test_pair_family(self, capsys):
        code, out, _ = run_main(["bench", "pair"], capsys)
        assert code == 0
        assert "pair" in out and "ok" in out
        assert "kernel: python" in out.splitlines()

    def test_overhead_family_reports_the_peak_round_ratio(self, capsys):
        code, out, _ = run_main(["bench", "overhead"], capsys)
        assert code == 0
        m = re.search(r"round ticks/nodes\^2 <= (\d+\.\d+)\)", out)
        assert m and float(m.group(1)) > 0

    def test_unknown_family(self, capsys):
        code, _, err = run_main(["bench", "nosuch"], capsys)
        assert code == 2
        assert "unknown benchmark family" in err


class TestBadInput:
    def test_missing_file(self, capsys):
        code, _, err = run_main(["interpret", "/nonexistent.asml"], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.asml"
        bad.write_text("criticals t\nt := garbage :=\n")
        code, _, err = run_main(["interpret", str(bad)], capsys)
        assert code == 2
        assert "error" in err

    def test_invalid_program(self, tmp_path, capsys):
        bad = tmp_path / "undeclared.asml"
        bad.write_text("criticals t;\nt := missing\n")
        code, _, err = run_main(["compile", str(bad)], capsys)
        assert code == 2
        assert "invalid program" in err

    @pytest.mark.parametrize("argv", [["compile", case("02-counter")[0]],
                                      ["simulate", *case("02-counter")]])
    def test_compile_error_exits_2(self, argv, capsys, monkeypatch):
        def refuse(_program, negative_edges=False):
            raise compiler.CompileError("refused, negative_edges=%s"
                                        % negative_edges)

        monkeypatch.setattr(compiler, "compile_program", refuse)
        code, out, err = run_main(argv + ["--negative-edges"], capsys)
        assert code == cli.BADINPUT
        assert out == ""
        assert err.strip().endswith("compile error: refused, "
                                    "negative_edges=True")

    def test_duplicate_location_exits_2(self, tmp_path, capsys):
        prog = tmp_path / "loc.asml"
        prog.write_text("atoms a; functions f/1; criticals t;\nt := t\n")
        state = tmp_path / "loc.state"
        state.write_text("loc f(a) = {}\nloc f(a) = {a}\n")
        code, out, err = run_main(["interpret", str(prog), str(state)],
                                  capsys)
        assert code == cli.BADINPUT
        assert out == "" and "duplicate location f(a)" in err


class TestBadCounts:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--max-ticks", "0"],
        ["simulate", "--max-ticks", "-3"],
        ["simulate", "--max-ticks", "many"],
        ["simulate", "--dot-every", "-1"],
        ["simulate", "--dot-every", "0"],
        ["difftest", "--max-ticks", "0"],
        ["difftest", "--max-steps", "0"],
        ["difftest", "--count", "0"],
        ["difftest", "--count", "-3"],
        ["difftest", "--runs", "-1"],
        ["difftest", "--max-depth", "-1"],
        ["simulate", "--max-depth", "-1"],
        ["interpret", "--max-steps", "0"],
        ["interpret", "--max-steps", "-3"],
    ])
    def test_non_positive_count_exits_2(self, argv, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        if argv[0] in ("interpret", "simulate"):
            prog, state = case("02-counter")
            argv = argv[:1] + [prog, state] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.BADINPUT
        _, err = capsys.readouterr()
        assert argv[-2] in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestLimitsAndPaths:
    @pytest.mark.parametrize("command", ["interpret", "simulate"])
    def test_state_deeper_than_max_depth_exits_2(self, command, capsys):
        prog, state = case("02-counter")
        code, _, err = run_main([command, prog, state, "--max-depth", "0"],
                                capsys)
        assert code == cli.BADINPUT
        assert err == ("error: state does not fit --max-depth 0: "
                       "nesting depth 1 exceeds limit 0\n")

    def test_value_deeper_than_max_depth_mid_run_exits_3(self, tmp_path,
                                                         capsys):
        # c := {c} nests c one level deeper each step, so the invariant
        # check meets a value past the limit after some ticks
        prog = tmp_path / "deepen.asml"
        prog.write_text("criticals c;\nc := {c}\n")
        code, out, err = run_main(
            ["simulate", str(prog), "--check-invariants", "--max-depth", "8"],
            capsys)
        assert code == cli.EXHAUSTED
        assert out == ""
        assert err == ("error: tick 46: nesting depth 9 exceeds limit 8 "
                       "(--max-depth 8)\n")

    def test_final_state_deeper_than_max_depth_exits_3(self, tmp_path,
                                                       capsys):
        # the unchecked run halts cleanly; reading c = {{{{c}}}} back is
        # what passes the limit, after the last tick
        prog = tmp_path / "deep.asml"
        prog.write_text("criticals c, n;\n"
                        "if n = {} then (c := {{{{c}}}} par n := {n})\n")
        code, out, err = run_main(
            ["simulate", str(prog), "--max-depth", "2"], capsys)
        assert code == cli.EXHAUSTED
        assert out == ""
        assert err == ("error: tick 32: nesting depth 3 exceeds limit 2 "
                       "(--max-depth 2)\n")

    def test_stats_json_on_value_deeper_than_max_depth(self, tmp_path,
                                                       capsys):
        prog = tmp_path / "deepen.asml"
        prog.write_text("criticals c;\nc := {c}\n")
        target = tmp_path / "stats.json"
        code, out, err = run_main(
            ["simulate", str(prog), "--check-invariants", "--max-depth", "8",
             "--stats-json", str(target)], capsys)
        assert code == cli.EXHAUSTED
        assert out == ""
        assert err.startswith("error: tick 46: nesting depth 9")
        stats = json.loads(target.read_text())
        assert stats["total"] == 46
        assert sum(stats["rules"].values()) == 46

    def test_depth_no_generated_case_fits_exits_3(self, capsys):
        code, out, err = run_main(
            ["difftest", "--count", "1", "--max-depth", "0"], capsys)
        assert code == cli.EXHAUSTED
        assert out == ("stopped before case000: no acceptable case in "
                       "2000 attempts\n0/0 cases agree\n")
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["compile", "-o", "{out}"],
        ["simulate", "--trace", "{out}"],
        ["simulate", "--stats-json", "{out}"],
        ["simulate", "--dot-every", "5", "--dot-prefix", "{out}"],
    ])
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        prog, state = case("02-counter")
        out = str(tmp_path / "missing" / "out")
        args = [a.format(out=out) for a in argv[1:]]
        files = [prog] if argv[0] == "compile" else [prog, state]
        code, _, err = run_main(argv[:1] + files + args, capsys)
        assert code == cli.BADINPUT
        assert err.startswith("error: cannot write %s" % out)
        assert "Traceback" not in err

    @pytest.mark.parametrize("options", [
        pytest.param(["--trace"], id="--trace"),
        pytest.param(["--stats-json"], id="--stats-json"),
        pytest.param(["--dot-every", "50", "--dot-prefix"], id="--dot-prefix"),
    ])
    def test_unwritable_output_fails_before_the_first_tick(
            self, options, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("automaton.run was called")

        monkeypatch.setattr(automaton, "run", no_run)
        out = str(tmp_path / "missing" / "out")
        code, _, err = run_main(
            ["simulate", *case("02-counter"), *options, out], capsys)
        assert code == cli.BADINPUT
        assert err.startswith("error: cannot write %s" % out)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that is always full")
    @pytest.mark.parametrize("option", ["--trace", "--stats-json"])
    def test_failed_write_of_an_open_output_exits_2(self, option, capsys):
        code, _, err = run_main(
            ["simulate", *case("02-counter"), option, "/dev/full"], capsys)
        assert code == cli.BADINPUT
        assert err.startswith("error: cannot write --trace or --stats-json")
        assert "Traceback" not in err


def test_module_invocation_subprocess():
    prog, state = case("02-counter")
    # the child imports the package these tests imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tangleca.cli", "interpret", prog, state],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "outcome terminal" in proc.stdout
