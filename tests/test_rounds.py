"""The compiled automaton round by round, on the `difftest` workload.

The workload's 80 programs are the 20 corpus programs and perfbench's 60
frozen generated ones (read only here).  Three properties are checked:

- step alignment: each time the focus enters the unit's first colour,
  the decoded tangle equals the interpreter's state after as many
  steps, and the Criticals node carries no scratch (`$`-labelled)
  edge; the interpreter is stepped along by `interpreter.fire`, not
  re-run from the start;
- no ties where a round ends: every tick whose pairs include a decide
  or cleanup rule has exactly one maximal pair, so whether the automaton
  starts another round or halts never rests on a tie-break;
- clean halts: a run that ends terminal leaves no scratch (`$`-labelled)
  edge on the Criticals node;
- the incremental committed check: at every idle tick of a checked run,
  what the run's memo-based committed and critical-term check returns
  equals `tangle.check_invariants` on the same graph, which has no
  structural violation in these clean runs.
"""
import pathlib

import pytest

from tangleca import automaton, bench, interpreter, pattern, tangle

from conftest import MODES, compile_case, corpus_names, load_corpus_case

FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"


def workload_cases():
    """The `difftest` workload's programs as (name, source, state_text)."""
    cases = [(name,) + load_corpus_case(name) for name in corpus_names()]
    cases += [(p.stem, p.read_text(), p.with_suffix(".state").read_text())
              for p in sorted(FROZEN_DIR.glob("gen-*.asml"))]
    assert len(cases) == 80
    return cases


def scratch_labels(g):
    """The $-labelled edges the Criticals node still carries."""
    return sorted(l for l, targets in g.out[g.active].items()
                  if l.startswith("$") and targets)


# round boundaries per edge mode: the boot tick's entry plus one per
# interpreter step, over the 69 choice-free programs and overhead-56
BOUNDARIES = 200


@pytest.mark.parametrize("negative_edges", MODES)
def test_every_step_agrees_with_the_interpreter(negative_edges):
    # a choice program's picks need not match the interpreter's chooser
    cases = [c for c in workload_cases() if "choose" not in c[1]]
    assert len(cases) == 69
    cases.append(("overhead-56",) + bench.overhead_case(56))
    boundaries = 0
    for name, source, state_text in cases:
        universe, program, unit, state, graph = compile_case(
            source, state_text, negative_edges=negative_edges)
        want = interpreter.initial_state(program, state, universe)
        entries = 0

        def on_tick(cfg, _applied):
            nonlocal want, entries
            g = cfg.tangle
            if g.color_of(g.active) != unit.first_color:
                return
            # the first entry is the boot tick's, before any step
            if entries:
                want = interpreter.fire(program, want, universe, None)
                assert want is not None, (name, entries)
            entries += 1
            assert unit.final_state(g, universe) == want, (name, entries)
            # cleanup left no register, bit or $go mark behind
            assert scratch_labels(g) == [], (name, entries)

        cfg, _stats, outcome = automaton.run(
            automaton.Configuration(graph), unit.ruleset, on_tick=on_tick)
        assert outcome == automaton.QUIESCENT, name
        assert unit.classify(cfg.tangle) == interpreter.TERMINAL, name
        assert interpreter.fire(program, want, universe, None) is None, name
        boundaries += entries
    assert boundaries == BOUNDARIES


# (runs, quiescent runs, terminal runs, ticks whose pairs include a
# cleanup rule, ticks whose pairs include a decide rule) over both edge
# modes, deterministic and random seed 1
BRANCH_RUNS = (328, 328, 324, 2460, 816)


@pytest.fixture(scope="module")
def branch_runs():
    """Every run of the workload, union-16 and overhead-8 in both edge
    modes, deterministic and random seed 1: the pinned counts, the ties
    at decide and cleanup ticks, and the scratch edges each terminal run
    left on Criticals."""
    cases = workload_cases()
    cases += [("union-16",) + bench.union_case(16),
              ("overhead-8",) + bench.overhead_case(8)]
    real = automaton.select_match
    current = {}
    ties = []
    ticks = {"cleanup": 0, "decide": 0}

    def watched(pairs, cfg, final, stats=None):
        rules = current["rules"]
        phases = {rules[i].name.split(":", 1)[0] for i, _b in pairs}
        phase = phases & set(ticks)
        if phase:
            ticks[phase.pop()] += 1
            maximal = pattern.maximality_filter(pairs)
            if len(maximal) != 1:
                ties.append((current["label"], cfg.tick + 1,
                             sorted(rules[i].name for i, _b in maximal)))
        return real(pairs, cfg, final, stats)

    runs = quiescent = terminal = 0
    leftovers = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "select_match", watched)
        for negative_edges in MODES:
            for mode, seed in ((automaton.DETERMINISTIC, 0),
                               (automaton.RANDOM, 1)):
                for name, source, state_text in cases:
                    label = "%s[%s/%s/%d]" % (name, negative_edges, mode, seed)
                    _u, _p, unit, _s, graph = compile_case(
                        source, state_text, negative_edges=negative_edges)
                    current.update(rules=unit.ruleset.rules, label=label)
                    cfg, _stats, outcome = automaton.run(
                        automaton.Configuration(graph, seed=seed, mode=mode),
                        unit.ruleset, max_ticks=20000)
                    runs += 1
                    if outcome != automaton.QUIESCENT:
                        continue
                    quiescent += 1
                    g = cfg.tangle
                    if unit.classify(g) != interpreter.TERMINAL:
                        continue
                    terminal += 1
                    scratch = scratch_labels(g)
                    if scratch:
                        leftovers.append((label, scratch))
    counts = (runs, quiescent, terminal, ticks["cleanup"], ticks["decide"])
    return counts, ties, leftovers


def test_round_ends_have_no_ties(branch_runs):
    counts, ties, _leftovers = branch_runs
    assert ties == []
    assert counts == BRANCH_RUNS


def test_terminal_runs_halt_clean(branch_runs):
    counts, _ties, leftovers = branch_runs
    assert leftovers == []
    assert counts == BRANCH_RUNS


# (idle checks, fallbacks to the full committed walk) over the workload's
# 80 programs in both edge modes, deterministic and random seeds 1 and 2:
# the runs of one `perfbench` `difftest` pass
IDLE_CHECKS = (1470, 0)


def test_incremental_committed_check_agrees_with_the_full_one():
    real = automaton._CommittedCheck.violations
    current = {}
    disagreements = []

    def compared(self, g, structural):
        got = real(self, g, structural)
        want = tangle.check_invariants(g, self.universe)
        if got != want:
            disagreements.append((current["label"], g.node_count(), got,
                                  want))
        return got

    idle_checks = fallbacks = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton._CommittedCheck, "violations", compared)
        for negative_edges in MODES:
            for name, source, state_text in workload_cases():
                universe, _p, unit, state, graph = compile_case(
                    source, state_text, negative_edges=negative_edges)
                for mode, seed in ((automaton.DETERMINISTIC, 0),
                                   (automaton.RANDOM, 1),
                                   (automaton.RANDOM, 2)):
                    current["label"] = "%s[%s/%s/%d]" % (
                        name, negative_edges, mode, seed)
                    cfg = automaton.Configuration(
                        graph.copy(), seed=seed, mode=mode)
                    _cfg, stats, outcome = automaton.run(
                        cfg, unit.ruleset, check_invariants=True,
                        idle_colors=unit.idle_colors, universe=universe)
                    assert outcome == automaton.QUIESCENT, current["label"]
                    idle_checks += stats.idle_checks
                    fallbacks += stats.fallbacks
    assert disagreements == []
    assert (idle_checks, fallbacks) == IDLE_CHECKS
