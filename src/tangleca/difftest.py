"""Differential testing: compiled automaton against the interpreter.

A case is one (program, initial state) pair.  The interpreter is run
once as the oracle; the automaton is run once per requested seed and
scheduling mode.  Outcomes must match, and on clean termination the
decoded automaton state must equal the oracle state exactly.  Cases
come from the rejection-sampled corpus, so choice programs are
confluent and the two sides need not align their choices.
"""
from __future__ import annotations

from . import automaton
from . import compiler
from . import interpreter

DEFAULT_MAX_TICKS = 500000


class CaseResult:
    def __init__(self, label, disagreements, ticks):
        self.label = label
        self.disagreements = disagreements
        self.ticks = ticks

    @property
    def ok(self):
        return not self.disagreements


def run_case(program, state, universe, seeds=(0, 1, 2),
             negative_edges=False, max_ticks=DEFAULT_MAX_TICKS,
             check_invariants=False, label="case"):
    """Compare automaton and interpreter on one case.

    negative_edges selects how the program is compiled; the rules then
    carry it.  Runs the deterministic schedule once and a random schedule
    per seed.  Returns a CaseResult listing every disagreement; with
    check_invariants on, a schedule that leaves the tangle malformed is
    one, and the next schedule still runs.
    """
    oracle_state, _steps, oracle_outcome = interpreter.run_to_termination(
        program, state, universe, seed=0)
    unit = compiler.compile_program(program,
                                    negative_edges=negative_edges)
    disagreements = []
    total_ticks = 0
    schedules = [(automaton.DETERMINISTIC, 0)]
    schedules += [(automaton.RANDOM, s) for s in seeds]
    for mode, seed in schedules:
        tag = "%s[%s/%d]" % (label, mode, seed)
        graph = unit.initial_graph(state, universe)
        cfg = automaton.Configuration(graph, seed=seed, mode=mode)
        try:
            cfg, stats, outcome = automaton.run(
                cfg, unit.ruleset, max_ticks=max_ticks,
                check_invariants=check_invariants,
                idle_colors=unit.idle_colors if check_invariants else None,
                universe=universe)
        except automaton.InvariantViolation as exc:
            total_ticks += exc.stats.total
            disagreements.append("%s: invariant violation at tick %d: %s"
                                 % (tag, exc.tick, "; ".join(exc.violations)))
            continue
        total_ticks += stats.total
        if outcome != automaton.QUIESCENT:
            disagreements.append("%s: automaton %s" % (tag, outcome))
            continue
        automaton_outcome = unit.classify(cfg.tangle)
        if oracle_outcome == interpreter.TERMINAL:
            if automaton_outcome != interpreter.TERMINAL:
                disagreements.append(
                    "%s: interpreter terminal, automaton %s"
                    % (tag, automaton_outcome))
                continue
            final = unit.final_state(cfg.tangle, universe)
            if final.items() != oracle_state.items():
                disagreements.append(
                    "%s: state mismatch\n  automaton: %s\n  oracle:    %s"
                    % (tag, interpreter.print_state(final).strip(),
                       interpreter.print_state(oracle_state).strip()))
        elif oracle_outcome == interpreter.EMPTY_CHOICE:
            if automaton_outcome != interpreter.EMPTY_CHOICE:
                disagreements.append(
                    "%s: interpreter empty-choice, automaton %s"
                    % (tag, automaton_outcome))
        else:
            disagreements.append(
                "%s: oracle outcome %s not comparable"
                % (tag, oracle_outcome))
    return CaseResult(label, disagreements, total_ticks)
