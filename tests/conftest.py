"""Shared fixtures and helpers for the test suite."""
import pathlib

import pytest

from tangleca import asmlang, automaton, compiler, hfset, interpreter

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "tangleca" / "corpus"

MODES = (False, True)  # negative_edges off (mark colors) and on


def corpus_names():
    return sorted(p.stem for p in CORPUS_DIR.glob("*.asml"))


def load_corpus_case(name):
    source = (CORPUS_DIR / (name + ".asml")).read_text()
    state_text = (CORPUS_DIR / (name + ".state")).read_text()
    return source, state_text


def compile_case(source, state_text, negative_edges=False, max_depth=64):
    """Parse, compile, and encode one textual case."""
    universe = hfset.Universe(max_depth=max_depth)
    program = asmlang.parse(source)
    unit = compiler.compile_program(program, negative_edges=negative_edges)
    state = interpreter.parse_state(state_text, program, universe)
    graph = unit.initial_graph(state, universe)
    return universe, program, unit, state, graph


def run_automaton(source, state_text, negative_edges=False, seed=0,
                  mode=automaton.DETERMINISTIC, max_ticks=200000,
                  check_invariants=False, max_depth=64):
    """Run one case to quiescence; returns (unit, cfg, stats, outcome_class,
    final State or None, universe)."""
    universe, program, unit, state, graph = compile_case(
        source, state_text, negative_edges, max_depth)
    cfg = automaton.Configuration(graph, seed=seed, mode=mode)
    cfg, stats, outcome = automaton.run(
        cfg, unit.ruleset, max_ticks=max_ticks,
        check_invariants=check_invariants,
        idle_colors=unit.idle_colors if check_invariants else None,
        universe=universe if check_invariants else None)
    if outcome != automaton.QUIESCENT:
        return unit, cfg, stats, outcome, None, universe
    klass = unit.classify(cfg.tangle)
    final = None
    if klass == interpreter.TERMINAL:
        final = unit.final_state(cfg.tangle, universe)
    return unit, cfg, stats, klass, final, universe


def oracle_state(source, state_text, max_depth=64, seed=0):
    universe = hfset.Universe(max_depth=max_depth)
    program = asmlang.parse(source)
    state = interpreter.parse_state(state_text, program, universe)
    final, steps, outcome = interpreter.run_to_termination(
        program, state, universe, seed=seed)
    return universe, program, final, steps, outcome


@pytest.fixture
def universe():
    return hfset.Universe(max_depth=64)
