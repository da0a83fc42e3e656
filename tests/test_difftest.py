"""difftest.run_case: each kind of disagreement, with its exact message."""
from tangleca import asmlang, compiler, difftest, hfset, interpreter

from conftest import load_corpus_case

SCHEDULES = ("deterministic/0", "random/0", "random/1", "random/2")
SWAP = load_corpus_case("01-guarded-swap")


def run(source, state_text, max_depth=64, **kwargs):
    universe = hfset.Universe(max_depth=max_depth)
    program = asmlang.parse(source)
    state = interpreter.parse_state(state_text, program, universe)
    state = interpreter.initial_state(program, state, universe)
    return difftest.run_case(program, state, universe, label="c", **kwargs)


def each_schedule(message):
    return ["c[%s]: %s" % (s, message) for s in SCHEDULES]


def test_clean_case_has_no_disagreement():
    result = run(*SWAP, check_invariants=True)
    assert result.disagreements == [] and result.ok and result.ticks > 0


def test_limit_error_is_each_schedules_disagreement():
    # {{{{}}}} nests three deep; the checked run meets it at a commit
    source = "criticals r;\nif r = {} then r := {{{{}}}}\n"
    unchecked = run(source, "", max_depth=2)
    assert unchecked.disagreements == each_schedule(
        "oracle outcome limit-exceeded not comparable")
    checked = run(source, "", max_depth=2, check_invariants=True)
    assert checked.disagreements == each_schedule(
        "limit exceeded at tick 17: nesting depth 3 exceeds limit 2")
    assert checked.ticks == 4 * 17


def test_tick_budget():
    result = run(*SWAP, max_ticks=1)
    assert result.disagreements == each_schedule(
        "automaton tick-budget-exhausted")
    assert result.ticks == 4


def test_oracle_type_error_is_not_comparable():
    result = run("atoms a, b; criticals t;\nif t = {} then t := a U b\n",
                 "term t = {}\n")
    assert result.disagreements == each_schedule(
        "oracle outcome type-error not comparable")


def test_oracle_step_budget_runs_no_schedule():
    # every step updates p in one branch or the other, so the program
    # never halts and the interpreter stops at its step budget
    source = ("atoms a;\ncriticals t, p;\n"
              "if t != a and p in t U p then p := {} else p := {a}\n")
    for negative_edges in (False, True):
        result = run(source, "term t = a\nterm p = {{}}\n",
                     negative_edges=negative_edges, check_invariants=True)
        assert result.disagreements == each_schedule(
            "oracle outcome step-budget-exhausted not comparable")
        assert result.ticks == 0


def test_interpreter_terminal_against_another_outcome(monkeypatch):
    monkeypatch.setattr(compiler.CompilationUnit, "classify",
                        lambda self, graph: "stuck:s9")
    assert run(*SWAP).disagreements == each_schedule(
        "interpreter terminal, automaton stuck:s9")


def test_state_mismatch(monkeypatch):
    final_state = compiler.CompilationUnit.final_state

    def off_by_one_term(self, graph, universe):
        state = final_state(self, graph, universe)
        state.values["t"] = universe.set_of([state.values["t"]])
        return state

    monkeypatch.setattr(compiler.CompilationUnit, "final_state",
                        off_by_one_term)
    assert run(*SWAP, seeds=()).disagreements == [
        "c[deterministic/0]: state mismatch\n"
        "  automaton: term p = {}\nterm t = {{{a}}}\n"
        "  oracle:    term p = {}\nterm t = {{a}}"]


def test_interpreter_empty_choice_against_another_outcome(monkeypatch):
    case = load_corpus_case("12-empty-choice")
    assert run(*case).ok
    monkeypatch.setattr(compiler.CompilationUnit, "classify",
                        lambda self, graph: interpreter.TERMINAL)
    assert run(*case).disagreements == each_schedule(
        "interpreter empty-choice, automaton terminal")
