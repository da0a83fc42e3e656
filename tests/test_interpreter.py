"""Direct parallel-update semantics, with hand-computed expected finals."""
import hashlib
import random

import pytest

from tangleca import corpusgen, interpreter
from tangleca.asmlang import parse, pretty_print
from tangleca.hfset import Universe
from tangleca.interpreter import (BUDGET, CLASH, EMPTY_CHOICE, LIMIT,
                                  TERMINAL, TYPE_ERROR, State, StateError,
                                  enumerate_outcomes, initial_state,
                                  parse_state, print_state,
                                  run_to_termination)


def run_text(source, state_text, universe=None, **kw):
    u = universe or Universe(max_depth=64)
    program = parse(source)
    state = parse_state(state_text, program, u)
    final, steps, outcome = run_to_termination(program, state, u, **kw)
    return u, final, steps, outcome


class TestHandComputedRuns:
    def test_guarded_emptying(self):
        # t={a}: one enabled step empties t, then the guard goes false
        u, final, steps, outcome = run_text(
            "atoms a; criticals t;\nif t != {} then t := {}\n",
            "term t = {a}\n")
        assert (outcome, steps) == (TERMINAL, 1)
        assert final.values["t"] is u.empty()

    def test_term_arithmetic(self):
        # {a} U {b, a} = {a, b};  {{t}} with t={} is {{{}}}
        u, final, steps, outcome = run_text(
            "atoms a, b; criticals t, r;\n"
            "if r = {} then r := <{a} U {b, a}, {{t}}>\n",
            "term t = {}\nterm r = {}\n")
        assert (outcome, steps) == (TERMINAL, 1)
        assert final.values["r"] is u.parse("<{a, b}, {{{}}}>")

    def test_counter_reaches_limit_in_two_steps(self):
        # cnt: {} -> {{}} -> {{{}}} = lim, then the guard goes false
        u, final, steps, outcome = run_text(
            "criticals cnt, lim;\nif cnt != lim then cnt := {cnt}\n",
            "term cnt = {}\nterm lim = {{{}}}\n")
        assert (outcome, steps) == (TERMINAL, 2)
        assert final.values["cnt"] is u.parse("{{{}}}")

    def test_parallel_swap_stops_when_one_side_empties(self):
        # t={}, p={{}}: after one swap p={} disables the guard
        u, final, steps, outcome = run_text(
            "criticals t, p;\n"
            "if t != p and p != {} then (t := p par p := t)\n",
            "term t = {}\nterm p = {{}}\n")
        assert (outcome, steps) == (TERMINAL, 1)
        assert final.values["t"] is u.parse("{{}}")
        assert final.values["p"] is u.empty()

    def test_location_write_and_default_read(self):
        # g(a,b) starts unwritten, so it reads as {}; the then-branch
        # builds r = {g(b,a)} U {a} = {{}} U {a} = {a, {}}
        u, final, steps, outcome = run_text(
            "atoms a, b; functions g/2; criticals r;\n"
            "if r = {} then (if g(a, b) = {} then r := {g(b, a)} U {a}"
            " else r := g(a, b))\n",
            "term r = {}\n")
        assert (outcome, steps) == (TERMINAL, 1)
        assert final.values["r"] is u.parse("{a, {}}")

    def test_location_read_after_seeded_write(self):
        u, final, steps, outcome = run_text(
            "atoms a, b; functions g/2; criticals r;\n"
            "if g(a, b) != {} and r = {} then r := g(a, b)\n",
            "term r = {}\nloc g(a, b) = {b}\n")
        assert (outcome, steps) == (TERMINAL, 1)
        assert final.values["r"] is u.parse("{b}")

    def test_location_write_step(self):
        u, final, steps, outcome = run_text(
            "atoms a, b; functions g/2; criticals r;\n"
            "if r = {} then (g(a, b) := {a} par r := {b})\n",
            "term r = {}\n")
        assert (outcome, steps) == (TERMINAL, 1)
        a, b = u.atom("a"), u.atom("b")
        assert final.read_location(u, "g", (a, b)) is u.singleton(a)
        # other argument tuples still read as the default
        assert final.read_location(u, "g", (b, a)) is u.empty()


class TestOutcomes:
    def test_clash_on_divergent_parallel_writes(self):
        _, final, steps, outcome = run_text(
            "atoms a; criticals t, r;\n"
            "if t = {} then (r := {} par r := {a})\n",
            "term t = {}\nterm r = {}\n")
        assert (outcome, steps) == (CLASH, 0)

    def test_agreeing_parallel_writes_are_consistent(self):
        u, final, steps, outcome = run_text(
            "atoms a; criticals r;\n"
            "if not r = {a} then (r := {a} par r := {a})\n",
            "term r = {}\n")
        assert (outcome, steps) == (TERMINAL, 1)
        assert final.values["r"] is u.parse("{a}")

    def test_empty_choice(self):
        _, _, steps, outcome = run_text(
            "criticals t, r;\nif r = {} then let x = choose(t) in r := {x}\n",
            "term t = {}\nterm r = {}\n")
        assert (outcome, steps) == (EMPTY_CHOICE, 0)

    def test_type_error(self):
        _, _, steps, outcome = run_text(
            "atoms a, b; criticals t;\nif a in b then t := {}\n",
            "term t = {}\n")
        assert (outcome, steps) == (TYPE_ERROR, 0)

    def test_depth_limit(self):
        u = Universe(max_depth=3)
        _, _, steps, outcome = run_text(
            "criticals cnt, lim;\nif cnt != lim then cnt := {cnt}\n",
            "term cnt = {{{}}}\nterm lim = {{}}\n", universe=u)
        assert outcome == LIMIT
        assert steps == 1  # one growth fits below the depth bound

    def test_budget(self):
        _, _, steps, outcome = run_text(
            "criticals t;\nt := t\n", "term t = {}\n", max_steps=17)
        assert (outcome, steps) == (BUDGET, 17)


class TestChoice:
    SRC = ("atoms a, b; criticals t, r;\n"
           "if r = {} then let x = choose(t) in r := {x}\n")

    def test_scripted_choice(self):
        u = Universe()
        program = parse(self.SRC)
        state = parse_state("term t = {b, a}\nterm r = {}\n", program, u)
        # choices are offered in canonical value order: a before b
        for index, expect in ((0, "{a}"), (1, "{b}")):
            final, steps, outcome = run_to_termination(
                program, state, u, script=[index])
            assert (outcome, steps) == (TERMINAL, 1)
            assert final.values["r"] is u.parse(expect)

    def test_seeded_choice_is_reproducible_and_valid(self):
        u = Universe()
        program = parse(self.SRC)
        state = parse_state("term t = {b, a}\nterm r = {}\n", program, u)
        finals = set()
        for seed in range(8):
            f1, _, o1 = run_to_termination(program, state, u, seed=seed)
            f2, _, o2 = run_to_termination(program, state, u, seed=seed)
            assert o1 == o2 == TERMINAL and f1 == f2
            finals.add(f1.values["r"].uid)
        assert finals <= {u.parse("{a}").uid, u.parse("{b}").uid}

    def test_enumerate_outcomes_fans_out(self):
        u = Universe()
        program = parse(self.SRC)
        state = parse_state("term t = {b, a}\nterm r = {}\n", program, u)
        results = enumerate_outcomes(program, state, u)
        assert len(results) == 2
        finals = {f.values["r"] for _s, f, _n, o in results}
        assert {o for _s, _f, _n, o in results} == {TERMINAL}
        assert finals == {u.parse("{a}"), u.parse("{b}")}

    def test_enumerate_outcomes_confluent_program(self):
        # r := {x} U t contains every member already, so all picks agree
        u = Universe()
        program = parse("atoms a, b; criticals t, r;\n"
                        "if r = {} then let x = choose(t) in r := {x} U t\n")
        state = parse_state("term t = {a, b}\nterm r = {}\n", program, u)
        results = enumerate_outcomes(program, state, u)
        assert len(results) == 2
        assert len({f for _s, f, _n, _o in results}) == 1

    def test_enumerate_outcomes_path_bound(self):
        u = Universe()
        program = parse(
            "atoms a, b, c; criticals t, r;\n"
            "if r = {} then let x = choose(t) in"
            " let y = choose(t) in r := <x, y>\n")
        state = parse_state("term t = {a, b, c}\nterm r = {}\n", program, u)
        assert len(enumerate_outcomes(program, state, u)) == 9
        with pytest.raises(StateError):
            enumerate_outcomes(program, state, u, max_paths=4)


NESTED_CHOICE = ("atoms a, b, c; criticals t, r;\n"
                 "if r = {} then let x = choose(t) in"
                 " let y = choose(t) in r := <x, y>\n")
ALWAYS_CHOOSES = "atoms a, b; criticals t, r;\nlet x = choose(t) in r := {x}\n"
NESTED_PATHS = [(), (0, 2), (0, 1), (2,), (2, 2), (2, 1), (1,), (1, 2), (1, 1)]


def outcome_paths(source, state_text, **kw):
    u = Universe(max_depth=64)
    program = parse(source)
    state = parse_state(state_text, program, u)
    return [(script, steps, outcome) for script, _final, steps, outcome
            in enumerate_outcomes(program, state, u, **kw)]


class TestEnumerateOutcomesGolden:
    """Exact path lists: the order scripts are explored in, with each
    script's steps and outcome."""

    @pytest.mark.parametrize("max_steps, outcome", [
        (1, BUDGET), (3, TERMINAL), (12, TERMINAL)])
    def test_nested_choice(self, max_steps, outcome):
        got = outcome_paths(NESTED_CHOICE,
                            "term t = {a, b, c}\nterm r = {}\n",
                            max_steps=max_steps)
        assert got == [(script, 1, outcome) for script in NESTED_PATHS]

    def test_choose_on_empty_set(self):
        got = outcome_paths("atoms a; criticals t, r;\n"
                            "if r = {} then let x = choose(t) in r := {x}\n",
                            "term t = {}\nterm r = {}\n")
        assert got == [((), 0, EMPTY_CHOICE)]

    def test_unbounded_chooser(self):
        state_text = "term t = {a, b}\nterm r = {}\n"
        got = outcome_paths(ALWAYS_CHOOSES, state_text, max_steps=3)
        assert got == [(script, 3, BUDGET) for script in (
            (), (0, 0, 1), (0, 1), (0, 1, 1),
            (1,), (1, 0, 1), (1, 1), (1, 1, 1))]
        with pytest.raises(StateError, match="more than 64 choice paths"):
            outcome_paths(ALWAYS_CHOOSES, state_text, max_steps=12)

    def test_generated_choice_cases(self):
        digest = hashlib.sha256()
        for seed in range(5):
            u = Universe(max_depth=64)
            program, state = corpusgen.generate_case(
                random.Random(seed), u, allow_choice=True,
                require_choice=True)
            digest.update(pretty_print(program).encode())
            digest.update(print_state(state).encode())
            for script, final, steps, outcome in enumerate_outcomes(
                    program, state, u, max_steps=corpusgen.DEFAULT_MAX_STEPS):
                digest.update(repr((script, steps, outcome)).encode())
                digest.update(print_state(final).encode())
        assert digest.hexdigest() == (
            "866ffd4cc5ffeb3781fbb40d60c205954e56e56de1f9b5e89f3c8ab9ff98c94e")


class TestStateHandling:
    def test_initial_state_fills_criticals(self):
        u = Universe()
        program = parse("criticals t, p; t := t")
        state = parse_state("term t = {{}}\n", program, u)
        filled = initial_state(program, state, u)
        assert filled.values["p"] is u.empty()
        assert filled.values["t"] is u.parse("{{}}")

    def test_parse_print_roundtrip(self):
        u = Universe()
        program = parse("atoms a, b; functions g/2; criticals t, p; t := t")
        text = ("term p = <a,{b}>\n"
                "term t = {a,b,{}}\n"
                "loc g(a, b) = {}\n"
                "loc g({}, {a}) = {b}\n")
        state = parse_state(text, program, u)
        assert print_state(state) == text
        assert parse_state(print_state(state), program, u) == state

    def test_parse_state_errors(self):
        u = Universe()
        program = parse("functions g/2; criticals t; t := t")
        for bad in ("term q = {}\n",            # undeclared critical
                    "term t = {}\nterm t = {}\n",  # duplicate
                    "loc h(a) = {}\n",          # undeclared function
                    "loc g(a) = {}\n",          # arity mismatch
                    "loc g = {}\n",             # malformed location
                    "what is this\n"):
            with pytest.raises(StateError):
                parse_state(bad, program, u)

    def test_duplicate_location_is_rejected(self):
        # keyed on the argument values: {a,b} and {b,a} are one location
        u = Universe()
        program = parse("atoms a, b; functions f/1; criticals t; t := t")
        for text in ("loc f(a) = {}\nloc f(a) = {a}\n",
                     "loc f({a,b}) = {}\nloc f({b,a}) = {b}\n"):
            with pytest.raises(StateError, match="duplicate location"):
                parse_state(text, program, u)
        state = parse_state("loc f(a) = {}\nloc f(b) = {a}\n", program, u)
        assert len(state.locations) == 2

    def test_state_equality_and_hash(self):
        u = Universe()
        a = u.atom("a")
        s1 = State({"t": a})
        s2 = State({"t": u.atom("a")})
        assert s1 == s2 and hash(s1) == hash(s2)
        s2.write_location("g", (a,), u.empty())
        assert s1 != s2
