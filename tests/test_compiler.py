"""Lowering ASM programs to transition rules: units, end-to-end, regressions."""
import hashlib
import itertools
import pathlib
import re

import pytest

from tangleca import (asmlang, automaton, compiler, difftest, hfset,
                      interpreter, tangle)
from tangleca.compiler import CompileError, Formula, compile_program
from tangleca.pattern import serialize_ruleset, validate_ruleset

from conftest import (MODES, compile_case, corpus_names, load_corpus_case,
                      oracle_state, run_automaton)


def formula_eval(f, assignment):
    """Truth value of f under a full assignment dict (oracle helper)."""
    for row, satisfied in f.assignments():
        if all(assignment[bit] == val for bit, val in row):
            return satisfied
    raise AssertionError("no matching row")


def assert_agrees(source, state_text, seeds=(0, 1), max_depth=64):
    """Automaton final state equals the interpreter's, in both mark modes
    and under deterministic plus random schedules."""
    for neg in MODES:
        u = hfset.Universe(max_depth=max_depth)
        program = asmlang.parse(source)
        state = interpreter.parse_state(state_text, program, u)
        result = difftest.run_case(program, state, u, seeds=seeds,
                                   negative_edges=neg,
                                   check_invariants=True)
        assert result.ok, (neg, result.disagreements)


class TestFormula:
    def bits(self):
        return [Formula.of_bit(i) for i in range(3)]

    def test_constants(self):
        assert Formula.true().is_true()
        assert Formula.true().negate().is_false()
        b = Formula.of_bit(0)
        assert not b.is_true() and not b.is_false()

    def test_of_bit_semantics(self):
        f = Formula.of_bit(2)
        assert formula_eval(f, {2: True}) and not formula_eval(f, {2: False})

    def test_connectives_bruteforce(self):
        b0, b1, b2 = self.bits()
        f = b0.conj(b1.negate()).disj(b2)
        for v0, v1, v2 in itertools.product((False, True), repeat=3):
            a = {0: v0, 1: v1, 2: v2}
            assert formula_eval(f, a) == ((v0 and not v1) or v2)

    def test_minimize_drops_dead_bits(self):
        b0, b1 = self.bits()[:2]
        taut = b1.disj(b1.negate())           # depends on nothing
        assert taut.is_true() and taut.support == ()
        f = b0.conj(taut)                      # only bit 0 matters
        assert f.minimize().support == (0,)

    def test_minimize_preserves_semantics(self):
        b0, b1, b2 = self.bits()
        formulas = [
            b0.conj(b1).disj(b0.conj(b1.negate())),   # == b0
            b0.disj(b1).conj(b2.disj(b2.negate())),   # == b0 or b1
            b0.negate().negate(),                     # == b0
        ]
        for f in formulas:
            g = f.minimize()
            assert set(g.support) <= set(f.support)
            for combo in itertools.product((False, True), repeat=3):
                a = dict(enumerate(combo))
                assert formula_eval(f, a) == formula_eval(g, a)

    def test_rows_are_canonical(self):
        b0, b1 = self.bits()[:2]
        f = b0.conj(b1)
        g = b1.conj(b0)
        assert f.support == g.support and f.rows == g.rows


class TestCompileStructure:
    SRC = ("atoms a, b; functions g/1; criticals t, p, r;\n"
           "if a in t and r = {} then\n"
           "  let x = choose(t) in (r := {x} U g(b) par p := <t, t>)\n"
           "else\n"
           "  g(a) := {t}\n")

    @pytest.mark.parametrize("neg", MODES)
    def test_ruleset_validates_cleanly(self, neg):
        unit = compile_program(asmlang.parse(self.SRC), negative_edges=neg)
        assert validate_ruleset(unit.ruleset) == []

    def test_rule_names_unique_and_phase_tagged(self):
        unit = compile_program(asmlang.parse(self.SRC))
        names = [r.name for r in unit.ruleset.rules]
        assert len(names) == len(set(names))
        known = {"boot", "eval", "conditional", "choice", "pairing",
                 "singleton", "union-check", "union-build", "commit",
                 "decide", "cleanup"}
        assert {n.split(":", 1)[0] for n in names} <= known

    def test_special_colors_and_idle_set(self):
        unit = compile_program(asmlang.parse(self.SRC))
        assert compiler.BOOT == "boot"
        assert unit.done_color == "done"
        assert compiler.CHOICE_ERROR == "choice-error"
        assert {"boot", "done", "choice-error"} <= set(unit.idle_colors)
        # each idle colour is one some rule tests or sets at the focus
        named = set()
        for rule in unit.ruleset.rules:
            named.add(rule.colors[rule.focus])
            named.update(c for i, c in rule.recolor if i == rule.focus)
        assert set(unit.idle_colors) <= named

    def test_compilation_is_deterministic(self):
        a = serialize_ruleset(compile_program(asmlang.parse(self.SRC)).ruleset)
        b = serialize_ruleset(compile_program(asmlang.parse(self.SRC)).ruleset)
        assert a == b

    def test_invalid_program_rejected(self):
        bad = asmlang.parse("criticals t; t := q")
        with pytest.raises(CompileError):
            compile_program(bad)

    def test_classify(self):
        unit = compile_program(asmlang.parse("criticals t;\n"
                                             "if t != {} then t := {}\n"))
        u = hfset.Universe()
        prog = asmlang.parse("criticals t;\nif t != {} then t := {}\n")
        g = unit.initial_graph(interpreter.State({"t": u.empty()}), u)
        g.set_color(g.criticals(), unit.done_color)
        assert unit.classify(g) == interpreter.TERMINAL
        g.set_color(g.criticals(), compiler.CHOICE_ERROR)
        assert unit.classify(g) == interpreter.EMPTY_CHOICE
        g.set_color(g.criticals(), "s0")
        assert unit.classify(g).startswith("stuck:")


def guard_targets(rules, chain):
    """{guard entry: (sat target, skip target)} of the guard rules of a
    chain ("s", "m", ...); a guard has one satisfying and one falsifying
    row here."""
    targets = {}
    for rule in rules:
        m = re.fullmatch(r"[^:]+:(%s\d+):(sat|skip)\d+" % chain, rule.name)
        if m:
            [(_cell, color)] = rule.recolor
            targets.setdefault(m.group(1), {})[m.group(2)] = color
    return {e: (t["sat"], t["skip"]) for e, t in targets.items()}


class TestStageRuns:
    """One guard per maximal run of stages under one path condition, and
    one decide stage per run of commits."""

    def test_one_guard_per_run(self):
        f = Formula.of_bit(0)
        g = Formula.of_bit(0).negate()   # same support, other rows
        entered = []

        def stage(ctx, entry, nxt):
            entered.append((entry, nxt))

        conditions = [f, Formula.of_bit(0), compiler._TRUE, f, g, g]
        stages = [("eval", c, stage, ()) for c in conditions]
        ctx = compiler.EmitContext()
        compiler._emit_stages(ctx, "p", stages, "after")
        assert guard_targets(ctx.rules, "p") == {
            "p0": ("p0.r", "p2"), "p3": ("p3.r", "p4"),
            "p4": ("p4.r", "after")}
        assert entered == [("p0.r", "p1"), ("p1", "p2"), ("p2", "p3"),
                           ("p3.r", "p4"), ("p4.r", "p5"), ("p5", "after")]

    SRC = ("atoms a; criticals c, x, y, b, d;\n"
           "if c = {} then (x := {a} par y := b U d)\n")

    def test_an_assignment_block_under_one_if_has_one_guard(self):
        unit = compile_program(asmlang.parse(self.SRC))
        rules = unit.ruleset.rules
        # the bit runs unguarded, and its operands c and {} need no stage;
        # {a} and b U d form one run behind the guard at s1
        assert guard_targets(rules, "s") == {"s1": ("s1.r", "d0")}
        assert guard_targets(rules, "m") == {"m0": ("m0.r", "k0")}

    def test_commits_under_one_condition_get_one_decide_stage(self):
        def decide_entries(source):
            unit = compile_program(asmlang.parse(source))
            return {r.name.split(":")[1] for r in unit.ruleset.rules
                    if r.name.startswith("decide:")}

        assert decide_entries(self.SRC) == {"d0"}
        assert decide_entries(self.SRC.replace(" par ", ") else (")) == {
            "d0", "d1"}

    def test_decide_enters_a_guarded_run_past_its_guard(self):
        def fire_targets(source):
            unit = compile_program(asmlang.parse(source))
            return {r.recolor[0][1] for r in unit.ruleset.rules
                    if re.fullmatch(r"decide:d\d+:fire\d+", r.name)}

        assert fire_targets(self.SRC) == {"m0.r"}
        assert fire_targets(self.SRC.replace(" par ", ") else (")) == {
            "m0.r", "m1.r"}
        assert fire_targets("criticals t;\nt := {}\n") == {"m0"}

    def test_bits_are_written_only_by_unguarded_stages(self):
        # _emit_stages' soundness argument: no stage of a guarded run
        # writes a bit, so its condition cannot change along the run
        src = ("atoms a; criticals c, x, y;\n"
               "if c = {} then (if not (x = c or a in y) then x := y"
               " else (if x != y then y := {a}))\n")
        body = asmlang.parse(src).body
        lo = compiler._Lowerer(["c", "x", "y"],
                               asmlang.assigned_criticals(body))
        lo.stmt(body, {}, compiler._TRUE)
        writers = [(emitter, cond) for _p, cond, emitter, args in lo.steps
                   if args and str(args[-1]).startswith("$b")]
        assert len(writers) == 4
        for emitter, cond in writers:
            assert emitter is compiler.compile_conditional
            assert cond is compiler._TRUE
        # the commits' operands, y's copy and {a}, are evaluated under c = {}
        assert any(not cond.is_true() for _p, cond, _e, _a in lo.steps)


FROZEN_DIR = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
              / "cases")


def rule_set_digest(sources):
    """SHA-256 over the compiled rule sets of named programs, both modes.

    Covers rule names, rule order, cells, edges, rewrites, negative
    edges and the radius line, plus the first color and idle set.
    """
    digest = hashlib.sha256()
    for name, source in sources:
        program = asmlang.parse(source)
        for neg in MODES:
            unit = compile_program(program, negative_edges=neg)
            digest.update(("%s %s\n" % (name, neg)).encode())
            digest.update(serialize_ruleset(unit.ruleset).encode())
            digest.update(("%r %r\n" % (
                unit.first_color, sorted(unit.idle_colors))).encode())
    return digest.hexdigest()


class TestGoldenRuleSets:
    """The compiled rule sets stay byte-identical.

    The corpus digest was recorded before alias-free templates stopped
    running the quotient search; the frozen-case digest covers the 60
    generated `perfbench/cases/gen-*.asml` programs (read only here),
    which use locations and choice more than the corpus does.  Both
    were re-recorded when the wind-down chain was folded into the
    cleanup chain, when each run of same-condition stages got one
    guard and each run of commits one decide stage, and when the empty
    set became a plain set and a decide fire began to enter its commit
    run past the run's guard, when cleanup began to drop one path
    condition's labels up to three a tick, and when critical terms,
    atoms and {} began to be read where they sit instead of copied into
    registers, and when the digest stopped reading the palette and
    labels lines and the register and bit lists (which rule sets and
    units then lost).
    """

    DIGEST = "0cfc2f996d9e86e2c974dbaad6bdecf9d9a03a6aa46391d36b05de8f37fcf3f0"
    FROZEN_DIGEST = ("bdcde56aa21a3740a8e5392229edad3a6fdb9890974b6c5b"
                     "295dfc803cf84e21")

    def test_corpus_rule_sets_unchanged(self):
        assert rule_set_digest(
            (name, load_corpus_case(name)[0])
            for name in corpus_names()) == self.DIGEST

    def test_frozen_case_rule_sets_unchanged(self):
        paths = sorted(FROZEN_DIR.glob("gen-*.asml"))
        assert len(paths) == 60
        assert rule_set_digest(
            (p.stem, p.read_text()) for p in paths) == self.FROZEN_DIGEST


@pytest.mark.parametrize("name", corpus_names())
def test_negative_edges_need_no_run_flag(name):
    """A unit compiled with negative edges carries them in its rules: a
    plain automaton.run reaches the interpreter's outcome and state."""
    source, state_text = load_corpus_case(name)
    universe, program, unit, state, graph = compile_case(
        source, state_text, negative_edges=True)
    want, _steps, want_outcome = interpreter.run_to_termination(
        program, state, universe)
    cfg, _stats, outcome = automaton.run(automaton.Configuration(graph),
                                         unit.ruleset, max_ticks=20000)
    assert outcome == automaton.QUIESCENT
    assert unit.classify(cfg.tangle) == want_outcome
    if want_outcome == interpreter.TERMINAL:
        assert unit.final_state(cfg.tangle, universe) == want


class TestVariants:
    def test_alias_free_template_is_its_only_variant(self):
        cells = [("C", "s0"), ("X", None)]
        edges = [("C", "$r0", "X"), ("C", "$r0", "X"), ("C", "$r1", "X")]
        assert compiler._variants(cells, edges, ()) == [
            ({}, cells, [("C", "$r0", "X"), ("C", "$r1", "X")], "")]

    def test_alias_free_emit_keeps_the_template(self):
        ctx = compiler.EmitContext()
        ctx.emit("t", [("C", "s0"), ("X", None)], [("C", "$r0", "X")],
                 recolor=[("C", "s1"), ("C", "s1")],
                 add=[("C", "$r1", "X"), ("C", "$r1", "X")],
                 delete=[("C", "$r0", "X")])
        [rule] = ctx.rules
        assert rule.name == "t"
        assert rule.names == ("C", "X")
        assert rule.recolor == ((0, "s1"),)
        assert rule.add == ((0, "$r1", 1),)
        assert rule.delete == ((0, "$r0", 1),)

    def test_apply_read_variants_keep_their_order(self):
        ctx = compiler.EmitContext()
        compiler.compile_apply_read(ctx, "s0", "s1", "g", ["$r0", "$r1"],
                                    "$r2")
        rules = ctx.rules
        hit = ["", "~A1=A2", "~A1=E", "~A1=A2=E", "~A1=V", "~A1=A2=V",
               "~A1=E=V", "~A1=A2=E=V", "~A2=E", "~A1=V~A2=E", "~A2=V",
               "~A1=E~A2=V", "~A2=E=V", "~E=V", "~A1=A2~E=V"]
        miss = ["", "~A1=A2", "~A1=E", "~A1=A2=E", "~A2=E"]
        assert [r.name for r in rules] == (
            ["eval:s0:hit" + x for x in hit]
            + ["eval:s0:miss" + x for x in miss])
        merged = rules[1]
        assert merged.names == ("C", "A1", "T", "V", "E", "F")
        assert (2, "arg2", 1) in merged.edges

    def test_quotient_closing_a_cycle_is_dropped(self):
        cells = [("C", "s0"), ("W", None), ("X", None), ("Y", None),
                 ("Z", None)]
        edges = [("C", "$r0", "X"), ("C", "$r1", "Z"), ("C", "$r2", "W"),
                 ("X", tangle.ELEM, "Y"), ("Z", tangle.ELEM, "X")]
        variants = compiler._variants(
            cells, edges, [("Y", "Z"), ("X", "Y"), ("W", "Y")])
        # X=Y would be a self-loop and Y=Z a two-cycle; W=Y closes none
        assert [v[3] for v in variants] == ["", "~W=Y"]
        assert variants[1][2] == [
            ("C", "$r0", "X"), ("C", "$r1", "Z"), ("C", "$r2", "W"),
            ("X", tangle.ELEM, "W"), ("Z", tangle.ELEM, "X")]

    def test_union_rules_match_a_fresh_context(self):
        def rules(ctx, entry, first, second):
            start = len(ctx.rules)
            compiler.compile_union(ctx, entry, entry + "n", first, second,
                                   "$r9")
            return [(r.name, r.names, r.colors, r.focus, r.edges, r.negs,
                     r.creates, r.recolor, r.add, r.delete)
                    for r in ctx.rules[start:]]

        shared = compiler.EmitContext()
        # x U x, then x U y and y U y: the operands' label equality differs
        for entry, first, second in [("s0", "$r0", "$r0"),
                                     ("s1", "$r0", "$r1"),
                                     ("s2", "$r1", "$r1")]:
            assert rules(shared, entry, first, second) == rules(
                compiler.EmitContext(), entry, first, second)

    def test_alias_free_cycle_fails_compilation(self, monkeypatch):
        def cyclic_commit(ctx, entry, nxt, name, src):
            ctx.emit("commit:%s:term" % entry,
                     [("C", entry), ("X", None), ("Y", None)],
                     [("C", name, "X"), ("X", tangle.ELEM, "Y"),
                      ("Y", tangle.ELEM, "X")],
                     recolor=[("C", nxt)])

        monkeypatch.setattr(compiler, "compile_term_commit", cyclic_commit)
        with pytest.raises(CompileError, match="pattern loop"):
            compile_program(asmlang.parse("criticals t;\nt := {}\n"))


class TestConstructs:
    def test_copy_empty_atom(self):
        assert_agrees(
            "atoms a; criticals t, p, r;\n"
            "if r = {} then (r := {a} par p := t par t := {})\n",
            "term t = {{}}\nterm r = {}\n")

    def test_singleton_build_and_reuse(self):
        # {s} already exists committed for the reuse branch
        assert_agrees(
            "atoms m; criticals s, w, r;\nif r = {} then r := {s}\n",
            "term s = m\nterm w = {{m}}\nterm r = {}\n")
        assert_agrees(
            "atoms m; criticals s, r;\nif r = {} then r := {{s}}\n",
            "term s = m\nterm r = {}\n")

    def test_union_dispatch_cases(self):
        # same operands / left empty / right empty / general build
        for state in ("term t = {m}\nterm p = {m}\n",
                      "term t = {}\nterm p = {m, q}\n",
                      "term t = {m, q}\nterm p = {}\n",
                      "term t = {m}\nterm p = {q}\n"):
            assert_agrees(
                "atoms m, q; criticals t, p, r;\n"
                "if r = {} then r := t U p\n",
                state + "term r = {}\n")

    def test_union_reuses_committed_result(self):
        assert_agrees(
            "atoms m, q; criticals t, p, w, r;\n"
            "if r = {} then r := t U p\n",
            "term t = {m}\nterm p = {q}\nterm w = {{m, q}}\nterm r = {}\n")

    def test_pair_create_and_reuse(self):
        assert_agrees(
            "atoms a, b; criticals t, r;\nif r = {} then r := <a, b>\n",
            "term t = <a, b>\nterm r = {}\n")
        assert_agrees(
            "atoms a, b; criticals r;\nif r = {} then r := <<a, b>, a>\n",
            "term r = {}\n")

    def test_conditional_bits(self):
        for state in ("term t = {a}\n", "term t = {b}\n", "term t = {}\n"):
            assert_agrees(
                "atoms a, b; criticals t, r;\n"
                "if a in t and not b in t then (if r = {} then r := {a})"
                " else (if r = {} then r := {b})\n",
                state + "term r = {}\n")

    def test_equality_and_inequality(self):
        assert_agrees(
            "criticals t, p, r;\n"
            "if t = p and r != {t} then r := {t}\n",
            "term t = {{}}\nterm p = {{}}\nterm r = {}\n")

    def test_deterministic_choice_via_singleton(self):
        assert_agrees(
            "atoms a; criticals t, r;\n"
            "if r = {} then let x = choose(t) in r := <x, x>\n",
            "term t = {{a}}\nterm r = {}\n")

    def test_empty_choice_reaches_error_color(self):
        src = ("criticals t, r;\n"
               "if r = {} then let x = choose(t) in r := {x}\n")
        for neg in MODES:
            _unit, cfg, _stats, klass, final, _u = run_automaton(
                src, "term t = {}\nterm r = {}\n", negative_edges=neg,
                check_invariants=True)
            assert klass == interpreter.EMPTY_CHOICE
            assert final is None

    def test_location_write_then_read(self):
        assert_agrees(
            "atoms a, b; functions g/2; criticals r, s;\n"
            "if r = {} then (g(a, b) := {a} par r := {b})"
            " else (if s = {} then s := g(a, b))\n",
            "term r = {}\nterm s = {}\n")

    def test_location_default_read(self):
        assert_agrees(
            "atoms a; functions h/1; criticals r;\n"
            "if r != {h(a)} then r := {h(a)}\n",
            "term r = {{}}\n")

    def test_location_preseeded(self):
        assert_agrees(
            "atoms a, b; functions g/2; criticals r;\n"
            "if g(b, a) != {} and r = {} then r := g(b, a)\n",
            "term r = {}\nloc g(b, a) = {a, b}\n")

    def test_parallel_swap(self):
        assert_agrees(
            "criticals t, p;\n"
            "if t != p and p != {} then (t := p par p := t)\n",
            "term t = {}\nterm p = {{}}\n")

    def test_let_binding_without_choice(self):
        assert_agrees(
            "atoms a; criticals t, r;\n"
            "if r = {} then let x = {a} U t in r := <x, x>\n",
            "term t = {{}}\nterm r = {}\n")

    def test_repeated_operands(self):
        # alias merges: t U t, <s, s>, g(x, x)
        assert_agrees(
            "atoms m; criticals t, r;\nif r = {} then r := t U t\n",
            "term t = {m}\nterm r = {}\n")
        assert_agrees(
            "atoms m; criticals s, r;\nif r = {} then r := <s, s>\n",
            "term s = {m}\nterm r = {}\n")
        assert_agrees(
            "atoms a; functions g/2; criticals r;\n"
            "if r = {} then (if g(a, a) = {} then r := {a})\n",
            "term r = {}\n")

    def test_deep_nesting(self):
        assert_agrees(
            "atoms a, b; criticals t, r;\n"
            "if r = {} then r := {{a} U {b}} U <a, {b}>  U t\n"
            .replace("<a, {b}>", "{<a, {b}>}"),
            "term t = {{}}\nterm r = {}\n")

    def test_else_branch(self):
        for state in ("term t = {a}\n", "term t = {}\n"):
            assert_agrees(
                "atoms a; criticals t, r;\n"
                "if t = {} then r := {a} else r := {t}\n"
                .replace("r := {a}", "(if r = {} then r := {a})")
                .replace("r := {t}", "(if r = {} then r := {t})"),
                state + "term r = {}\n")


class TestCleanup:
    @pytest.mark.parametrize("neg", MODES)
    def test_no_scratch_left_behind(self, neg):
        src = ("atoms a, b; functions g/1; criticals t, r;\n"
               "if a in t and r = {} then"
               " let x = choose(t) in r := <{x} U g(b), t>\n")
        state = "term t = {a, b}\nterm r = {}\n"
        _unit, cfg, _stats, klass, _final, _u = run_automaton(
            src, state, negative_edges=neg, check_invariants=True)
        assert klass == interpreter.TERMINAL
        g = cfg.tangle
        c = g.criticals()
        leftover = [l for l in g.out[c] if l.startswith("$")
                    and g.targets(c, l)]
        assert leftover == []
        # no mid-protocol mark colors survive anywhere
        final_colors = {g.color_of(n) for n in g.nodes}
        assert final_colors <= {"done", tangle.PLAIN, tangle.MARKER,
                                tangle.JUNK}
        # the two guard markers persist
        assert len(g.targets(c, "#true")) == 1
        assert len(g.targets(c, "#false")) == 1

    @pytest.mark.parametrize("neg", MODES)
    def test_no_negative_scratch_edges_left(self, neg):
        src = ("atoms m, q; criticals t, p, w, r;\n"
               "if r = {} then r := t U p\n")
        state = ("term t = {m, {m, q}}\nterm p = {q}\n"
                 "term w = {{m}}\nterm r = {}\n")
        _unit, cfg, _stats, klass, _final, _u = run_automaton(
            src, state, negative_edges=neg, check_invariants=True)
        assert klass == interpreter.TERMINAL
        g = cfg.tangle
        for src_id, label, _dst in g.edges():
            if g.nodes[src_id].kind != tangle.CRITICALS:
                assert not label.startswith("$"), label


SCHEDULES = ((automaton.DETERMINISTIC, 0), (automaton.RANDOM, 1),
             (automaton.RANDOM, 2))


def cleanup_rounds(source, state_text):
    """Per edge mode and schedule, the cleanup rules each round applied,
    as [[rule, ...] per round]; a round starts each time the focus
    enters the unit's first colour.  Every run must halt terminal."""
    runs = {}
    for neg in MODES:
        for mode, seed in SCHEDULES:
            _u, _p, unit, _s, graph = compile_case(
                source, state_text, negative_edges=neg)
            rounds = []

            def on_tick(cfg, applied):
                if applied.rule.name.startswith("cleanup:"):
                    rounds[-1].append(applied.rule)
                g = cfg.tangle
                if g.color_of(g.active) == unit.first_color:
                    rounds.append([])

            cfg, _stats, outcome = automaton.run(
                automaton.Configuration(graph, seed=seed, mode=mode),
                unit.ruleset, on_tick=on_tick)
            assert outcome == automaton.QUIESCENT
            assert unit.classify(cfg.tangle) == interpreter.TERMINAL
            runs[(neg, mode, seed)] = rounds
    return runs


def stages(rules):
    """(entry, rule kind) of each cleanup rule, alias suffix dropped."""
    return [tuple(r.name.split("~")[0].split(":")[1:]) for r in rules]


class TestGroupedCleanup:
    """Cleanup drops the labels of one path condition up to three a
    tick, and passes over an unset condition's labels in one tick."""

    # seven registers under r = {}: {a}, {b}, <{a}, {b}>, {b}, {a},
    # <{b}, {a}> and the outer pair, at k0..k2; the bit runs
    # unconditionally and comes last, at k3, and the last stage, at k4,
    # is empty, since r and {} are read where they sit
    GUARDED = ("atoms a, b; criticals r;\n"
               "if r = {} then r := <<{a}, {b}>, <{b}, {a}>>\n")
    UNSET = [("k0", "skip"), ("k3", "drop0"), ("k4", "drop")]

    def test_unset_group_costs_one_tick(self):
        state = "term r = {a}\n"
        assert_agrees(self.GUARDED, state, seeds=(1, 2))
        for run, rounds in cleanup_rounds(self.GUARDED, state).items():
            assert [stages(r) for r in rounds] == [self.UNSET], run

    def test_set_group_costs_a_tick_per_three_labels(self):
        state = "term r = {}\n"
        assert_agrees(self.GUARDED, state, seeds=(1, 2))
        # round one drops the seven guarded registers in three ticks, and
        # the empty last stage drops the $go mark
        first = [("k0", "drop"), ("k1", "drop"), ("k2", "drop"),
                 ("k3", "drop1"), ("k4", "drop-again")]
        for run, rounds in cleanup_rounds(self.GUARDED, state).items():
            assert [stages(r) for r in rounds] == [first, self.UNSET], run
            assert rounds[0][-1].name == "cleanup:k4:drop-again"

    def test_registers_holding_one_node_drop_together(self):
        # {t} is built twice under r = {}: two registers on one node, in
        # the chunk with <{t}, {t}>
        source = "criticals t, r;\nif r = {} then r := <{t}, {t}>\n"
        state = "term t = {{}}\nterm r = {}\n"
        assert_agrees(source, state, seeds=(1, 2))
        for run, rounds in cleanup_rounds(source, state).items():
            assert rounds[0][0].name == "cleanup:k0:drop~X0=X1", run
            assert stages(rounds[1])[0] == ("k0", "skip"), run

    def test_bits_on_both_markers_drop_together(self):
        # r = {} holds and t = {} does not in round one; neither in two
        source = "criticals t, r;\nif r = {} and t != {} then r := {t}\n"
        state = "term t = {{}}\nterm r = {}\n"
        assert_agrees(source, state, seeds=(1, 2))

        def bit_targets(rule):
            return sorted((label, rule.names[dst])
                          for _src, label, dst in rule.edges
                          if label.startswith("$b"))

        for run, rounds in cleanup_rounds(source, state).items():
            assert [stages(r)[1][0] for r in rounds] == ["k1", "k1"], run
            assert [bit_targets(r[1]) for r in rounds] == [
                [("$b0", "T"), ("$b1", "F")],
                [("$b0", "F"), ("$b1", "F")]], run


def applied_rules(source, state_text):
    """Per edge mode and schedule, the rules each run applied, in order."""
    runs = {}
    for neg in MODES:
        for mode, seed in SCHEDULES:
            _u, _p, unit, _s, graph = compile_case(
                source, state_text, negative_edges=neg)
            applied = []
            automaton.run(
                automaton.Configuration(graph, seed=seed, mode=mode),
                unit.ruleset, on_tick=lambda _c, m: applied.append(m.rule))
            runs[(neg, mode, seed)] = applied
    return runs


def copy_reads(source):
    """The labels the eval:*:copy rules of a compiled program read."""
    unit = compile_program(asmlang.parse(source))
    return sorted(label for r in unit.ruleset.rules
                  if re.fullmatch(r"eval:[^:]+:copy", r.name)
                  for _a, label, _b in r.edges)


class TestLeafForwarding:
    """Critical terms, atoms and {} are read on their own edge of the
    Criticals node, with no stage; only a commit operand that a commit
    of the program writes is copied into a register first."""

    def test_leaf_operands_take_no_copy(self):
        source = "atoms m, q; criticals t, p, r;\nif r = {} then r := t U p\n"
        assert_agrees(source, "term t = {m}\nterm p = {q}\nterm r = {}\n",
                      seeds=(1, 2))
        assert copy_reads(source) == []

    @pytest.mark.parametrize("source, reads", [
        ("criticals x, y;\nif x != y and y != {} then (x := y par y := x)\n",
         ["x", "y"]),
        ("criticals x, y;\nif x != {} then (x := {} par y := x)\n", ["x"]),
    ], ids=["swap", "empty-then-read"])
    def test_commit_operands_written_by_a_commit_keep_their_copy(
            self, source, reads):
        # without the copy, y's commit would read x's new value
        assert_agrees(source, "term x = {{}}\nterm y = {}\n", seeds=(1, 2))
        assert_agrees(source, "term x = {}\nterm y = {{}}\n", seeds=(1, 2))
        assert copy_reads(source) == reads

    def test_leaf_commits_halt_through_the_empty_last_stage(self):
        source = ("atoms a; criticals x, y;\n"
                  "if x = {} then (x := a par y := {})\n")
        state = "term x = {}\nterm y = {{}}\n"
        assert_agrees(source, state, seeds=(1, 2))
        unit = compile_program(asmlang.parse(source))
        assert not any(r.name.startswith("eval:") for r in unit.ruleset.rules)
        assert not any(l.startswith("$r")
                       for r in unit.ruleset.rules
                       for _a, l, _b in r.edges + r.add + r.delete)
        # the bit's chunk at k0, then the empty last stage: the bare focus,
        # and its $go twin in the round that commits
        for run, rounds in cleanup_rounds(source, state).items():
            assert [stages(r) for r in rounds] == [
                [("k0", "drop1"), ("k1", "drop-again")],
                [("k0", "drop0"), ("k1", "drop")]], run
            assert rounds[-1][-1].names == ("C",), run

    @pytest.mark.parametrize("source, kind", [
        ("criticals t, r;\nif r = {} then r := t U t\n",
         "union-check:s1.r:same"),
        ("criticals t, r;\nif t = t and r = {} then r := {t}\n",
         "conditional:s0:true"),
        ("criticals t, r;\nif r = {} then r := <t, t>\n", "pairing:s1.r:"),
    ], ids=["union", "eq", "pair"])
    def test_one_label_serves_two_operands(self, source, kind):
        state = "term t = {{}}\nterm r = {}\n"
        assert_agrees(source, state, seeds=(1, 2))
        for run, applied in applied_rules(source, state).items():
            fired = [r for r in applied if r.name.startswith(kind)]
            assert fired, run
            # both operands bind one cell through the one t edge
            for rule in fired:
                assert [l for _a, l, _b in rule.edges].count("t") == 1, run


class TestUnionRegressions:
    def test_rejected_candidate_inside_operand(self):
        # the decoy {m, q} is rejected as the union result, yet is itself
        # a member of t; its members must still be copied into the result
        src = ("atoms m, q; criticals t, p, r;\n"
               "if r = {} then r := t U p\n")
        state = "term t = {m, {m, q}}\nterm p = {q}\nterm r = {}\n"
        assert_agrees(src, state, seeds=(0, 1, 2, 3))

    def test_rejected_candidate_scan_rules_fire_in_mark_mode(self):
        src = ("atoms m, q; criticals t, p, r;\n"
               "if r = {} then r := t U p\n")
        state = "term t = {m, {m, q}}\nterm p = {q}\nterm r = {}\n"
        from conftest import compile_case
        u, _p, unit, st, graph = compile_case(src, state)
        fired = set()
        _cfg, _stats, outcome = automaton.run(
            automaton.Configuration(graph), unit.ruleset,
            on_tick=lambda _c, applied: fired.add(applied.rule.name))
        assert outcome == automaton.QUIESCENT
        assert any(r.endswith("prebuild-restore") for r in fired)
        assert any("-rej" in r for r in fired)

    def test_empty_membership_subphase(self):
        # {} is a member of t; a committed candidate missing {} must be
        # rejected in every schedule
        src = ("atoms m; criticals t, p, r;\n"
               "if r = {} then r := t U p\n")
        state = "term t = {{}, m}\nterm p = {m}\nterm r = {}\n"
        u, _prog, want, _steps, outcome = oracle_state(src, state)
        assert outcome == interpreter.TERMINAL
        assert want.values["r"] is u.parse("{{}, m}")
        for neg in MODES:
            for seed in range(13):
                _unit, _cfg, _stats, klass, got, _u = run_automaton(
                    src, state, negative_edges=neg, seed=seed,
                    mode=automaton.RANDOM, check_invariants=True)
                assert klass == interpreter.TERMINAL, (neg, seed)
                assert got == want, (neg, seed)

    def test_empty_membership_required_in_candidate(self):
        # symmetric case: candidate has {} but the operands do not
        src = ("atoms m, q; criticals t, p, w, r;\n"
               "if r = {} then r := t U p\n")
        state = ("term t = {m}\nterm p = {q}\nterm w = {{{}, m, q}}\n"
                 "term r = {}\n")
        assert_agrees(src, state, seeds=(0, 1, 2, 3, 7))

    # the empty set is a plain member like any other: the general mark,
    # reject, copy and unmark rules handle it, and restore it to plain
    @pytest.mark.parametrize("state, want", [
        # the result exists; the decoy {m, q} lacks p's member {}
        ("term t = {m}\nterm p = {{}, q}\nterm w = {{{}, m, q}, {m, q}}\n",
         "{{}, m, q}"),
        # the decoy holds {} and neither operand does, so it is rejected
        ("term t = {m}\nterm p = {q}\nterm w = {{{}, m, q}}\n", "{m, q}"),
        # no candidate holds {}, so the build copies it
        ("term t = {{}, m}\nterm p = {{}, q}\nterm w = {{m, q}}\n",
         "{{}, m, q}"),
    ], ids=["found", "rejected", "built"])
    @pytest.mark.parametrize("neg", MODES)
    @pytest.mark.parametrize("mode, seed", [(automaton.DETERMINISTIC, 0),
                                            (automaton.RANDOM, 1),
                                            (automaton.RANDOM, 2)])
    def test_empty_set_as_a_union_member(self, state, want, neg, mode, seed):
        src = ("atoms m, q; criticals t, p, w, r;\n"
               "if r = {} then r := t U p\n")
        u, _prog, oracle, _steps, outcome = oracle_state(src, state)
        assert outcome == interpreter.TERMINAL
        assert oracle.values["r"] is u.parse(want)
        _unit, cfg, _stats, klass, got, _u = run_automaton(
            src, state, negative_edges=neg, seed=seed, mode=mode,
            check_invariants=True)
        assert klass == interpreter.TERMINAL
        assert interpreter.print_state(got) == interpreter.print_state(oracle)
        g = cfg.tangle
        marks = {compiler.SUGG, compiler.TESTED, compiler.MKU, compiler.MKUR,
                 compiler.UREJ, compiler.MKB, compiler.UBUILD}
        assert not {g.color_of(n) for n in g.nodes} & marks


class TestPhaseAccounting:
    def test_phases_cover_protocol_steps(self):
        # g(a) is the eval tick: leaf operands take no tick of their own
        src = ("atoms a, b; functions g/1; criticals t, r;\n"
               "if a in t and r = {} then"
               " let x = choose(t) in r := {x} U {<b, g(a)>}\n")
        state = "term t = {a}\nterm r = {}\n"
        _unit, _cfg, stats, klass, _final, _u = run_automaton(src, state)
        assert klass == interpreter.TERMINAL
        for phase in ("boot", "eval", "conditional", "choice", "singleton",
                      "pairing", "union-check", "union-build", "decide",
                      "commit", "cleanup"):
            assert stats.phases.get(phase, 0) > 0, phase
        assert stats.total == sum(stats.phases.values())

    def test_mark_modes_agree_on_final_state(self):
        src = ("atoms m, q; criticals t, p, r;\n"
               "if r = {} then r := t U p\n")
        state = "term t = {m, {m, q}}\nterm p = {q, {}}\nterm r = {}\n"
        finals = []
        for neg in MODES:
            _unit, _cfg, _stats, klass, got, _u = run_automaton(
                src, state, negative_edges=neg, check_invariants=True)
            assert klass == interpreter.TERMINAL
            finals.append(got)
        assert finals[0] == finals[1]


class TestNonTerminating:
    """A program that never halts is compared round by round: the
    automaton pauses each time it re-reaches the first eval color and its
    decoded state must equal the interpreter's after as many rounds."""

    SWAP = "criticals t, p;\nif t != p then (t := p par p := t)\n"

    @pytest.mark.parametrize("neg", MODES)
    @pytest.mark.parametrize("mode,seed", [(automaton.DETERMINISTIC, 0),
                                           (automaton.RANDOM, 1),
                                           (automaton.RANDOM, 7),
                                           (automaton.RANDOM, 42)])
    def test_swap_agrees_round_by_round(self, neg, mode, seed):
        universe, program, unit, state, graph = compile_case(
            self.SWAP, "term t = {}\nterm p = {{}}\n", negative_edges=neg)
        cfg = automaton.Configuration(graph, seed=seed, mode=mode)
        crossings = 0
        for rounds in (1, 2, 3):
            want, steps, outcome = interpreter.run_to_termination(
                program, state, universe, max_steps=rounds)
            assert (steps, outcome) == (rounds, interpreter.BUDGET)
            # the first crossing is the boot tick, before any transition
            while crossings < rounds + 1:
                assert cfg.tick < 200000, "no round boundary reached"
                assert automaton.step(cfg, unit.ruleset) is not None
                if cfg.tangle.color_of(cfg.tangle.active) == unit.first_color:
                    crossings += 1
            got = unit.final_state(cfg.tangle, universe)
            assert got == want, rounds


# Error outcomes on which the automaton and the interpreter still part
# ways (ROADMAP item 3), as (source, state, interpreter outcome).  Each
# probe is expected to fail its comparison; a fix turns it into an XPASS,
# which strict mode reports as a failure until the mark comes off.
ERROR_PROBES = {
    # automaton: stuck:s1.r.s after 4 ticks
    "union-of-atoms": ("atoms a, b; criticals t;\nif t = {} then t := a U b\n",
                       "term t = {}\n", interpreter.TYPE_ERROR),
    # automaton: terminal (an atom has no members)
    "member-of-atom": ("atoms a, b; criticals t;\nif a in b then t := {}\n",
                       "term t = {}\n", interpreter.TYPE_ERROR),
    # automaton: terminal after 26 ticks, the last write wins
    "clashing-location-writes": (
        "atoms a; functions f/1; criticals x, y, t;\n"
        "if t = {} then (f(x) := {a} par f(y) := {} par t := {{}})\n",
        "term x = {}\nterm y = {}\nterm t = {}\n", interpreter.CLASH),
    # automaton: grows without bound, so the tick budget runs out
    "unbounded-depth": ("criticals c;\nc := {c}\n", "term c = {}\n",
                        interpreter.LIMIT),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="error outcomes still diverge (ROADMAP item 3)")
@pytest.mark.parametrize("probe", sorted(ERROR_PROBES))
def test_error_outcome_matches_interpreter(probe):
    source, state_text, oracle = ERROR_PROBES[probe]
    universe, program, unit, state, graph = compile_case(source, state_text)
    _final, _steps, want = interpreter.run_to_termination(program, state,
                                                          universe)
    if want != oracle:
        pytest.fail("interpreter outcome changed: %s" % want)
    cfg, _stats, _outcome = automaton.run(automaton.Configuration(graph),
                                          unit.ruleset, max_ticks=5000)
    assert unit.classify(cfg.tangle) == want
