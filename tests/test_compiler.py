"""Lowering ASM programs to transition rules: units, end-to-end, regressions."""
import collections
import hashlib
import itertools
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from tangleca import (asmlang, automaton, compiler, difftest, hfset,
                      interpreter, tangle)
from tangleca.compiler import CompileError, Formula, compile_program
from tangleca.pattern import RuleSet, serialize_ruleset, validate_ruleset

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
                 "cleanup"}
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
    chain ("s", "m", ...); a guard has one satisfying row here, and its
    skip rule is unindexed."""
    targets = {}
    for rule in rules:
        m = re.fullmatch(r"[^:]+:(%s\d+):(sat|skip)\d*" % chain, rule.name)
        if m:
            [(_cell, color)] = rule.recolor
            targets.setdefault(m.group(1), {})[m.group(2)] = color
    return {e: (t["sat"], t["skip"]) for e, t in targets.items()}


class TestStageRuns:
    """One guard per maximal run of stages under one path condition."""

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
        assert guard_targets(rules, "s") == {"s1": ("s1.r", "m0")}
        assert guard_targets(rules, "m") == {"m0": ("m0.r", "k0")}

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


B0, B1, B2 = (Formula.of_bit(i) for i in range(3))

# formulas a row stage is tested on; the unsatisfiable one is left
# unminimized, so that its rows still set two bits
ROW_FORMULAS = {
    "b0": B0,
    "not b0": B0.negate(),
    "b0 and b1": B0.conj(B1),
    "b0 or (b1 and b2)": B0.disj(B1.conj(B2)),
    "never": Formula((0, 1), ()),
}

# a row stage at entry "e": a guard goes to "run" on a satisfying row
# and to "skip" otherwise; "mark", a commit run's guard, also marks the
# round with $go
ROW_STAGES = {
    "guard": lambda ctx, f: compiler.compile_lock_wrapping(
        ctx, "e", "run", "skip", f, "eval"),
    "mark": lambda ctx, f: compiler.compile_lock_wrapping(
        ctx, "e", "run", "skip", f, "commit", [("C", compiler.GO, "F")]),
}


def row_tick(stage, formula, row, mode, seed):
    """Emit one row stage and run one tick of it on a tangle holding the
    focus, both markers and the bits of `row`; returns (the stage's
    rules, the focus colour after the tick, whether $go is set)."""
    ctx = compiler.EmitContext()
    ROW_STAGES[stage](ctx, formula)
    g = tangle.Tangle()
    focus = g.add_node("e", tangle.CRITICALS)
    true = g.add_node(tangle.MARKER, tangle.SCRATCH)
    false = g.add_node(tangle.MARKER, tangle.SCRATCH)
    g.add_edge(focus, tangle.TRUE_EDGE, true)
    g.add_edge(focus, tangle.FALSE_EDGE, false)
    for bit, value in row:
        g.add_edge(focus, "$b%d" % bit, true if value else false)
    g.active = focus
    cfg = automaton.Configuration(g, seed=seed, mode=mode)
    assert automaton.step(cfg, RuleSet(ctx.rules)) is not None
    return ctx.rules, g.color_of(focus), g.has_edge(focus, compiler.GO,
                                                    false)


class TestRowStages:
    """Guard stages: a rule per satisfying row, and one bare-focus rule
    that takes every other row."""

    @pytest.mark.parametrize("mode,seed", [(automaton.DETERMINISTIC, 0),
                                           (automaton.RANDOM, 1),
                                           (automaton.RANDOM, 2)])
    @pytest.mark.parametrize("stage", sorted(ROW_STAGES))
    @pytest.mark.parametrize("name", sorted(ROW_FORMULAS))
    def test_every_row_takes_its_branch(self, name, stage, mode, seed):
        formula = ROW_FORMULAS[name]
        want = {("guard", True): ("run", False),
                ("guard", False): ("skip", False),
                ("mark", True): ("run", True),
                ("mark", False): ("skip", False)}
        for row, sat in formula.assignments():
            rules, color, go = row_tick(stage, formula, row, mode, seed)
            assert len(rules) == len(formula.rows) + 1
            assert (color, go) == want[(stage, sat)], row


FROZEN_DIR = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
              / "cases")


def compiled_units(sources):
    """(name, negative_edges, unit) for named programs, both modes."""
    for name, source in sources:
        program = asmlang.parse(source)
        for neg in MODES:
            yield name, neg, compile_program(program, negative_edges=neg)


def rule_set_digest(units):
    """SHA-256 over the rule sets of compiled_units.

    Covers rule names, rule order, cells, edges, rewrites, negative
    edges and the radius line, plus the first color and idle set.
    """
    digest = hashlib.sha256()
    for name, neg, unit in units:
        digest.update(("%s %s\n" % (name, neg)).encode())
        digest.update(serialize_ruleset(unit.ruleset).encode())
        digest.update(("%r %r\n" % (
            unit.first_color, sorted(unit.idle_colors))).encode())
    return digest.hexdigest()


def phase_counts(units):
    """Rules per phase, the first field of a rule name, over the units."""
    return dict(collections.Counter(
        rule.name.split(":", 1)[0]
        for _name, _neg, unit in units for rule in unit.ruleset.rules))


class TestGoldenRuleSets:
    """The compiled rule sets stay byte-identical.

    One digest covers the 20 corpus programs, the other perfbench's 60
    frozen generated programs (read only here), which use locations and
    choice more than the corpus does, each compiled in both edge modes
    (rule_set_digest says what is hashed).  Beside each digest sit its
    units' rule counts per phase (a guard's rules carry the phase of its
    run's first stage).  They are compared first, so a digest change
    names the phases whose rules moved.  CHANGES.md lists each
    re-record, with its old and new value and the reason.
    """

    DIGEST = "2c96384a3ed21486612fdc1fde29c1beb04c60a8e1acb9ff28d25435c85c5eb5"
    PHASES = {"boot": 40, "choice": 16, "cleanup": 342, "commit": 232,
              "conditional": 104, "eval": 84, "pairing": 84,
              "singleton": 426, "union-build": 168, "union-check": 788}
    FROZEN_DIGEST = ("b8fdf9830d5e3c43c372c74e6a51ab40d44e5ba577eeaa86"
                     "e6dc7e2547efcafc")
    FROZEN_PHASES = {"boot": 120, "choice": 48, "cleanup": 1094,
                     "commit": 824, "conditional": 448, "eval": 428,
                     "pairing": 348, "singleton": 1654,
                     "union-build": 532, "union-check": 2558}

    @staticmethod
    def check(sources, phases, digest):
        units = list(compiled_units(sources))
        assert phase_counts(units) == phases
        assert rule_set_digest(units) == digest

    def test_corpus_rule_sets_unchanged(self):
        self.check(((name, load_corpus_case(name)[0])
                    for name in corpus_names()), self.PHASES, self.DIGEST)

    def test_frozen_case_rule_sets_unchanged(self):
        paths = sorted(FROZEN_DIR.glob("gen-*.asml"))
        assert len(paths) == 60
        self.check(((p.stem, p.read_text()) for p in paths),
                   self.FROZEN_PHASES, self.FROZEN_DIGEST)


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


def naive_variants(cells, edges, pool):
    """The feasible partitions of the pool, from every map of its cells to
    block labels: no block of two colours, no quotient with a cycle."""
    colour = dict(cells)
    found = set()
    for labels in itertools.product(range(len(pool)), repeat=len(pool)):
        blocks = collections.defaultdict(set)
        for x, label in zip(pool, labels):
            blocks[label].add(x)
        partition = frozenset(frozenset(b) for b in blocks.values())
        if any(len({colour[x] for x in b} - {None}) > 1 for b in partition):
            continue
        node = {x: min(b) for b in partition for x in b}
        succ = collections.defaultdict(set)
        for a, _l, b in edges:
            succ[node.get(a, a)].add(node.get(b, b))

        def reaches(start, goal):
            todo, seen = list(succ[start]), set()
            while todo:
                m = todo.pop()
                if m == goal:
                    return True
                if m not in seen:
                    seen.add(m)
                    todo.extend(succ[m])
            return False

        if not any(reaches(m, m) for m in list(succ)):
            found.add(partition)
    return found


class TestVariants:
    def test_alias_free_template_is_its_only_variant(self):
        cells = [("C", "s0"), ("X", None)]
        edges = [("C", "$r0", "X"), ("C", "$r0", "X"), ("C", "$r1", "X")]
        assert list(compiler._variants(cells, edges, ())) == [
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
        # the template, then its quotients by non-increasing cell count
        ctx = compiler.EmitContext()
        compiler.compile_apply_read(ctx, "s0", "s1", "g", ["$r0", "$r1"],
                                    "$r2")
        rules = ctx.rules
        hit = ["", "~A1=A2", "~A1=V", "~A1=E", "~A2=V", "~A2=E", "~E=V",
               "~A1=A2=V", "~A1=E~A2=V", "~A1=V~A2=E", "~A1=A2=E",
               "~A1=A2~E=V", "~A1=E=V", "~A2=E=V", "~A1=A2=E=V"]
        miss = ["", "~A1=A2", "~A1=E", "~A2=E", "~A1=A2=E"]
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
        variants = list(compiler._variants(cells, edges, list("WXYZ")))
        # X=Y and X=Z would be self-loops and Y=Z a two-cycle; W may
        # join any one of them
        assert [v[3] for v in variants] == ["", "~W=X", "~W=Y", "~W=Z"]
        assert variants[2][2] == [
            ("C", "$r0", "X"), ("C", "$r1", "Z"), ("C", "$r2", "W"),
            ("X", tangle.ELEM, "W"), ("Z", tangle.ELEM, "X")]

    CELLS = [("C", "s0"), ("X", None), ("Y", None), ("Z", None)]
    EDGES = [("C", "$r0", "X"), ("C", "$r1", "Y"), ("C", "$r2", "Z")]

    def test_merged_cells_take_their_one_color(self):
        cells = [("C", "s0"), ("X", None), ("Y", "plain"), ("Z", "marker")]
        variants = list(compiler._variants(cells, self.EDGES, list("XYZ")))
        # Y and Z demand different colours, so no block holds both
        assert [(v[3], v[1]) for v in variants] == [
            ("", cells),
            ("~X=Y", [("C", "s0"), ("X", "plain"), ("Z", "marker")]),
            ("~X=Z", [("C", "s0"), ("X", "marker"), ("Y", "plain")])]
        mapping, _qcells, qedges, _suffix = variants[1]
        assert mapping == {"X": "X", "Y": "X", "Z": "Z"}
        assert qedges == [("C", "$r0", "X"), ("C", "$r1", "X"),
                          ("C", "$r2", "Z")]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_variant_per_feasible_partition(self, data):
        # up to six value cells, elem edges only from earlier to later
        # cells (the template is acyclic), and a pool of up to five
        n = data.draw(st.integers(0, 6))
        names = ["X%d" % i for i in range(n)]
        colours = data.draw(st.lists(st.sampled_from(
            [None, tangle.PLAIN, tangle.MARKER]), min_size=n, max_size=n))
        cells = [("C", "s0")] + list(zip(names, colours))
        edges = [("C", "$r%d" % i, x) for i, x in enumerate(names)]
        if n > 1:
            pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1))
            edges += [(names[a], tangle.ELEM, names[b])
                      for a, b in data.draw(st.lists(pairs, max_size=4))
                      if a < b]
        pool = data.draw(st.lists(st.sampled_from(names), unique=True,
                                  max_size=5) if names else st.just([]))

        variants = list(compiler._variants(cells, edges, pool))
        got = [frozenset(frozenset(x for x in pool if mapping[x] == lead)
                         for lead in set(mapping.values()))
               for mapping, _qcells, _qedges, _suffix in variants]
        assert len(got) == len(set(got))
        assert set(got) == naive_variants(cells, edges, pool)
        assert variants[0] == ({x: x for x in pool}, cells,
                               list(dict.fromkeys(edges)), "")
        sizes = [len(qcells) for _m, qcells, _e, _s in variants]
        assert sizes == sorted(sizes, reverse=True)

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
    UNSET = [("k0", "skip"), ("k3", "drop"), ("k4", "drop")]

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
                 ("k3", "drop"), ("k4", "drop-again")]
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
        # r = {} holds and t = {} does not in round one; neither in two.
        # A bit binds a marker cell of the pool: bits on both markers bind
        # two cells, bits on one marker one merged cell
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
                [("$b0", "X0"), ("$b1", "X1")],
                [("$b0", "X0"), ("$b1", "X0")]], run
            assert rounds[1][1].name == "cleanup:k1:drop~X0=X1", run


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
                [("k0", "drop"), ("k1", "drop-again")],
                [("k0", "drop"), ("k1", "drop")]], run
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


class TestShortCircuit:
    """The right operand of `and` runs only where the left one holds, and
    that of `or` only where it fails, as the interpreter evaluates them.
    Where the interpreter skips a right operand here, it unions an atom
    with a non-empty set, which would stick the run (the union protocol
    finds no witness member in the atom) if it were evaluated."""

    def test_or_right_operand_skipped_when_left_holds(self):
        # `tangleca difftest --count 20 --seed 6247`, case001: t is an
        # atom, so {p} in t U p cannot be evaluated, and p != {a} holds
        assert_agrees(
            "atoms a;\nfunctions g/1;\ncriticals t, p;\n"
            "if {} != t then if p != {a} or {p} in t U p then "
            "if p in p or {p} = p then p := {p} else t := {} "
            "else t := <t, p U p>\n",
            "term p = {{{}},{a,{}}}\nterm t = a\n", seeds=(1, 2))

    AND = "atoms a;\ncriticals t, p;\nif t != a and p in t U p then t := a\n"

    @pytest.mark.parametrize("state_text", [
        # the left operand fails: the union is skipped
        "term t = a\nterm p = {{}}\n",
        # the right operand runs, false, then true (and t becomes a)
        "term t = {a}\nterm p = {{}}\n",
        "term t = {{{}}}\nterm p = {{}}\n"])
    def test_and_right_operand_skipped_when_left_fails(self, state_text):
        assert_agrees(self.AND, state_text, seeds=(1, 2))

    NESTED = ("atoms a;\ncriticals t, p, r;\n"
              "if r = {} or (t != a and r in t U p) then r := {a}\n")

    @pytest.mark.parametrize("state_text", [
        # the left operand holds, then t != a fails: the union never runs
        "term r = {}\nterm t = a\nterm p = {{}}\n",
        "term r = {{}}\nterm t = a\nterm p = {{}}\n",
        # every operand runs, the union's test false, then true
        "term r = {{}}\nterm t = {a}\nterm p = {{a}}\n",
        "term r = {{}}\nterm t = {{{}}}\nterm p = {a}\n"])
    def test_nested_or_of_and(self, state_text):
        assert_agrees(self.NESTED, state_text, seeds=(1, 2))


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
                      "pairing", "union-check", "union-build", "commit",
                      "cleanup"):
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

    # an unconditional commit fires in every round, whatever the guarded
    # runs beside it do, so the round ends unmarked and still loops
    ALWAYS_FIRES = {
        "unconditional": "criticals t, p;\nt := p par p := t\n",
        "guarded-and-unconditional":
            "criticals t, p;\n(if t != {} then t := {}) par p := {p}\n",
    }

    @pytest.mark.parametrize("neg", MODES)
    @pytest.mark.parametrize("mode,seed", [(automaton.DETERMINISTIC, 0),
                                           (automaton.RANDOM, 1),
                                           (automaton.RANDOM, 7),
                                           (automaton.RANDOM, 42)])
    def test_swap_agrees_round_by_round(self, neg, mode, seed):
        self.agree_round_by_round(self.SWAP, "term t = {}\nterm p = {{}}\n",
                                  neg, mode, seed, 3)

    @pytest.mark.parametrize("neg", MODES)
    @pytest.mark.parametrize("mode,seed", [(automaton.DETERMINISTIC, 0),
                                           (automaton.RANDOM, 1)])
    @pytest.mark.parametrize("name", sorted(ALWAYS_FIRES))
    def test_always_firing_agrees_round_by_round(self, name, neg, mode,
                                                 seed):
        self.agree_round_by_round(self.ALWAYS_FIRES[name],
                                  "term t = {{}}\nterm p = {}\n",
                                  neg, mode, seed, 4)

    @staticmethod
    def agree_round_by_round(source, state_text, neg, mode, seed, last):
        universe, program, unit, state, graph = compile_case(
            source, state_text, negative_edges=neg)
        cfg = automaton.Configuration(graph, seed=seed, mode=mode)
        crossings = 0
        for rounds in range(1, last + 1):
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
