"""Anchored matching against a brute-force oracle; precedence; rules."""
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import tangleca
from tangleca import automaton, kernel, pattern, tangle
from tangleca.pattern import (Rule, RuleError, RuleSet, apply, match_all,
                              maximality_filter, serialize_ruleset,
                              validate_ruleset)

COLORS = ("red", "green", "blue")
LABELS = ("x", "y", "z")


def brute_matches(g, ruleset):
    """Reference matcher: try every injective assignment outright; a
    rule's negative edges must be absent."""
    out = []
    node_ids = sorted(g.nodes)
    for rule_index, rule in enumerate(ruleset.rules):
        n = len(rule.colors)
        rest = [i for i in range(n) if i != rule.focus]
        for perm in itertools.permutations(node_ids, len(rest)):
            binding = [None] * n
            binding[rule.focus] = g.active
            for i, nid in zip(rest, perm):
                binding[i] = nid
            if len(set(binding)) != len(binding):
                continue
            ok = all(color is None or g.color_of(nid) == color
                     for nid, color in zip(binding, rule.colors))
            ok = ok and all(g.has_edge(binding[a], l, binding[b])
                            for a, l, b in rule.edges)
            ok = ok and not any(g.has_edge(binding[a], l, binding[b])
                                for a, l, b in rule.negs)
            if ok:
                out.append((rule_index, tuple(binding)))
    return sorted(out)


def probe_rules():
    """A small zoo of pattern shapes over COLORS/LABELS."""
    mk = lambda cells, edges, focus, negs=(): Rule(
        "probe%d" % mk.n, cells, edges, focus, negs=negs)
    mk.n = 0
    rules = []

    def add(cells, edges, focus, negs=()):
        r = mk(cells, edges, focus, negs)
        mk.n += 1
        rules.append(r)

    add([("C", None)], [], "C")                               # bare focus
    add([("C", "red"), ("A", None)], [("C", "x", "A")], "C")  # out edge
    add([("C", None), ("A", "green")], [("A", "y", "C")], "C")  # in edge
    add([("C", None), ("A", None), ("B", "blue")],
        [("C", "x", "A"), ("A", "y", "B")], "C")              # chain
    add([("C", None), ("A", None), ("B", None)],
        [("C", "x", "A"), ("C", "x", "B")], "C")              # fan, same label
    add([("C", None), ("A", None), ("B", None)],
        [("C", "x", "A"), ("A", "y", "B"), ("C", "z", "B")], "C")  # check edge
    add([("C", None), ("A", None)], [("C", "x", "A")], "C",
        negs=[("A", "y", "C"), ("C", "z", "A")])              # negatives
    add([("C", "blue"), ("A", None), ("B", None), ("F", None)],
        [("C", "x", "A"), ("B", "y", "A"), ("C", "z", "F")],
        "C")                        # focus edge after a fan-out: F before B
    add([("C", "green"), ("A", None), ("B", None)],
        [("C", "z", "B"), ("B", "y", "A")],
        "C")                        # focus step binds B, the rest A after it
    add([("C", "green"), ("A", None), ("B", None), ("D", None)],
        [("C", "x", "D"), ("D", "y", "B"), ("B", "z", "A")],
        "C")                        # the steps off the focus bind B before A
    add([("C", None), ("A", None), ("B", "green")],
        [("C", "x", "A"), ("B", "y", "A")],
        "C")                        # a coloured cell bound at a fan-out step
    add([("C", None), ("A", None), ("D", None), ("B", "red")],
        [("C", "x", "A"), ("A", "y", "B"), ("D", "z", "B"), ("C", "x", "D")],
        "C")                        # D z B folds into B's fan-out step
    add([("C", None), ("A", None), ("B", None)],
        [("C", "z", "A"), ("A", "x", "B")], "C",
        negs=[("C", "y", "B"), ("B", "z", "A")])
    # ^ negative edges whose later endpoint B is bound at a fan-out step
    return RuleSet(rules)


@st.composite
def random_tangles(draw):
    g = tangle.Tangle()
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [g.add_node(draw(st.sampled_from(COLORS)), tangle.SET)
           for _ in range(n)]
    g.active = ids[0]
    possible = [(a, l, b) for a in ids for b in ids if a != b for l in LABELS]
    for e in draw(st.lists(st.sampled_from(possible), max_size=12,
                           unique=True) if possible else st.just([])):
        g.add_edge(*e)
    return g


def out_of_order_tangle():
    """A tangle where probe 7's bindings come out of its plan out of
    tuple order: the plan binds A, F, B, and there are two Fs and two
    Bs, so the join order differs from the binding tuples' order."""
    g = tangle.Tangle()
    c, a, b1, b2, f1, f2 = (g.add_node(color, tangle.SET) for color in
                            ("blue", "red", "green", "green", "red", "red"))
    for e in ((c, "x", a), (b1, "y", a), (b2, "y", a), (c, "z", f1),
              (c, "z", f2)):
        g.add_edge(*e)
    g.active = c
    return g


def fanned_focus_tangle():
    """Probe 8's plan binds B (a focus step) before A, and the focus's z
    label has two targets whose As come in the other order, so the join
    order differs from tuple order at a focus step that fans out."""
    g = tangle.Tangle()
    c, a1, a2, b1, b2 = (g.add_node(color, tangle.SET) for color in
                         ("green", "red", "red", "blue", "blue"))
    for e in ((c, "z", b1), (c, "z", b2), (b1, "y", a2), (b2, "y", a1)):
        g.add_edge(*e)
    g.active = c
    return g


def unordered_rest_tangle():
    """Probe 9's focus step has one candidate D, and the steps after it
    bind B before A with the As in the other order, so the join order
    differs from tuple order although no focus step fans out."""
    g = tangle.Tangle()
    c, a1, a2, b1, b2, d = (g.add_node(color, tangle.SET) for color in
                            ("green", "red", "red", "blue", "blue", "red"))
    for e in ((c, "x", d), (d, "y", b1), (d, "y", b2), (b1, "z", a2),
              (b2, "z", a1)):
        g.add_edge(*e)
    g.active = c
    return g


def empty_colour_tangle():
    """Probe 10's B step has two candidates but no node is green: the
    one green node left the colour's class when it was recoloured."""
    g = tangle.Tangle()
    c, a, b1, b2 = (g.add_node(color, tangle.SET) for color in
                    ("red", "blue", "green", "red"))
    assert g.color_class("green") == {b1}
    g.set_color(b1, "blue")
    for e in ((c, "x", a), (b1, "y", a), (b2, "y", a)):
        g.add_edge(*e)
    g.active = c
    return g


def failed_fold_tangle():
    """Probe 11's B step has one candidate, of the wanted colour, which
    fails the D z B check folded into that step; a second A, D pair
    binds B from two candidates, one of which passes the check."""
    g = tangle.Tangle()
    c, a1, d1, b1, a2, d2, b2, b3 = (
        g.add_node(color, tangle.SET) for color in
        ("blue", "green", "green", "red", "blue", "blue", "red", "red"))
    for e in ((c, "x", a1), (c, "x", d1), (a1, "y", b1),
              (c, "x", a2), (c, "x", d2), (a2, "y", b2), (a2, "y", b3),
              (d2, "z", b3)):
        g.add_edge(*e)
    g.active = c
    return g


def negative_fan_out_tangle():
    """Probe 12 binds B from three candidates when A is a: the focus's y
    edge forbids one, a z edge back to A the second, and the third
    survives.  When A is a2, B's one candidate is forbidden."""
    g = tangle.Tangle()
    c, a, b1, b2, b3, a2, b4 = (
        g.add_node(color, tangle.SET) for color in
        ("red", "green", "blue", "blue", "blue", "green", "blue"))
    for e in ((c, "z", a), (a, "x", b1), (a, "x", b2), (a, "x", b3),
              (c, "y", b1), (b2, "z", a),
              (c, "z", a2), (a2, "x", b4), (c, "y", b4)):
        g.add_edge(*e)
    g.active = c
    return g


def test_kernel_names():
    assert tangleca.KERNEL_NAME == kernel.KERNEL_NAME == "python"


class TestMatching:
    @given(g=random_tangles())
    @example(g=out_of_order_tangle())
    @example(g=fanned_focus_tangle())
    @example(g=unordered_rest_tangle())
    @example(g=empty_colour_tangle())
    @example(g=failed_fold_tangle())
    @example(g=negative_fan_out_tangle())
    @settings(max_examples=200, deadline=None)
    def test_matches_equal_brute_force(self, g):
        rules = probe_rules()
        assert sorted(match_all(g, rules)) == brute_matches(g, rules)

    @given(g=random_tangles())
    @example(g=out_of_order_tangle())
    @example(g=fanned_focus_tangle())
    @example(g=unordered_rest_tangle())
    @example(g=empty_colour_tangle())
    @example(g=failed_fold_tangle())
    @example(g=negative_fan_out_tangle())
    @settings(max_examples=60, deadline=None)
    def test_match_order_is_canonical(self, g):
        # the one match order is the join order: rule order, then the
        # nodes bound at the plan's first step, its second, and so on
        rules = probe_rules()
        steps = [[step[0] for step in pattern.make_plan(rule, i).steps]
                 for i, rule in enumerate(rules.rules)]
        joined = sorted(brute_matches(g, rules), key=lambda pair: (
            pair[0], [pair[1][cell] for cell in steps[pair[0]]]))
        assert match_all(g, rules) == joined

    def test_injectivity(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.SET)
        g.active = c
        g.add_edge(c, "x", c)  # self loop: C and A cannot both bind c
        rules = RuleSet([
            Rule("two", [("C", None), ("A", None)], [("C", "x", "A")])])
        assert match_all(g, rules) == []

    def test_anchoring_at_active_only(self):
        g = tangle.Tangle()
        a = g.add_node("red", tangle.SET)
        b = g.add_node("red", tangle.SET)
        g.add_edge(a, "x", b)
        rules = RuleSet([
            Rule("out", [("C", "red"), ("A", None)], [("C", "x", "A")])])
        g.active = a
        assert len(match_all(g, rules)) == 1
        g.active = b
        assert match_all(g, rules) == []


class TestPlans:
    def test_focus_out_edges_bind_first(self):
        # cells C=0 A=1 B=2 D=3 E=4
        rule = Rule(
            "r",
            [("C", None), ("A", None), ("B", None), ("D", None),
             ("E", None)],
            [("E", "y", "C"),        # into the focus: waits for growth
             ("B", "y", "A"),
             ("C", "x", "A"),
             ("C", "z", "D"),
             ("C", "z", "A"),        # second focus edge to A: A's link
             ("D", "y", "B")],       # both ends bound by then: B's link
            negs=[("E", "z", "A"),   # E binds after A: E's forbid
                  ("B", "x", "D")])  # B binds after D: B's forbid
        plan = pattern.make_plan(rule, 0)
        # (new, from, label, forward, want, links, forbids): each check
        # and negative edge folds into the step that binds its later
        # endpoint, as (earlier cell, label, forward)
        assert plan.steps == [
            (1, 0, "x", True, None, ((0, "z", True),), ()),
            (3, 0, "z", True, None, (), ()),
            (4, 0, "y", False, None, (), ((1, "z", False),)),
            (2, 1, "y", False, None, ((3, "y", True),), ((3, "x", False),))]

    @pytest.mark.parametrize("edges,negs", [
        ([("C", "x", "A"), ("A", "y", "A")], []),
        ([("C", "x", "A")], [("C", "y", "C")])])
    def test_self_loop_raises(self, edges, negs):
        rule = Rule("loop", [("C", None), ("A", None)], edges, negs=negs)
        with pytest.raises(RuleError, match="self-loop"):
            pattern.make_plan(rule, 0)

    def test_probe_binds_out_of_index_order(self):
        rules = probe_rules()
        g = out_of_order_tangle()
        c, a, b1, b2, f1, f2 = range(6)
        plan = pattern.make_plan(rules.rules[7], 7)
        assert [step[0] for step in plan.steps] == [1, 3, 2]   # A, F, B
        raw = pattern.kernel.enumerate_matches(rules.plans(), g, g.active)
        # the run comes out in join order, F before B, unsorted
        assert [pair for pair in raw if pair[0] == 7] == [
            (7, (c, a, b1, f1)), (7, (c, a, b2, f1)),
            (7, (c, a, b1, f2)), (7, (c, a, b2, f2))]

    def _mixed(self):
        # red rule: in order; green rule binds B (index 2) before A
        g = tangle.Tangle()
        c, b1, b2, a1, a2 = (g.add_node("red", tangle.SET)
                             for _ in range(5))
        g.add_edge(c, "x", b1)
        g.add_edge(c, "x", b2)
        g.add_edge(b1, "y", a2)
        g.add_edge(b2, "y", a1)
        g.active = c
        in_order = Rule("in", [("C", "red"), ("B", None), ("A", None)],
                        [("C", "x", "B"), ("B", "y", "A")])
        late = Rule("late", [("C", "green"), ("A", None), ("B", None)],
                    [("C", "x", "B"), ("B", "y", "A")])
        return g, RuleSet([in_order, late])

    def test_out_of_order_runs_stay_in_join_order(self, monkeypatch):
        g, rules = self._mixed()
        emitted = []
        real = pattern.kernel.enumerate_matches

        def spy(*args):
            emitted.append(real(*args))
            return emitted[-1]

        monkeypatch.setattr(pattern.kernel, "enumerate_matches", spy)
        got = match_all(g, rules)
        assert got is emitted[-1]
        assert got == [(0, (0, 1, 4)), (0, (0, 2, 3))]
        # the green plan binds B before A: its run is ordered by B
        g.set_color(g.active, "green")
        got = match_all(g, rules)
        assert got is emitted[-1]
        assert got == [(1, (0, 4, 1)), (1, (0, 3, 2))]

    def test_wildcard_plans_keep_rule_and_join_order(self):
        g, rules = self._mixed()
        wild = Rule("wild", [("C", None), ("A", None), ("B", None)],
                    [("C", "x", "B"), ("B", "y", "A")])
        in_order = rules.rules[0]
        rules = RuleSet([in_order, wild])
        index = rules.plans()
        assert [p.rule_index for p in index.candidates("red")] == [0, 1]
        assert [p.rule_index for p in index.candidates("blue")] == [1]
        got = match_all(g, rules)
        assert got == [(0, (0, 1, 4)), (0, (0, 2, 3)),
                       (1, (0, 4, 1)), (1, (0, 3, 2))]
        # a wildcard plan ahead of a coloured one keeps its rule order
        rules = RuleSet([wild, in_order])
        assert match_all(g, rules) == [(0, (0, 4, 1)), (0, (0, 3, 2)),
                                       (1, (0, 1, 4)), (1, (0, 2, 3))]


# cell sets of the pairs TestMaximality draws
PAIR_SETS = st.lists(st.lists(st.integers(1, 6), min_size=1, unique=True),
                     min_size=1, max_size=8)


class TestMaximality:
    # pairs as the kernel emits them: (rule_index, binding); rule 0
    # has one cell, rule 1 two cells, rule 2 three cells

    def test_strict_subset_blocked(self):
        m1 = (0, (1,))
        m2 = (1, (1, 2))
        assert maximality_filter([m1, m2]) == [m2]

    def test_equal_cellsets_both_survive(self):
        m1 = (1, (1, 2))
        m2 = (1, (2, 1))
        assert maximality_filter([m1, m2]) == [m1, m2]

    def test_incomparable_survive(self):
        m1 = (1, (1, 2))
        m2 = (1, (1, 3))
        assert maximality_filter([m1, m2]) == [m1, m2]

    def test_chain_keeps_only_maximal(self):
        m1 = (0, (1,))
        m2 = (1, (1, 2))
        m3 = (2, (1, 2, 3))
        assert maximality_filter([m1, m2, m3]) == [m3]

    @given(sets=PAIR_SETS)
    @settings(max_examples=100, deadline=None)
    def test_filter_equals_bruteforce_subset_check(self, sets):
        pairs = [(0, tuple(s)) for s in sets]
        got = maximality_filter(pairs)
        want = [p for p in pairs
                if not any(set(p[1]) < set(o[1]) for o in pairs)]
        assert got == want

    @given(sets=PAIR_SETS)
    @settings(max_examples=100, deadline=None)
    def test_first_is_the_first_survivor(self, sets):
        pairs = [(0, tuple(s)) for s in sets]
        assert (maximality_filter(pairs, first=True)
                == maximality_filter(pairs)[:1])

    def test_first_stops_at_a_blocked_prefix(self):
        m1 = (0, (1,))
        m2 = (1, (1, 2))
        m3 = (1, (3, 4))
        assert maximality_filter([m1, m2, m3], first=True) == [m2]
        assert maximality_filter([], first=True) == []


def star(focus_color, *colors):
    """A rule whose focus C points at one cell of each colour given."""
    cells = [("C", focus_color)] + [("A%d" % i, c)
                                    for i, c in enumerate(colors)]
    return Rule("star", cells,
                [("C", "x", "A%d" % i) for i in range(len(colors))])


PROBE_ORDER = list(range(len(probe_rules().rules)))


class TestFinalTable:
    """kernel.PlanIndex.final: the rules no later rule can cover."""

    @pytest.mark.parametrize("earlier,later,final", [
        # the later rule has no cell that takes green
        (star("red", "green"), star("red", "blue", "blue"), True),
        (star("red", "green"), star("red", None, "blue"), False),
        # another focus group, unless the later focus is a wildcard
        (star("red", "green"), star("blue", "green", "green"), True),
        (star("red", "green"), star(None, "green", "blue"), False),
        # focus goes to focus: the red cell cannot take the red focus
        (star(None, "red"), star("red", "blue", "green"), True),
        # a wildcard-focus rule meets the plans of every group
        (star(None, "red"), star("blue", "red", "green"), False),
        # covering needs more cells
        (star("red", "green"), star("red", None), True),
        (star("red", None, None), star("red", "green"), True),
        # two greens beyond the one green cell: one wildcard is not enough
        (star("red", "green", "green", "green"),
         star("red", "green", None, "blue", "blue"), True),
        (star("red", "green", "green", "blue"),
         star("red", "green", None, "blue", "blue"), False),
    ])
    def test_colour_only_cover_test(self, earlier, later, final):
        rules = RuleSet([earlier, later])
        # the last rule has no later rule to cover it
        assert rules.plans().final == (final, True)

    def test_one_entry_per_rule(self):
        assert RuleSet([]).plans().final == ()
        rules = probe_rules()
        assert len(rules.plans().final) == len(rules.rules)

    def test_rules_are_fixed_once_built(self):
        # the plan index and the effect table are built once, from the
        # rules as they are then, so a rule appended later would be
        # silently ignored: appending must fail instead
        g = tangle.Tangle()
        g.active = g.add_node("red", tangle.CRITICALS)
        red = Rule("red", [("C", "red")], [], recolor=[("C", "blue")])
        rules = RuleSet([red])
        _cfg, stats, outcome = automaton.run(automaton.Configuration(g),
                                             rules)
        assert (stats.total, outcome) == (1, automaton.QUIESCENT)
        blue = Rule("blue", [("C", "blue")], [], recolor=[("C", "green")])
        with pytest.raises(AttributeError):
            rules.rules.append(blue)
        assert rules.rules == (red,)

    @given(g=random_tangles(), order=st.permutations(PROBE_ORDER))
    @example(g=out_of_order_tangle(), order=PROBE_ORDER)
    @example(g=fanned_focus_tangle(), order=PROBE_ORDER)
    @example(g=unordered_rest_tangle(), order=PROBE_ORDER)
    @example(g=empty_colour_tangle(), order=PROBE_ORDER)
    @example(g=failed_fold_tangle(), order=PROBE_ORDER)
    @example(g=negative_fan_out_tangle(), order=PROBE_ORDER)
    @settings(max_examples=200, deadline=None)
    def test_first_pair_of_a_final_rule_is_maximal(self, g, order):
        # the probe rules in any order: deterministic selection may take
        # the first pair unfiltered whenever the table calls its rule final
        probes = probe_rules().rules
        rules = RuleSet([probes[i] for i in order])
        pairs = match_all(g, rules)
        if pairs and rules.plans().final[pairs[0][0]]:
            assert pairs[0] in maximality_filter(pairs)


class TestPatternStructure:
    def test_radius(self):
        chain = Rule("chain", [("A", None), ("B", None), ("C", None)],
                     [("A", "x", "B"), ("B", "x", "C")], "A")
        assert chain.shape() == (2, False)
        assert Rule("one", [("A", None)], [], "A").shape() == (0, False)
        disconnected = Rule("two", [("A", None), ("B", None)], [], "A")
        assert disconnected.shape()[0] is None

    def test_directed_cycle_detection(self):
        loop = Rule("loop", [("A", None), ("B", None)],
                    [("A", "x", "B"), ("B", "y", "A")], "A")
        assert loop.shape() == (1, True)
        dag = Rule("dag", [("A", None), ("B", None), ("C", None)],
                   [("A", "x", "B"), ("A", "y", "C"), ("B", "z", "C")], "A")
        assert dag.shape() == (1, False)
        self_loop = Rule("self", [("A", None)], [("A", "x", "A")], "A")
        assert self_loop.shape() == (0, True)

    def test_focus_must_be_a_cell(self):
        with pytest.raises(RuleError):
            Rule("f", [("A", None)], [], "Z")

    def test_plan_rejects_disconnected_pattern(self):
        r = Rule("d", [("A", None), ("B", None)], [], "A")
        with pytest.raises(RuleError):
            RuleSet([r]).plans()


class TestRuleCells:
    """Rule numbers its cells once, when it is built."""

    def test_cells_are_numbered_pattern_first(self):
        rule = Rule("edit", [("C", "red"), ("A", None)], [("C", "x", "A")],
                    recolor=[("W", "blue"), ("C", "green")],
                    add=[("A", "y", "W")], delete=[("C", "x", "A")],
                    creates=[("W", "green", tangle.SET)],
                    negs=[("A", "z", "C")])
        assert rule.names == ("C", "A", "W")
        assert rule.colors == ("red", None)
        assert rule.focus == 0
        assert rule.edges == ((0, "x", 1),)
        assert rule.negs == ((1, "z", 0),)
        assert rule.creates == (("green", tangle.SET),)
        assert rule.recolor == ((2, "blue"), (0, "green"))
        assert rule.add == ((1, "y", 2),)
        assert rule.delete == ((0, "x", 1),)

    def test_plan_shares_the_rule_colors(self):
        rule = Rule("r", [("C", "red"), ("A", None)], [("C", "x", "A")])
        assert pattern.make_plan(rule, 0).colors is rule.colors

    @pytest.mark.parametrize("kwargs,message", [
        (dict(cells=[("C", None), ("C", "red")]), "duplicate cell name"),
        (dict(edges=[("C", "x", "Z")]), "edge endpoint not a cell"),
        (dict(negs=[("Z", "x", "C")]), "negative edge endpoint unbound"),
        (dict(creates=[("A", "red", tangle.SET)]),
         "created cell A shadows a cell"),
        (dict(recolor=[("Z", "red")]), "recolor of unknown cell Z"),
        (dict(add=[("C", "x", "Z")]), "uncovered cell in edge edit"),
        (dict(delete=[("Z", "x", "C")]), "uncovered cell in edge edit"),
        (dict(focus="Z"), "focus 'Z' is not a pattern cell"),
    ])
    def test_name_faults_raise(self, kwargs, message):
        args = dict(cells=[("C", None), ("A", None)], edges=[])
        args.update(kwargs)
        with pytest.raises(RuleError) as exc:
            Rule("bad", **args)
        assert str(exc.value) == "rule bad: " + message


class TestApply:
    def _simple(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.SET)
        a = g.add_node("green", tangle.SET)
        g.add_edge(c, "x", a)
        g.active = c
        rule = Rule("edit", [("C", "red"), ("A", "green")], [("C", "x", "A")],
                    recolor=[("C", "blue")],
                    add=[("A", "y", "C"), ("A", "z", "W")],
                    delete=[("C", "x", "A")],
                    creates=[("W", "green", tangle.SET)])
        return g, rule

    def _only_binding(self, g, rule):
        (pair,) = match_all(g, RuleSet([rule]))
        return pair[1]

    def test_rewrite_effects(self):
        g, rule = self._simple()
        c, a = binding = self._only_binding(g, rule)
        created = apply(g, rule, binding)
        assert len(created) == 1
        (w,) = created
        assert g.color_of(w) == "green"
        assert g.color_of(g.active) == "blue"
        assert not g.has_edge(c, "x", a)
        assert g.has_edge(a, "y", c)
        assert g.has_edge(a, "z", w)

    def test_binding_of_another_size_raises(self):
        g, rule = self._simple()
        with pytest.raises(RuleError):
            apply(g, rule, (g.active,))


class TestValidate:
    def _ok_rule(self, name="ok"):
        return Rule(name, [("C", "red"), ("A", None)], [("C", "x", "A")],
                    recolor=[("C", "green")])

    def test_clean(self):
        rs = RuleSet([self._ok_rule()])
        assert validate_ruleset(rs) == []

    def test_violations(self):
        too_far = Rule(
            "tf",
            [("A", None), ("B", None), ("C", None), ("D", None), ("E", None)],
            [("A", "x", "B"), ("B", "x", "C"), ("C", "x", "D"),
             ("D", "x", "E")], "A")
        loop = Rule("lp", [("C", None), ("A", None)],
                    [("C", "x", "A"), ("A", "y", "C")])
        neg = Rule("ng", [("C", None), ("A", None)], [("C", "x", "A")],
                   negs=[("C", "y", "A")])
        dup1 = self._ok_rule("dup")
        dup2 = self._ok_rule("dup")
        v = validate_ruleset(RuleSet([too_far, loop, neg, dup1, dup2]))
        assert any("radius" in s for s in v)
        assert any("loop" in s for s in v)
        assert any("duplicate rule name" in s for s in v)
        # a name fault is caught when the rule is built
        with pytest.raises(RuleError, match="unknown cell"):
            Rule("br", [("C", None)], [], recolor=[("Z", "red")])
        # a rule's negative edges need no flag to validate
        assert validate_ruleset(RuleSet([neg])) == []


    def test_violation_list_is_exact(self):
        # recorded before the radius and loop checks shared one walk
        rules = [
            Rule("disc", [("C", None), ("A", None), ("B", None)],
                 [("C", "x", "A")]),
            Rule("far",
                 [("A", None), ("B", None), ("C", None), ("D", None),
                  ("E", None)],
                 [("A", "x", "B"), ("C", "x", "B"), ("C", "x", "D"),
                  ("E", "x", "D")], "A"),
            Rule("loop", [("C", None), ("A", None), ("B", None)],
                 [("C", "x", "A"), ("A", "y", "B"), ("B", "z", "A")]),
            Rule("self", [("C", None)], [("C", "x", "C")]),
            Rule("discloop", [("C", None), ("A", None)], [("A", "x", "A")]),
        ]
        assert validate_ruleset(RuleSet(rules)) == [
            "rule disc: pattern is disconnected",
            "rule far: radius 4 exceeds bound 3",
            "rule loop: pattern loop",
            "rule self: pattern loop",
            "rule discloop: pattern is disconnected",
            "rule discloop: pattern loop",
        ]

    def test_shared_cell_names_keep_their_own_shape(self):
        # one cell list; edges differ in direction (cyclic and acyclic
        # share their undirected edges), in labels only, or the focus moves
        cells = [("C", None), ("A", None), ("B", None), ("D", None),
                 ("G", None)]
        tail = [("D", "x", "G")]
        chain = [("C", "x", "A"), ("A", "x", "B"), ("B", "x", "D")] + tail
        relabelled = [("C", "y", "A"), ("A", "z", "B"), ("B", "y", "D"),
                      ("D", "z", "G")]
        flipped = [("C", "x", "A"), ("B", "x", "A"), ("B", "x", "D")] + tail
        cyclic = [("C", "x", "A"), ("A", "x", "B"), ("B", "x", "C"),
                  ("B", "x", "D")] + tail
        acyclic = [("C", "x", "A"), ("A", "x", "B"), ("C", "x", "B"),
                   ("B", "x", "D")] + tail
        split = [("C", "x", "A"), ("B", "x", "D")] + tail
        rules = [Rule("%s@%s" % (name, focus), cells, edges, focus)
                 for focus in ("C", "A", "D")
                 for name, edges in [("chain", chain),
                                     ("relabelled", relabelled),
                                     ("flipped", flipped),
                                     ("cyclic", cyclic),
                                     ("acyclic", acyclic), ("split", split)]]
        # and the same edges with one more, unconnected, cell
        rules.append(Rule("chain+E", cells + [("E", None)], chain, "C"))
        expected = []
        for rule in rules:
            r, loop = rule.shape()
            if r is None:
                expected.append("rule %s: pattern is disconnected"
                                % rule.name)
            elif r > pattern.RADIUS:
                expected.append("rule %s: radius %d exceeds bound 3"
                                % (rule.name, r))
            if loop:
                expected.append("rule %s: pattern loop" % rule.name)
        found = validate_ruleset(RuleSet(rules))
        assert found == expected
        assert found == [v for rule in rules for v in validate_ruleset(
            RuleSet([rule]))]
        assert "rule chain@C: radius 4 exceeds bound 3" in found
        assert not any(v.startswith("rule chain@A:") for v in found)
        assert "rule cyclic@D: pattern loop" in found
        assert "rule acyclic@D: pattern loop" not in found
        assert found[-1] == "rule chain+E: pattern is disconnected"

    def test_negative_self_loop_is_reported(self):
        # make_plan refuses it at the first tick, so it must not validate
        rule = Rule("nl", [("C", None), ("A", None)], [("C", "x", "A")],
                    negs=[("C", "y", "C")])
        rules = RuleSet([rule])
        assert validate_ruleset(rules) == ["rule nl: negative edge loop"]
        with pytest.raises(RuleError, match="self-loop"):
            rules.plans()

    def test_unknown_edge_endpoint_is_reported(self):
        with pytest.raises(RuleError) as exc:
            Rule("ghost", [("C", None)], [("C", "x", "Z")])
        assert str(exc.value) == "rule ghost: edge endpoint not a cell"


class TestSerialization:
    def test_cells_print_by_name(self):
        r1 = Rule("edit:one", [("C", "red"), ("A", None)], [("C", "x", "A")],
                  recolor=[("C", "blue")], add=[("A", "y", "W")],
                  delete=[("C", "x", "A")],
                  creates=[("W", "green", tangle.SET)])
        r2 = Rule("edit:two", [("A", None), ("C", None)], [("C", "z", "A")],
                  "C", negs=[("A", "z", "C")])
        assert serialize_ruleset(RuleSet([r1, r2])) == (
            "ruleset\n"
            "radius 3\n"
            "rule edit:one\n"
            "  cell C red focus\n"
            "  cell A *\n"
            "  edge C x A\n"
            "  create W green set\n"
            "  del C x A\n"
            "  add A y W\n"
            "  recolor C blue\n"
            "end\n"
            "rule edit:two\n"
            "  cell A *\n"
            "  cell C * focus\n"
            "  edge C z A\n"
            "  neg A z C\n"
            "end\n")
