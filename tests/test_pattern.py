"""Anchored matching against a brute-force oracle; precedence; serialization."""
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import tangleca
from tangleca import kernel, pattern, tangle
from tangleca.pattern import (Pattern, Rewrite, Rule, RuleError, RuleSet,
                              apply, make_match, match_all,
                              maximality_filter, parse_ruleset,
                              serialize_ruleset, validate_ruleset)

COLORS = ("red", "green", "blue")
LABELS = ("x", "y", "z")


def brute_matches(g, ruleset):
    """Reference matcher: try every injective assignment outright; a
    rule's negative edges must be absent."""
    out = []
    node_ids = sorted(g.nodes)
    for rule_index, rule in enumerate(ruleset.rules):
        p = rule.pattern
        names = p.names
        focus_i = p.index[p.focus]
        rest = [i for i in range(len(names)) if i != focus_i]
        for perm in itertools.permutations(node_ids, len(rest)):
            binding = [None] * len(names)
            binding[focus_i] = g.active
            for i, nid in zip(rest, perm):
                binding[i] = nid
            if len(set(binding)) != len(binding):
                continue
            ok = all(
                p.cells[i][1] is None
                or g.color_of(binding[i]) == p.cells[i][1]
                for i in range(len(names)))
            ok = ok and all(
                g.has_edge(binding[p.index[a]], l, binding[p.index[b]])
                for a, l, b in p.edges)
            ok = ok and not any(
                g.has_edge(binding[p.index[a]], l, binding[p.index[b]])
                for a, l, b in rule.neg_edges)
            if ok:
                out.append((rule_index, tuple(binding)))
    return sorted(out)


def probe_rules():
    """A small zoo of pattern shapes over COLORS/LABELS."""
    mk = lambda cells, edges, focus, negs=(): Rule(
        "probe%d" % mk.n, Pattern(cells, edges, focus), Rewrite(), negs)
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
    return RuleSet(COLORS, LABELS, rules, radius=3)


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
    """A tangle where the last probe's bindings come out of its plan out
    of canonical order: the plan binds A, F, B, and there are two Fs and
    two Bs, so the kernel must sort them."""
    g = tangle.Tangle()
    c, a, b1, b2, f1, f2 = (g.add_node(color, tangle.SET) for color in
                            ("blue", "red", "green", "green", "red", "red"))
    for e in ((c, "x", a), (b1, "y", a), (b2, "y", a), (c, "z", f1),
              (c, "z", f2)):
        g.add_edge(*e)
    g.active = c
    return g


def test_kernel_names():
    assert tangleca.KERNEL_NAME == kernel.KERNEL_NAME == "python"


class TestMatching:
    @given(g=random_tangles())
    @example(g=out_of_order_tangle())
    @settings(max_examples=200, deadline=None)
    def test_matches_equal_brute_force(self, g):
        rules = probe_rules()
        assert sorted(match_all(g, rules)) == brute_matches(g, rules)

    @given(g=random_tangles())
    @example(g=out_of_order_tangle())
    @settings(max_examples=60, deadline=None)
    def test_match_order_is_canonical(self, g):
        rules = probe_rules()
        seq = match_all(g, rules)
        assert seq == sorted(seq)

    def test_injectivity(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.SET)
        g.active = c
        g.add_edge(c, "x", c)  # self loop: C and A cannot both bind c
        rules = RuleSet(COLORS, LABELS, [
            Rule("two", Pattern([("C", None), ("A", None)],
                                [("C", "x", "A")], "C"), Rewrite())], 3)
        assert match_all(g, rules) == []

    def test_anchoring_at_active_only(self):
        g = tangle.Tangle()
        a = g.add_node("red", tangle.SET)
        b = g.add_node("red", tangle.SET)
        g.add_edge(a, "x", b)
        rules = RuleSet(COLORS, LABELS, [
            Rule("out", Pattern([("C", "red"), ("A", None)],
                                [("C", "x", "A")], "C"), Rewrite())], 3)
        g.active = a
        assert len(match_all(g, rules)) == 1
        g.active = b
        assert match_all(g, rules) == []


class TestPlans:
    def test_focus_out_edges_bind_first(self):
        # cells C=0 A=1 B=2 D=3 E=4
        rule = Rule("r", Pattern(
            [("C", None), ("A", None), ("B", None), ("D", None),
             ("E", None)],
            [("E", "y", "C"),        # into the focus: waits for growth
             ("B", "y", "A"),
             ("C", "x", "A"),
             ("C", "x", "C"),        # focus self-loop: a check
             ("C", "z", "D"),
             ("C", "z", "A"),        # second focus edge to A: a check
             ("D", "y", "B")],       # both ends bound by then: a check
            "C"), Rewrite())
        plan = pattern.make_plan(rule, 0)
        assert plan.steps == [(1, 0, "x", True), (3, 0, "z", True),
                              (4, 0, "y", False), (2, 1, "y", False)]
        assert plan.checks == [(0, "x", 0), (0, "z", 1), (3, "y", 2)]

    def test_probe_binds_out_of_index_order(self):
        rules = probe_rules()
        g = out_of_order_tangle()
        plans = rules.plans().candidates("blue")
        assert [p.rule_index for p in plans if not p.ordered] == [7]
        raw = pattern.kernel.enumerate_matches(rules.plans(), g, g.active)
        assert len([pair for pair in raw if pair[0] == 7]) == 4
        assert raw == sorted(raw)

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
        in_order = Rule("in", Pattern(
            [("C", "red"), ("B", None), ("A", None)],
            [("C", "x", "B"), ("B", "y", "A")], "C"), Rewrite())
        late = Rule("late", Pattern(
            [("C", "green"), ("A", None), ("B", None)],
            [("C", "x", "B"), ("B", "y", "A")], "C"), Rewrite())
        return g, RuleSet(COLORS, LABELS, [in_order, late], 3)

    def test_only_unordered_colours_are_sorted(self, monkeypatch):
        g, rules = self._mixed()
        emitted = []
        real = pattern.kernel.enumerate_matches

        def spy(*args):
            emitted.append(real(*args))
            return emitted[-1]

        monkeypatch.setattr(pattern.kernel, "enumerate_matches", spy)
        index = rules.plans()
        assert [p.ordered for p in index.candidates("red")] == [True]
        assert [p.ordered for p in index.candidates("green")] == [False]
        got = match_all(g, rules)
        assert got is emitted[-1]
        assert got == [(0, (0, 1, 4)), (0, (0, 2, 3))]
        g.set_color(g.active, "green")
        got = match_all(g, rules)
        assert got is emitted[-1]
        assert got == [(1, (0, 3, 2)), (1, (0, 4, 1))]

    def test_unordered_wildcard_sorts_every_colour(self):
        g, rules = self._mixed()
        wild = Rule("wild", Pattern(
            [("C", None), ("A", None), ("B", None)],
            [("C", "x", "B"), ("B", "y", "A")], "C"), Rewrite())
        in_order = rules.rules[0]
        rules = RuleSet(COLORS, LABELS, [in_order, wild], 3)
        index = rules.plans()
        assert [(p.rule_index, p.ordered)
                for p in index.candidates("red")] == [(0, True), (1, False)]
        assert [p.rule_index for p in index.candidates("blue")] == [1]
        got = match_all(g, rules)
        assert got == [(0, (0, 1, 4)), (0, (0, 2, 3)),
                       (1, (0, 3, 2)), (1, (0, 4, 1))]
        # a wildcard plan ahead of a coloured one keeps its rule order
        rules = RuleSet(COLORS, LABELS, [wild, in_order], 3)
        assert match_all(g, rules) == [(0, (0, 3, 2)), (0, (0, 4, 1)),
                                       (1, (0, 1, 4)), (1, (0, 2, 3))]


class TestMaximality:
    # pairs as the kernel emits them: (rule_index, binding_tuple); rule 0
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

    @given(sets=st.lists(st.lists(st.integers(1, 6), min_size=1,
                                  unique=True),
                         min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_filter_equals_bruteforce_subset_check(self, sets):
        pairs = [(0, tuple(s)) for s in sets]
        got = maximality_filter(pairs)
        want = [p for p in pairs
                if not any(set(p[1]) < set(o[1]) for o in pairs)]
        assert got == want


class TestPatternStructure:
    def test_radius(self):
        chain = Pattern([("A", None), ("B", None), ("C", None)],
                        [("A", "x", "B"), ("B", "x", "C")], "A")
        assert chain.shape() == (2, False)
        assert Pattern([("A", None)], [], "A").shape() == (0, False)
        disconnected = Pattern([("A", None), ("B", None)], [], "A")
        assert disconnected.shape()[0] is None

    def test_directed_cycle_detection(self):
        loop = Pattern([("A", None), ("B", None)],
                       [("A", "x", "B"), ("B", "y", "A")], "A")
        assert loop.shape() == (1, True)
        dag = Pattern([("A", None), ("B", None), ("C", None)],
                      [("A", "x", "B"), ("A", "y", "C"), ("B", "z", "C")],
                      "A")
        assert dag.shape() == (1, False)
        self_loop = Pattern([("A", None)], [("A", "x", "A")], "A")
        assert self_loop.shape() == (0, True)

    def test_focus_must_be_a_cell(self):
        with pytest.raises(RuleError):
            Pattern([("A", None)], [], "Z")

    def test_plan_rejects_disconnected_pattern(self):
        r = Rule("d", Pattern([("A", None), ("B", None)], [], "A"),
                 Rewrite())
        with pytest.raises(RuleError):
            RuleSet(COLORS, LABELS, [r], 3).plans()


class TestApply:
    def _simple(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.SET)
        a = g.add_node("green", tangle.SET)
        g.add_edge(c, "x", a)
        g.active = c
        rule = Rule(
            "edit",
            Pattern([("C", "red"), ("A", "green")], [("C", "x", "A")], "C"),
            Rewrite(recolor=[("C", "blue")],
                    add_edges=[("A", "y", "C"), ("A", "z", "W")],
                    del_edges=[("C", "x", "A")],
                    creates=[("W", "green", tangle.SET)]))
        return g, rule

    def _only_match(self, g, rule):
        rules = RuleSet(COLORS, LABELS, [rule], 3)
        (pair,) = match_all(g, rules)
        return make_match(rules, pair)

    def test_rewrite_effects(self):
        g, rule = self._simple()
        m = self._only_match(g, rule)
        created = apply(g, m)
        assert len(created) == 1
        (w,) = created
        assert g.color_of(w) == "green"
        assert g.color_of(g.active) == "blue"
        assert not g.has_edge(m.binding["C"], "x", m.binding["A"])
        assert g.has_edge(m.binding["A"], "y", m.binding["C"])
        assert g.has_edge(m.binding["A"], "z", w)

    def test_stale_match_raises(self):
        g, rule = self._simple()
        m = self._only_match(g, rule)
        g.set_color(m.binding["A"], "blue")
        with pytest.raises(RuleError):
            apply(g, m)
        g.set_color(m.binding["A"], "green")
        g.remove_edge(m.binding["C"], "x", m.binding["A"])
        with pytest.raises(RuleError):
            apply(g, m)


class TestValidate:
    def _ok_rule(self, name="ok"):
        return Rule(name, Pattern([("C", "red"), ("A", None)],
                                  [("C", "x", "A")], "C"),
                    Rewrite(recolor=[("C", "green")]))

    def test_clean(self):
        rs = RuleSet(COLORS, LABELS, [self._ok_rule()], 3)
        assert validate_ruleset(rs) == []

    def test_violations(self):
        bad_color = Rule("bc", Pattern([("C", "purple")], [], "C"), Rewrite())
        bad_label = Rule("bl", Pattern([("C", None), ("A", None)],
                                       [("C", "w", "A")], "C"), Rewrite())
        too_far = Rule("tf", Pattern(
            [("A", None), ("B", None), ("C", None), ("D", None), ("E", None)],
            [("A", "x", "B"), ("B", "x", "C"), ("C", "x", "D"),
             ("D", "x", "E")], "A"), Rewrite())
        loop = Rule("lp", Pattern([("C", None), ("A", None)],
                                  [("C", "x", "A"), ("A", "y", "C")], "C"),
                    Rewrite())
        neg = Rule("ng", Pattern([("C", None), ("A", None)],
                                 [("C", "x", "A")], "C"), Rewrite(),
                   neg_edges=[("C", "y", "A")])
        bad_recolor = Rule("br", Pattern([("C", None)], [], "C"),
                           Rewrite(recolor=[("Z", "red")]))
        dup1 = self._ok_rule("dup")
        dup2 = self._ok_rule("dup")
        rs = RuleSet(COLORS, LABELS,
                     [bad_color, bad_label, too_far, loop, neg,
                      bad_recolor, dup1, dup2], 3)
        v = validate_ruleset(rs, negative_edges=False)
        assert any("not in palette" in s for s in v)
        assert any("not in alphabet" in s for s in v)
        assert any("radius" in s for s in v)
        assert any("loop" in s for s in v)
        assert any("negative edges" in s for s in v)
        assert any("unknown cell" in s for s in v)
        assert any("duplicate rule name" in s for s in v)
        # the same set is clean once the extension flag admits negatives
        ok = RuleSet(COLORS, LABELS, [neg], 3)
        assert validate_ruleset(ok, negative_edges=True) == []


    def test_violation_list_is_exact(self):
        # recorded before the radius and loop checks shared one walk
        rules = [
            Rule("disc", Pattern([("C", None), ("A", None), ("B", None)],
                                 [("C", "x", "A")], "C"), Rewrite()),
            Rule("far", Pattern(
                [("A", None), ("B", None), ("C", None), ("D", None),
                 ("E", None)],
                [("A", "x", "B"), ("C", "x", "B"), ("C", "x", "D"),
                 ("E", "x", "D")], "A"), Rewrite()),
            Rule("loop", Pattern([("C", None), ("A", None), ("B", None)],
                                 [("C", "x", "A"), ("A", "y", "B"),
                                  ("B", "z", "A")], "C"), Rewrite()),
            Rule("self", Pattern([("C", None)], [("C", "x", "C")], "C"),
                 Rewrite()),
            Rule("discloop", Pattern([("C", None), ("A", None)],
                                     [("A", "x", "A")], "C"), Rewrite()),
            Rule("paint", Pattern([("C", "purple"), ("A", "red")],
                                  [("C", "w", "A")], "C"),
                 Rewrite(recolor=[("A", "mauve")],
                         add_edges=[("C", "v", "A")],
                         creates=[("N", "teal", "set")])),
        ]
        assert validate_ruleset(RuleSet(COLORS, LABELS, rules, 3)) == [
            "rule disc: pattern is disconnected",
            "rule far: radius 4 exceeds bound 3",
            "rule loop: pattern loop",
            "rule self: pattern loop",
            "rule discloop: pattern is disconnected",
            "rule discloop: pattern loop",
            "rule paint: color purple not in palette",
            "rule paint: label w not in alphabet",
            "rule paint: created color teal not in palette",
            "rule paint: recolor to mauve not in palette",
            "rule paint: edit label v not in alphabet",
        ]

    def test_shared_cell_names_keep_their_own_shape(self):
        # one cell list; edges differ in direction (cyclic and acyclic
        # share their undirected edges), in labels only, or the focus moves
        cells = [("C", None), ("A", None), ("B", None), ("D", None)]
        chain = [("C", "x", "A"), ("A", "x", "B"), ("B", "x", "D")]
        relabelled = [("C", "y", "A"), ("A", "z", "B"), ("B", "y", "D")]
        flipped = [("C", "x", "A"), ("B", "x", "A"), ("B", "x", "D")]
        cyclic = [("C", "x", "A"), ("A", "x", "B"), ("B", "x", "C"),
                  ("B", "x", "D")]
        acyclic = [("C", "x", "A"), ("A", "x", "B"), ("C", "x", "B"),
                   ("B", "x", "D")]
        split = [("C", "x", "A"), ("B", "x", "D")]
        rules = [Rule("%s@%s" % (name, focus), Pattern(cells, edges, focus),
                      Rewrite())
                 for focus in ("C", "A", "D")
                 for name, edges in [("chain", chain),
                                     ("relabelled", relabelled),
                                     ("flipped", flipped),
                                     ("cyclic", cyclic),
                                     ("acyclic", acyclic), ("split", split)]]
        # and the same edges with one more, unconnected, cell
        rules.append(Rule("chain+E", Pattern(cells + [("E", None)], chain,
                                             "C"), Rewrite()))
        expected = []
        for rule in rules:
            r, loop = rule.pattern.shape()
            if r is None:
                expected.append("rule %s: pattern is disconnected"
                                % rule.name)
            elif r > 2:
                expected.append("rule %s: radius %d exceeds bound 2"
                                % (rule.name, r))
            if loop:
                expected.append("rule %s: pattern loop" % rule.name)
        found = validate_ruleset(RuleSet(COLORS, LABELS, rules, 2))
        assert found == expected
        assert found == [v for rule in rules for v in validate_ruleset(
            RuleSet(COLORS, LABELS, [rule], 2))]
        assert "rule chain@C: radius 3 exceeds bound 2" in found
        assert not any(v.startswith("rule chain@A:") for v in found)
        assert "rule cyclic@D: pattern loop" in found
        assert "rule acyclic@D: pattern loop" not in found
        assert found[-1] == "rule chain+E: pattern is disconnected"

    def test_unknown_edge_endpoint_is_reported(self):
        r = Rule("ghost", Pattern([("C", None)], [("C", "x", "Z")], "C"),
                 Rewrite())
        assert validate_ruleset(RuleSet(COLORS, LABELS, [r], 3)) == [
            "rule ghost: edge endpoint not a cell"]


class TestSerialization:
    def _ruleset(self):
        r1 = Rule("edit:one",
                  Pattern([("C", "red"), ("A", None)], [("C", "x", "A")],
                          "C"),
                  Rewrite(recolor=[("C", "blue")],
                          add_edges=[("A", "y", "C")],
                          del_edges=[("C", "x", "A")],
                          creates=[("W", "green", tangle.SET)]))
        r2 = Rule("edit:two", Pattern([("C", None)], [], "C"), Rewrite(),
                  neg_edges=[("C", "z", "C")])
        return RuleSet(COLORS, LABELS, [r1, r2], 3)

    def test_roundtrip_is_identity_on_text(self):
        rs = self._ruleset()
        text = serialize_ruleset(rs)
        again = serialize_ruleset(parse_ruleset(text))
        assert text == again

    def test_roundtrip_preserves_structure(self):
        rs = parse_ruleset(serialize_ruleset(self._ruleset()))
        assert [r.name for r in rs.rules] == ["edit:one", "edit:two"]
        r1 = rs.rules[0]
        assert r1.pattern.cells == [("C", "red"), ("A", None)]
        assert r1.rewrite.creates == [("W", "green", tangle.SET)]
        assert rs.rules[1].neg_edges == [("C", "z", "C")]
        assert rs.radius == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(RuleError):
            parse_ruleset("not a ruleset\n")
        with pytest.raises(RuleError):
            parse_ruleset("")
