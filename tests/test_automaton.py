"""Sequential execution loop: precedence, scheduling, budgets, invariants."""
import pytest

from tangleca import automaton, pattern, tangle
from tangleca.automaton import (BUDGET, DETERMINISTIC, QUIESCENT, RANDOM,
                                Configuration, InvariantViolation, StepStats,
                                run, select_match, step, trace, format_trace)
from tangleca.pattern import Pattern, Rewrite, Rule, RuleSet

COLORS = ("red", "green", "blue", "plain")
LABELS = ("x", "y")


def overlap_setup():
    """A small and a large rule both match; the large one must win."""
    g = tangle.Tangle()
    c = g.add_node("red", tangle.CRITICALS)
    a = g.add_node("plain", tangle.SET)
    b = g.add_node("plain", tangle.SET)
    g.add_edge(c, "x", a)
    g.add_edge(a, "y", b)
    g.active = c
    small = Rule("small", Pattern([("C", "red"), ("A", None)],
                                  [("C", "x", "A")], "C"),
                 Rewrite(recolor=[("C", "green")]))
    large = Rule("large", Pattern([("C", "red"), ("A", None), ("B", None)],
                                  [("C", "x", "A"), ("A", "y", "B")], "C"),
                 Rewrite(recolor=[("C", "blue")]))
    return g, RuleSet(COLORS, LABELS, [small, large], 3)


class TestPrecedence:
    def test_strictly_larger_match_blocks_smaller(self):
        g, rules = overlap_setup()
        cfg = Configuration(g)
        applied = step(cfg, rules)
        assert applied.rule.name == "large"
        assert g.color_of(g.active) == "blue"

    def test_smaller_fires_when_larger_cannot(self):
        g, rules = overlap_setup()
        g.remove_edge(*[(a, l, b) for a, l, b in g.edges()
                        if l == "y"][0])
        cfg = Configuration(g)
        applied = step(cfg, rules)
        assert applied.rule.name == "small"
        assert g.color_of(g.active) == "green"


class TestScheduling:
    def _tie_setup(self):
        # two equal-size matches of one rule: a genuine tie
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        a = g.add_node("plain", tangle.SET)
        b = g.add_node("plain", tangle.SET)
        g.add_edge(c, "x", a)
        g.add_edge(c, "x", b)
        g.active = c
        rule = Rule("pick", Pattern([("C", "red"), ("A", None)],
                                    [("C", "x", "A")], "C"),
                    Rewrite(recolor=[("C", "green")],
                            del_edges=[("C", "x", "A")]))
        return g, RuleSet(COLORS, LABELS, [rule], 3)

    def test_deterministic_takes_least_binding(self):
        g, rules = self._tie_setup()
        cfg = Configuration(g, mode=DETERMINISTIC)
        applied = step(cfg, rules)
        others = sorted(n for n in g.nodes if n != g.active)
        assert applied.binding["A"] == others[0]

    def test_random_is_reproducible_per_seed(self):
        applied_by_run = []
        for _ in range(2):
            g, rules = self._tie_setup()
            cfg = Configuration(g, seed=7, mode=RANDOM)
            applied_by_run.append(step(cfg, rules).binding["A"])
        assert applied_by_run[0] == applied_by_run[1]

    def test_random_covers_both_choices_across_seeds(self):
        seen = set()
        for seed in range(12):
            g, rules = self._tie_setup()
            cfg = Configuration(g, seed=seed, mode=RANDOM)
            seen.add(step(cfg, rules).binding_tuple()[1])
        assert len(seen) == 2

    def test_select_match_orders_by_rule_then_binding(self):
        # match_all hands over pairs in canonical order (rule, then
        # binding tuple); deterministic selection takes the first one
        g, rules = self._tie_setup()
        cfg = Configuration(g, mode=DETERMINISTIC)
        pairs = pattern.match_all(g, rules)
        assert len(pairs) == 2 and pairs == sorted(pairs)
        assert select_match(pairs, cfg) is pairs[0]


class TestCanonicalOrderGuard:
    """A plan that binds cells out of index order still yields canonical
    order: the kernel emits its matches unsorted, match_all sorts them."""

    def _setup(self):
        g = tangle.Tangle()
        c, b1, b2, a1, a2 = (
            g.add_node("red" if i == 0 else "plain",
                       tangle.CRITICALS if i == 0 else tangle.SET)
            for i in range(5))
        assert (c, b1, b2, a1, a2) == (0, 1, 2, 3, 4)
        g.add_edge(c, "x", b1)
        g.add_edge(c, "x", b2)
        g.add_edge(b1, "y", a2)
        g.add_edge(b2, "y", a1)
        g.active = c
        # the plan grows C-x->B first, so it binds B (index 2) before A
        rule = Rule("late", Pattern(
            [("C", "red"), ("A", None), ("B", None)],
            [("C", "x", "B"), ("B", "y", "A")], "C"),
            Rewrite(recolor=[("C", "green")]))
        return g, RuleSet(COLORS, LABELS, [rule], 3)

    def test_out_of_order_plan_is_detected_and_sorted(self):
        g, rules = self._setup()
        raw = pattern.kernel.enumerate_matches(rules.plans(), g, g.active,
                                               False)
        assert raw == [(0, (0, 4, 1)), (0, (0, 3, 2))]
        assert not rules.plans_in_order
        assert pattern.match_all(g, rules) == [(0, (0, 3, 2)),
                                               (0, (0, 4, 1))]
        applied = step(Configuration(g, mode=DETERMINISTIC), rules)
        assert (applied.rule_index, applied.binding_tuple()) == (0, (0, 3, 2))


class TestRunLoop:
    def test_quiescent_when_nothing_matches(self):
        g = tangle.Tangle()
        c = g.add_node("blue", tangle.CRITICALS)
        g.active = c
        rule = Rule("r", Pattern([("C", "red")], [], "C"),
                    Rewrite(recolor=[("C", "green")]))
        cfg, stats, outcome = run(Configuration(g),
                                  RuleSet(COLORS, LABELS, [rule], 3))
        assert outcome == QUIESCENT
        assert stats.total == 0 and cfg.tick == 0

    def _pingpong(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        ping = Rule("t:ping", Pattern([("C", "red")], [], "C"),
                    Rewrite(recolor=[("C", "green")]))
        pong = Rule("t:pong", Pattern([("C", "green")], [], "C"),
                    Rewrite(recolor=[("C", "red")]))
        return g, RuleSet(COLORS, LABELS, [ping, pong], 3)

    def test_budget_exhaustion(self):
        g, rules = self._pingpong()
        cfg, stats, outcome = run(Configuration(g), rules, max_ticks=5)
        assert outcome == BUDGET
        assert cfg.tick == 5 and stats.total == 5

    def test_bad_budget_rejected(self):
        g, rules = self._pingpong()
        with pytest.raises(ValueError):
            run(Configuration(g), rules, max_ticks=0)

    def test_stats_group_by_phase_prefix(self):
        g, rules = self._pingpong()
        _cfg, stats, _ = run(Configuration(g), rules, max_ticks=6)
        assert stats.phases == {"t": 6}
        assert stats.total == 6
        assert "phase t 6" in stats.format()
        assert "total 6" in stats.format()

    def test_stats_recorder(self):
        stats = StepStats()
        for name in ("a:x", "a:y", "b:z"):
            stats.count(name)
        assert stats.total == 3
        assert stats.phases == {"a": 2, "b": 1}

    def test_on_tick_callback_sees_every_application(self):
        g, rules = self._pingpong()
        names = []
        run(Configuration(g), rules, max_ticks=4,
            on_tick=lambda cfg, applied: names.append(applied.rule.name))
        assert names == ["t:ping", "t:pong", "t:ping", "t:pong"]


class TestTrace:
    def test_trace_records_each_tick(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        rules = RuleSet(COLORS, LABELS, [
            Rule("t:a", Pattern([("C", "red")], [], "C"),
                 Rewrite(recolor=[("C", "green")])),
            Rule("t:b", Pattern([("C", "green")], [], "C"),
                 Rewrite(recolor=[("C", "blue")]))], 3)
        entries, cfg, stats, outcome = trace(Configuration(g), rules,
                                             max_ticks=100)
        assert outcome == QUIESCENT
        assert [rule for _t, rule, _b, _s in entries] == ["t:a", "t:b"]
        assert [t for t, _r, _b, _s in entries] == [1, 2]
        assert all(snap is not None for _t, _r, _b, snap in entries)
        text = format_trace(entries)
        assert "t:a" in text and "t:b" in text

    def test_trace_without_snapshots(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        rules = RuleSet(COLORS, LABELS, [
            Rule("t:a", Pattern([("C", "red")], [], "C"),
                 Rewrite(recolor=[("C", "blue")]))], 3)
        entries, _, _, _ = trace(Configuration(g), rules, snapshots=False)
        assert len(entries) == 1 and entries[0][3] is None


class TestInvariantChecking:
    def test_second_criticals_trips_the_check(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        rules = RuleSet(COLORS, LABELS, [
            Rule("bad", Pattern([("C", "red")], [], "C"),
                 Rewrite(recolor=[("C", "blue")],
                         creates=[("D", "plain", tangle.CRITICALS)]))], 3)
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, check_invariants=True)
        assert exc.value.tick == 1
        assert any("criticals" in v for v in exc.value.violations)

    def test_clean_run_passes_with_checks_on(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        rules = RuleSet(COLORS, LABELS, [
            Rule("ok", Pattern([("C", "red")], [], "C"),
                 Rewrite(recolor=[("C", "blue")]))], 3)
        _, _, outcome = run(Configuration(g), rules, check_invariants=True)
        assert outcome == QUIESCENT

    def test_mid_protocol_duplicates_exempt_when_idle_colors_given(self):
        # a non-committed (marked) duplicate is tolerated mid-protocol and
        # flagged only when the active color is an idle color
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        e1 = g.add_node(tangle.EMPTY, tangle.SET)
        g.add_edge(c, "x", e1)
        dup = Rule("dup", Pattern([("C", "red")], [], "C"),
                   Rewrite(recolor=[("C", "green")],
                           creates=[("E", tangle.EMPTY, tangle.SET)]))
        relax = RuleSet(COLORS + (tangle.EMPTY,), LABELS, [dup], 3)
        with pytest.raises(InvariantViolation):
            run(Configuration(g), relax, check_invariants=True,
                idle_colors=frozenset(("green",)))
        g2 = tangle.Tangle()
        c2 = g2.add_node("red", tangle.CRITICALS)
        g2.active = c2
        e2 = g2.add_node(tangle.EMPTY, tangle.SET)
        g2.add_edge(c2, "x", e2)
        _, _, outcome = run(Configuration(g2), relax, check_invariants=True,
                            idle_colors=frozenset(("never",)))
        assert outcome == QUIESCENT
