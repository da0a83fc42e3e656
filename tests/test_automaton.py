"""Sequential execution loop: precedence, scheduling, budgets, invariants."""
import pytest
from hypothesis import given, settings, strategies as st

from tangleca import automaton, bench, hfset, pattern, tangle
from tangleca.automaton import (BUDGET, DETERMINISTIC, QUIESCENT, RANDOM,
                                Configuration, InvariantViolation, StepStats,
                                run, select_match, step)
from tangleca.pattern import Rule, RuleSet

from conftest import compile_case, load_corpus_case

# a scratch label, so the Criticals node may hold it to several nodes;
# an "x" term with two edges is itself an invariant violation
HANDLE = "$x"


def overlap_setup():
    """A small and a large rule both match; the large one must win."""
    g = tangle.Tangle()
    c = g.add_node("red", tangle.CRITICALS)
    a = g.add_node("plain", tangle.SET)
    b = g.add_node("plain", tangle.SET)
    g.add_edge(c, "x", a)
    g.add_edge(a, "y", b)
    g.active = c
    small = Rule("small", [("C", "red"), ("A", None)], [("C", "x", "A")],
                 recolor=[("C", "green")])
    large = Rule("large", [("C", "red"), ("A", None), ("B", None)],
                 [("C", "x", "A"), ("A", "y", "B")],
                 recolor=[("C", "blue")])
    return g, RuleSet([small, large])


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
        rule = Rule("pick", [("C", "red"), ("A", None)], [("C", "x", "A")],
                    recolor=[("C", "green")], delete=[("C", "x", "A")])
        return g, RuleSet([rule])

    def test_deterministic_takes_least_binding(self):
        g, rules = self._tie_setup()
        cfg = Configuration(g, mode=DETERMINISTIC)
        applied = step(cfg, rules)
        others = sorted(n for n in g.nodes if n != g.active)
        assert applied.binding[1] == others[0]

    def test_random_is_reproducible_per_seed(self):
        applied_by_run = []
        for _ in range(2):
            g, rules = self._tie_setup()
            cfg = Configuration(g, seed=7, mode=RANDOM)
            applied_by_run.append(step(cfg, rules).binding[1])
        assert applied_by_run[0] == applied_by_run[1]

    def test_random_covers_both_choices_across_seeds(self):
        seen = set()
        for seed in range(12):
            g, rules = self._tie_setup()
            cfg = Configuration(g, seed=seed, mode=RANDOM)
            seen.add(step(cfg, rules).binding[1])
        assert len(seen) == 2

    def test_select_match_orders_by_rule_then_binding(self):
        # match_all hands over pairs in join order (rule, then the nodes
        # bound at the plan's steps); deterministic selection takes the
        # first one
        g, rules = self._tie_setup()
        cfg = Configuration(g, mode=DETERMINISTIC)
        pairs = pattern.match_all(g, rules)
        assert len(pairs) == 2 and pairs == sorted(pairs)
        assert select_match(pairs, cfg, rules.plans().final) is pairs[0]

    def test_final_first_pair_is_taken_unfiltered(self, monkeypatch):
        # unless the table calls rule 0 final, the filter runs and drops
        # its one-cell pair
        pairs = [(0, (5,)), (1, (5, 6)), (1, (5, 7))]
        cfg = Configuration(tangle.Tangle(), mode=DETERMINISTIC)
        stats = StepStats()
        assert select_match(pairs, cfg, (False, True), stats) == pairs[1]
        assert stats.settled == 0

        def no_filter(*args, **kwargs):
            raise AssertionError("maximality filter called")

        # a final rule's first pair is taken without the filter
        monkeypatch.setattr(pattern, "maximality_filter", no_filter)
        pairs = [(0, (5, 6)), (1, (5, 7, 8))]
        assert select_match(pairs, cfg, (True, True), stats) is pairs[0]
        assert stats.settled == 1


class TestJoinOrder:
    """A plan that binds cells out of index order yields its matches in
    join order, and deterministic selection takes the first of them."""

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
        rule = Rule("late", [("C", "red"), ("A", None), ("B", None)],
                    [("C", "x", "B"), ("B", "y", "A")],
                    recolor=[("C", "green")])
        return g, RuleSet([rule])

    def test_out_of_order_plan_applies_its_first_join(self):
        g, rules = self._setup()
        raw = pattern.kernel.enumerate_matches(rules.plans(), g, g.active)
        assert raw == [(0, (0, 4, 1)), (0, (0, 3, 2))]
        assert pattern.match_all(g, rules) == raw
        applied = step(Configuration(g, mode=DETERMINISTIC), rules)
        assert (applied.rule_index, applied.binding) == (0, (0, 4, 1))


class TestRunLoop:
    def test_quiescent_when_nothing_matches(self):
        g = tangle.Tangle()
        c = g.add_node("blue", tangle.CRITICALS)
        g.active = c
        rule = Rule("r", [("C", "red")], [], recolor=[("C", "green")])
        cfg, stats, outcome = run(Configuration(g),
                                  RuleSet([rule]))
        assert outcome == QUIESCENT
        assert stats.total == 0 and cfg.tick == 0

    def _pingpong(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        ping = Rule("t:ping", [("C", "red")], [], recolor=[("C", "green")])
        pong = Rule("t:pong", [("C", "green")], [], recolor=[("C", "red")])
        return g, RuleSet([ping, pong])

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

    def test_stats_per_rule_and_format(self):
        stats = StepStats()
        for name in ("b:z", "a:y", "a:x", "a:y", "plain"):
            stats.count(name)
        assert stats.rules == {"b:z": 1, "a:y": 2, "a:x": 1, "plain": 1}
        assert stats.as_dict() == {
            "total": 5, "matches": 0, "settled": 0, "idle_checks": 0,
            "fallbacks": 0, "phases": {"a": 3, "b": 1, "plain": 1},
            "rules": {"b:z": 1, "a:y": 2, "a:x": 1, "plain": 1}}
        assert stats.format() == (
            "phase a 3\nphase b 1\nphase plain 1\ntotal 5\n")
        assert StepStats().format() == "total 0\n"

    def test_on_tick_callback_sees_every_application(self):
        g, rules = self._pingpong()
        names = []
        run(Configuration(g), rules, max_ticks=4,
            on_tick=lambda cfg, applied: names.append(applied.rule.name))
        assert names == ["t:ping", "t:pong", "t:ping", "t:pong"]


class TestInvariantChecking:
    def test_second_criticals_trips_the_check(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        rules = RuleSet([
            Rule("bad", [("C", "red")], [], recolor=[("C", "blue")],
                 creates=[("D", "plain", tangle.CRITICALS)])])
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, check_invariants=True,
                universe=hfset.Universe())
        assert exc.value.tick == 1
        assert any("criticals" in v for v in exc.value.violations)

    def test_clean_run_passes_with_checks_on(self):
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        rules = RuleSet([
            Rule("ok", [("C", "red")], [], recolor=[("C", "blue")])])
        _, _, outcome = run(Configuration(g), rules, check_invariants=True,
                            universe=hfset.Universe())
        assert outcome == QUIESCENT

    def test_mid_protocol_duplicates_exempt_when_idle_colors_given(self):
        # a non-committed (marked) duplicate is tolerated mid-protocol and
        # flagged only when the active color is an idle color
        g = tangle.Tangle()
        c = g.add_node("red", tangle.CRITICALS)
        g.active = c
        e1 = g.add_node(tangle.PLAIN, tangle.SET)
        g.add_edge(c, "x", e1)
        dup = Rule("dup", [("C", "red")], [], recolor=[("C", "green")],
                   creates=[("E", tangle.PLAIN, tangle.SET)])
        relax = RuleSet([dup])
        with pytest.raises(InvariantViolation):
            run(Configuration(g), relax, check_invariants=True,
                universe=hfset.Universe(),
                idle_colors=frozenset(("green",)))
        g2 = tangle.Tangle()
        c2 = g2.add_node("red", tangle.CRITICALS)
        g2.active = c2
        e2 = g2.add_node(tangle.PLAIN, tangle.SET)
        g2.add_edge(c2, "x", e2)
        _, _, outcome = run(Configuration(g2), relax, check_invariants=True,
                            universe=hfset.Universe(),
                            idle_colors=frozenset(("never",)))
        assert outcome == QUIESCENT

    def test_checks_without_a_universe_raise_before_the_first_tick(self):
        # the initial graph is deeper than a fresh universe allows
        source, state_text = bench.overhead_case(20)
        _u, _program, unit, _state, graph = compile_case(source, state_text)
        cfg = Configuration(graph)
        with pytest.raises(ValueError, match="universe"):
            run(cfg, unit.ruleset, check_invariants=True,
                idle_colors=unit.idle_colors)
        assert cfg.tick == 0


# Checks after a tick that ends at an idle color walk the whole graph;
# after any other tick only the applied rewrite is checked.
IDLE = frozenset(("idle",))
STRUCTURAL = frozenset(("multiple criticals", "no criticals",
                        "active is not the criticals node",
                        "containment cycle"))


def two_set_graph():
    """Criticals (color red) with $x edges to two empty marked sets."""
    g = tangle.Tangle()
    c = g.add_node("red", tangle.CRITICALS)
    g.active = c
    for _ in range(2):
        g.add_edge(c, HANDLE, g.add_node(tangle.MARKER, tangle.SET))
    return g


def two_set_rules(*rewrites, colors=("red",)):
    """Rule i fires at focus color colors[i] on any two $x targets and
    applies rewrites[i], a dict of Rule's rewrite keywords."""
    rules = [Rule("r%d" % i, [("C", color), ("A", None), ("B", None)],
                  [("C", HANDLE, "A"), ("C", HANDLE, "B")], **rewrite)
             for i, (color, rewrite) in enumerate(zip(colors, rewrites))]
    return RuleSet(rules)


class TestIncrementalChecks:
    def test_cycle_closed_mid_protocol_is_caught_at_that_tick(self):
        # tick 1 adds A elem B (fine), tick 2 adds B elem A: a cycle,
        # while the focus stays at a non-idle color
        g = two_set_graph()
        rules = two_set_rules(
            dict(add=[("A", tangle.ELEM, "B")], recolor=[("C", "blue")]),
            dict(add=[("B", tangle.ELEM, "A")]),
            colors=("red", "blue"))
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, max_ticks=10,
                check_invariants=True, idle_colors=IDLE,
                universe=hfset.Universe())
        assert exc.value.tick == 2
        assert exc.value.violations == ["containment cycle"]

    def test_cycle_through_created_node_is_caught(self):
        g = two_set_graph()
        rules = two_set_rules(dict(
            creates=[("N", "marker", tangle.SET)],
            add=[("A", tangle.ELEM, "N"), ("N", tangle.FST, "B"),
                 ("B", tangle.SND, "A")]))
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, max_ticks=10,
                check_invariants=True, idle_colors=IDLE,
                universe=hfset.Universe())
        assert exc.value.tick == 1

    def test_self_loop_is_a_cycle(self):
        g = two_set_graph()
        rules = two_set_rules(dict(add=[("A", tangle.ELEM, "A")]))
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, max_ticks=10,
                check_invariants=True, idle_colors=IDLE,
                universe=hfset.Universe())
        assert exc.value.tick == 1

    def test_second_criticals_mid_protocol_is_caught_at_that_tick(self):
        g = two_set_graph()
        rules = two_set_rules(dict(
            creates=[("D", "plain", tangle.CRITICALS)]))
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, max_ticks=10,
                check_invariants=True, idle_colors=IDLE,
                universe=hfset.Universe())
        assert exc.value.tick == 1
        assert exc.value.violations == ["multiple criticals"]

    @pytest.mark.parametrize("malformed", ["cycle", "criticals"])
    def test_malformed_initial_graph_raises_at_tick_zero(self, malformed):
        g = two_set_graph()
        a, b = sorted(g.targets(g.active, HANDLE))
        if malformed == "cycle":
            g.add_edge(a, tangle.ELEM, b)
            g.add_edge(b, tangle.ELEM, a)
        else:
            g.add_node("plain", tangle.CRITICALS)
        rules = two_set_rules(dict(recolor=[("C", "blue")]))
        applied = []
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, check_invariants=True,
                universe=hfset.Universe(),
                idle_colors=IDLE,
                on_tick=lambda cfg, m: applied.append(m))
        assert exc.value.tick == 0 and applied == []

    def test_full_check_runs_once_per_run(self, monkeypatch):
        # guard against a full-graph walk after the first tick and a
        # structural check at a tick whose rule can break nothing: one
        # full check before the first tick (its committed part is the
        # only full committed walk of a clean run), one structural check
        # per tick whose rule creates a Criticals node or adds a
        # containment edge, and one incremental committed check per tick
        # that ends at an idle color; every term node is committed at
        # idle ticks, so no term node is walked after the first tick
        source, state_text = load_corpus_case("03-accumulate")
        u, _p, unit, _s, graph = compile_case(source, state_text)
        calls = {"full": 0, "structural": 0, "committed": 0,
                 "incremental": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name, mod, attr in [("full", tangle, "check_invariants"),
                                ("structural", automaton, "_tick_violations"),
                                ("committed", tangle, "committed_violations"),
                                ("incremental", automaton._CommittedCheck,
                                 "_clean")]:
            monkeypatch.setattr(mod, attr, counting(name, getattr(mod, attr)))
        node_walks = [0]
        term_walks = []     # per term-node check, its _node_values calls
        node_values = tangle._node_values
        term_node_failures = tangle._term_node_failures

        def counted_walk(*args, **kwargs):
            node_walks[0] += 1
            return node_values(*args, **kwargs)

        def counted_terms(*args):
            before = node_walks[0]
            failures = term_node_failures(*args)
            term_walks.append(node_walks[0] - before)
            return failures

        monkeypatch.setattr(tangle, "_node_values", counted_walk)
        monkeypatch.setattr(tangle, "_term_node_failures", counted_terms)
        idle_ticks = []
        effect_ticks = []
        assert unit.ruleset.effects is None     # not built by the compiler

        def on_tick(cfg, m):
            if cfg.tangle.color_of(cfg.tangle.active) in unit.idle_colors:
                idle_ticks.append(cfg.tick)
            if (any(kind == tangle.CRITICALS for _c, kind in m.rule.creates)
                    or any(label in tangle.CONTAINMENT
                           for _a, label, _d in m.rule.add)):
                effect_ticks.append(cfg.tick)

        _, stats, outcome = run(Configuration(graph), unit.ruleset,
                                check_invariants=True,
                                idle_colors=unit.idle_colors, universe=u,
                                on_tick=on_tick)
        assert outcome == QUIESCENT
        assert 0 < len(idle_ticks) < stats.total
        assert 0 < len(effect_ticks) < stats.total
        assert calls == {"full": 1, "structural": len(effect_ticks),
                         # the full check runs the committed part too
                         "committed": 1, "incremental": len(idle_ticks)}
        assert (stats.idle_checks, stats.fallbacks) == (len(idle_ticks), 0)
        assert term_walks[1:] == [0] * len(idle_ticks)
        # built once per rule set, not per run
        assert automaton.effects(unit.ruleset) is unit.ruleset.effects


class TestIdleTickChecks:
    """Rules that end at an idle color and break an invariant: the run
    raises at that tick with the list the full check gives."""

    def _violations(self, **rewrite):
        g = two_set_graph()
        rewrite["recolor"] = rewrite.get("recolor", []) + [("C", "idle")]
        u = hfset.Universe()
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), two_set_rules(rewrite), max_ticks=10,
                check_invariants=True, idle_colors=IDLE, universe=u)
        assert exc.value.tick == 1
        assert exc.value.violations == tangle.check_invariants(g, u)
        return exc.value.violations

    @pytest.mark.parametrize("label", [tangle.FST, tangle.SND])
    def test_containment_cycle(self, label):
        # both sets are committed empty sets, but uniqueness is not
        # checked once containment is cyclic
        assert self._violations(
            add=[("A", label, "B"), ("B", label, "A")],
            recolor=[("A", tangle.PLAIN), ("B", tangle.PLAIN)],
        ) == ["containment cycle"]

    def test_second_criticals(self):
        assert self._violations(
            creates=[("D", tangle.PLAIN, tangle.CRITICALS)],
            recolor=[("A", tangle.PLAIN), ("B", tangle.PLAIN)],
        ) == ["multiple criticals",
              "duplicate committed value at nodes 1 and 2"]

    def test_pair_with_two_fst_components(self):
        assert self._violations(
            creates=[("P", tangle.PLAIN, tangle.PAIR)],
            add=[("A", tangle.FST, "P"), ("B", tangle.FST, "P")],
        ) == ["pair node 3 has 2 fst / 0 snd components"]

    def test_duplicate_committed_value(self):
        assert self._violations(
            recolor=[("A", tangle.PLAIN), ("B", tangle.PLAIN)],
        ) == ["duplicate committed value at nodes 1 and 2"]

    def test_committed_set_with_a_member_that_is_not_a_value(self):
        assert self._violations(
            creates=[("T", tangle.PLAIN, tangle.TUPLE)],
            add=[("T", tangle.ELEM, "A")],
            recolor=[("A", tangle.PLAIN)],
        ) == ["node 3 of kind tuple is not a value"]

    # One tick on {t: {}} (node 1) from red to the idle colour: the
    # critical-term checks run at the idle check too, not only before the
    # first tick.  With held_pair, the rule also binds P, node 2, a marker
    # pair without components that only the scratch handle holds.
    def _term_violations(self, held_pair=False, **rewrite):
        u = hfset.Universe()
        g = tangle.encode({"t": u.empty()}, u, criticals_color="red")
        cells = [("C", "red"), ("A", None)]
        edges = [("C", "t", "A")]
        if held_pair:
            g.add_edge(g.active, HANDLE,
                       g.add_node(tangle.MARKER, tangle.PAIR))
            cells.append(("P", None))
            edges.append(("C", HANDLE, "P"))
        rewrite["recolor"] = rewrite.get("recolor", []) + [("C", "idle")]
        rules = RuleSet([Rule("r", cells, edges, **rewrite)])
        with pytest.raises(InvariantViolation) as exc:
            run(Configuration(g), rules, max_ticks=10, check_invariants=True,
                idle_colors=IDLE, universe=u)
        assert exc.value.tick == 1
        assert exc.value.violations == tangle.check_invariants(g, u)
        return exc.value.violations

    def test_critical_term_added_to_a_node_that_is_not_a_value(self):
        assert self._term_violations(
            creates=[("N", tangle.MARKER, tangle.SCRATCH)],
            add=[("C", "t2", "N")],
        ) == ["node 2 of kind scratch is not a value"]

    def test_critical_term_on_a_second_criticals_node(self):
        # with two Criticals nodes the full check checks no term, so the
        # run's term checks report nothing either
        assert self._term_violations(
            creates=[("D", tangle.PLAIN, tangle.CRITICALS)],
            add=[("C", "t2", "D")],
        ) == ["multiple criticals"]

    def test_critical_term_given_a_second_edge(self):
        assert self._term_violations(
            creates=[("N", tangle.PLAIN, tangle.SET)],
            add=[("C", "t", "N")],
        ) == ["duplicate committed value at nodes 1 and 2",
              "critical term t has multiple edges"]

    def test_critical_term_moved_onto_an_untouched_broken_node(self):
        # no tick touches the pair, so only the term check walks it
        assert self._term_violations(
            held_pair=True, add=[("C", "t2", "P")],
        ) == ["pair node 2 has 0 fst / 0 snd components"]

    def test_term_node_recolored_out_of_committed_then_broken(self):
        # t's node is no longer committed, so only the term check walks
        # it, and its new member is a pair without components
        assert self._term_violations(
            creates=[("P", tangle.MARKER, tangle.PAIR)],
            add=[("P", tangle.ELEM, "A")],
            recolor=[("A", tangle.MARKER)],
        ) == ["pair node 2 has 0 fst / 0 snd components"]

    # Two rounds: tick 1 takes the focus from red to idle, and its idle
    # check is clean, which leaves the run's memo warm; tick 2 edits the
    # nodes the named terms hold and ends at the idle color done.  Unless
    # fallbacks is 0, the committed check of tick 2 falls back.
    def _second_round(self, terms, u, setup=None, fallbacks=1, **rewrite):
        g = tangle.encode({name: u.parse(text) for name, text in terms.items()},
                          u, criticals_color="red")
        if setup is not None:
            setup(g)
        cells = sorted(g.out[g.active])
        rewrite["recolor"] = rewrite.get("recolor", []) + [("C", "done")]
        rules = RuleSet([
            Rule("warm", [("C", "red")], [], recolor=[("C", "idle")]),
            Rule("edit", [("C", "idle")] + [(c, None) for c in cells],
                 [("C", c, c) for c in cells], **rewrite)])
        cfg = Configuration(g)
        with pytest.raises((InvariantViolation, hfset.HFLimitError)) as exc:
            run(cfg, rules, check_invariants=True, universe=u,
                idle_colors=frozenset(("idle", "done")))
        # the first idle check was certified from the memo
        stats = exc.value.stats
        assert (stats.total, stats.idle_checks, stats.fallbacks) == (
            2, 2, fallbacks)
        return g, exc.value

    @pytest.mark.parametrize("edit", ["add", "delete"])
    def test_elem_edge_two_levels_below_a_committed_root(self, edit):
        # r's set s2 gains or loses the member a, and then it and the set
        # holding it duplicate t's member and t itself
        u = hfset.Universe()
        if edit == "add":
            terms = {"r": "{{{b}}}", "s2": "{b}", "a": "a", "t": "{{a,b}}"}
        else:
            terms = {"r": "{{{a,b}}}", "s2": "{a,b}", "a": "a", "t": "{{b}}"}
        g, exc = self._second_round(terms, u,
                                    **{edit: [("a", tangle.ELEM, "s2")]})
        assert exc.tick == 2
        assert exc.violations == tangle.check_invariants(g, u)
        assert len(exc.violations) == 2
        assert all(v.startswith("duplicate committed value")
                   for v in exc.violations)

    def test_unmoved_term_on_a_set_broken_two_levels_below(self):
        # t holds the marked set {{<a,b>}}, which decodes but is not
        # committed; below it sit the marked set {<a,b>} and the marked
        # pair <a,b>, which no committed node contains.  Tick 2 gives the
        # pair a second fst edge and moves no term.
        def setup(g):
            s = min(g.targets(g.active, "t"))
            (x,) = g.sources(s, tangle.ELEM)
            (p,) = g.sources(x, tangle.ELEM)
            for nid in (s, x, p):
                g.set_color(nid, tangle.MARKER)
            g.add_edge(g.active, "$p", p)

        u = hfset.Universe()
        g, exc = self._second_round({"t": "{{<a,b>}}", "b": "b"}, u,
                                    setup=setup, fallbacks=0,
                                    add=[("b", tangle.FST, "$p")])
        assert exc.tick == 2
        assert exc.violations == tangle.check_invariants(g, u)
        assert exc.violations == [
            "pair node %d has 2 fst / 1 snd components"
            % min(g.targets(g.active, "$p"))]

    def test_marked_node_recolored_plain_duplicates_an_old_value(self):
        # m is a marked copy of r's member {a,b}, ignored until committed
        def setup(g):
            m = g.add_node(tangle.MARKER, tangle.SET)
            for name in ("a", "b"):
                g.add_edge(min(g.targets(g.active, name)), tangle.ELEM, m)
            g.add_edge(g.active, "m", m)

        u = hfset.Universe()
        g, exc = self._second_round({"r": "{{a,b}}", "a": "a", "b": "b"}, u,
                                    setup=setup,
                                    recolor=[("m", tangle.PLAIN)])
        assert exc.tick == 2
        assert exc.violations == tangle.check_invariants(g, u)
        assert exc.violations == [
            "duplicate committed value at nodes %d and %d"
            % (min(g.sources(min(g.targets(g.active, "r")), tangle.ELEM)),
               min(g.targets(g.active, "m")))]

    def test_value_past_the_depth_limit(self):
        # r's set s2 gains the member d, which puts the set holding s2 one
        # level past the limit
        u = hfset.Universe(max_depth=3)
        g, exc = self._second_round(
            {"r": "{{{{}}}}", "s2": "{{}}", "d": "{{a}}"}, u,
            add=[("d", tangle.ELEM, "s2")])
        assert isinstance(exc, hfset.HFLimitError)
        with pytest.raises(hfset.HFLimitError) as full:
            tangle.check_invariants(g, u)
        assert str(exc) == str(full.value) == (
            "nesting depth 4 exceeds limit 3")


FOCUS_COLORS = ("idle", "busy", "red")
VALUE_COLORS = (tangle.PLAIN, tangle.MARKER)
CONTAINMENT_EDGES = sorted(tangle.CONTAINMENT)

# committed, nested initial values: a small pool, so that one edit to a
# value often makes it equal another
VALUE_TEXT = st.sampled_from(("{}", "{{}}", "{a}", "{b}", "{a,b}", "{{a}}",
                              "{{a},b}", "{{a,b}}", "<a,b>", "{<a,b>}"))
# the labels of the rules' term edits: random_graph's values hold t0 to
# t3, its marked sets may hold u and v, and no term holds w at first
TERM_LABELS = ("t0", "u", "v", "w")


@st.composite
def random_rules(draw):
    """Rules over C -x-> A, C -x-> B, in the order deterministic
    selection tries them:

    - edit fires at the idle color when A is inside B and B is an
      element of R: A leaves B, B may be marked, and the focus moves on,
      so an edit two levels below R follows an idle check, often a clean
      one that left the memo warm;
    - one to three rules at a drawn focus color create nodes, add and
      delete containment edges among pattern and created cells, may add
      or delete a critical-term edge out of the focus, and recolor other
      cells into and out of the committed colors;
    - r0 matches at any focus color and any two $x targets, may recolor
      A or B, and moves the focus to the idle color, so every run takes
      a tick and reaches an idle check.  Half the time it also points a
      critical-term label at A, which it then binds to a marked node
      only: often one of random_graph's pairs without components, whose
      walk failure only the idle check's term walk reports."""
    cells = [("C", None), ("A", None), ("B", None)]
    pattern = [("C", HANDLE, "A"), ("C", HANDLE, "B")]
    link = ("A", draw(st.sampled_from(CONTAINMENT_EDGES)), "B")
    recolor = [("C", draw(st.sampled_from(FOCUS_COLORS)))]
    if draw(st.booleans()):
        recolor.append(("B", tangle.MARKER))
    rules = [Rule("edit", [("C", "idle")] + cells[1:] + [("R", None)],
                  pattern + [link, ("B", tangle.ELEM, "R")],
                  recolor=recolor, delete=[link])]
    for i in range(1, draw(st.integers(2, 4))):
        creates = [("N%d" % j, draw(st.sampled_from(VALUE_COLORS)),
                    draw(st.sampled_from((tangle.SET, tangle.PAIR,
                                          tangle.CRITICALS))))
                   for j in range(draw(st.integers(0, 2)))]
        names = ("A", "B") + tuple(name for name, _c, _k in creates)
        edge = st.tuples(st.sampled_from(names),
                         st.sampled_from(CONTAINMENT_EDGES),
                         st.sampled_from(names))
        add_edges = draw(st.lists(edge, max_size=3))
        add_edges += [("C", HANDLE, name) for name, _c, _k in creates]
        delete = draw(st.lists(edge, max_size=2))
        term = draw(st.none() | st.tuples(st.booleans(),
                                          st.sampled_from(TERM_LABELS),
                                          st.sampled_from(names)))
        if term is not None:
            added, label, name = term
            (add_edges if added else delete).append(("C", label, name))
        recolor = draw(st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(VALUE_COLORS)),
            max_size=2, unique_by=lambda cell: cell[0]))
        recolor.append(("C", draw(st.sampled_from(FOCUS_COLORS))))
        rules.append(Rule("r%d" % i,
                          [("C", draw(st.sampled_from(FOCUS_COLORS)))]
                          + cells[1:], pattern, recolor=recolor,
                          add=add_edges, delete=delete, creates=creates))
    recolor = draw(st.lists(st.tuples(st.sampled_from("AB"),
                                      st.sampled_from(VALUE_COLORS)),
                            max_size=1))
    add = []
    if draw(st.booleans()):
        cells = [("C", None), ("A", tangle.MARKER), ("B", None)]
        add = [("C", draw(st.sampled_from(TERM_LABELS)), "A")]
        recolor = [(n, c) for n, c in recolor if n != "A"]
    rules.append(Rule("r0", cells, pattern,
                      recolor=recolor + [("C", "idle")], add=add))
    return RuleSet(rules)


@st.composite
def random_graph(draw):
    """Criticals with $x edges to every value node: committed, nested,
    maximally shared values as tangle.encode builds them, each held by
    its term label, one node inside them marked, and a few marked value
    nodes with acyclic containment edges into them, whose sets may hold
    the terms u and v, plus at most one arbitrary edge between two
    nodes (which may close a cycle or break a committed value before
    the first tick)."""
    u = hfset.Universe()
    terms = {"t%d" % i: u.parse(text)
             for i, text in enumerate(draw(st.lists(VALUE_TEXT, max_size=4)))}
    g = tangle.encode(terms, u,
                      criticals_color=draw(st.sampled_from(FOCUS_COLORS)))
    c = g.active
    inner = [nid for nid in sorted(g.nodes)
             if any(g.out[nid].get(label) for label in tangle.CONTAINMENT)]
    if inner:
        g.set_color(draw(st.sampled_from(inner)), tangle.MARKER)
    marked = [g.add_node(tangle.MARKER,
                         draw(st.sampled_from((tangle.SET, tangle.PAIR))))
              for _ in range(draw(st.integers(2, 4)))]
    sets = [n for n in marked if g.nodes[n].kind == tangle.SET]
    if sets:
        for label in draw(st.lists(st.sampled_from(("u", "v")), unique=True)):
            g.add_edge(c, label, draw(st.sampled_from(sets)))
    nodes = [nid for nid in sorted(g.nodes) if nid != c]
    for n in nodes:
        g.add_edge(c, HANDLE, n)
    into_marked = st.tuples(st.sampled_from(nodes),
                            st.sampled_from(CONTAINMENT_EDGES),
                            st.sampled_from(marked))
    for a, label, d in draw(st.lists(into_marked, max_size=3)):
        if a < d:
            g.add_edge(a, label, d)
    # one draw in four adds the arbitrary edge, never as a self-loop, so
    # that most examples reach a tick (the tick-0 check has its own tests)
    if draw(st.integers(0, 3)) == 0:
        a = draw(st.sampled_from(nodes))
        g.add_edge(a, draw(st.sampled_from(CONTAINMENT_EDGES)),
                   draw(st.sampled_from([n for n in nodes if n != a])))
    return g


class TestIncrementalMatchesFull:
    @settings(max_examples=300, deadline=None)
    @given(random_graph(), random_rules(),
           st.sampled_from((DETERMINISTIC, RANDOM)), st.integers(0, 9))
    def test_first_violation_tick_agrees(self, g, rules, mode, seed):
        # the run must stop at the first tick where the full check,
        # restricted to structural kinds at non-idle colors, is unclean,
        # and report exactly that restricted list
        u = hfset.Universe()
        found = [tangle.check_invariants(g, u)]

        def on_tick(cfg, _m):
            violations = tangle.check_invariants(cfg.tangle, u)
            if cfg.tangle.color_of(cfg.tangle.active) not in IDLE:
                violations = [v for v in violations if v in STRUCTURAL]
            found.append(violations)

        try:
            run(Configuration(g, seed=seed, mode=mode), rules, max_ticks=12,
                check_invariants=True, idle_colors=IDLE, universe=u,
                on_tick=on_tick)
            stopped = None
        except InvariantViolation as exc:
            stopped = exc.tick
            assert exc.violations == found[stopped]
        expected = next((tick for tick, violations in enumerate(found)
                         if violations), None)
        assert stopped == expected
