"""Sequential simulation loop.

Per tick: gather all matches at the active cell as the kernel's
(rule_index, binding) pairs, pick one maximal pair and apply its rule at
its binding tuple.  Deterministic mode takes the first maximal pair in
the kernel's join order: when the plan index's table says no later rule
can cover the first pair's rule, that pair is maximal and is taken
without the maximality filter (the tick is "settled"); otherwise the
filter runs and stops at the first maximal pair.  Random mode filters
the whole list and draws a survivor seeded-uniform.  Runs to quiescence
(no match) or a tick budget.

A checked run walks the whole tangle once, before the first tick.  After
that each tick pays only for what its rule can break, looked up in the
rule set's effect table, and a tick that ends at an idle color adds the
committed-value checks that mid-protocol ticks are exempt from.
"""
from __future__ import annotations

import random

from . import hfset, pattern
from . import tangle as tg

DEFAULT_MAX_TICKS = 10 ** 6

QUIESCENT = "quiescent"
BUDGET = "tick-budget-exhausted"

DETERMINISTIC = "deterministic"
RANDOM = "random"


class InvariantViolation(Exception):
    """A malformed tangle; stats counts the ticks up to the violating one."""

    def __init__(self, tick, violations, stats):
        super().__init__("tick %d: %s" % (tick, "; ".join(violations)))
        self.tick = tick
        self.violations = violations
        self.stats = stats


class Configuration:
    def __init__(self, graph, seed=0, mode=DETERMINISTIC):
        self.tangle = graph
        self.tick = 0
        self.mode = mode
        self.rng = random.Random(seed)


class Match:
    """The applied pair of a tick: its rule, that rule's index and the
    kernel's binding tuple."""

    __slots__ = ("rule", "rule_index", "binding")

    def __init__(self, rule, rule_index, binding):
        self.rule = rule
        self.rule_index = rule_index
        self.binding = binding

    def __repr__(self):
        return "Match(%s, %r)" % (self.rule.name, self.binding)


class StepStats:
    """Tick counts per rule name; phases group them by the rule-name
    prefix before ':'.  matches counts the pairs the kernel returned
    over the run, kept or not; settled counts the deterministic ticks
    whose pair the plan index's final table chose without the
    maximality filter."""

    def __init__(self):
        self.total = 0
        self.matches = 0
        self.settled = 0
        self.rules = {}

    def count(self, rule_name):
        self.total += 1
        self.rules[rule_name] = self.rules.get(rule_name, 0) + 1

    @property
    def phases(self):
        phases = {}
        for name, ticks in self.rules.items():
            phase = name.split(":", 1)[0]
            phases[phase] = phases.get(phase, 0) + ticks
        return phases

    def as_dict(self):
        return {"total": self.total, "matches": self.matches,
                "settled": self.settled, "phases": self.phases,
                "rules": dict(self.rules)}

    def format(self):
        phases = self.phases
        lines = ["phase %s %d" % (k, phases[k]) for k in sorted(phases)]
        lines.append("total %d" % self.total)
        return "\n".join(lines) + "\n"


def select_match(pairs, cfg, final, stats=None):
    """One maximal pair of a non-empty list of (rule_index, binding)
    pairs.

    The pairs arrive as the kernel emits them, in join order (rule
    order, then the nodes bound at the plan's steps), which is the match
    order: nothing is sorted here, and the maximality filter runs here.
    Deterministic: the first maximal pair.  When the plan index's table
    `final` (kernel.PlanIndex.final) says no later rule can cover the
    first pair's rule, that pair is returned without the filter and
    counted in stats.settled; otherwise the filter stops at the first
    maximal pair.  Random: the whole list is filtered and a survivor
    drawn seeded-uniform, from the rng only when there is a choice, so a
    seed fully determines the run.
    """
    if cfg.mode == DETERMINISTIC:
        first = pairs[0]
        if final[first[0]]:
            if stats is not None:
                stats.settled += 1
            return first
        return pattern.maximality_filter(pairs, first=True)[0]
    maximal = pattern.maximality_filter(pairs)
    if len(maximal) == 1:
        return maximal[0]
    return maximal[cfg.rng.randrange(len(maximal))]


def step(cfg, rules, stats=None):
    """One tick; returns the applied Match or None when quiescent.

    Selection works on the kernel's pairs, and the chosen pair's binding
    tuple goes to pattern.apply as it is.  Given stats, it adds the
    number of pairs the kernel returned to stats.matches and counts a
    settled tick in stats.settled.
    """
    pairs = pattern.match_all(cfg.tangle, rules)
    if stats is not None:
        stats.matches += len(pairs)
    if not pairs:
        return None
    rule_index, binding = select_match(pairs, cfg, rules.plans().final,
                                       stats)
    rule = rules.rules[rule_index]
    pattern.apply(cfg.tangle, rule, binding)
    cfg.tick += 1
    return Match(rule, rule_index, binding)


def run(cfg, rules, max_ticks=DEFAULT_MAX_TICKS, check_invariants=False,
        idle_colors=None, universe=None, on_tick=None):
    """Iterate step until quiescence or budget; returns (cfg, stats, outcome).

    The rules decide the edge mode: negative edges are honoured wherever
    a rule has them.  on_tick(cfg, applied), if given, is called after
    each tick, before that tick's invariant check; it is how a caller
    records a trace or takes snapshots.

    With check_invariants on, `universe` must be the one the initial
    graph's values were built in, and InvariantViolation is raised at the
    first tick that leaves the tangle malformed, carrying the run's stats:

    - before the first tick, tangle.check_invariants runs in full on the
      initial graph (a violation there reports the configuration's
      starting tick);
    - after every tick, only what the applied rule can have broken is
      checked, as the rule set's effect table (effects) records it: the
      node count did not fall, and, for a rule that has the effect, no
      created node is a second Criticals and no added containment edge
      closes a cycle;
    - after a tick that ends at an idle color (every tick when
      idle_colors is None), tangle.committed_violations also runs: pair
      shape and committed-value uniqueness, which mid-protocol marks are
      exempt from.

    An invariant check that meets a value past the universe's limits
    raises hfset.HFLimitError; run sets the error's `stats` to the run's
    stats before it passes the error on.

    Every check after the first extends the previous clean check, so
    they assume that between two checks, idle ticks included, the graph
    changes only through pattern.apply: on_tick must not mutate the
    tangle.
    """
    if max_ticks <= 0:
        raise ValueError("max_ticks must be positive")
    if check_invariants and universe is None:
        raise ValueError("check_invariants needs the run's universe")
    stats = StepStats()
    try:
        if check_invariants:
            violations = tg.check_invariants(cfg.tangle, universe)
            if violations:
                raise InvariantViolation(cfg.tick, violations, stats)
            table = effects(rules)
        prev_nodes = cfg.tangle.node_count()
        while True:
            applied = step(cfg, rules, stats)
            if applied is None:
                return cfg, stats, QUIESCENT
            stats.count(applied.rule.name)
            if on_tick is not None:
                on_tick(cfg, applied)
            if check_invariants:
                violations = _check(cfg.tangle, applied, prev_nodes, table,
                                    idle_colors, universe)
                if violations:
                    raise InvariantViolation(cfg.tick, violations, stats)
            prev_nodes = cfg.tangle.node_count()
            if cfg.tick >= max_ticks:
                return cfg, stats, BUDGET
    except hfset.HFLimitError as exc:
        exc.stats = stats
        raise


def effects(rules):
    """The rule set's effect table, built the first time a checked run
    needs it and kept on the rule set.

    Indexed by rule index: None for a rule that can break no structural
    invariant, else (criticals, containment), where criticals is whether
    the rule creates a Criticals node and containment holds the (src,
    dst) cells of its containment add edges.  Both are fixed for the
    rule: pattern.apply creates nodes in creates order with those kinds
    and adds exactly those edges.  Deleted edges and recolors cannot
    break a structural invariant.
    """
    if rules.effects is None:
        table = []
        for rule in rules.rules:
            criticals = any(kind == tg.CRITICALS for _c, kind in rule.creates)
            containment = tuple([(a, d) for a, label, d in rule.add
                                 if label in tg.CONTAINMENT])
            table.append((criticals, containment)
                         if criticals or containment else None)
        rules.effects = tuple(table)
    return rules.effects


def _check(g, applied, prev_nodes, table, idle_colors, universe):
    """The violations of the tick just applied, in tangle.check_invariants
    order, with "node count decreased" first."""
    effect = table[applied.rule_index]
    violations = ([] if effect is None
                  else _tick_violations(g, applied, prev_nodes, effect))
    if idle_colors is None or g.nodes[g.active].color in idle_colors:
        violations += tg.committed_violations(
            g, universe, "containment cycle" in violations)
    if g.node_count() < prev_nodes:
        violations.insert(0, "node count decreased")
    return violations


def _tick_violations(g, applied, prev_nodes, effect):
    """Structural violations the applied rewrite has introduced, given
    the rule's entry in the effect table.

    The previous check found one Criticals node and acyclic containment,
    so a created Criticals node is a second one, and a new cycle runs
    through an added containment edge.  pattern.apply creates nodes with
    consecutive ids in the rule's creates order and never removes one,
    so created cell i of the rule is node prev_nodes + i.
    """
    criticals, containment = effect
    violations = ["multiple criticals"] if criticals else []
    node_of = applied.binding + tuple(range(prev_nodes, g.node_count()))
    for a, d in containment:
        if _reaches(g, node_of[d], node_of[a]):
            violations.append("containment cycle")
            break
    return violations


def _reaches(g, start, goal):
    """True when goal is reachable from start along containment edges."""
    seen = {start}
    stack = [start]
    while stack:
        out = g.out[stack.pop()]
        for label in tg.CONTAINMENT:
            for nxt in out.get(label, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False
