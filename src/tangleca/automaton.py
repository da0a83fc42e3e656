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

A checked run walks the whole tangle once, before the first tick, and
keeps the value that walk decoded for each node.  After that each tick
pays only for what its rule can break, looked up in the rule set's effect
table, and a tick that ends at an idle color adds the committed-value
checks that mid-protocol ticks are exempt from.  Those re-decode only the
nodes the ticks since the last clean check touched, and what contains
them; when that cannot certify the tangle clean, the full committed check
runs and its verdict is the tick's (see run).
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
    maximality filter.  In a checked run, idle_checks counts the
    committed-value checks of idle ticks, and fallbacks those of them
    that the memo could not certify clean, so that the full
    tangle.committed_violations ran."""

    def __init__(self):
        self.total = 0
        self.matches = 0
        self.settled = 0
        self.idle_checks = 0
        self.fallbacks = 0
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
                "settled": self.settled, "idle_checks": self.idle_checks,
                "fallbacks": self.fallbacks, "phases": self.phases,
                "rules": dict(self.rules)}

    def format(self):
        phases = self.phases
        lines = ["phase %s %d" % (k, phases[k]) for k in sorted(phases)]
        lines.append("total %d" % self.total)
        return "\n".join(lines) + "\n"


class RoundCounter:
    """An on_tick hook that splits a run into rounds.  A round starts
    each time the focus enters `first` and runs to the next such entry
    or to the end of the run; for a compiled unit whose `first_color`
    it is, a round is one ASM step.  rounds holds [ticks, node count at
    the round's start] per round."""

    def __init__(self, first):
        self.first = first
        self.rounds = []

    def __call__(self, cfg, _applied):
        g = cfg.tangle
        if self.rounds:
            self.rounds[-1][0] += 1
        if g.color_of(g.active) == self.first:
            self.rounds.append([0, g.node_count()])

    def max_ticks(self):
        """The most ticks one round took (0 before any round)."""
        return max((ticks for ticks, _nodes in self.rounds), default=0)


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
      starting tick); its walk seeds the memo below;
    - after every tick, only what the applied rule can have broken is
      checked, as the rule set's effect table (effects) records it: the
      node count did not fall, and, for a rule that has the effect, no
      created node is a second Criticals and no added containment edge
      closes a cycle;
    - after a tick that ends at an idle color (every tick when
      idle_colors is None), the committed checks also run: every
      committed value node decodes, and no two hold one value, which
      mid-protocol marks are exempt from.  The verdict is always that of
      tangle.committed_violations on the tick's graph; the memo only
      saves walking the whole graph to reach it.  Then the critical-term
      checks run, with tangle.check_invariants' verdict: each term has
      one edge, and each term's node decodes.  The terms, label -> node,
      change only through an edge added to or deleted from the Criticals
      node, which the focus binds, so the edges with such an edge's
      label are read again right after the tick whose rule has that
      effect (effects), and what is wrong with them is reported at the
      next idle check.  There a term node the committed check decoded
      (its memo, or a fallback's walk) decodes to that value, and each
      other term node is walked at every idle check, through the
      committed check's values, as tangle.check_invariants walks it.

    The memo maps each node the last clean committed check decoded to
    its value: every node tangle.committed_violations' walk decodes (each
    committed value node and all it contains), and perhaps nodes that
    walk no longer reaches.  A tick touches the destination of each
    containment edge it adds or deletes, each cell other than the focus
    it recolors (the focus is the Criticals node, which holds no value)
    and each node it creates; the effect table (effects) lists those
    cells per rule.  An idle check drops the touched nodes and their
    forward closure along outgoing elem/fst/snd edges (the sets and
    pairs that contain them) from the memo, re-decodes the committed
    value nodes among them, and certifies the tangle clean when no walk
    fails and no decoded value's uid is held by another entry.
    Otherwise it falls back: it calls tangle.committed_violations, whose
    list (or HFLimitError) is the tick's, and a clean fallback re-seeds
    the memo from that call's walk.  Why a certified tick's full check
    is clean, by induction over clean checks:

    - nodes are never removed and kinds never change, and a node's walk,
      its value or its failure (a pair's shape included), depends only
      on its containment ancestors (the nodes with a containment path to
      it) and the edges into them, which change only through an edge
      added into or deleted from one of them: the node is then in the
      dropped closure, so every kept entry holds the node's current
      value, and its ancestors are kept too;
    - a clean check has no failing walk, so it decoded every committed
      value node and all it contains: a committed node outside the
      dropped closure (its color and ancestors unchanged) decodes what
      it decoded then, all of it kept, and one inside is re-decoded down
      to kept entries.  A failing walk is a violation, so a failing
      re-decode falls back, and the full check would find it too.  The
      memo covers every node the full walk decodes, with the same
      values;
    - the universe only grows, so the full walk's set_of and pair calls on
      kept values find values the universe holds, and a held set never
      raises;
    - a kept entry the full walk no longer reaches can only add a false
      duplicate, and so a false fallback, never hide a duplicate.

    The committed checks meet a value past the universe's limits only on
    a fallback; tangle.committed_violations then raises
    hfset.HFLimitError, and run sets the error's `stats` to the run's
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
            values = {}
            violations = tg.check_invariants(cfg.tangle, universe, values)
            if violations:
                raise InvariantViolation(cfg.tick, violations, stats)
            table = effects(rules)
            committed = _CommittedCheck(cfg.tangle, universe, values, stats)
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
                                    idle_colors, committed)
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
    invariant, touches no node and moves no critical edge, else (breaks,
    touches, terms).

    breaks is None for a rule that can break no structural invariant,
    else (criticals, containment), where criticals is whether the rule
    creates a Criticals node and containment holds the (src, dst) cells
    of its containment add edges.  Deleted edges and recolors cannot
    break a structural invariant.

    touches is None for a rule that touches no node, else (cells,
    creates): the pattern cells it touches (the destination of each
    containment edge it adds or deletes, each cell other than the focus
    it recolors) and whether it creates nodes, each of which is touched.

    terms holds the labels, not internal, of the edges out of the focus
    the rule adds or deletes: critical-term or function-location edges
    of the Criticals node, which the focus binds.

    All three are fixed for the rule: pattern.apply creates nodes in
    creates order with those kinds, adds and deletes exactly those edges
    and recolors exactly those cells.
    """
    if rules.effects is None:
        table = []
        for rule in rules.rules:
            criticals = any(kind == tg.CRITICALS for _c, kind in rule.creates)
            containment = tuple([(a, d) for a, label, d in rule.add
                                 if label in tg.CONTAINMENT])
            breaks = ((criticals, containment)
                      if criticals or containment else None)
            pattern_cells = len(rule.colors)
            cells = {d for _a, label, d in rule.add + rule.delete
                     if label in tg.CONTAINMENT}
            cells.update(c for c, _color in rule.recolor if c != rule.focus)
            cells = tuple(sorted(c for c in cells if c < pattern_cells))
            touches = ((cells, bool(rule.creates))
                       if cells or rule.creates else None)
            terms = tuple(sorted({
                label for a, label, _d in rule.add + rule.delete
                if a == rule.focus and not tg.is_internal_label(label)}))
            table.append((breaks, touches, terms)
                         if breaks or touches or terms else None)
        rules.effects = tuple(table)
    return rules.effects


def _check(g, applied, prev_nodes, table, idle_colors, committed):
    """The violations of the tick just applied, in tangle.check_invariants
    order, with "node count decreased" first."""
    violations = []
    effect = table[applied.rule_index]
    if effect is not None:
        breaks, touches, terms = effect
        if breaks is not None:
            violations = _tick_violations(g, applied, prev_nodes, breaks)
        if touches is not None:
            committed.touch(g, applied.binding, prev_nodes, touches)
        if terms:
            committed.move(g, terms)
    if idle_colors is None or g.nodes[g.active].color in idle_colors:
        violations += committed.violations(g, violations)
    if g.node_count() < prev_nodes:
        violations.insert(0, "node count decreased")
    return violations


class _CommittedCheck:
    """The committed and critical-term checks of one checked run's idle
    ticks (see run).

    values is the memo, node id -> value, and owner maps each of its
    values' uids to the node; touched holds the nodes the ticks since the
    last check touched.  terms maps each critical term's label to its
    node, as tangle._critical_terms finds them, and pending holds, per
    label, the violations found on that label's edges since the last
    check.
    """

    __slots__ = ("universe", "stats", "values", "owner", "touched",
                 "terms", "pending")

    def __init__(self, g, universe, values, stats):
        self.universe = universe
        self.stats = stats
        self.touched = set()
        self.terms = tg._critical_terms(g, g.active)[0]
        self.pending = {}
        self._seed(values)

    def _seed(self, values):
        """Adopt the values a clean full walk decoded."""
        self.values = values
        self.owner = {v.uid: nid for nid, v in values.items()}
        self.touched.clear()

    def touch(self, g, binding, prev_nodes, touch):
        """Record the nodes a tick touched, given its rule's touches
        entry; the tick's created nodes are prev_nodes onwards."""
        cells, creates = touch
        touched = self.touched
        for c in cells:
            touched.add(binding[c])
        if creates:
            touched.update(range(prev_nodes, g.node_count()))

    def move(self, g, labels):
        """Read the critical-term edges with the given labels again, right
        after a tick that added or deleted edges with them.  What is
        wrong with them waits in pending for the next idle check."""
        terms, pending = self.terms, self.pending
        for label in labels:
            found, violations = tg._critical_terms(g, g.active, (label,))
            terms.pop(label, None)
            terms.update(found)
            if violations:
                pending[label] = violations
            else:
                pending.pop(label, None)

    def violations(self, g, structural):
        """tangle.check_invariants' violations past the structural ones
        the tick reported: tangle.committed_violations(g, universe,
        cyclic), which is [] when the memo certifies the tangle clean,
        else that call's result; then, unless there are multiple
        Criticals nodes, the pending edge violations, in label order,
        and, unless containment is cyclic, the walk failure of each term
        node the committed check did not decode."""
        cyclic = "containment cycle" in structural
        self.stats.idle_checks += 1
        if not cyclic and self._clean(g):
            values = self.values
            self.touched.clear()
            violations = []
        else:
            self.stats.fallbacks += 1
            values = {}
            violations = tg.committed_violations(g, self.universe, cyclic,
                                                 values)
            if not violations:
                self._seed(values)
        if "multiple criticals" in structural:
            # check_invariants checks no term then; the run ends here
            return violations
        term_violations = [] if cyclic else tg._term_node_failures(
            g, self.universe, self.terms, values)
        pending = self.pending
        if pending:
            term_violations = [v for label in sorted(pending)
                               for v in pending[label]] + term_violations
            pending.clear()
        if term_violations:
            violations += [v for v in term_violations if v not in violations]
        return violations

    def _clean(self, g):
        """Re-decode what the touched nodes can have changed; True when
        that certifies the tangle clean.  False leaves the memo spent:
        the caller re-seeds it or the run ends."""
        values, owner = self.values, self.owner
        dirty = _closure(g, self.touched)
        nodes = g.nodes
        roots = []
        for nid in dirty:
            v = values.pop(nid, None)
            if v is not None:
                del owner[v.uid]
            node = nodes[nid]
            if node.kind in tg.VALUE_KINDS and node.color in tg.COMMITTED:
                roots.append(nid)
        if not roots:
            return True
        try:
            decoded, failures = tg._node_values(g, self.universe,
                                                roots=roots, memo=values)
        except hfset.HFLimitError:
            return False
        if failures:
            return False
        for nid, v in decoded.items():
            if owner.setdefault(v.uid, nid) != nid:
                return False
        return True


def _tick_violations(g, applied, prev_nodes, breaks):
    """Structural violations the applied rewrite has introduced, given
    the breaks part of the rule's entry in the effect table.

    The previous check found one Criticals node and acyclic containment,
    so a created Criticals node is a second one, and a new cycle runs
    through an added containment edge.  pattern.apply creates nodes with
    consecutive ids in the rule's creates order and never removes one,
    so created cell i of the rule is node prev_nodes + i.
    """
    criticals, containment = breaks
    violations = ["multiple criticals"] if criticals else []
    node_of = applied.binding + tuple(range(prev_nodes, g.node_count()))
    for a, d in containment:
        if _reaches(g, node_of[d], node_of[a]):
            violations.append("containment cycle")
            break
    return violations


def _reaches(g, start, goal):
    """True when goal is start or is reachable from it along containment
    edges.  start == goal cannot give a false cycle: bindings are
    injective, so an added edge's two ends are one node only when the
    rule adds a self-loop, which has already closed a cycle."""
    return goal in _closure(g, {start})


def _closure(g, nodes):
    """Grow the set nodes, in place, into its forward closure along
    outgoing elem/fst/snd edges (the sets and pairs that contain them),
    and return it."""
    stack = list(nodes)
    out = g.out
    while stack:
        edges = out[stack.pop()]
        for label in tg.CONTAINMENT:
            for nxt in edges.get(label, ()):
                if nxt not in nodes:
                    nodes.add(nxt)
                    stack.append(nxt)
    return nodes
