"""Sequential simulation loop.

Per tick: gather all matches at the active cell as the kernel's
(rule_index, binding_tuple) pairs, apply the maximality filter, pick one
survivor (the first in canonical order in deterministic mode,
seeded-uniform otherwise), build its Match and apply it.  Runs to
quiescence (no maximal match) or a tick budget.
"""
from __future__ import annotations

import random

from . import pattern
from . import tangle as tg

DEFAULT_MAX_TICKS = 10 ** 6

QUIESCENT = "quiescent"
BUDGET = "tick-budget-exhausted"

DETERMINISTIC = "deterministic"
RANDOM = "random"


class InvariantViolation(Exception):
    def __init__(self, tick, violations):
        super().__init__("tick %d: %s" % (tick, "; ".join(violations)))
        self.tick = tick
        self.violations = violations


class Configuration:
    def __init__(self, graph, seed=0, mode=DETERMINISTIC):
        self.tangle = graph
        self.tick = 0
        self.mode = mode
        self.rng = random.Random(seed)


class StepStats:
    """Tick counts keyed by the rule-name phase prefix (before ':')."""

    def __init__(self):
        self.total = 0
        self.phases = {}

    def count(self, rule_name):
        self.total += 1
        phase = rule_name.split(":", 1)[0]
        self.phases[phase] = self.phases.get(phase, 0) + 1

    def format(self):
        lines = ["phase %s %d" % (k, self.phases[k])
                 for k in sorted(self.phases)]
        lines.append("total %d" % self.total)
        return "\n".join(lines) + "\n"


def select_match(pairs, cfg):
    """Tie-break among maximal (rule_index, binding_tuple) pairs.

    The pairs arrive in canonical order (rule order, then binding tuple;
    see pattern.match_all), so nothing is sorted here.  Deterministic:
    the first pair.  Random: seeded-uniform over the list, drawing from
    the rng only when there is a choice, so a seed fully determines the
    run.
    """
    if cfg.mode == DETERMINISTIC or len(pairs) == 1:
        return pairs[0]
    return pairs[cfg.rng.randrange(len(pairs))]


def step(cfg, rules, negative_edges=False):
    """One tick; returns the applied Match or None when quiescent.

    Selection works on the kernel's pairs; a Match is built only for the
    chosen one.
    """
    pairs = pattern.match_all(cfg.tangle, rules, negative_edges)
    if not pairs:
        return None
    chosen = pattern.make_match(
        rules, select_match(pattern.maximality_filter(pairs), cfg))
    pattern.apply(cfg.tangle, chosen)
    cfg.tick += 1
    return chosen


def run(cfg, rules, max_ticks=DEFAULT_MAX_TICKS, negative_edges=False,
        check_invariants=False, idle_colors=None, universe=None,
        on_tick=None):
    """Iterate step until quiescence or budget; returns (cfg, stats, outcome).

    With check_invariants on, structural invariants (single Criticals,
    containment acyclicity, monotone node count) are asserted after every
    tick; committed-value uniqueness additionally whenever the active
    cell's color is in idle_colors (mid-protocol marks are exempt), or on
    every tick when idle_colors is None.
    """
    if max_ticks <= 0:
        raise ValueError("max_ticks must be positive")
    stats = StepStats()
    prev_nodes = cfg.tangle.node_count()
    while True:
        applied = step(cfg, rules, negative_edges)
        if applied is None:
            return cfg, stats, QUIESCENT
        stats.count(applied.rule.name)
        if on_tick is not None:
            on_tick(cfg, applied)
        if check_invariants:
            _check(cfg, prev_nodes, idle_colors, universe)
        prev_nodes = cfg.tangle.node_count()
        if cfg.tick >= max_ticks:
            return cfg, stats, BUDGET


def _check(cfg, prev_nodes, idle_colors, universe):
    g = cfg.tangle
    violations = []
    if g.node_count() < prev_nodes:
        violations.append("node count decreased")
    active_color = g.nodes[g.active].color
    full = idle_colors is None or active_color in idle_colors
    structural = tg.check_invariants(g, universe)
    if not full:
        structural = [v for v in structural
                      if not v.startswith("duplicate committed value")]
    violations.extend(structural)
    if violations:
        raise InvariantViolation(cfg.tick, violations)


def trace(cfg, rules, max_ticks=DEFAULT_MAX_TICKS, negative_edges=False,
          snapshots=True):
    """Run and record (tick, rule name, binding, snapshot) per transition."""
    entries = []

    def on_tick(c, applied):
        entries.append((c.tick, applied.rule.name, dict(applied.binding),
                        c.tangle.snapshot() if snapshots else None))

    cfg, stats, outcome = run(cfg, rules, max_ticks, negative_edges,
                              on_tick=on_tick)
    return entries, cfg, stats, outcome


def format_trace(entries):
    lines = []
    for tick, rule_name, binding, snap in entries:
        binds = " ".join("%s=%d" % (k, binding[k]) for k in sorted(binding))
        lines.append("tick %d rule %s %s" % (tick, rule_name, binds))
        if snap is not None:
            lines.append(snap.rstrip("\n"))
            lines.append("")
    return "\n".join(lines) + "\n"
