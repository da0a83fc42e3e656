"""Anchored subgraph matching, the pure-Python kernel.

The per-tick hot loop: enumerate every injective embedding of every
eligible pattern, anchored at the active node.  pattern.match_all looks
enumerate_matches up on this module at call time.
"""

KERNEL_NAME = "python"


class Plan:
    """Precompiled join order for one rule's pattern.

    steps: (new_cell, from_cell, label, forward) — bind new_cell from the
    adjacency of an already-bound cell.  checks: edges not consumed by
    steps, verified on full bindings.  negs: edges that must be absent,
    checked whenever the plan has any; only rules compiled with negative
    edges, or written with neg_edges, have them.
    """

    __slots__ = ("rule_index", "n", "colors", "focus", "steps", "checks",
                 "negs")

    def __init__(self, rule_index, n, colors, focus, steps, checks, negs):
        self.rule_index = rule_index
        self.n = n
        self.colors = list(colors)
        self.focus = focus
        self.steps = [tuple(s) for s in steps]
        self.checks = [tuple(c) for c in checks]
        self.negs = [tuple(c) for c in negs]


class PlanIndex:
    """Plans grouped by required focus color; wildcard focus always tried."""

    def __init__(self, plans):
        self.by_color = {}
        self.wildcard = []
        for p in plans:
            c = p.colors[p.focus]
            if c is None:
                self.wildcard.append(p)
            else:
                self.by_color.setdefault(c, []).append(p)

    def candidates(self, color):
        colored = self.by_color.get(color)
        if not colored:
            return self.wildcard
        if not self.wildcard:
            return colored
        merged = colored + self.wildcard
        merged.sort(key=lambda p: p.rule_index)
        return merged


def enumerate_matches(index, g, active):
    """All matches anchored at `active`, as (rule_index, binding) pairs.

    Deterministic: plan order, then lexicographically by binding tuple
    (candidates are explored in sorted node-id order).
    """
    out = []
    nodes = g.nodes
    active_color = nodes[active].color
    for plan in index.candidates(active_color):
        want = plan.colors[plan.focus]
        if want is not None and want != active_color:
            continue
        binding = [-1] * plan.n
        binding[plan.focus] = active
        if plan.n == 1:
            _finish(plan, g, binding, out)
        else:
            _extend(plan, g, 0, binding, out)
    return out


def _extend(plan, g, depth, binding, out):
    new, frm, label, forward = plan.steps[depth]
    anchor = binding[frm]
    if forward:
        cands = g.out[anchor].get(label)
    else:
        cands = g.inn[anchor].get(label)
    if not cands:
        return
    want = plan.colors[new]
    nodes = g.nodes
    last = depth == len(plan.steps) - 1
    for cand in sorted(cands):
        if want is not None and nodes[cand].color != want:
            continue
        ok = True
        for b in binding:
            if b == cand:
                ok = False
                break
        if not ok:
            continue
        binding[new] = cand
        if last:
            _finish(plan, g, binding, out)
        else:
            _extend(plan, g, depth + 1, binding, out)
        binding[new] = -1


def _finish(plan, g, binding, out):
    for a, label, b in plan.checks:
        targets = g.out[binding[a]].get(label)
        if not targets or binding[b] not in targets:
            return
    for a, label, b in plan.negs:
        targets = g.out[binding[a]].get(label)
        if targets and binding[b] in targets:
            return
    out.append((plan.rule_index, tuple(binding)))
