"""Anchored subgraph matching, the pure-Python kernel.

The per-tick hot loop: enumerate every injective embedding of every
eligible pattern, anchored at the active node.  pattern.match_all looks
enumerate_matches up on this module at call time.

The kernel emits canonical order: rule order, then binding tuple.  Plans
run in rule order, and each step tries its candidates in increasing node
id, so a plan whose steps bind its non-focus cells in increasing cell
index (Plan.ordered) emits its bindings sorted.  A focus-first plan may
bind them out of index order; its own run of pairs, which all share one
rule index, is then sorted when it holds two or more.
"""

KERNEL_NAME = "python"


class Plan:
    """Precompiled join order for one rule's pattern.

    colors: the rule's own tuple, one per cell, shared.  steps:
    (new_cell, from_cell, label, forward) — bind new_cell from the
    adjacency of an already-bound cell.  checks: edges not consumed by
    steps, verified on full bindings.  negs: the rule's edges that must
    be absent, checked whenever it has any; only rules compiled with
    negative edges, or written with negs, have them.  ordered: the steps
    bind cells in increasing cell index, so the plan emits its bindings
    sorted.
    """

    __slots__ = ("rule_index", "n", "colors", "focus", "steps", "checks",
                 "negs", "ordered")

    def __init__(self, rule_index, n, colors, focus, steps, checks, negs):
        self.rule_index = rule_index
        self.n = n
        self.colors = colors
        self.focus = focus
        self.steps = steps
        self.checks = checks
        self.negs = negs
        self.ordered = all(a[0] < b[0]
                           for a, b in zip(self.steps, self.steps[1:]))


class PlanIndex:
    """Plans grouped by focus colour, each group in rule order.

    A wildcard-focus plan runs at every colour: it is merged into each
    colour's group once, here, and `wildcard` holds it for colours no
    plan names.
    """

    def __init__(self, plans):
        self.by_color = {}
        self.wildcard = []
        for p in plans:
            c = p.colors[p.focus]
            if c is None:
                self.wildcard.append(p)
            else:
                self.by_color.setdefault(c, []).append(p)
        if self.wildcard:
            for group in self.by_color.values():
                group += self.wildcard
                group.sort(key=lambda p: p.rule_index)

    def candidates(self, color):
        return self.by_color.get(color, self.wildcard)


def enumerate_matches(index, g, active):
    """All matches anchored at `active`, as (rule_index, binding) pairs,
    in canonical order: rule order, then binding tuple."""
    out = []
    for plan in index.candidates(g.nodes[active].color):
        start = len(out)
        binding = [-1] * plan.n
        binding[plan.focus] = active
        if plan.n == 1:
            _finish(plan, g, binding, out)
        else:
            _extend(plan, g, 0, binding, out)
        if not plan.ordered and len(out) - start > 1:
            out[start:] = sorted(out[start:])
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
