"""Anchored subgraph matching, the pure-Python kernel.

The per-tick hot loop: enumerate every injective embedding of every
eligible pattern, anchored at the active node.  pattern.match_all looks
enumerate_matches up on this module at call time.

The kernel emits canonical order: rule order, then binding tuple.  Plans
run in rule order, and each step tries its candidates in increasing node
id, so a plan whose steps bind its non-focus cells in increasing cell
index (Plan.ordered) emits its bindings sorted.  A focus-first plan may
bind them out of index order.  Its run of pairs, which all share one
rule index, is still sorted when a focus step has at most one candidate
at this tick and the other steps bind in increasing cell index
(Plan.rest_ordered): the focus steps then bind the same node in every
binding, and the other cells vary in tuple order.  Otherwise, when the
run holds two or more pairs, the kernel sorts it.
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
    sorted.  focus_steps: the (label, forward) of every step anchored at
    the focus.  rest_ordered: the other steps bind cells in increasing
    cell index, so the plan emits its bindings sorted at a tick where
    no focus step has two or more candidates.
    """

    __slots__ = ("rule_index", "n", "colors", "focus", "steps", "checks",
                 "negs", "ordered", "focus_steps", "rest_ordered")

    def __init__(self, rule_index, n, colors, focus, steps, checks, negs):
        self.rule_index = rule_index
        self.n = n
        self.colors = colors
        self.focus = focus
        self.steps = steps
        self.checks = checks
        self.negs = negs
        self.ordered = self.rest_ordered = True
        focus_steps = []
        last = last_rest = -1
        for new, frm, label, forward in steps:
            if new < last:
                self.ordered = False
            last = new
            if frm == focus:
                focus_steps.append((label, forward))
            else:
                if new < last_rest:
                    self.rest_ordered = False
                last_rest = new
        self.focus_steps = tuple(focus_steps)


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
        if (not plan.ordered and len(out) - start > 1
                and (not plan.rest_ordered or _fans_out(plan, g, active))):
            out[start:] = sorted(out[start:])
    return out


def _fans_out(plan, g, active):
    """Whether a focus step has two or more candidates at `active`."""
    for label, forward in plan.focus_steps:
        cands = (g.out if forward else g.inn)[active].get(label)
        if cands is not None and len(cands) > 1:
            return True
    return False


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
    for cand in sorted(cands) if len(cands) > 1 else cands:
        if want is not None and nodes[cand].color != want:
            continue
        if cand in binding:
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
