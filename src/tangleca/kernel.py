"""Anchored subgraph matching, the pure-Python kernel.

The per-tick hot loop: enumerate every injective embedding of every
eligible pattern, anchored at the active node.  pattern.match_all looks
enumerate_matches up on this module at call time.

Each step of a plan binds one cell from one candidate set, computed by
set operations in C as in Leapfrog Triejoin: the adjacency set of the
step's anchor, intersected with the class of the colour the cell wants
(Tangle.color_class) and with the adjacency of every bound cell that a
folded check links to it, minus the adjacency of every bound cell that a
folded negative edge forbids (pattern.make_plan folds them into the step
that binds their later endpoint).  Only the survivors are sorted and
tried against injectivity.  A step with one candidate tests it directly
and builds no set, and the last step appends its bindings as they are
when the plan has no self-loop left to check.

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

The candidate sets leave this proof as it was: a fold moves a test of
the full binding to the step where its last cell is bound, so the same
bindings survive, and the survivors of a step are tried in increasing
node id like the candidates they came from.  _fans_out counts a focus
step's whole adjacency set, which bounds its survivors.
"""

KERNEL_NAME = "python"


class Plan:
    """Precompiled join order for one rule's pattern.

    colors: the rule's own tuple, one per cell, shared.  steps:
    (new_cell, from_cell, label, forward, want, links, forbids) — bind
    new_cell, of colour want (None: any), from the adjacency of an
    already-bound cell.  links and forbids are tuples of (cell, label,
    forward) over cells bound before the step: new_cell must be in each
    link's adjacency (an edge no step consumed) and in no forbid's (a
    negative edge).  checks and negs: the edges and negative edges left
    for full bindings, the self-loops only.  ordered: the steps bind
    cells in increasing cell index, so the plan emits its bindings
    sorted.  focus_steps: the (label, forward) of every step anchored at
    the focus.  rest_ordered: the other steps bind cells in increasing
    cell index, so the plan emits its bindings sorted at a tick where
    no focus step has two or more candidates.
    """

    __slots__ = ("rule_index", "n", "colors", "focus", "steps", "checks",
                 "negs", "ordered", "focus_steps", "rest_ordered", "last",
                 "finish")

    def __init__(self, rule_index, colors, focus, steps, checks, negs):
        self.rule_index = rule_index
        self.n = len(colors)
        self.colors = colors
        self.focus = focus
        self.steps = steps
        self.checks = checks
        self.negs = negs
        self.last = len(steps) - 1
        self.finish = bool(checks or negs)
        self.ordered = self.rest_ordered = True
        focus_steps = []
        last = last_rest = -1
        for new, frm, label, forward, _want, _links, _forbids in steps:
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
    new, frm, label, forward, want, links, forbids = plan.steps[depth]
    cands = (g.out if forward else g.inn)[binding[frm]].get(label)
    if not cands:
        return
    if len(cands) == 1:
        (cand,) = cands
        if (cand in binding
                or want is not None and g.nodes[cand].color != want):
            return
        for cell, l, fwd in links:
            adj = (g.out if fwd else g.inn)[binding[cell]].get(l)
            if not adj or cand not in adj:
                return
        for cell, l, fwd in forbids:
            adj = (g.out if fwd else g.inn)[binding[cell]].get(l)
            if adj and cand in adj:
                return
        binding[new] = cand
        if depth < plan.last:
            _extend(plan, g, depth + 1, binding, out)
        elif plan.finish:
            _finish(plan, g, binding, out)
        else:
            out.append((plan.rule_index, tuple(binding)))
        binding[new] = -1
        return
    if want is not None:
        members = g.classes.get(want)
        if members is None:
            members = g.color_class(want)
        cands = cands & members
    for cell, l, fwd in links:
        adj = (g.out if fwd else g.inn)[binding[cell]].get(l)
        if not adj:
            return
        cands = cands & adj
    for cell, l, fwd in forbids:
        adj = (g.out if fwd else g.inn)[binding[cell]].get(l)
        if adj:
            cands = cands - adj
    if len(cands) > 1:
        cands = sorted(cands)
    if depth < plan.last:
        for cand in cands:
            if cand not in binding:
                binding[new] = cand
                _extend(plan, g, depth + 1, binding, out)
    elif plan.finish:
        for cand in cands:
            if cand not in binding:
                binding[new] = cand
                _finish(plan, g, binding, out)
    else:
        rule_index = plan.rule_index
        for cand in cands:
            if cand not in binding:
                binding[new] = cand
                out.append((rule_index, tuple(binding)))
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
