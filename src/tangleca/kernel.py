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
and builds no set, and the last step appends its bindings as they are.

The match order is the join order: plans run in rule order, and a
plan's bindings come out by the node bound at its first step, then at
its second, and so on, because each step tries its candidates in
increasing node id.  Nothing is sorted afterwards.
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
    negative edge).
    """

    __slots__ = ("rule_index", "n", "colors", "focus", "steps", "last")

    def __init__(self, rule_index, colors, focus, steps):
        self.rule_index = rule_index
        self.n = len(colors)
        self.colors = colors
        self.focus = focus
        self.steps = steps
        self.last = len(steps) - 1


class PlanIndex:
    """Plans grouped by focus colour, each group in rule order, and the
    rules no later rule can cover.

    A wildcard-focus plan runs at every colour: it is merged into each
    colour's group once, here, and `wildcard` holds it for colours no
    plan names.

    final[rule_index] is True when no later plan of the rule's focus
    group (every plan, for a wildcard-focus rule) can cover a match of
    it.  A plan B can cover a plan A only if B has more cells and some
    injective map from A's cells to B's keeps the focus and pairs
    compatible colours (None is compatible with any colour): a match of
    B whose cell set holds a match of A binds each node of A's match to
    a cell of B that accepts the node's colour.  So the first pair of a
    tick, when its rule is final, is maximal: every other pair comes
    from the same rule, with as many cells, or from a later one.
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
        self.final = _final_table(plans, self.by_color, self.wildcard)

    def candidates(self, color):
        return self.by_color.get(color, self.wildcard)


def _final_table(plans, by_color, wildcard):
    """PlanIndex.final, as a tuple indexed by rule index.

    A plan with its group's largest cell count is final untested, and a
    plan is tested only against later plans with more cells, by the
    colours of their non-focus cells: B can take A's cells iff the cells
    of each colour A has beyond B's cells of that colour fit, all
    together, into B's wildcard cells (B has more cells in all, so A's
    wildcard cells then fit into what is left).
    """
    final = [True] * (1 + max([p.rule_index for p in plans], default=-1))
    groups = [(group, False) for group in by_color.values()]
    if wildcard:
        # a wildcard-focus rule meets every later plan
        groups.append((sorted(plans, key=lambda p: p.rule_index), True))
    for group, wild in groups:
        largest = max([p.n for p in group])
        for k, a in enumerate(group):
            if a.n == largest or (a.colors[a.focus] is None) != wild:
                continue
            need = _count(a)[0]
            for b in group[k + 1:]:
                if b.n > a.n:
                    have, spare = _count(b)
                    for c, m in need.items():
                        m -= have.get(c, 0)
                        if m > 0:
                            spare -= m
                            if spare < 0:
                                break
                    else:
                        final[a.rule_index] = False
                        break
    return tuple(final)


def _count(plan):
    """({colour: cells}, wildcard cells) over the plan's non-focus cells."""
    tally = {}
    for cell, c in enumerate(plan.colors):
        if cell != plan.focus:
            tally[c] = tally.get(c, 0) + 1
    return tally, tally.pop(None, 0)


def enumerate_matches(index, g, active):
    """All matches anchored at `active`, as (rule_index, binding) pairs,
    in join order: rule order, then the nodes bound at the plan's steps."""
    out = []
    for plan in index.candidates(g.nodes[active].color):
        if plan.n == 1:
            out.append((plan.rule_index, (active,)))
        else:
            binding = [-1] * plan.n
            binding[plan.focus] = active
            _extend(plan, g, 0, binding, out)
    return out


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
    else:
        rule_index = plan.rule_index
        for cand in cands:
            if cand not in binding:
                binding[new] = cand
                out.append((rule_index, tuple(binding)))
    binding[new] = -1
