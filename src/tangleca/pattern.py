"""Transition rules: neighborhood patterns, rewrites, matching, precedence.

A rule is a small connected pattern of cells anchored at a focus cell,
plus a rewrite that may create cells.  Rule holds both with its cells
numbered, and that one form runs from the compiler's emit to apply;
cell names are kept only for serialization, traces and messages.  A
match binds cells injectively to tangle nodes, the focus to the active
node.  It stays the kernel's (rule_index, binding) pair throughout: the
binding is a tuple of nodes indexed like the rule's pattern cells, and
apply takes it as it is.

The maximality filter drops any match whose cell set is a strict subset
of another match's cell set; equal cell sets survive together.  Bindings
are injective, so a strict superset always has more cells: each pair is
compared only with longer pairs.  Deterministic selection wants only the
first maximal pair, and RuleSet.plans() works out once which rules no
later rule can cover (kernel.PlanIndex.final, a test on cell counts and
colours alone): when the first pair's rule is one of them, that pair is
maximal and automaton.select_match takes it without the filter.

Join plans are rooted at the focus (as in GP 2's rooted rules): each plan
first binds every cell reached by an edge out of the focus, then grows
along the remaining edges.  In compiled rule sets the focus is the
Criticals node, and each of its register, bit, scratch, plumbing and
critical-term labels points at one node at most, so these steps cost one
lookup each and no fan-out step (an elem or membership scan) runs before
them.  Function-location labels are the exception: they can point at
several nodes, and a plan then branches at the focus.  Every edge that
no step consumes, and every negative edge, is folded into the step that
binds its later endpoint, where the kernel applies it to that step's
candidate set (see make_plan).

Matches come out of the kernel in join order: rule order, then the
nodes bound at the plan's first step, its second, and so on (see
make_plan).

A rule set is its rules alone; validate_ruleset bounds each pattern's
radius by RADIUS.
"""
from __future__ import annotations

from . import kernel

RADIUS = 3   # max hops from the focus to any pattern cell


class RuleError(Exception):
    pass


class Rule:
    """One transition rule, its cells numbered.

    Pattern cells are 0 .. len(colors) - 1 and created cell i is
    len(colors) + i.  names holds the pattern cells' names, then the
    created cells'; only serialization, traces and messages read it.
    colors has one entry per pattern cell (None: any colour), and focus
    is the focus cell's number.  edges and negs are (src, label, dst)
    triples that must be present and absent.  The rewrite: creates is
    (color, kind) per created cell, recolor (cell, color), add and
    delete (src, label, dst) triples over pattern and created cells.
    """

    __slots__ = ("name", "names", "colors", "focus", "edges", "negs",
                 "creates", "recolor", "add", "delete")

    def __init__(self, name, cells, edges, focus="C", recolor=(), add=(),
                 delete=(), creates=(), negs=()):
        """A rule written over cell names, resolved to numbers here.

        cells: (name, color-or-None) pairs; creates: (name, color, kind)
        triples; edges, negs, add, delete: (name, label, name) triples;
        recolor: (name, color) pairs.  A name fault raises RuleError.
        """
        names = [n for n, _c in cells]
        index = {n: i for i, n in enumerate(names)}
        if len(index) != len(names):
            raise RuleError("rule %s: duplicate cell name" % name)
        if focus not in index:
            raise RuleError("rule %s: focus %r is not a pattern cell"
                            % (name, focus))
        self.name = name
        self.colors = tuple([c for _n, c in cells])
        self.focus = index[focus]
        # `fault` names the list being resolved; a missing name in it
        # raises KeyError, which becomes the RuleError below
        fault = "edge endpoint not a cell"
        try:
            self.edges = tuple([(index[a], l, index[b]) for a, l, b in edges])
            fault = "negative edge endpoint unbound"
            self.negs = tuple([(index[a], l, index[b]) for a, l, b in negs])
            for n, _c, _k in creates:
                if n in index:
                    raise RuleError("rule %s: created cell %s shadows a cell"
                                    % (name, n))
                index[n] = len(names)
                names.append(n)
            fault = "recolor of unknown cell {}"
            self.recolor = tuple([(index[n], c) for n, c in recolor])
            fault = "uncovered cell in edge edit"
            self.add = tuple([(index[a], l, index[b]) for a, l, b in add])
            self.delete = tuple([(index[a], l, index[b])
                                 for a, l, b in delete])
        except KeyError as exc:
            raise RuleError("rule %s: %s" % (name, fault.format(exc.args[0]))
                            ) from None
        self.names = tuple(names)
        self.creates = tuple([(c, k) for _n, c, k in creates])

    def shape(self):
        """(radius, cyclic) from one adjacency build.

        radius: max undirected hop distance from the focus along pattern
        edges, None when some cell is unreachable (disconnected);
        cyclic: whether the directed edges close a cycle.
        """
        n = len(self.colors)
        out = {i: [] for i in range(n)}
        adj = [set() for _ in range(n)]
        for a, _l, b in self.edges:
            out[a].append(b)
            adj[a].add(b)
            adj[b].add(a)
        reached = {self.focus}
        frontier = [self.focus]
        radius = 0
        while frontier:
            nxt = []
            for i in frontier:
                for j in adj[i]:
                    if j not in reached:
                        reached.add(j)
                        nxt.append(j)
            if nxt:
                radius += 1
            frontier = nxt
        if len(reached) != n:
            radius = None
        return radius, has_directed_cycle(out)


def has_directed_cycle(out):
    """Whether a directed graph, given as node -> successor list, has a
    cycle (a self-loop counts): peel off nodes with no unpeeled
    predecessor; a cycle is what can never be peeled."""
    indegree = dict.fromkeys(out, 0)
    for succ in out.values():
        for m in succ:
            indegree[m] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    peeled = 0
    while ready:
        peeled += 1
        for m in out[ready.pop()]:
            indegree[m] -= 1
            if not indegree[m]:
                ready.append(m)
    return peeled != len(out)


class RuleSet:
    """The rules, as a tuple: the plan index and the effect table are
    built from them once."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        self._plans = None
        self.effects = None  # automaton.effects builds it on first need

    def plans(self):
        """The kernel's plan index, with its table of the rules no later
        rule can cover, built once."""
        if self._plans is None:
            self._plans = kernel.PlanIndex(
                [make_plan(r, i) for i, r in enumerate(self.rules)])
        return self._plans


def make_plan(rule, rule_index):
    """Join plan: bind the focus, then its out-neighbours, then grow.

    First every cell reached by an edge out of the focus is bound, in
    edge order.  Then each step takes the first remaining edge, in edge
    order, with exactly one bound endpoint and binds the other one.

    An edge left over (a second focus edge to a bound cell, any edge
    between bound cells) is folded into the step that binds its later
    endpoint, as a link, and so is each negative edge, as a forbid: the
    kernel then builds that step's candidates from the link's adjacency
    and without the forbid's, instead of testing full bindings.  An edge
    or negative edge from a cell to itself has no such step and raises
    RuleError, as a disconnected pattern does; no compiled rule has one.

    Focus edges go first because in compiled rule sets nearly all of
    them have one target, so they bind or reject in one lookup before a
    later step fans out; only function-location labels can have more.
    The steps are also the match order: the kernel emits a plan's
    bindings by the node bound at its first step, then at its second,
    and so on.
    """
    colors = rule.colors
    focus = rule.focus
    at = [None] * len(colors)          # the step that binds each cell
    at[focus] = -1
    steps = []
    rest = []                          # edges no step has consumed
    for edge in rule.edges:
        a, l, b = edge
        if a == focus and at[b] is None:
            at[b] = len(steps)
            steps.append((b, a, l, True, colors[b], (), ()))
        else:
            rest.append(edge)
    while len(steps) < len(at) - 1:
        for i, (a, l, b) in enumerate(rest):
            if (at[a] is None) != (at[b] is None):
                break
        else:
            raise RuleError("pattern of %s is disconnected" % rule.name)
        del rest[i]
        if at[b] is None:                # new cell is the edge target
            at[b] = len(steps)
            steps.append((b, a, l, True, colors[b], (), ()))
        else:                            # new cell is the edge source
            at[a] = len(steps)
            steps.append((a, b, l, False, colors[a], (), ()))
    _fold(rule, rest, at, steps, _LINKS)
    _fold(rule, rule.negs, at, steps, _FORBIDS)
    return kernel.Plan(rule_index, colors, focus, steps)


_LINKS, _FORBIDS = 5, 6                # their places in a plan step


def _fold(rule, edges, at, steps, place):
    """Fold each of a rule's edges into the step that binds its later
    endpoint, as (earlier cell, label, forward) at `place` in that step;
    a self-loop, which no step can test, raises RuleError."""
    for a, l, b in edges:
        if a == b:
            raise RuleError("pattern of %s has a self-loop" % rule.name)
        if at[a] < at[b]:
            d, fold = at[b], (a, l, True)      # the later cell is the target
        else:
            d, fold = at[a], (b, l, False)     # the later cell is the source
        step = list(steps[d])
        step[place] += (fold,)
        steps[d] = tuple(step)


def match_all(g, ruleset):
    """Every match of every rule anchored at the active node.

    Returns the kernel's (rule_index, binding) pairs, each binding a
    tuple of nodes indexed like the rule's pattern cells, in the order
    the kernel emits them: rule order, then the nodes bound at the
    plan's steps, in step order.  A rule's negative edges are always
    honoured.
    """
    return kernel.enumerate_matches(ruleset.plans(), g, g.active)


def maximality_filter(pairs, first=False):
    """Drop pairs whose cell set is a strict subset of another's.

    Keeps the input order.  Returns the input itself when all bindings
    have the same length: injective bindings of one size cannot be strict
    subsets of each other.  Otherwise a pair is compared only with longer
    bindings, where containment alone means strict containment, and the
    longest bindings are kept unchecked.

    With first, the scan stops at the first survivor and returns a list
    holding it alone: maximality_filter(pairs)[:1], without checking the
    pairs after it.
    """
    sizes = {len(binding) for _rule_index, binding in pairs}
    if len(sizes) <= 1:
        return pairs[:1] if first else pairs
    largest = max(sizes)
    out = []
    for pair in pairs:
        size = len(pair[1])
        if size < largest:
            cells = set(pair[1])
            if any(len(other) > size and cells.issubset(other)
                   for _rule_index, other in pairs):
                continue
        out.append(pair)
        if first:
            break
    return out


def apply(g, rule, binding):
    """Apply a rule's rewrite at one binding, in place; returns the
    created node ids.

    binding is the kernel's tuple, one node per pattern cell; the
    created nodes extend it, in creates order.  The binding is trusted:
    it comes from match_all on the same graph, and automaton.run lets
    nothing change the tangle in between.  Raises RuleError on a binding
    of another length, which signals a scheduler bug rather than a
    rule-set property.
    """
    if len(binding) != len(rule.colors):
        raise RuleError("stale match: %d nodes bound for %d cells of %s"
                        % (len(binding), len(rule.colors), rule.name))
    created = []
    for color, kind in rule.creates:
        created.append(g.add_node(color, kind))
    b = binding + tuple(created) if created else binding
    for a, l, d in rule.delete:
        g.remove_edge(b[a], l, b[d])
    for a, l, d in rule.add:
        g.add_edge(b[a], l, b[d])
    for i, color in rule.recolor:
        g.set_color(b[i], color)
    return created


def validate_ruleset(ruleset):
    """Duplicate-rule-name and shape violations across all rules; empty
    list iff valid.  Shape: a radius over RADIUS, and every pattern
    make_plan refuses: a disconnected one, and an edge or negative edge
    from a cell to itself ("pattern loop", "negative edge loop").  A
    fault in a rule's own cell names cannot reach here: Rule raises it
    when the rule is built.

    A pattern's shape depends only on its cell count, focus and edge
    endpoints, so it is computed once per such key within one call.
    """
    violations = []
    seen_names = set()
    shapes = {}
    for rule in ruleset.rules:
        ctx = "rule %s: " % rule.name
        if rule.name in seen_names:
            violations.append(ctx + "duplicate rule name")
        seen_names.add(rule.name)
        key = (len(rule.colors), rule.focus,
               tuple([(a, b) for a, _l, b in rule.edges]))
        found = shapes.get(key)
        if found is None:
            found = shapes[key] = rule.shape()
        r, cyclic = found
        if r is None:
            violations.append(ctx + "pattern is disconnected")
        elif r > RADIUS:
            violations.append(ctx + "radius %d exceeds bound %d"
                              % (r, RADIUS))
        if cyclic:
            violations.append(ctx + "pattern loop")
        if any(a == b for a, _l, b in rule.negs):
            violations.append(ctx + "negative edge loop")
    return violations


# -- serialization ----------------------------------------------------

def serialize_ruleset(ruleset):
    """The rule set as text, cells by name.  The format is an output
    only: nothing reads it back."""
    lines = ["ruleset", "radius %d" % RADIUS]
    for rule in ruleset.rules:
        names = rule.names
        lines.append("rule %s" % rule.name)
        for i, color in enumerate(rule.colors):
            mark = " focus" if i == rule.focus else ""
            lines.append("  cell %s %s%s" % (names[i], color or "*", mark))
        for a, l, b in rule.edges:
            lines.append("  edge %s %s %s" % (names[a], l, names[b]))
        for a, l, b in rule.negs:
            lines.append("  neg %s %s %s" % (names[a], l, names[b]))
        for i, (color, kind) in enumerate(rule.creates, len(rule.colors)):
            lines.append("  create %s %s %s" % (names[i], color, kind))
        for a, l, b in rule.delete:
            lines.append("  del %s %s %s" % (names[a], l, names[b]))
        for a, l, b in rule.add:
            lines.append("  add %s %s %s" % (names[a], l, names[b]))
        for i, color in rule.recolor:
            lines.append("  recolor %s %s" % (names[i], color))
        lines.append("end")
    return "\n".join(lines) + "\n"
