"""Transition rules: neighborhood patterns, rewrites, matching, precedence.

A pattern is a small connected graph of cells anchored at a focus cell;
a match binds cells injectively to tangle nodes, the focus to the active
node.  Matching works on the kernel's own (rule_index, binding_tuple)
pairs; a Match object is built only for the pair that gets applied.

The maximality filter drops any match whose cell set is a strict subset
of another match's cell set; equal cell sets survive together.  Bindings
are injective, so a strict superset always has more cells: each pair is
compared only with longer pairs.

Join plans are rooted at the focus (as in GP 2's rooted rules): each plan
first binds every cell reached by an edge out of the focus, then grows
along the remaining edges.  In compiled rule sets the focus is the
Criticals node, and each of its register, bit, scratch, plumbing and
critical-term labels points at one node at most, so these steps cost one
lookup each and no fan-out step (an elem or membership scan) runs before
them.  Function-location labels are the exception: they can point at
several nodes, and a plan then branches at the focus.

Matches come out of the kernel in canonical order (rule order, then
binding tuple); the kernel module says how it keeps that order.
"""
from __future__ import annotations

from . import kernel


class RuleError(Exception):
    pass


class Pattern:
    """cells: ordered (name, color-or-None); edges: (src, label, dst)."""

    def __init__(self, cells, edges, focus):
        self.cells = list(cells)
        self.edges = [tuple(e) for e in edges]
        self.focus = focus
        self.names = [c[0] for c in self.cells]
        self.index = {n: i for i, n in enumerate(self.names)}
        if focus not in self.index:
            raise RuleError("focus %r is not a pattern cell" % focus)

    def color_of(self, name):
        return self.cells[self.index[name]][1]

    def shape(self):
        """(radius, cyclic) from one adjacency build.

        radius: max undirected hop distance from the focus along pattern
        edges, None when some cell is unreachable (disconnected);
        cyclic: whether the directed edges close a cycle.
        """
        out = {n: [] for n in self.names}
        adj = {n: set() for n in self.names}
        for a, _l, b in self.edges:
            out[a].append(b)
            adj[a].add(b)
            adj[b].add(a)
        reached = {self.focus}
        frontier = [self.focus]
        radius = 0
        while frontier:
            nxt = []
            for n in frontier:
                for m in adj[n]:
                    if m not in reached:
                        reached.add(m)
                        nxt.append(m)
            if nxt:
                radius += 1
            frontier = nxt
        if len(reached) != len(self.names):
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


class Rewrite:
    """Edits over the matched cells; created cells get fresh node ids.

    The right side is expressed directly over left-side cell names, so
    the left-to-right correspondence is the identity on pattern cells
    plus the created fresh names.
    """

    def __init__(self, recolor=(), add_edges=(), del_edges=(), creates=()):
        self.recolor = [tuple(r) for r in recolor]
        self.add_edges = [tuple(e) for e in add_edges]
        self.del_edges = [tuple(e) for e in del_edges]
        self.creates = [tuple(c) for c in creates]  # (name, color, kind)


class Rule:
    def __init__(self, name, pattern, rewrite, neg_edges=()):
        self.name = name
        self.pattern = pattern
        self.rewrite = rewrite
        self.neg_edges = [tuple(e) for e in neg_edges]


class Match:
    __slots__ = ("rule", "rule_index", "binding")

    def __init__(self, rule, rule_index, binding):
        self.rule = rule
        self.rule_index = rule_index
        self.binding = binding

    def binding_tuple(self):
        return tuple(self.binding[n] for n in self.rule.pattern.names)

    def __repr__(self):
        return "Match(%s, %r)" % (self.rule.name, self.binding)


class RuleSet:
    def __init__(self, palette, labels, rules, radius):
        self.palette = set(palette)
        self.labels = set(labels)
        self.rules = list(rules)
        self.radius = radius
        self._plans = None

    def plans(self):
        """The kernel's plan index, built once."""
        if self._plans is None:
            self._plans = kernel.PlanIndex(
                [make_plan(r, i) for i, r in enumerate(self.rules)])
        return self._plans


def make_plan(rule, rule_index):
    """Join plan: bind the focus, then its out-neighbours, then grow.

    First every cell reached by an edge out of the focus is bound, in
    edge order.  Then each step takes the first remaining edge, in edge
    order, with exactly one bound endpoint and binds the other one.
    Edges left over (a second focus edge to a bound cell, a focus
    self-loop, any edge between bound cells) become checks.

    Focus edges go first because in compiled rule sets nearly all of
    them have one target, so they bind or reject in one lookup before a
    later step fans out; only function-location labels can have more.
    The price is that cells may be bound out of index order; the plan's
    `ordered` is then false, and the kernel sorts that plan's matches.
    """
    p = rule.pattern
    index = p.index
    n = len(p.cells)
    colors = [color for _name, color in p.cells]
    focus = index[p.focus]
    edges = [(index[a], l, index[b]) for a, l, b in p.edges]
    bound = [False] * n
    bound[focus] = True
    is_step = [False] * len(edges)
    steps = []
    for i, (a, l, b) in enumerate(edges):
        if a == focus and not bound[b]:
            bound[b] = is_step[i] = True
            steps.append((b, a, l, True))
    while len(steps) < n - 1:
        for i, (a, l, b) in enumerate(edges):
            if bound[a] != bound[b]:
                break
        else:
            raise RuleError("pattern of %s is disconnected" % rule.name)
        is_step[i] = True
        if bound[a]:
            bound[b] = True
            steps.append((b, a, l, True))    # new cell is the edge target
        else:
            bound[a] = True
            steps.append((a, b, l, False))   # new cell is the edge source
    checks = [e for e, stepped in zip(edges, is_step) if not stepped]
    neg = [(index[a], l, index[b]) for a, l, b in rule.neg_edges]
    return kernel.Plan(rule_index, n, colors, focus, steps, checks, neg)


def match_all(g, ruleset):
    """Every match of every rule anchored at the active node.

    Returns the kernel's (rule_index, binding_tuple) pairs, binding tuples
    indexed like the rule's pattern cells, in canonical order: rule order,
    then binding tuple, as the kernel emits them.  A rule's negative edges
    are always honoured.
    """
    return kernel.enumerate_matches(ruleset.plans(), g, g.active)


def maximality_filter(pairs):
    """Drop pairs whose cell set is a strict subset of another's.

    Keeps the input order.  Returns the input itself when all bindings
    have the same length: injective bindings of one size cannot be strict
    subsets of each other.  Otherwise a pair is compared only with longer
    bindings, where containment alone means strict containment, and the
    longest bindings are kept unchecked.
    """
    sizes = {len(binding) for _rule_index, binding in pairs}
    if len(sizes) <= 1:
        return pairs
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
    return out


def make_match(ruleset, pair):
    """The Match for one (rule_index, binding_tuple) pair."""
    rule_index, binding = pair
    rule = ruleset.rules[rule_index]
    return Match(rule, rule_index, dict(zip(rule.pattern.names, binding)))


def apply(g, m):
    """Apply one match's rewrite in place; returns created node ids.

    Raises RuleError on a stale match (binding no longer valid), which
    signals a scheduler bug rather than a rule-set property.
    """
    rule = m.rule
    p = rule.pattern
    b = dict(m.binding)
    for name in p.names:
        nid = b[name]
        if nid not in g.nodes:
            raise RuleError("stale match: node %d is gone" % nid)
        want = p.color_of(name)
        if want is not None and g.color_of(nid) != want:
            raise RuleError("stale match: %s changed color" % name)
    for a, l, d in p.edges:
        if not g.has_edge(b[a], l, b[d]):
            raise RuleError("stale match: edge %s-%s->%s missing" % (a, l, d))
    created = []
    for name, color, kind in rule.rewrite.creates:
        if name in b:
            raise RuleError("created cell %s collides" % name)
        b[name] = g.add_node(color, kind)
        created.append(b[name])
    for a, l, d in rule.rewrite.del_edges:
        g.remove_edge(b[a], l, b[d])
    for a, l, d in rule.rewrite.add_edges:
        g.add_edge(b[a], l, b[d])
    for name, color in rule.rewrite.recolor:
        g.set_color(b[name], color)
    return created


def validate_ruleset(ruleset, negative_edges=False):
    """Structural violations across all rules; empty list iff valid.

    A pattern's shape depends only on its cell names, focus and edge
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
        p = rule.pattern
        if len(set(p.names)) != len(p.names):
            violations.append(ctx + "duplicate cell name")
            continue
        for name, color in p.cells:
            if color is not None and color not in ruleset.palette:
                violations.append(ctx + "color %s not in palette" % color)
        endpoints_ok = True
        for a, l, b in p.edges:
            if a not in p.index or b not in p.index:
                violations.append(ctx + "edge endpoint not a cell")
                endpoints_ok = False
            if l not in ruleset.labels:
                violations.append(ctx + "label %s not in alphabet" % l)
        if endpoints_ok:
            key = (tuple(p.names), p.focus,
                   tuple([(a, b) for a, _l, b in p.edges]))
            found = shapes.get(key)
            if found is None:
                found = shapes[key] = p.shape()
            r, cyclic = found
            if r is None:
                violations.append(ctx + "pattern is disconnected")
            elif r > ruleset.radius:
                violations.append(ctx + "radius %d exceeds bound %d"
                                  % (r, ruleset.radius))
            if cyclic:
                violations.append(ctx + "pattern loop")
        if rule.neg_edges and not negative_edges:
            violations.append(ctx + "negative edges without the extension flag")
        known = set(p.names)
        for name, color, kind in rule.rewrite.creates:
            if name in known:
                violations.append(ctx + "created cell %s shadows a cell" % name)
            known.add(name)
            if color not in ruleset.palette:
                violations.append(ctx + "created color %s not in palette"
                                  % color)
        for name, color in rule.rewrite.recolor:
            if name not in known:
                violations.append(ctx + "recolor of unknown cell %s" % name)
            if color not in ruleset.palette:
                violations.append(ctx + "recolor to %s not in palette" % color)
        for a, l, b in (list(rule.rewrite.add_edges)
                        + list(rule.rewrite.del_edges)):
            if a not in known or b not in known:
                violations.append(ctx + "uncovered cell in edge edit")
            if l not in ruleset.labels:
                violations.append(ctx + "edit label %s not in alphabet" % l)
        for a, l, b in rule.neg_edges:
            if a not in p.index or b not in p.index:
                violations.append(ctx + "negative edge endpoint unbound")
    return violations


# -- serialization ----------------------------------------------------

def serialize_ruleset(ruleset):
    lines = ["ruleset"]
    lines.append("palette " + " ".join(sorted(ruleset.palette)))
    lines.append("labels " + " ".join(sorted(ruleset.labels)))
    lines.append("radius %d" % ruleset.radius)
    for rule in ruleset.rules:
        lines.append("rule %s" % rule.name)
        p = rule.pattern
        for name, color in p.cells:
            mark = " focus" if name == p.focus else ""
            lines.append("  cell %s %s%s" % (name, color or "*", mark))
        for a, l, b in p.edges:
            lines.append("  edge %s %s %s" % (a, l, b))
        for a, l, b in rule.neg_edges:
            lines.append("  neg %s %s %s" % (a, l, b))
        for name, color, kind in rule.rewrite.creates:
            lines.append("  create %s %s %s" % (name, color, kind))
        for a, l, b in rule.rewrite.del_edges:
            lines.append("  del %s %s %s" % (a, l, b))
        for a, l, b in rule.rewrite.add_edges:
            lines.append("  add %s %s %s" % (a, l, b))
        for name, color in rule.rewrite.recolor:
            lines.append("  recolor %s %s" % (name, color))
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_ruleset(text):
    lines = [ln.rstrip() for ln in text.splitlines()]
    if not lines or lines[0].strip() != "ruleset":
        raise RuleError("not a ruleset file")
    palette, labels, radius = set(), set(), None
    rules = []
    i = 1
    cur = None

    def finish(cur):
        name, cells, edges, focus, neg, creates, dels, adds, recolors = cur
        if focus is None:
            raise RuleError("rule %s has no focus cell" % name)
        rules.append(Rule(name, Pattern(cells, edges, focus),
                          Rewrite(recolors, adds, dels, creates), neg))

    while i < len(lines):
        ln = lines[i].strip()
        i += 1
        if not ln:
            continue
        parts = ln.split()
        if cur is None:
            if parts[0] == "palette":
                palette.update(parts[1:])
            elif parts[0] == "labels":
                labels.update(parts[1:])
            elif parts[0] == "radius":
                radius = int(parts[1])
            elif parts[0] == "rule":
                cur = [parts[1], [], [], None, [], [], [], [], []]
            else:
                raise RuleError("unexpected line: %s" % ln)
            continue
        name, cells, edges, focus, neg, creates, dels, adds, recolors = cur
        if parts[0] == "cell":
            color = None if parts[2] == "*" else parts[2]
            cells.append((parts[1], color))
            if len(parts) > 3 and parts[3] == "focus":
                cur[3] = parts[1]
        elif parts[0] == "edge":
            edges.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "neg":
            neg.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "create":
            creates.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "del":
            dels.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "add":
            adds.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "recolor":
            recolors.append((parts[1], parts[2]))
        elif parts[0] == "end":
            finish(cur)
            cur = None
        else:
            raise RuleError("unexpected line in rule: %s" % ln)
    if cur is not None:
        raise RuleError("unterminated rule")
    if radius is None:
        raise RuleError("missing radius")
    return RuleSet(palette, labels, rules, radius)
