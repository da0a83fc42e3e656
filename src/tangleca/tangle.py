"""Tangle: the automaton's state graph.

A tangle is a colored directed graph encoding HF values with maximal
sharing (at most one committed node per value), plus one distinguished
Criticals focus node whose labeled outgoing edges name the values of
critical terms and function locations.

Containment edges are reversed: an element points at the set holding it
(label "elem"), pair components point at the pair ("fst"/"snd").  Only
Criticals edges and tuple edges run outward.
"""
from __future__ import annotations

from .pattern import has_directed_cycle

# structural edge labels
ELEM = "elem"
FST = "fst"
SND = "snd"
VAL = "val"


def arg_label(i):
    return "arg%d" % i


# permanent plumbing edges out of Criticals
EMPTY_EDGE = "#empty"
TRUE_EDGE = "#true"
FALSE_EDGE = "#false"
ATOM_EDGE_PREFIX = "#atom_"


def atom_edge(name):
    """Permanent addressing edge for a pre-created atom node."""
    return ATOM_EDGE_PREFIX + name

# node kinds
ATOM = "atom"
SET = "set"
PAIR = "pair"
TUPLE = "tuple"
CRITICALS = "criticals"
SCRATCH = "scratch"

# colors with fixed meaning; compiled rule sets add their own
PLAIN = "plain"
MARKER = "marker"
JUNK = "junk"

# node colors under which a value node counts as committed (uniqueness
# is asserted over these only; protocol marks are exempt): plain alone
COMMITTED = frozenset((PLAIN,))

CONTAINMENT = frozenset((ELEM, FST, SND))

# the kinds of the nodes that hold values
VALUE_KINDS = frozenset((ATOM, SET, PAIR))


class TangleError(Exception):
    pass


class TangleNode:
    __slots__ = ("id", "color", "kind", "payload")

    def __init__(self, id, color, kind, payload=None):
        self.id = id
        self.color = color
        self.kind = kind
        self.payload = payload  # atom name; inert, invisible to patterns

    def __repr__(self):
        return "TangleNode(%d, %r, %r)" % (self.id, self.color, self.kind)


class Tangle:
    """Single-owner mutable graph.  Nodes are never removed.

    classes maps a colour to the set of ids of the nodes that have it.
    A colour gets its class when color_class first asks for it, and
    add_node, set_color and copy keep every class that exists.  The
    kernel asks only for the colours its fan-out steps want, so the
    focus, which is recoloured at nearly every tick into colours no step
    wants, costs two dictionary tests per recolour.
    """

    def __init__(self):
        self.nodes = {}
        self.classes = {}  # color -> set of node ids, for colours asked for
        self.out = {}  # src -> label -> set of dst
        self.inn = {}  # dst -> label -> set of src
        self.active = None
        self._next_id = 0
        self._edge_count = 0

    def add_node(self, color, kind, payload=None):
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = TangleNode(nid, color, kind, payload)
        self.out[nid] = {}
        self.inn[nid] = {}
        if color in self.classes:
            self.classes[color].add(nid)
        return nid

    def color_of(self, nid):
        return self.nodes[nid].color

    def color_class(self, color):
        """The ids of the nodes of `color`, kept up to date from now on."""
        members = self.classes.get(color)
        if members is None:
            members = self.classes[color] = {
                nid for nid, node in self.nodes.items()
                if node.color == color}
        return members

    def set_color(self, nid, color):
        node = self.nodes[nid]
        old = node.color
        if old != color:
            node.color = color
            classes = self.classes
            if old in classes:
                classes[old].remove(nid)
            if color in classes:
                classes[color].add(nid)

    def add_edge(self, src, label, dst):
        # edge sets: re-adding an existing edge is a no-op
        targets = self.out[src].setdefault(label, set())
        if dst not in targets:
            targets.add(dst)
            self.inn[dst].setdefault(label, set()).add(src)
            self._edge_count += 1

    def remove_edge(self, src, label, dst):
        targets = self.out[src].get(label)
        if targets and dst in targets:
            targets.remove(dst)
            self.inn[dst][label].remove(src)
            self._edge_count -= 1

    def has_edge(self, src, label, dst):
        targets = self.out[src].get(label)
        return bool(targets) and dst in targets

    def targets(self, src, label):
        return self.out[src].get(label, _EMPTY_SET)

    def sources(self, dst, label):
        return self.inn[dst].get(label, _EMPTY_SET)

    def node_count(self):
        return len(self.nodes)

    def edge_count(self):
        return self._edge_count

    def edges(self):
        for src in sorted(self.out):
            by_label = self.out[src]
            for label in sorted(by_label):
                for dst in sorted(by_label[label]):
                    yield (src, label, dst)

    def copy(self):
        g = Tangle()
        g._next_id = self._next_id
        g.active = self.active
        g._edge_count = self._edge_count
        g.classes = {c: set(members) for c, members in self.classes.items()}
        for nid, n in self.nodes.items():
            g.nodes[nid] = TangleNode(n.id, n.color, n.kind, n.payload)
            g.out[nid] = {l: set(t) for l, t in self.out[nid].items() if t}
            g.inn[nid] = {l: set(s) for l, s in self.inn[nid].items() if s}
        return g

    def criticals(self):
        found = [n.id for n in self.nodes.values() if n.kind == CRITICALS]
        if len(found) != 1:
            raise TangleError("expected exactly one criticals node, found %d"
                              % len(found))
        return found[0]

    # -- stable text formats ------------------------------------------

    def snapshot(self):
        lines = []
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            lines.append("node %d %s %s" % (nid, n.color, n.kind))
        for src, label, dst in self.edges():
            lines.append("edge %d %s %d" % (src, label, dst))
        return "\n".join(lines) + "\n"

    def to_dot(self):
        lines = ["digraph tangle {"]
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            shape = {CRITICALS: "doublecircle", TUPLE: "box",
                     SCRATCH: "diamond"}.get(n.kind, "ellipse")
            label = "%d:%s" % (nid, n.color)
            if n.payload is not None:
                label += ":" + str(n.payload)
            lines.append('  n%d [label="%s", shape=%s];' % (nid, label, shape))
        for src, label, dst in self.edges():
            lines.append('  n%d -> n%d [label="%s"];' % (src, dst, label))
        lines.append("}")
        return "\n".join(lines) + "\n"


_EMPTY_SET = frozenset()


def is_internal_label(label):
    """Register / mark / plumbing labels, never critical-term names."""
    return label.startswith("$") or label.startswith("#")


def encode(terms, universe, locations=None, criticals_color=PLAIN,
           atoms=()):
    """Build a tangle for a critical-term mapping (plus function locations).

    One plain node per distinct value, the empty set's too.  The empty
    set node is always present, held by a permanent #empty edge from
    Criticals, so rule sets have a guaranteed handle on the empty set.
    Atom names passed via `atoms` are likewise pre-created and held by
    #atom_<name> edges: created nodes carry no atom identity, so every
    atom a rule set mentions must exist up front.  `universe` is the one the values were built in:
    nodes are shared by value uid, which only that universe defines.
    """
    g = Tangle()
    c = g.add_node(criticals_color, CRITICALS)
    g.active = c
    nodemap = {}

    def value_node(v):
        nid = nodemap.get(v.uid)
        if nid is not None:
            return nid
        if v.is_atom():
            nid = g.add_node(PLAIN, ATOM, payload=v.name)
        elif v.is_set():
            members = [value_node(m) for m in v.members]
            nid = g.add_node(PLAIN, SET)
            for m in members:
                g.add_edge(m, ELEM, nid)
        else:
            f = value_node(v.first)
            s = value_node(v.second)
            nid = g.add_node(PLAIN, PAIR)
            g.add_edge(f, FST, nid)
            g.add_edge(s, SND, nid)
        nodemap[v.uid] = nid
        return nid

    g.add_edge(c, EMPTY_EDGE, value_node(universe.empty()))
    for name in sorted(atoms):
        g.add_edge(c, atom_edge(name), value_node(universe.atom(name)))
    for name in sorted(terms):
        g.add_edge(c, name, value_node(terms[name]))
    if locations:
        seen_tuples = {}
        for (fname, args) in sorted(locations,
                                    key=lambda k: (k[0],
                                                   tuple(a.uid for a in k[1]))):
            val = locations[(fname, args)]
            key = (fname,) + tuple(a.uid for a in args)
            if key in seen_tuples:
                raise TangleError("duplicate location %r" % (key,))
            t = g.add_node(PLAIN, TUPLE)
            seen_tuples[key] = t
            for i, a in enumerate(args, start=1):
                g.add_edge(t, arg_label(i), value_node(a))
            g.add_edge(t, VAL, value_node(val))
            g.add_edge(c, fname, t)
    return g


def _node_values(g, universe, roots=None, memo=None):
    """(values, failures) for a walk from every node of `roots` (by
    default every committed value node) along containment edges.

    values maps node id -> HFValue for each node the walk decoded.
    failures holds the TangleError message of each root whose walk
    failed, in root order, without repeats: a dangling edge, a
    containment cycle, a pair without exactly one fst and one snd
    component, or a node that is not a value.  HFLimitError propagates.
    Each caller decides what a failure means.

    memo, if given, maps node ids to values decoded earlier that are
    still current: the walk takes such an entry as it is, without
    descending below it, and adds each node it decodes to memo too.  The
    returned map then holds only the nodes this call decoded.
    """
    u = universe
    values = {}
    known = values if memo is None else memo
    state = {}  # nid -> "visiting" | "done"

    def walk(nid):
        v = known.get(nid)
        if v is not None:
            return v
        if state.get(nid) == "visiting":
            raise TangleError("containment cycle through node %d" % nid)
        node = g.nodes.get(nid)
        if node is None:
            raise TangleError("dangling edge to missing node %d" % nid)
        state[nid] = "visiting"
        try:
            if node.kind == ATOM:
                v = u.atom(node.payload)
            elif node.kind == SET:
                v = u.set_of([walk(src)
                              for src in sorted(g.sources(nid, ELEM))])
            elif node.kind == PAIR:
                fsts = sorted(g.sources(nid, FST))
                snds = sorted(g.sources(nid, SND))
                if len(fsts) != 1 or len(snds) != 1:
                    raise TangleError(
                        "pair node %d has %d fst / %d snd components"
                        % (nid, len(fsts), len(snds)))
                v = u.pair(walk(fsts[0]), walk(snds[0]))
            else:
                raise TangleError("node %d of kind %s is not a value"
                                  % (nid, node.kind))
        finally:
            state[nid] = "done"
        values[nid] = known[nid] = v
        return v

    if roots is None:
        roots = [nid for nid in sorted(g.nodes)
                 if g.nodes[nid].kind in VALUE_KINDS
                 and g.nodes[nid].color in COMMITTED]
    failures = []
    for nid in roots:
        try:
            walk(nid)
        except TangleError as exc:
            if str(exc) not in failures:
                failures.append(str(exc))
    return values, failures


def _critical_terms(g, c, labels=None):
    """(terms, violations) of the edges out of Criticals node c: terms
    maps each critical term's label to its node, and violations lists
    each dangling edge and each term with more than one edge.  Internal
    ($/#) edges and function-location tuples are skipped.  Given
    `labels`, only the edges with those labels are read."""
    terms = {}
    violations = []
    for label in sorted(g.out[c] if labels is None else labels):
        if is_internal_label(label):
            continue
        for dst in sorted(g.targets(c, label)):
            node = g.nodes.get(dst)
            if node is None:
                violations.append("dangling critical edge %s" % label)
            elif node.kind == TUPLE:
                continue  # function location, not a critical term
            elif label not in terms:
                terms[label] = dst
            else:
                message = "critical term %s has multiple edges" % label
                if message not in violations:
                    violations.append(message)
    return terms, violations


def _term_node_failures(g, universe, terms, values):
    """The walk failures of the critical terms' nodes (terms maps each
    label to its node), given the values a committed walk decoded: each
    term node values lacks is walked, in label order, on a copy of
    values (the memo holds what committed walks decoded only).  A term
    node in values decodes to that value, so when every term node is
    there nothing is walked or copied.  check_invariants and a checked
    automaton.run's idle checks both call this."""
    if all(map(values.__contains__, terms.values())):
        return []
    roots = [terms[label] for label in sorted(terms)
             if terms[label] not in values]
    return _node_values(g, universe, roots=roots, memo=dict(values))[1]


def decode(g, universe):
    """Critical-term mapping back out of a tangle.

    Skips internal ($/#) edges and function-location tuples.  Raises
    TangleError on a dangling critical edge or a term with several
    edges, on the first violation committed_violations reports, and on
    a term that does not decode; the terms are read through that
    check's walk.
    """
    terms, violations = _critical_terms(g, g.criticals())
    values = {}
    if not violations:
        violations = committed_violations(g, universe, False, values)
    if not violations:
        violations = _node_values(g, universe, roots=terms.values(),
                                  memo=values)[1]
    if violations:
        raise TangleError(violations[0])
    return {label: values[nid] for label, nid in terms.items()}


def decode_locations(g, universe):
    """Function-location mapping (f, args) -> value out of a tangle."""
    c = g.criticals()
    values, failures = _node_values(g, universe)
    if failures:
        raise TangleError(failures[0])

    def value_at(nid, what):
        if nid not in values:
            raise TangleError("%s reaches undecodable node %d" % (what, nid))
        return values[nid]

    result = {}
    for label in sorted(g.out[c]):
        if is_internal_label(label):
            continue
        for dst in sorted(g.targets(c, label)):
            node = g.nodes.get(dst)
            if node is None or node.kind != TUPLE:
                continue
            args = []
            i = 1
            while True:
                ts = sorted(g.targets(dst, arg_label(i)))
                if not ts:
                    break
                if len(ts) != 1:
                    raise TangleError("tuple %d has %d arg%d edges"
                                      % (dst, len(ts), i))
                args.append(value_at(ts[0], "tuple arg"))
                i += 1
            vals = sorted(g.targets(dst, VAL))
            if len(vals) != 1:
                raise TangleError("tuple %d has %d val edges"
                                  % (dst, len(vals)))
            key = (label, tuple(args))
            if key in result:
                raise TangleError("duplicate location %s" % (key,))
            result[key] = value_at(vals[0], "tuple val")
    return result


def check_invariants(g, universe, memo=None):
    """List of structural violations; empty iff the tangle is well formed.

    Checks: exactly one Criticals node, active is Criticals, containment
    acyclicity, then committed_violations (each committed value node
    decodes, and no two hold one value), which fills `memo`, if given,
    with the values its walk decoded, then the critical terms: no
    dangling edge, one edge per term, and each term's node decodes.
    Once containment is cyclic only the cycle and the term edges are
    reported.  When this reports nothing, decode succeeds, and
    decode_locations fails only on what the function-location edges out
    of Criticals name, which are not checked here.  This walks the
    whole graph; automaton.run calls it once, before the first tick,
    and keeps that memo.  After that a checked run relies on induction:
    nodes are never removed, kinds and the active node never change,
    and each added containment edge is tested for a cycle when it is
    added, so an idle-ending tick needs only its own structural check
    and the committed checks, which re-decode only the nodes the ticks
    since the last clean check can have changed (see automaton.run).
    A checked run checks the critical terms again at each idle tick:
    the edges with each label a tick edited since the last check, and
    each term node the committed check did not decode.
    """
    violations = []
    crit = [n.id for n in g.nodes.values() if n.kind == CRITICALS]
    if len(crit) != 1:
        violations.append("multiple criticals" if len(crit) > 1
                          else "no criticals")
    elif g.active != crit[0]:
        violations.append("active is not the criticals node")

    # containment acyclicity, over every node whatever its kind or color
    cyclic = has_directed_cycle({nid: [src for label in CONTAINMENT
                                       for src in g.sources(nid, label)]
                                 for nid in g.nodes})
    if cyclic:
        violations.append("containment cycle")
    values = {} if memo is None else memo
    violations += committed_violations(g, universe, cyclic, values)
    if len(crit) == 1:
        terms, term_violations = _critical_terms(g, crit[0])
        if not cyclic:
            term_violations += _term_node_failures(g, universe, terms, values)
        violations += [v for v in term_violations if v not in violations]
    return violations


def committed_violations(g, universe, cyclic, memo=None):
    """Violations among committed value nodes: the failure of each one
    whose walk fails (a pair without exactly one fst and one snd
    component, a member that is not a value or is missing), then each
    duplicate committed value.  Nothing is walked when the containment
    is `cyclic`.

    These are the checks mid-protocol ticks are exempt from.  This is
    the full check: it walks every committed value node.  A checked
    automaton.run certifies most idle ticks clean from its memo instead,
    and calls this whenever it cannot: the verdict is then this
    function's, unchanged.  decode raises the first of these violations.
    memo, if given (empty), receives the value of every node the walk
    decoded.
    """
    if cyclic:
        return []
    values, violations = _node_values(g, universe, memo=memo)
    seen = {}
    for nid, v in values.items():
        first = seen.setdefault(v.uid, nid)
        if first != nid:
            violations.append("duplicate committed value at nodes %d and %d"
                              % (first, nid))
    return violations
