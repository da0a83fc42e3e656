"""Tangle graphs and the value encoding: sharing, roundtrips, invariants."""
import pytest
from hypothesis import example, given, settings, strategies as st

from tangleca import automaton, bench, hfset, tangle
from tangleca.hfset import Universe
from tangleca.tangle import (Tangle, TangleError, check_invariants, decode,
                             decode_locations, encode)

from conftest import compile_case
from test_hfset import values


KINDS = (tangle.ATOM, tangle.SET, tangle.PAIR, tangle.TUPLE, tangle.SCRATCH)
NODE_COLORS = (tangle.PLAIN, tangle.MARKER, tangle.JUNK, "s3")
EDGE_LABELS = (tangle.ELEM, tangle.FST, tangle.SND, tangle.VAL, "arg1", "t")


@st.composite
def mixed_graphs(draw):
    """A Criticals node plus up to seven nodes of any kind and color,
    with random edges, self-loops included, over containment and other
    labels."""
    g = Tangle()
    g.active = g.add_node(tangle.PLAIN, tangle.CRITICALS)
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        kind = draw(st.sampled_from(KINDS))
        g.add_node(draw(st.sampled_from(NODE_COLORS)), kind,
                   payload="a" if kind == tangle.ATOM else None)
    possible = [(a, l, b) for a in g.nodes for b in g.nodes
                for l in EDGE_LABELS]
    for e in draw(st.lists(st.sampled_from(possible), max_size=14,
                           unique=True)):
        g.add_edge(*e)
    return g


def tuple_in_committed_set(u):
    """encode({x: {a}}), then a plain tuple node t with an elem edge into
    x's set: a committed set that does not decode.  Returns (g, t)."""
    g = encode({"x": u.parse("{a}")}, universe=u)
    (x,) = g.targets(g.criticals(), "x")
    t = g.add_node(tangle.PLAIN, tangle.TUPLE)
    g.add_edge(t, tangle.ELEM, x)
    return g, t


def scratch_term(u):
    """encode({t: {}}), then a marker scratch node named by a critical
    edge t2: a term that does not decode.  Returns (g, node)."""
    g = encode({"t": u.empty()}, universe=u)
    n = g.add_node(tangle.MARKER, tangle.SCRATCH)
    g.add_edge(g.criticals(), "t2", n)
    return g, n


def has_containment_cycle(g):
    """Brute force: some node reaches itself along elem/fst/snd edges."""
    for start in g.nodes:
        seen = set()
        stack = [start]
        while stack:
            nid = stack.pop()
            for label in tangle.CONTAINMENT:
                for nxt in g.targets(nid, label):
                    if nxt == start:
                        return True
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return False


def committed_value_nodes(g):
    return [n for n in g.nodes.values()
            if n.kind in (tangle.ATOM, tangle.SET, tangle.PAIR)
            and n.color in tangle.COMMITTED]


class TestTangleBasics:
    def test_nodes_edges(self):
        g = Tangle()
        a = g.add_node("plain", tangle.SET)
        b = g.add_node("plain", tangle.SET)
        g.add_edge(a, "elem", b)
        assert g.has_edge(a, "elem", b)
        assert g.targets(a, "elem") == {b}
        assert g.sources(b, "elem") == {a}
        assert g.node_count() == 2 and g.edge_count() == 1
        g.remove_edge(a, "elem", b)
        assert not g.has_edge(a, "elem", b)
        assert g.edge_count() == 0

    def test_copy_is_independent(self):
        g = Tangle()
        c = g.add_node("boot", tangle.CRITICALS)
        g.active = c
        h = g.copy()
        h.set_color(c, "done")
        h.add_node("plain", tangle.SET)
        assert g.color_of(c) == "boot"
        assert g.node_count() == 1 and h.node_count() == 2

    def test_colour_classes_follow_the_nodes(self):
        def exact(g):
            return all(ids == {nid for nid, node in g.nodes.items()
                               if node.color == color}
                       for color, ids in g.classes.items())

        g = Tangle()
        c = g.add_node("boot", tangle.CRITICALS)
        a = g.add_node("plain", tangle.SET)
        assert g.classes == {}                 # none asked for yet
        assert g.color_class("plain") == {a}
        assert g.color_class("mark") == set()
        b = g.add_node("plain", tangle.SET)
        g.set_color(a, "mark")
        assert exact(g) and g.color_class("plain") == {b}
        g.set_color(a, "mark")                 # to the colour it has
        g.set_color(c, "done")                 # into a colour not asked for
        assert exact(g) and set(g.classes) == {"plain", "mark"}
        h = g.copy()
        assert exact(h)
        h.set_color(b, "mark")
        assert exact(h) and exact(g)           # the copy shares no class
        assert g.color_class("mark") == {a}

        source, state = bench.union_case(16)
        _u, _p, unit, _s, graph = compile_case(source, state)
        cfg, _stats, outcome = automaton.run(automaton.Configuration(graph),
                                             unit.ruleset)
        assert outcome == automaton.QUIESCENT
        assert cfg.tangle.classes and exact(cfg.tangle)

    def test_snapshot_detects_difference(self):
        g = Tangle()
        c = g.add_node("boot", tangle.CRITICALS)
        g.active = c
        h = g.copy()
        assert g.snapshot() == h.snapshot()
        h.set_color(c, "done")
        assert g.snapshot() != h.snapshot()

    def test_to_dot_mentions_every_node(self):
        u = Universe()
        g = encode({"t": u.singleton(u.atom("a"))}, universe=u, atoms=("a",))
        dot = g.to_dot()
        assert dot.startswith("digraph")
        for nid in g.nodes:
            assert ("n%d" % nid) in dot


class TestEncode:
    def test_one_node_per_distinct_value(self):
        u = Universe()
        a = u.atom("a")
        v = u.set_of([a, u.singleton(a)])          # {a, {a}}
        g = encode({"t": v, "p": v}, universe=u, atoms=("a",))
        # distinct committed values: a, {a}, {a,{a}}, and the empty set
        assert len(committed_value_nodes(g)) == 4
        assert g.criticals() == g.active

    def test_empty_node_always_present(self):
        u = Universe()
        g = encode({}, universe=u)
        c = g.criticals()
        (e,) = g.targets(c, tangle.EMPTY_EDGE)
        assert g.nodes[e].kind == tangle.SET
        assert g.color_of(e) == tangle.PLAIN

    def test_atoms_precreated_with_handles(self):
        u = Universe()
        g = encode({}, universe=u, atoms=("b", "a"))
        c = g.criticals()
        for name in ("a", "b"):
            (nid,) = g.targets(c, tangle.atom_edge(name))
            assert g.nodes[nid].kind == tangle.ATOM
            assert g.nodes[nid].payload == name

    def test_criticals_color(self):
        u = Universe()
        g = encode({}, universe=u, criticals_color="boot")
        assert g.color_of(g.criticals()) == "boot"

    def test_duplicate_location_rejected(self):
        # two distinct key objects whose argument uids coincide (values
        # taken from different universes) denote the same location
        u = Universe()
        a = u.atom("a")
        alias = Universe().atom("a")
        assert alias.uid == a.uid and alias is not a
        with pytest.raises(TangleError):
            encode({}, locations={("f", (a,)): u.empty(),
                                  ("f", (alias,)): u.singleton(a)},
                   universe=u, atoms=("a",))


class TestDecode:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_terms(self, data):
        u = Universe(max_depth=64)
        names = ["t", "p", "q"]
        terms = {n: data.draw(values(u)) for n in names}
        g = encode(terms, universe=u, atoms=("a", "b", "c"))
        out = decode(g, u)
        assert out == terms

    def test_roundtrip_locations(self):
        u = Universe()
        a, b = u.atom("a"), u.atom("b")
        locs = {("f", (a, b)): u.singleton(a),
                ("f", (b, a)): u.empty(),
                ("g", (u.empty(),)): u.pair(a, b)}
        g = encode({"t": a}, locations=locs, universe=u, atoms=("a", "b"))
        assert decode_locations(g, u) == locs
        assert decode(g, u) == {"t": a}  # tuples are not critical terms

    def test_internal_edges_skipped(self):
        u = Universe()
        g = encode({"t": u.empty()}, universe=u)
        c = g.criticals()
        m = g.add_node(tangle.MARKER, tangle.SCRATCH)
        g.add_edge(c, "#true", m)
        (e,) = g.targets(c, tangle.EMPTY_EDGE)
        g.add_edge(c, "$r0", e)
        assert decode(g, u) == {"t": u.empty()}

    def test_dangling_critical_edge(self):
        u = Universe()
        g = encode({"t": u.empty()}, universe=u)
        c = g.criticals()
        m = g.add_node(tangle.MARKER, tangle.SCRATCH)
        g.add_edge(c, "t2", m)  # critical edge to a non-value node
        with pytest.raises(TangleError):
            decode(g, u)

    def test_containment_cycle_detected(self):
        u = Universe()
        g = encode({"t": u.singleton(u.empty())}, universe=u)
        (t,) = g.targets(g.criticals(), "t")
        g.add_edge(t, tangle.ELEM, t)
        with pytest.raises(TangleError):
            decode(g, u)

    def test_duplicate_committed_value_detected(self):
        u = Universe()
        g = encode({"t": u.empty()}, universe=u)
        extra = g.add_node(tangle.PLAIN, tangle.SET)  # second committed {}
        g.add_edge(g.criticals(), "p", extra)
        with pytest.raises(TangleError):
            decode(g, u)

    def test_cycle_through_uncommitted_node(self):
        # t's committed set and a marked (uncommitted) set hold each
        # other: the cycle is reached only through the critical term
        u = Universe()
        g = encode({"t": u.singleton(u.empty())}, universe=u)
        (t,) = g.targets(g.criticals(), "t")
        m = g.add_node(tangle.MARKER, tangle.SET)
        g.add_edge(m, tangle.ELEM, t)
        g.add_edge(t, tangle.ELEM, m)
        with pytest.raises(TangleError, match="containment cycle"):
            decode(g, u)
        assert check_invariants(g, u) == ["containment cycle"]

    def test_malformed_pair(self):
        u = Universe()
        a, b = u.atom("a"), u.atom("b")
        g = encode({"t": u.pair(a, b)}, universe=u, atoms=("a", "b"))
        (p,) = g.targets(g.criticals(), "t")
        (fst_src,) = g.sources(p, tangle.FST)
        g.remove_edge(fst_src, tangle.FST, p)
        with pytest.raises(TangleError):
            decode(g, u)


class TestInvariants:
    def test_clean_on_encoded_graphs(self):
        u = Universe()
        v = u.set_of([u.atom("a"), u.pair(u.empty(), u.atom("b"))])
        g = encode({"t": v, "p": u.empty()}, universe=u, atoms=("a", "b"))
        assert check_invariants(g, u) == []

    def test_two_criticals(self):
        u = Universe()
        g = encode({}, universe=u)
        g.add_node("plain", tangle.CRITICALS)
        assert any("criticals" in v for v in check_invariants(g, u))

    def test_containment_cycle(self):
        u = Universe()
        g = encode({"t": u.singleton(u.empty())}, universe=u)
        (t,) = g.targets(g.criticals(), "t")
        g.add_edge(t, tangle.ELEM, t)
        assert any("cycle" in v for v in check_invariants(g, u))

    @given(g=mixed_graphs())
    @settings(max_examples=300, deadline=None)
    def test_cycle_verdict_matches_brute_force(self, g):
        found = "containment cycle" in check_invariants(g, Universe())
        assert found == has_containment_cycle(g)

    def test_duplicate_committed_value(self):
        u = Universe()
        g = encode({}, universe=u)
        g.add_node(tangle.PLAIN, tangle.SET)
        assert any("duplicate committed value" in v
                   for v in check_invariants(g, u))

    def test_malformed_committed_pair(self):
        # a second fst source: decode raises, and the full check says so
        u = Universe()
        a, b = u.atom("a"), u.atom("b")
        g = encode({"t": u.pair(a, b)}, universe=u, atoms=("a", "b"))
        (p,) = g.targets(g.criticals(), "t")
        (snd_src,) = g.sources(p, tangle.SND)
        g.add_edge(snd_src, tangle.FST, p)
        with pytest.raises(TangleError, match="2 fst / 1 snd"):
            decode(g, u)
        assert check_invariants(g, u) == [
            "pair node %d has 2 fst / 1 snd components" % p]

    def test_committed_set_with_a_member_that_is_not_a_value(self):
        u = Universe()
        g, t = tuple_in_committed_set(u)
        message = "node %d of kind tuple is not a value" % t
        assert check_invariants(g, u) == [message]
        with pytest.raises(TangleError) as exc:
            decode(g, u)
        assert str(exc.value) == message

    def test_critical_term_that_is_not_a_value(self):
        u = Universe()
        g, n = scratch_term(u)
        message = "node %d of kind scratch is not a value" % n
        assert check_invariants(g, u) == [message]
        with pytest.raises(TangleError) as exc:
            decode(g, u)
        assert str(exc.value) == message

    def test_critical_term_with_two_edges(self):
        u = Universe()
        g = encode({"t": u.empty(), "p": u.parse("{{}}")}, universe=u)
        c = g.criticals()
        (p,) = g.targets(c, "p")
        g.add_edge(c, "t", p)
        message = "critical term t has multiple edges"
        assert check_invariants(g, u) == [message]
        with pytest.raises(TangleError, match=message):
            decode(g, u)

    def test_dangling_critical_edge(self):
        u = Universe()
        g = encode({"t": u.empty()}, universe=u)
        g.out[g.criticals()]["t2"] = {99}
        assert check_invariants(g, u) == ["dangling critical edge t2"]
        with pytest.raises(TangleError, match="dangling critical edge t2"):
            decode(g, u)

    @given(g=mixed_graphs())
    @example(g=tuple_in_committed_set(Universe())[0])
    @example(g=scratch_term(Universe())[0])
    @settings(max_examples=300, deadline=None)
    def test_clean_check_means_decode_succeeds(self, g):
        # the critical terms are checked and kept; the function-location
        # edges are not checked, so they are dropped before decoding
        u = Universe()
        if check_invariants(g, u):
            return
        g = g.copy()
        c = g.criticals()
        terms = set()
        for label, targets in list(g.out[c].items()):
            for dst in list(targets):
                if g.nodes[dst].kind == tangle.TUPLE:
                    g.remove_edge(c, label, dst)
                elif not tangle.is_internal_label(label):
                    terms.add(label)
        assert set(decode(g, u)) == terms
        assert decode_locations(g, u) == {}

    def test_pair_under_construction_is_not_flagged(self):
        # a marked (not committed) pair may lack components mid-protocol
        u = Universe()
        g = encode({}, universe=u)
        g.add_node("marker", tangle.PAIR)
        assert check_invariants(g, u) == []


class TestUniverseIsRequired:
    """Encoding, decoding and checking run in the values' own universe;
    there is no fallback to a fresh one."""

    def test_encode_takes_the_values_universe(self):
        # uids mean nothing outside their universe: another one's empty
        # set can carry the uid of atom a
        u = Universe()
        a = u.atom("a")
        with pytest.raises(TypeError):
            encode({"t": a})
        assert decode(encode({"t": a}, universe=u), u) == {"t": a}

    def test_deep_initial_graph_checks_and_decodes(self):
        # the graph is deeper than a default universe's depth limit
        source, state_text = bench.overhead_case(20)
        universe, _program, _unit, state, graph = compile_case(
            source, state_text)
        for reader in (check_invariants, decode, decode_locations):
            with pytest.raises(TypeError):
                reader(graph)
        assert check_invariants(graph, universe) == []
        assert decode(graph, universe)["lim"] is state.values["lim"]
