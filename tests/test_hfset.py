"""Interned hereditarily-finite values: construction, parsing, limits."""
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from tangleca import asmlang, difftest, hfset, interpreter
from tangleca.hfset import (HFLimitError, HFParseError, HFTypeError,
                            Universe, format_value)

from conftest import MODES, corpus_names, load_corpus_case


def values(universe, max_leaves=12):
    """Hypothesis strategy for values inside one universe."""
    atoms = st.sampled_from(["a", "b", "c"]).map(universe.atom)
    base = st.just(universe.empty()) | atoms
    return st.recursive(
        base,
        lambda inner: (
            st.lists(inner, max_size=4).map(universe.set_of)
            | st.tuples(inner, inner).map(lambda p: universe.pair(*p))),
        max_leaves=max_leaves)


class TestInterning:
    def test_equal_values_share_one_object(self, universe):
        a = universe.atom("a")
        b = universe.atom("b")
        assert universe.set_of([a, b]) is universe.set_of([b, a])
        assert universe.atom("a") is a
        assert universe.pair(a, b) is universe.pair(a, b)
        assert universe.pair(a, b) is not universe.pair(b, a)

    def test_duplicates_collapse(self, universe):
        a = universe.atom("a")
        assert universe.set_of([a, a, a]) is universe.singleton(a)
        assert len(universe.set_of([a, a]).members) == 1

    def test_empty_is_the_empty_set(self, universe):
        assert universe.empty() is universe.set_of(())
        assert universe.empty().is_set()
        assert universe.empty().members == ()

    def test_uids_are_distinct_per_value(self, universe):
        vs = [universe.atom("a"), universe.empty(),
              universe.singleton(universe.atom("a")),
              universe.pair(universe.atom("a"), universe.empty())]
        assert len({v.uid for v in vs}) == len(vs)


class TestOperations:
    def test_union(self, universe):
        a, b, c = (universe.atom(n) for n in "abc")
        s = universe.set_of([a, b])
        t = universe.set_of([b, c])
        assert universe.union(s, t) is universe.set_of([a, b, c])
        assert universe.union(s, universe.empty()) is s

    def test_union_type_error(self, universe):
        with pytest.raises(HFTypeError):
            universe.union(universe.atom("a"), universe.empty())
        with pytest.raises(HFTypeError):
            universe.union(universe.empty(),
                           universe.pair(universe.empty(), universe.empty()))

    def test_member(self, universe):
        a, b = universe.atom("a"), universe.atom("b")
        s = universe.singleton(a)
        assert universe.member(a, s)
        assert not universe.member(b, s)
        assert not universe.member(s, s)
        with pytest.raises(HFTypeError):
            universe.member(a, a)

    def test_pair_components(self, universe):
        a, b = universe.atom("a"), universe.atom("b")
        p = universe.pair(a, b)
        assert p.first is a and p.second is b
        assert p.is_pair()


class TestLimits:
    def test_depth_limit(self):
        u = Universe(max_depth=3)
        v = u.empty()            # depth 0
        v = u.singleton(v)       # depth 1
        v = u.singleton(v)       # depth 2
        v = u.singleton(v)       # depth 3, at the limit
        with pytest.raises(HFLimitError):
            u.singleton(v)
        with pytest.raises(HFLimitError):
            u.pair(v, u.empty())

    def test_width_limit(self):
        u = Universe(max_width=2)
        ms = [u.atom(n) for n in "abc"]
        with pytest.raises(HFLimitError):
            u.set_of(ms)
        assert u.set_of(ms[:2])

    def test_new_set_past_a_limit_raises_among_held_sets(self):
        u = Universe(max_depth=2, max_width=2)
        a, b, c = (u.atom(n) for n in "abc")
        inner = u.singleton(u.empty())
        outer = u.set_of([inner, a])             # depth 2, width 2
        assert u.set_of([a, inner, a]) is outer  # held: found, not rebuilt
        with pytest.raises(HFLimitError):
            u.singleton(outer)                   # new, depth 3
        with pytest.raises(HFLimitError):
            u.set_of([c, b, a, b])               # new, width 3
        assert u.set_of([b, a]).members == (a, b)

    def test_bad_atom_name(self, universe):
        for bad in ("", "1x", "a-b", "a b", None):
            with pytest.raises(HFParseError):
                universe.atom(bad)


class TestParse:
    def test_basic_forms(self, universe):
        assert universe.parse("{}") is universe.empty()
        assert universe.parse("a") is universe.atom("a")
        a, b = universe.atom("a"), universe.atom("b")
        assert universe.parse("{a, b}") is universe.set_of([a, b])
        assert universe.parse("<a, {}>") is universe.pair(a, universe.empty())
        assert universe.parse("{ { a } , b }") is universe.set_of(
            [universe.singleton(a), b])

    def test_nested_and_whitespace(self, universe):
        v = universe.parse("{<{a},{}> ,{{}, {a,b}}}")
        assert v.is_set() and len(v.members) == 2

    def test_errors(self, universe):
        for bad in ("", "{", "}", "<a>", "<a,b,c>", "{a,}", "a b",
                    "{a} x", "<a, b", "{,}", "1"):
            with pytest.raises(HFParseError):
                universe.parse(bad)

    def test_long_and_deep_values(self):
        u = Universe(max_depth=64, max_width=20000)
        names = ["a%d" % i for i in range(20000)]
        flat = u.parse("{" + ", ".join(names) + "}")
        assert flat is u.set_of([u.atom(name) for name in names])
        assert len(flat.members) == 20000
        deep = u.parse("{" * 64 + "}" * 64)
        v = u.empty()
        for _ in range(63):
            v = u.singleton(v)
        assert deep is v and deep.depth == 63
        nested = u.parse("<" * 32 + "a" + ", b>" * 32)
        assert nested.depth == 32
        assert format_value(nested) == "<" * 32 + "a" + ",b>" * 32

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_format_parse_roundtrip(self, data):
        u = Universe(max_depth=64)
        v = data.draw(values(u))
        assert u.parse(format_value(v)) is v


class TestAlgebra:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_union_laws(self, data):
        u = Universe(max_depth=64)
        sets = st.lists(values(u, 6), max_size=3).map(u.set_of)
        s, t, r = data.draw(sets), data.draw(sets), data.draw(sets)
        assert u.union(s, t) is u.union(t, s)
        assert u.union(s, s) is s
        assert u.union(u.union(s, t), r) is u.union(s, u.union(t, r))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_membership_matches_construction(self, data):
        u = Universe(max_depth=64)
        ms = data.draw(st.lists(values(u, 5), max_size=4))
        outside = data.draw(values(u, 5))
        s = u.set_of(ms)
        for m in ms:
            assert u.member(m, s)
        assert u.member(outside, s) == any(m is outside for m in ms)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_sort_key_total_order_is_consistent(self, data):
        u = Universe(max_depth=64)
        vs = data.draw(st.lists(values(u, 5), min_size=2, max_size=6))
        keys = sorted(vs, key=lambda v: v.sort_key)
        # equal keys imply identical values: the order is total
        for x, y in zip(keys, keys[1:]):
            if x.sort_key == y.sort_key:
                assert x is y


class TestCanonicalSets:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_member_list_gives_one_set_in_sort_key_order(self, data):
        u = Universe(max_depth=64)
        ms = data.draw(st.lists(values(u, 5), max_size=5))
        dups = data.draw(st.lists(st.sampled_from(ms), max_size=4)
                         if ms else st.just([]))
        shuffled = data.draw(st.permutations(ms + dups))
        s = u.set_of(ms)
        assert u.set_of(shuffled) is s
        assert u.set_of(iter(shuffled)) is s
        assert {m.uid for m in s.members} == {m.uid for m in ms}
        keys = [m.sort_key for m in s.members]
        assert all(x < y for x, y in zip(keys, keys[1:]))


class TestUidsPinned:
    """Uids depend only on the order in which values are first made.

    Hashes (uid, printed value) of every value in the universe after
    each corpus case is parsed and run through difftest.run_case, in
    both edge modes.  Recorded before set_of looked a set up before
    sorting its members.
    """

    DIGEST = "6f3ef3612c902f64adcb534be124ca1759ecbf80e7fbf3c2a3461967ea59f5b5"

    def test_corpus_uids_unchanged(self):
        digest = hashlib.sha256()
        for name in corpus_names():
            source, state_text = load_corpus_case(name)
            for neg in MODES:
                u = Universe(max_depth=64)
                program = asmlang.parse(source)
                state = interpreter.parse_state(state_text, program, u)
                assert difftest.run_case(program, state, u,
                                         negative_edges=neg).ok
                digest.update(("%s %s\n" % (name, neg)).encode())
                for v in sorted(u._table.values(), key=lambda v: v.uid):
                    digest.update(("%d %s\n" % (v.uid, format_value(v)))
                                  .encode())
        assert digest.hexdigest() == self.DIGEST
