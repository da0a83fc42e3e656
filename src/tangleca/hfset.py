"""Hereditarily finite values: atoms, sets, ordered pairs.

All construction goes through a Universe, which hash-conses values:
structurally equal values are the same object, and the integer uid is
the canonical id (equal value <=> equal id, within one universe).  A
set's members are stored once, in sort_key order, when the set is first
made; later requests for the same set find it by its member uids.
"""
from __future__ import annotations

import re


class HFError(Exception):
    """Base for value-domain errors."""


class HFTypeError(HFError):
    """An operation was applied to the wrong kind of value."""


class HFLimitError(HFError):
    """A depth or width limit was exceeded."""


class HFParseError(HFError):
    """Malformed value text."""


class EmptyChoiceError(HFError):
    """choose() on the empty set."""


ATOM = "atom"
SET = "set"
PAIR = "pair"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class HFValue:
    """One interned value.  Identity comparison is structural equality.

    sort_key is a process-independent total order used for printing and
    for seeded choice: atoms by name, then sets by (size, member keys),
    then pairs by component keys.
    """

    __slots__ = ("kind", "uid", "name", "members", "first", "second",
                 "depth", "sort_key")

    def __init__(self, kind, uid, name=None, members=(), first=None,
                 second=None, depth=0, sort_key=()):
        self.kind = kind
        self.uid = uid
        self.name = name
        self.members = members
        self.first = first
        self.second = second
        self.depth = depth
        self.sort_key = sort_key

    def is_atom(self):
        return self.kind == ATOM

    def is_set(self):
        return self.kind == SET

    def is_pair(self):
        return self.kind == PAIR

    def __repr__(self):
        return format_value(self)


def format_value(v: HFValue) -> str:
    """Canonical text: members in sort order, so equal values print equal."""
    if v.kind == ATOM:
        return v.name
    if v.kind == SET:
        return "{" + ",".join(format_value(m) for m in v.members) + "}"
    return "<%s,%s>" % (format_value(v.first), format_value(v.second))


class Universe:
    """Interning context for HFValue construction.

    One table maps each value's key to the value: (ATOM, name) for an
    atom, (PAIR, uid, uid) for a pair, and the frozenset of member uids
    for a set.  A value's uid is the table size when it was made.

    Not thread-safe; use one universe per thread or add external locking.
    Canonical ids are only comparable within a single universe.
    """

    def __init__(self, max_depth=16, max_width=1024):
        self.max_depth = max_depth
        self.max_width = max_width
        self._table = {}

    def _intern(self, key, build):
        v = self._table.get(key)
        if v is None:
            v = build(len(self._table))
            self._table[key] = v
        return v

    def atom(self, name: str) -> HFValue:
        if not _ATOM_RE.match(name or ""):
            raise HFParseError("bad atom name: %r" % (name,))
        return self._intern(
            (ATOM, name),
            lambda uid: HFValue(ATOM, uid, name=name, depth=0,
                                sort_key=(0, name)))

    def empty(self) -> HFValue:
        return self.set_of(())

    def set_of(self, members) -> HFValue:
        """Set from any iterable of values; deduplicates and checks limits.

        The set is looked up by the frozenset of its member uids, so a set
        the universe already holds costs one pass over the members.  Only
        a new set has its members sorted by sort_key and the depth and
        width limits checked; a held set passed them when it was made.
        """
        seen = {m.uid: m for m in members}
        return self._intern(frozenset(seen),
                            lambda uid: self._new_set(uid, seen.values()))

    def _new_set(self, uid, members):
        ms = tuple(sorted(members, key=lambda m: m.sort_key))
        if len(ms) > self.max_width:
            raise HFLimitError("set width %d exceeds limit %d"
                               % (len(ms), self.max_width))
        depth = 1 + max((m.depth for m in ms), default=-1)
        if depth > self.max_depth:
            raise HFLimitError("nesting depth %d exceeds limit %d"
                               % (depth, self.max_depth))
        return HFValue(SET, uid, members=ms, depth=depth,
                       sort_key=(1, len(ms), tuple(m.sort_key for m in ms)))

    def singleton(self, v: HFValue) -> HFValue:
        return self.set_of((v,))

    def union(self, s: HFValue, t: HFValue) -> HFValue:
        if s.kind != SET or t.kind != SET:
            raise HFTypeError("union needs two sets, got %s and %s"
                              % (s.kind, t.kind))
        return self.set_of(s.members + t.members)

    def member(self, v: HFValue, s: HFValue) -> bool:
        if s.kind != SET:
            raise HFTypeError("membership needs a set, got %s" % s.kind)
        return any(m is v for m in s.members)

    def pair(self, v: HFValue, w: HFValue) -> HFValue:
        depth = 1 + max(v.depth, w.depth)
        if depth > self.max_depth:
            raise HFLimitError("nesting depth %d exceeds limit %d"
                               % (depth, self.max_depth))
        return self._intern(
            (PAIR, v.uid, w.uid),
            lambda uid: HFValue(PAIR, uid, first=v, second=w, depth=depth,
                                sort_key=(2, v.sort_key, w.sort_key)))

    def parse(self, text: str) -> HFValue:
        """Parse `a`, `{v,w}`, `{}`, `<v,w>`.  Inverse of format_value."""
        v, pos = self._parse_value(text, 0)
        pos = _skip_ws(text, pos)
        if pos != len(text):
            raise HFParseError("trailing input at %d: %r" % (pos, text[pos:]))
        return v

    def _parse_value(self, text, pos):
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise HFParseError("unexpected end of value text")
        c = text[pos]
        if c == "{":
            members = []
            pos = _skip_ws(text, pos + 1)
            if pos < len(text) and text[pos] == "}":
                return self.set_of(()), pos + 1
            while True:
                v, pos = self._parse_value(text, pos)
                members.append(v)
                pos = _skip_ws(text, pos)
                if pos >= len(text):
                    raise HFParseError("unterminated set")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == "}":
                    return self.set_of(members), pos + 1
                raise HFParseError("expected , or } at %d" % pos)
        if c == "<":
            v, pos = self._parse_value(text, pos + 1)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ",":
                raise HFParseError("expected , in pair at %d" % pos)
            w, pos = self._parse_value(text, pos + 1)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ">":
                raise HFParseError("expected > at %d" % pos)
            return self.pair(v, w), pos + 1
        # matched in place: slicing the rest of the text for every atom
        # would make parsing quadratic in the text's length
        m = _NAME_RE.match(text, pos)
        if not m:
            raise HFParseError("unexpected character %r at %d" % (c, pos))
        return self.atom(m.group(0)), m.end()


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos
