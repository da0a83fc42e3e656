"""ASM-lite: concrete syntax, AST, validation, pretty-printing.

A program declares atoms, function symbols, and critical terms, then
gives one statement that is executed repeatedly as a single transition
until no assignment is enabled.

    atoms a, b;
    functions g/2;
    criticals t, p;
    if t != p then (t := p par p := t)

Set literals desugar at parse time: {x, y} becomes {x} U {y}.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else " at line %d col %d" % (line, col)
        super().__init__(message + loc)
        self.line = line
        self.col = col


# -- AST ---------------------------------------------------------------

@dataclass(frozen=True)
class Name:
    id: str


@dataclass(frozen=True)
class EmptySet:
    pass


@dataclass(frozen=True)
class Singleton:
    item: object


@dataclass(frozen=True)
class UnionTerm:
    left: object
    right: object


@dataclass(frozen=True)
class PairTerm:
    first: object
    second: object


@dataclass(frozen=True)
class Apply:
    func: str
    args: tuple


@dataclass(frozen=True)
class Member:
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Ne:
    left: object
    right: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    item: object


@dataclass(frozen=True)
class Assign:
    lhs: object  # Name or Apply
    rhs: object


@dataclass(frozen=True)
class If:
    cond: object
    then: object
    els: object = None


@dataclass(frozen=True)
class Let:
    var: str
    choice: bool
    source: object
    body: object


@dataclass(frozen=True)
class Par:
    items: tuple


@dataclass(frozen=True)
class Program:
    atoms: tuple
    functions: tuple  # (name, arity) pairs
    criticals: tuple
    body: object


KEYWORDS = {"if", "then", "else", "let", "in", "par", "choose", "not",
            "and", "or", "U", "atoms", "functions", "criticals"}

# names that collide with structural edge labels or the focus node
RESERVED = {"elem", "fst", "snd", "val", "criticals"}
_ARG_RE = re.compile(r"arg\d+\Z")

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>\d+)
  | (?P<op>:=|!=|[{}<>,;()=/])
""", re.VERBOSE)


def tokenize(source):
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError("unexpected character %r" % source[pos],
                             line, col)
        text = m.group(0)
        if m.lastgroup == "name":
            kind = text if text in KEYWORDS else "NAME"
            tokens.append((kind, text, line, col))
        elif m.lastgroup == "num":
            tokens.append(("NUM", text, line, col))
        elif m.lastgroup == "op":
            tokens.append((text, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.tokens[self.pos]
        if t[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, t[1] or "end"),
                             t[2], t[3])
        self.pos += 1
        return t

    def name(self):
        return self.expect("NAME")[1]

    # program := decls statement
    def program(self):
        atoms = ()
        functions = ()
        if self.peek() == "atoms":
            self.next()
            atoms = tuple(self.namelist())
            self.expect(";")
        if self.peek() == "functions":
            self.next()
            fns = []
            while True:
                fname = self.name()
                self.expect("/")
                t = self.expect("NUM")
                fns.append((fname, int(t[1])))
                if self.peek() != ",":
                    break
                self.next()
            functions = tuple(fns)
            self.expect(";")
        self.expect("criticals")
        criticals = tuple(self.namelist())
        self.expect(";")
        body = self.statement()
        self.expect("EOF")
        return Program(atoms, functions, criticals, body)

    def namelist(self):
        names = [self.name()]
        while self.peek() == ",":
            self.next()
            names.append(self.name())
        return names

    # statement := simple ("par" simple)*
    def statement(self):
        items = [self.simple_statement()]
        while self.peek() == "par":
            self.next()
            items.append(self.simple_statement())
        if len(items) == 1:
            return items[0]
        flat = []
        for s in items:
            flat.extend(s.items if isinstance(s, Par) else (s,))
        return Par(tuple(flat))

    def simple_statement(self):
        k = self.peek()
        if k == "if":
            self.next()
            cond = self.condition()
            self.expect("then")
            then = self.simple_statement()
            els = None
            if self.peek() == "else":
                self.next()
                els = self.simple_statement()
            return If(cond, then, els)
        if k == "let":
            self.next()
            var = self.name()
            self.expect("=")
            if self.peek() == "choose":
                self.next()
                self.expect("(")
                source = self.term()
                self.expect(")")
                choice = True
            else:
                source = self.term()
                choice = False
            self.expect("in")
            body = self.simple_statement()
            return Let(var, choice, source, body)
        if k == "(":
            self.next()
            s = self.statement()
            self.expect(")")
            return s
        # assignment
        lhs_name = self.name()
        if self.peek() == "(":
            self.next()
            args = [self.term()]
            while self.peek() == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            lhs = Apply(lhs_name, tuple(args))
        else:
            lhs = Name(lhs_name)
        self.expect(":=")
        return Assign(lhs, self.term())

    # condition := and_cond ("or" and_cond)*
    def condition(self):
        c = self.and_cond()
        while self.peek() == "or":
            self.next()
            c = Or(c, self.and_cond())
        return c

    def and_cond(self):
        c = self.not_cond()
        while self.peek() == "and":
            self.next()
            c = And(c, self.not_cond())
        return c

    def not_cond(self):
        if self.peek() == "not":
            self.next()
            return Not(self.not_cond())
        if self.peek() == "(":
            # backtrack: "(" may open a condition or a term comparison
            save = self.pos
            try:
                self.next()
                c = self.condition()
                self.expect(")")
                return c
            except ParseError:
                self.pos = save
        return self.atom_cond()

    def atom_cond(self):
        left = self.term()
        t = self.next()
        if t[0] == "in":
            return Member(left, self.term())
        if t[0] == "=":
            return Eq(left, self.term())
        if t[0] == "!=":
            return Ne(left, self.term())
        raise ParseError("expected in, = or != in condition", t[2], t[3])

    # term := factor ("U" factor)*
    def term(self):
        t = self.factor()
        while self.peek() == "U":
            self.next()
            t = UnionTerm(t, self.factor())
        return t

    def factor(self):
        k, text, line, col = self.tokens[self.pos]
        if k == "{":
            self.next()
            if self.peek() == "}":
                self.next()
                return EmptySet()
            items = [self.term()]
            while self.peek() == ",":
                self.next()
                items.append(self.term())
            self.expect("}")
            # {x, y, z} desugars to {x} U {y} U {z}
            out = Singleton(items[0])
            for item in items[1:]:
                out = UnionTerm(out, Singleton(item))
            return out
        if k == "<":
            self.next()
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(">")
            return PairTerm(a, b)
        if k == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if k == "NAME":
            self.next()
            if self.peek() == "(":
                self.next()
                args = [self.term()]
                while self.peek() == ",":
                    self.next()
                    args.append(self.term())
                self.expect(")")
                return Apply(text, tuple(args))
            return Name(text)
        raise ParseError("expected a term, found %r" % (text or "end"),
                         line, col)


def parse(source):
    return _Parser(tokenize(source)).program()


def parse_statement(source):
    """A bare statement without declarations, for tests."""
    p = _Parser(tokenize(source))
    s = p.statement()
    p.expect("EOF")
    return s


# -- validation ---------------------------------------------------------

def assigned_criticals(s):
    """The critical terms that some assignment in statement s writes."""
    if isinstance(s, Assign):
        return {s.lhs.id} if isinstance(s.lhs, Name) else set()
    if isinstance(s, If):
        out = assigned_criticals(s.then)
        if s.els is not None:
            out |= assigned_criticals(s.els)
        return out
    if isinstance(s, Let):
        return assigned_criticals(s.body)
    if isinstance(s, Par):
        out = set()
        for item in s.items:
            out |= assigned_criticals(item)
        return out
    return set()


def validate(program):
    """Static violations; empty list iff the program is well formed.

    The parallel-conflict check is a syntactic over-approximation: any
    critical term assigned in two parallel branches is flagged, even if
    guards would never enable both.
    """
    v = []
    atoms = set()
    functions = {}
    criticals = set()
    for a in program.atoms:
        if a in atoms:
            v.append("duplicate atom %s" % a)
        atoms.add(a)
    for f, arity in program.functions:
        if f in functions or f in atoms:
            v.append("duplicate declaration %s" % f)
        functions[f] = arity
    for c in program.criticals:
        if c in criticals or c in atoms or c in functions:
            v.append("duplicate declaration %s" % c)
        criticals.add(c)
    for n in sorted(atoms | set(functions) | criticals):
        if n in RESERVED or _ARG_RE.match(n):
            v.append("reserved name %s" % n)

    def term(t, env):
        if isinstance(t, Name):
            if t.id not in env and t.id not in criticals and t.id not in atoms:
                v.append("undeclared name %s" % t.id)
        elif isinstance(t, Singleton):
            term(t.item, env)
        elif isinstance(t, (UnionTerm,)):
            term(t.left, env)
            term(t.right, env)
        elif isinstance(t, PairTerm):
            term(t.first, env)
            term(t.second, env)
        elif isinstance(t, Apply):
            if t.func not in functions:
                v.append("undeclared function %s" % t.func)
            elif functions[t.func] != len(t.args):
                v.append("arity mismatch for %s: got %d, declared %d"
                         % (t.func, len(t.args), functions[t.func]))
            for a in t.args:
                term(a, env)
        elif isinstance(t, EmptySet):
            pass
        else:
            v.append("unknown term %r" % (t,))

    def cond(c, env):
        if isinstance(c, (Member, Eq, Ne)):
            term(c.left, env)
            term(c.right, env)
        elif isinstance(c, (And, Or)):
            cond(c.left, env)
            cond(c.right, env)
        elif isinstance(c, Not):
            cond(c.item, env)
        else:
            v.append("unknown condition %r" % (c,))

    def stmt(s, env):
        if isinstance(s, Assign):
            if isinstance(s.lhs, Name):
                if s.lhs.id not in criticals:
                    v.append("assignment to non-critical %s" % s.lhs.id)
            elif isinstance(s.lhs, Apply):
                term(s.lhs, env)
            else:
                v.append("bad assignment target %r" % (s.lhs,))
            term(s.rhs, env)
        elif isinstance(s, If):
            cond(s.cond, env)
            stmt(s.then, env)
            if s.els is not None:
                stmt(s.els, env)
        elif isinstance(s, Let):
            if (s.var in env or s.var in criticals or s.var in atoms
                    or s.var in functions):
                v.append("let variable %s shadows a declaration" % s.var)
            term(s.source, env)
            stmt(s.body, env | {s.var})
        elif isinstance(s, Par):
            for item in s.items:
                stmt(item, env)
            for i in range(len(s.items)):
                for j in range(i + 1, len(s.items)):
                    both = (assigned_criticals(s.items[i])
                            & assigned_criticals(s.items[j]))
                    for nm in sorted(both):
                        v.append("conflicting parallel assignment to %s" % nm)
        else:
            v.append("unknown statement %r" % (s,))

    stmt(program.body, frozenset())
    return v


# -- pretty printing ------------------------------------------------------

def _pt(t):
    if isinstance(t, Name):
        return t.id
    if isinstance(t, EmptySet):
        return "{}"
    if isinstance(t, Singleton):
        return "{%s}" % _pt(t.item)
    if isinstance(t, UnionTerm):
        left = _pt(t.left)
        right = ("(%s)" % _pt(t.right)
                 if isinstance(t.right, UnionTerm) else _pt(t.right))
        return "%s U %s" % (left, right)
    if isinstance(t, PairTerm):
        return "<%s, %s>" % (_pt(t.first), _pt(t.second))
    if isinstance(t, Apply):
        return "%s(%s)" % (t.func, ", ".join(_pt(a) for a in t.args))
    raise ValueError("unknown term %r" % (t,))


def _pc(c, parent_prec=0):
    # precedence: or=1, and=2, not=3, atom=4
    if isinstance(c, Or):
        s = "%s or %s" % (_pc(c.left, 1), _pc(c.right, 2))
        prec = 1
    elif isinstance(c, And):
        s = "%s and %s" % (_pc(c.left, 2), _pc(c.right, 3))
        prec = 2
    elif isinstance(c, Not):
        s = "not %s" % _pc(c.item, 3)
        prec = 3
    elif isinstance(c, Member):
        s = "%s in %s" % (_pt(c.left), _pt(c.right))
        prec = 4
    elif isinstance(c, Eq):
        s = "%s = %s" % (_pt(c.left), _pt(c.right))
        prec = 4
    elif isinstance(c, Ne):
        s = "%s != %s" % (_pt(c.left), _pt(c.right))
        prec = 4
    else:
        raise ValueError("unknown condition %r" % (c,))
    return "(%s)" % s if prec < parent_prec else s


def _ps(s):
    if isinstance(s, Assign):
        return "%s := %s" % (_pt(s.lhs), _pt(s.rhs))
    if isinstance(s, If):
        out = "if %s then %s" % (_pc(s.cond), _ps_simple(s.then))
        if s.els is not None:
            out += " else %s" % _ps_simple(s.els)
        return out
    if isinstance(s, Let):
        src = "choose(%s)" % _pt(s.source) if s.choice else _pt(s.source)
        return "let %s = %s in %s" % (s.var, src, _ps_simple(s.body))
    if isinstance(s, Par):
        return " par ".join(_ps_simple(i) for i in s.items)
    raise ValueError("unknown statement %r" % (s,))


def _ps_simple(s):
    return "(%s)" % _ps(s) if isinstance(s, Par) else _ps(s)


def pretty_print(program):
    lines = []
    if program.atoms:
        lines.append("atoms %s;" % ", ".join(program.atoms))
    if program.functions:
        lines.append("functions %s;" % ", ".join(
            "%s/%d" % fa for fa in program.functions))
    lines.append("criticals %s;" % ", ".join(program.criticals))
    lines.append(_ps(program.body))
    return "\n".join(lines) + "\n"
