"""Direct interpreter for ASM-lite programs.

Executes one statement as a repeated atomic transition over a state
mapping critical terms and function locations to hereditarily finite
values.  Each step collects the full update set against the old state,
then applies it; a step with an empty update set terminates the run.

This is the reference semantics the automaton translation is tested
against.
"""
from __future__ import annotations

import random

from . import asmlang as ast
from . import hfset

TERMINAL = "terminal"
BUDGET = "step-budget-exhausted"
CLASH = "inconsistent-update"
EMPTY_CHOICE = "empty-choice"
TYPE_ERROR = "type-error"
LIMIT = "limit-exceeded"

MAX_STEPS = 10 ** 4


class StateError(Exception):
    pass


class State:
    """Critical-term values plus function-location values.

    Locations are keyed by (function name, tuple of argument value ids);
    an absent location reads as the empty set.
    """

    def __init__(self, values=None, locations=None):
        self.values = dict(values or {})
        # (fname, (uid, ...)) -> (args tuple of HFValue, value)
        self.locations = dict(locations or {})

    def copy(self):
        return State(self.values, self.locations)

    def read_location(self, universe, fname, args):
        key = (fname, tuple(a.uid for a in args))
        entry = self.locations.get(key)
        return entry[1] if entry is not None else universe.empty()

    def write_location(self, fname, args, value):
        key = (fname, tuple(a.uid for a in args))
        self.locations[key] = (tuple(args), value)

    def items(self):
        """Stable, comparable view: sorted term and location entries."""
        terms = sorted((n, v.uid) for n, v in self.values.items())
        locs = sorted((f, key, entry[1].uid)
                      for (f, key), entry in self.locations.items())
        return terms, locs

    def __eq__(self, other):
        return isinstance(other, State) and self.items() == other.items()

    def __hash__(self):
        terms, locs = self.items()
        return hash((tuple(terms), tuple(locs)))


class _Chooser:
    """Resolves choose() either from an rng or from a scripted index list;
    past the end of a script it takes index 0.  widths records the member
    count of every choice resolved so far."""

    def __init__(self, rng=None, script=None):
        self.rng = rng
        self.script = script
        self.widths = []

    def pick(self, value):
        members = value.members   # already in sort_key order
        if not members:
            raise hfset.EmptyChoiceError("choose on the empty set")
        used = len(self.widths)
        self.widths.append(len(members))
        if self.script is None:
            return members[self.rng.randrange(len(members))]
        index = self.script[used] if used < len(self.script) else 0
        return members[index % len(members)]


def eval_term(term, state, env, universe):
    if isinstance(term, ast.Name):
        if term.id in env:
            return env[term.id]
        if term.id in state.values:
            return state.values[term.id]
        return universe.atom(term.id)
    if isinstance(term, ast.EmptySet):
        return universe.empty()
    if isinstance(term, ast.Singleton):
        return universe.singleton(eval_term(term.item, state, env, universe))
    if isinstance(term, ast.UnionTerm):
        left = eval_term(term.left, state, env, universe)
        right = eval_term(term.right, state, env, universe)
        return universe.union(left, right)
    if isinstance(term, ast.PairTerm):
        return universe.pair(eval_term(term.first, state, env, universe),
                             eval_term(term.second, state, env, universe))
    if isinstance(term, ast.Apply):
        args = [eval_term(a, state, env, universe) for a in term.args]
        return state.read_location(universe, term.func, args)
    raise StateError("cannot evaluate %r" % (term,))


def eval_cond(cond, state, env, universe):
    if isinstance(cond, ast.Member):
        left = eval_term(cond.left, state, env, universe)
        right = eval_term(cond.right, state, env, universe)
        return universe.member(left, right)
    if isinstance(cond, ast.Eq):
        return (eval_term(cond.left, state, env, universe).uid
                == eval_term(cond.right, state, env, universe).uid)
    if isinstance(cond, ast.Ne):
        return (eval_term(cond.left, state, env, universe).uid
                != eval_term(cond.right, state, env, universe).uid)
    if isinstance(cond, ast.And):
        return (eval_cond(cond.left, state, env, universe)
                and eval_cond(cond.right, state, env, universe))
    if isinstance(cond, ast.Or):
        return (eval_cond(cond.left, state, env, universe)
                or eval_cond(cond.right, state, env, universe))
    if isinstance(cond, ast.Not):
        return not eval_cond(cond.item, state, env, universe)
    raise StateError("cannot evaluate condition %r" % (cond,))


def collect_updates(stmt, state, env, universe, chooser, updates):
    """Walk the enabled part of a statement, appending (kind, key, value).

    kind is "term" (key: name) or "loc" (key: (fname, args tuple)).
    Guarded branches are only entered when their condition holds, so a
    choose() under a false guard is never resolved.
    """
    if isinstance(stmt, ast.Assign):
        value = eval_term(stmt.rhs, state, env, universe)
        if isinstance(stmt.lhs, ast.Name):
            updates.append(("term", stmt.lhs.id, value))
        else:
            args = tuple(eval_term(a, state, env, universe)
                         for a in stmt.lhs.args)
            updates.append(("loc", (stmt.lhs.func, args), value))
    elif isinstance(stmt, ast.If):
        if eval_cond(stmt.cond, state, env, universe):
            collect_updates(stmt.then, state, env, universe, chooser, updates)
        elif stmt.els is not None:
            collect_updates(stmt.els, state, env, universe, chooser, updates)
    elif isinstance(stmt, ast.Let):
        value = eval_term(stmt.source, state, env, universe)
        if stmt.choice:
            value = chooser.pick(value)
        collect_updates(stmt.body, state, env | {stmt.var: value},
                        universe, chooser, updates)
    elif isinstance(stmt, ast.Par):
        for item in stmt.items:
            collect_updates(item, state, env, universe, chooser, updates)
    else:
        raise StateError("cannot execute %r" % (stmt,))


def fire(program, state, universe, chooser):
    """One transition.  Returns the new state, or None when no assignment
    is enabled.  Raises hfset errors and StateError on update clashes."""
    updates = []
    collect_updates(program.body, state, {}, universe, chooser, updates)
    if not updates:
        return None
    new = state.copy()
    seen = {}
    for kind, key, value in updates:
        if kind == "term":
            slot = ("term", key)
        else:
            fname, args = key
            slot = ("loc", fname, tuple(a.uid for a in args))
        if slot in seen and seen[slot].uid != value.uid:
            raise StateError("inconsistent update of %s" % (slot,))
        seen[slot] = value
        if kind == "term":
            new.values[key] = value
        else:
            new.write_location(key[0], key[1], value)
    return new


def initial_state(program, state, universe):
    """Fill unmentioned criticals with the empty set."""
    out = state.copy()
    for name in program.criticals:
        if name not in out.values:
            out.values[name] = universe.empty()
    return out


def _run(program, state, universe, chooser, max_steps):
    """The run loop: (final state, steps taken, outcome)."""
    current = initial_state(program, state, universe)
    steps = 0
    while steps < max_steps:
        try:
            new = fire(program, current, universe, chooser)
        except hfset.EmptyChoiceError:
            return current, steps, EMPTY_CHOICE
        except hfset.HFLimitError:
            return current, steps, LIMIT
        except hfset.HFTypeError:
            return current, steps, TYPE_ERROR
        except StateError:
            return current, steps, CLASH
        if new is None:
            return current, steps, TERMINAL
        current = new
        steps += 1
    return current, steps, BUDGET


def run_to_termination(program, state, universe, seed=0, max_steps=MAX_STEPS,
                       script=None):
    """Returns (final state, steps taken, outcome)."""
    chooser = _Chooser(rng=random.Random(seed) if script is None else None,
                       script=script)
    return _run(program, state, universe, chooser, max_steps)


def enumerate_outcomes(program, state, universe, max_steps=MAX_STEPS,
                       max_paths=64):
    """Brute-force every choice script; returns a list of
    (script, final state, steps, outcome).  Raises StateError if more
    than max_paths paths unfold.

    A script longer than the choices a path consumes is not explored:
    scripts are grown on demand, index by index.
    """
    results = []
    stack = [()]
    while stack:
        script = stack.pop()
        chooser = _Chooser(script=script)
        current, steps, outcome = _run(program, state, universe, chooser,
                                       max_steps)
        results.append((script, current, steps, outcome))
        if len(results) > max_paths:
            raise StateError("more than %d choice paths" % max_paths)
        # fork alternatives at every choice index beyond the script; the
        # positions between the script and the fork ran on default 0 and
        # become explicit zeros in the forked prefix
        for i in range(len(script), len(chooser.widths)):
            prefix = script + (0,) * (i - len(script))
            for alt in range(1, chooser.widths[i]):
                stack.append(prefix + (alt,))
    return results


# -- state files ----------------------------------------------------------

def parse_state(text, program, universe):
    """State file: one entry per line.

        term t = {a, {}}
        loc g({a}, b) = {}

    Blank lines and # comments are ignored.
    """
    functions = dict(program.functions)
    state = State()
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("term "):
            rest = line[5:]
            name, _, value_text = rest.partition("=")
            name = name.strip()
            if name not in program.criticals:
                raise StateError("term %s is not a declared critical" % name)
            if name in state.values:
                raise StateError("duplicate term %s" % name)
            state.values[name] = universe.parse(value_text.strip())
        elif line.startswith("loc "):
            rest = line[4:]
            head, _, value_text = rest.partition("=")
            head = head.strip()
            if "(" not in head or not head.endswith(")"):
                raise StateError("bad location %r" % head)
            fname, _, arg_text = head.partition("(")
            fname = fname.strip()
            if fname not in functions:
                raise StateError("undeclared function %s" % fname)
            args = _split_args(arg_text[:-1])
            if len(args) != functions[fname]:
                raise StateError("arity mismatch for %s" % fname)
            values = tuple(universe.parse(a) for a in args)
            if (fname, tuple(v.uid for v in values)) in state.locations:
                raise StateError("duplicate location %s" % head)
            state.write_location(fname, values,
                                 universe.parse(value_text.strip()))
        else:
            raise StateError("unrecognized state line %r" % line)
    return state


def _split_args(text):
    args = []
    depth = 0
    current = []
    for ch in text:
        if ch == "," and depth == 0:
            args.append("".join(current))
            current = []
            continue
        if ch in "{<":
            depth += 1
        elif ch in "}>":
            depth -= 1
        current.append(ch)
    if current or args:
        args.append("".join(current))
    return [a.strip() for a in args]


def print_state(state):
    lines = []
    for name in sorted(state.values):
        lines.append("term %s = %s"
                     % (name, hfset.format_value(state.values[name])))
    entries = sorted(state.locations.items(),
                     key=lambda kv: (kv[0][0], kv[0][1]))
    for (fname, _), (args, value) in entries:
        lines.append("loc %s(%s) = %s"
                     % (fname, ", ".join(hfset.format_value(a) for a in args),
                        hfset.format_value(value)))
    return "\n".join(lines) + "\n"
