"""Random well-typed program/state generator for differential testing.

Programs are drawn from a grammar biased toward guarded, eventually
quiescent behavior, then filtered by running the reference interpreter:
a case is kept only when it terminates cleanly within a small step
budget from its generated initial state.  Programs that use choice are
additionally required to be confluent (every choice path reaches the
same final state), so a compiled run and an interpreter run can be
compared without aligning their choice sequences.

Location writes are restricted to at most one per program: two writes
to the same function symbol can collide on dynamically equal argument
tuples, where the parallel-update semantics is implementation-defined
ordering here and a hard error there, which a differential corpus must
stay away from.
"""
from __future__ import annotations

from . import asmlang as ast
from . import interpreter
from .hfset import HFError, HFLimitError

ATOM_POOL = ("a", "b", "c")
CRITICAL_POOL = ("t", "p", "q", "w")
LET_VARS = ("x", "y")

DEFAULT_MAX_STEPS = 60
ATTEMPTS = 2000


class GenLimit(Exception):
    """No acceptable case found within the attempt budget."""


class _Gen:
    def __init__(self, rng, allow_choice, force_choice=False):
        self.rng = rng
        self.allow_choice = allow_choice
        self.force_choice = force_choice
        self.atoms = list(ATOM_POOL[:rng.randint(1, len(ATOM_POOL))])
        self.criticals = list(
            CRITICAL_POOL[:rng.randint(2, len(CRITICAL_POOL))])
        self.functions = []
        if rng.random() < 0.5:
            self.functions.append(("g", rng.randint(1, 2)))
        self.wrote_location = False

    def name_term(self, env):
        pool = list(env) + self.criticals + self.atoms
        return ast.Name(self.rng.choice(pool))

    def term(self, env, depth):
        r = self.rng.random()
        if depth <= 0 or r < 0.35:
            return self.name_term(env)
        if r < 0.45:
            return ast.EmptySet()
        if r < 0.65:
            return ast.Singleton(self.term(env, depth - 1))
        if r < 0.85:
            return ast.UnionTerm(self.term(env, depth - 1),
                                 self.term(env, depth - 1))
        if r < 0.95 or not self.functions:
            return ast.PairTerm(self.term(env, depth - 1),
                                self.term(env, depth - 1))
        fname, arity = self.rng.choice(self.functions)
        return ast.Apply(fname, tuple(self.term(env, depth - 1)
                                      for _ in range(arity)))

    def cond(self, env, depth):
        r = self.rng.random()
        if depth <= 0 or r < 0.55:
            kind = self.rng.random()
            left = self.term(env, 1)
            right = self.term(env, 1)
            if kind < 0.4:
                return ast.Member(left, right)
            if kind < 0.7:
                return ast.Eq(left, right)
            return ast.Ne(left, right)
        if r < 0.7:
            return ast.Not(self.cond(env, depth - 1))
        if r < 0.85:
            return ast.And(self.cond(env, depth - 1),
                           self.cond(env, depth - 1))
        return ast.Or(self.cond(env, depth - 1),
                      self.cond(env, depth - 1))

    def assign(self, env):
        if (self.functions and not self.wrote_location
                and self.rng.random() < 0.3):
            self.wrote_location = True
            fname, arity = self.functions[0]
            lhs = ast.Apply(fname, tuple(self.term(env, 1)
                                         for _ in range(arity)))
            return ast.Assign(lhs, self.term(env, 2))
        return ast.Assign(ast.Name(self.rng.choice(self.criticals)),
                          self.term(env, 2))

    def statement(self, env, depth, taken):
        """taken: criticals already assigned in this parallel context."""
        r = self.rng.random()
        if depth <= 0 or r < 0.35:
            for _ in range(8):
                a = self.assign(env)
                if (not isinstance(a.lhs, ast.Name)
                        or a.lhs.id not in taken):
                    if isinstance(a.lhs, ast.Name):
                        taken.add(a.lhs.id)
                    return a
            raise GenLimit("no free critical for assignment")
        if r < 0.75:
            cond = self.cond(env, 1)
            then = self.statement(env, depth - 1, set(taken))
            els = (self.statement(env, depth - 1, set(taken))
                   if self.rng.random() < 0.5 else None)
            return ast.If(cond, then, els)
        if r < 0.87 and self.allow_choice:
            var = next((v for v in LET_VARS if v not in env), None)
            if var is not None:
                src = self.term(env, 1)
                body = self.statement(env | {var: None}, depth - 1, taken)
                return ast.Let(var, True, src, body)
        if r < 0.95:
            var = next((v for v in LET_VARS if v not in env), None)
            if var is not None:
                src = self.term(env, 1)
                body = self.statement(env | {var: None}, depth - 1, taken)
                return ast.Let(var, False, src, body)
        items = []
        for _ in range(self.rng.randint(2, 3)):
            try:
                items.append(self.statement(env, 0, taken))
            except GenLimit:
                break
        if len(items) < 2:
            return self.statement(env, 0, taken)
        return ast.Par(tuple(items))

    def program(self):
        if self.force_choice:
            # a choice from a singleton is trivially confluent, which
            # is what the differential corpus needs; wider sources are
            # still tried occasionally and survive only when every
            # path happens to agree
            var = LET_VARS[0]
            if self.rng.random() < 0.8:
                source = ast.Singleton(self.term({}, 1))
            else:
                source = self.term({}, 1)
            inner = self.statement({var: None}, 2, set())
            body = ast.If(self.cond({}, 1),
                          ast.Let(var, True, source, inner), None)
        else:
            body = ast.If(self.cond({}, 1), self.statement({}, 2, set()),
                          None)
        return ast.Program(tuple(self.atoms), tuple(self.functions),
                           tuple(self.criticals), body)


def random_value(rng, universe, atoms, depth, width=3):
    """A small random hereditarily finite value."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        if atoms and r < 0.2:
            return universe.atom(rng.choice(atoms))
        return universe.empty()
    if r < 0.45:
        return universe.pair(random_value(rng, universe, atoms, depth - 1),
                             random_value(rng, universe, atoms, depth - 1))
    members = [random_value(rng, universe, atoms, depth - 1)
               for _ in range(rng.randint(0, width))]
    return universe.set_of(members)


def random_state(rng, program, universe):
    state = interpreter.State()
    for name in program.criticals:
        state.values[name] = random_value(rng, universe,
                                          program.atoms, depth=2)
    for fname, arity in program.functions:
        for _ in range(rng.randint(0, 2)):
            args = tuple(random_value(rng, universe, program.atoms, 1)
                         for _ in range(arity))
            state.write_location(fname, args,
                                 random_value(rng, universe,
                                              program.atoms, 1))
    return state


def _uses_choice(stmt):
    if isinstance(stmt, ast.Let):
        return stmt.choice or _uses_choice(stmt.body)
    if isinstance(stmt, ast.If):
        return (_uses_choice(stmt.then)
                or (stmt.els is not None and _uses_choice(stmt.els)))
    if isinstance(stmt, ast.Par):
        return any(_uses_choice(i) for i in stmt.items)
    return False


def acceptable(program, state, universe, max_steps=DEFAULT_MAX_STEPS,
               require_choice=None):
    """Keep a case iff it terminates cleanly; choice must be confluent.

    Returns the number of interpreter steps, or None to reject.
    """
    uses_choice = _uses_choice(program.body)
    if require_choice is not None and uses_choice != require_choice:
        return None
    try:
        if uses_choice:
            outcomes = interpreter.enumerate_outcomes(
                program, state, universe, max_steps=max_steps)
            finals = set()
            steps = 0
            for _script, fstate, nsteps, outcome in outcomes:
                if outcome != interpreter.TERMINAL:
                    return None
                finals.add(fstate)
                steps = max(steps, nsteps)
            if len(finals) != 1 or steps == 0:
                return None
            return steps
        final, steps, outcome = interpreter.run_to_termination(
            program, state, universe, max_steps=max_steps)
        if outcome != interpreter.TERMINAL or steps == 0:
            return None
        return steps
    except (HFError, interpreter.StateError):
        return None


def generate_case(rng, universe, allow_choice=False,
                  max_steps=DEFAULT_MAX_STEPS, require_choice=None):
    """One accepted (program, state) pair, by rejection sampling."""
    for _ in range(ATTEMPTS):
        try:
            gen = _Gen(rng, allow_choice, force_choice=bool(require_choice))
            program = gen.program()
        except GenLimit:
            continue
        if ast.validate(program):
            continue
        try:
            state = random_state(rng, program, universe)
        except HFLimitError:
            continue    # a value past the universe's limits
        if acceptable(program, state, universe, max_steps=max_steps,
                      require_choice=require_choice) is not None:
            return program, state
    raise GenLimit("no acceptable case in %d attempts" % ATTEMPTS)
