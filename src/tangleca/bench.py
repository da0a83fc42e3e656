"""Step-complexity benchmarks for the compiled set protocols.

Each benchmark family compiles a fixed program, scales one dimension of
the initial state (the number of decoy nodes a protocol has to wade
through, or the number of transitions), runs the automaton, and reads
tick counts per rule-name phase.  Fitted log-log slopes verify the
intended asymptotics:

* union lookup cost is quadratic in the decoy count (every decoy
  parent of the witness member is checked, each check scanning its
  members),
* singleton lookup cost is linear (decoy parents are dismissed in a
  bounded number of ticks each),
* pairing, choice, and condition tests take a constant number of
  ticks regardless of how much committed structure sits nearby (the
  guard of a run of stages under one path condition counts under the
  run's first stage's phase; the operands of the pair and choice
  families are critical terms, read with no stage of their own, so
  each family's stage heads its run and counts the guard's sat tick,
  its own tick and the next round's guard skip, three in all, and the
  singleton and union families count those two guard ticks too),
* total ticks for a run of T transitions stay polynomial in T with a
  small exponent even while the state accumulates; the overhead family
  also reports the largest ratio of one round's ticks to the square of
  the node count at its start (see run_ticks), the paper's quadratic
  step overhead made visible per step, as a report and not a gate.
"""
from __future__ import annotations

import math

from . import asmlang
from . import automaton
from . import compiler
from . import hfset
from . import interpreter

UNION_SIZES = (8, 16, 32, 64)
UNION_WINDOW = (1.6, 2.4)
SINGLETON_SIZES = (4, 8, 16, 32)
SINGLETON_WINDOW = (0.7, 1.3)
CONST_SIZES = (2, 32)
OVERHEAD_SIZES = (4, 8, 16, 32)
OVERHEAD_MAX_EXPONENT = 2.4
BENCH_MAX_TICKS = 2 * 10 ** 6


class BenchResult:
    def __init__(self, name, points, slope, window, ok, detail=""):
        self.name = name
        self.points = points          # [(size, ticks)]
        self.slope = slope            # None for constant-cost families
        self.window = window
        self.ok = ok
        self.detail = detail

    def format(self):
        pts = " ".join("%d:%d" % p for p in self.points)
        if self.slope is None:
            return "%-10s %-4s ticks %s  (constant across sizes)" % (
                self.name, "ok" if self.ok else "FAIL", pts)
        return "%-10s %-4s slope %.3f in [%.2f, %.2f]  ticks %s%s" % (
            self.name, "ok" if self.ok else "FAIL", self.slope,
            self.window[0], self.window[1], pts,
            " " + self.detail if self.detail else "")


def fit_slope(points):
    """Least-squares slope of log(ticks) against log(size)."""
    xs = [math.log(n) for n, _t in points]
    ys = [math.log(t) for _n, t in points]
    n = len(points)
    mx = sum(xs) / n
    my = sum(ys) / n
    denom = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def run_ticks(source, state_text, negative_edges=False):
    """Compile, run to quiescence in deterministic mode, and return
    (per-phase tick counts, peak round ratio).

    Rounds are counted by automaton.RoundCounter at the unit's first
    colour, as `simulate --stats-json` counts them.  The peak round
    ratio is the largest ratio of a round's ticks to the square of
    the node count at its start: the paper's quadratic step overhead,
    measured per ASM step."""
    universe = hfset.Universe(max_depth=64)
    program = asmlang.parse(source)
    unit = compiler.compile_program(program, negative_edges=negative_edges)
    state = interpreter.parse_state(state_text, program, universe)
    graph = unit.initial_graph(state, universe)
    rounds = automaton.RoundCounter(unit.first_color)
    cfg, stats, outcome = automaton.run(automaton.Configuration(graph),
                                        unit.ruleset,
                                        max_ticks=BENCH_MAX_TICKS,
                                        on_tick=rounds)
    if outcome != automaton.QUIESCENT:
        raise RuntimeError("benchmark run did not quiesce: " + outcome)
    color = cfg.tangle.color_of(cfg.tangle.active)
    if color != unit.done_color:
        raise RuntimeError("benchmark run halted in color " + color)
    peak = max((ticks / nodes ** 2 for ticks, nodes in rounds.rounds),
               default=0.0)
    return stats, peak


def _atom_list(n):
    return ["x%d" % i for i in range(1, n + 1)]


def union_case(n):
    """bench_union's program and state at size n: n decoy parents of the
    witness m, each holding m and all scale atoms but one."""
    xs = _atom_list(n)
    source = ("atoms m, q, %s;\ncriticals t, p, w, r;\n"
              "if r = {} then r := t U p\n" % ", ".join(xs))
    decoys = ", ".join(
        "{m, %s}" % ", ".join(x for x in xs if x != xi)
        for xi in xs)
    state = ("term t = {m, %s}\nterm p = {m, q}\nterm w = {%s}\n"
             % (", ".join(xs), decoys))
    return source, state


def bench_union(negative_edges=False):
    """Quadratic: n decoy parents of the witness, each with ~n members.

    Every decoy contains the witness m plus all scale atoms but one, so
    each rejection first marks ~n members; the true union never exists,
    so every decoy is checked before the result is built.
    """
    points = []
    for n in UNION_SIZES:
        stats, _peak = run_ticks(*union_case(n), negative_edges)
        points.append((n, stats.phases.get("union-check", 0)
                       + stats.phases.get("union-build", 0)))
    slope = fit_slope(points)
    ok = UNION_WINDOW[0] <= slope <= UNION_WINDOW[1]
    return BenchResult("union", points, slope, UNION_WINDOW, ok)


def bench_singleton(negative_edges=False):
    """Linear: n decoy parents of the element, each dismissed in O(1)."""
    points = []
    for n in SINGLETON_SIZES:
        xs = _atom_list(n)
        source = ("atoms m, %s;\ncriticals s, w, r;\n"
                  "if r = {} then r := {s}\n" % ", ".join(xs))
        decoys = ", ".join("{m, %s}" % x for x in xs)
        state = "term s = m\nterm w = {%s}\n" % decoys
        stats, _peak = run_ticks(source, state, negative_edges)
        points.append((n, stats.phases.get("singleton", 0)))
    slope = fit_slope(points)
    ok = SINGLETON_WINDOW[0] <= slope <= SINGLETON_WINDOW[1]
    return BenchResult("singleton", points, slope, SINGLETON_WINDOW, ok)


def _const_family(name, source_fmt, state_fmt, phase, negative_edges):
    points = []
    for n in CONST_SIZES:
        xs = _atom_list(n)
        source = source_fmt % ", ".join(xs)
        state = state_fmt % ", ".join(xs)
        stats, _peak = run_ticks(source, state, negative_edges)
        points.append((n, stats.phases.get(phase, 0)))
    ticks = {t for _n, t in points}
    ok = len(ticks) == 1 and points[0][1] > 0
    return BenchResult(name, points, None, None, ok)


def bench_pair(negative_edges=False):
    """Constant: pairing reuses or creates in one tick, regardless of
    how many committed pairs share components with the operands."""
    return _const_family(
        "pair",
        "atoms m, %s;\ncriticals s, w, r;\nif r = {} then r := <s, s>\n",
        "term s = m\nterm w = {%s}\n",
        "pairing", negative_edges)


def bench_choice(negative_edges=False):
    """Constant: one tick picks an element whatever the set's size."""
    return _const_family(
        "choice",
        "atoms %s;\ncriticals t, r;\n"
        "if r = {} then (let x = choose(t) in r := <x, x>)\n",
        "term t = {%s}\n",
        "choice", negative_edges)


def bench_cond(negative_edges=False):
    """Constant: a membership test is one tick whatever the set size."""
    return _const_family(
        "cond",
        "atoms %s;\ncriticals t, r;\n"
        "if x1 in t and r = {} then r := <t, t>\n",
        "term t = {%s}\n",
        "conditional", negative_edges)


def overhead_case(depth):
    """bench_overhead's program and state: count up to a counter nested
    `depth` levels deep, unioning each count into an accumulator."""
    lim = "{}"
    for _ in range(depth):
        lim = "{%s}" % lim
    source = ("criticals cnt, lim, acc;\n"
              "if cnt != lim then "
              "(cnt := {cnt} par acc := {cnt} U acc)\n")
    state = "term lim = %s\n" % lim
    return source, state


def bench_overhead(negative_edges=False):
    """Total ticks for T transitions of an accumulating program stay
    polynomial with a small exponent.

    Each round nests a counter one level deeper and unions it into an
    accumulator, so both the state and the per-round work grow with T.
    """
    points = []
    peak = 0.0
    for t in OVERHEAD_SIZES:
        stats, round_peak = run_ticks(*overhead_case(t), negative_edges)
        points.append((t, stats.total))
        peak = max(peak, round_peak)
    slope = fit_slope(points)
    ok = slope <= OVERHEAD_MAX_EXPONENT
    return BenchResult("overhead", points, slope,
                       (0.0, OVERHEAD_MAX_EXPONENT), ok,
                       detail="(upper bound; round ticks/nodes^2 <= %.3f)"
                       % peak)


FAMILIES = {
    "union": bench_union,
    "singleton": bench_singleton,
    "pair": bench_pair,
    "choice": bench_choice,
    "cond": bench_cond,
    "overhead": bench_overhead,
}


def run_all(negative_edges=False, names=None):
    selected = names or list(FAMILIES)
    return [FAMILIES[name](negative_edges) for name in selected]
