"""Command-line interface.

Subcommands:
  interpret  run a program on a state with the reference interpreter
  compile    lower a program to a rule set and print or save it
  simulate   compile and run the automaton, printing the final state
  difftest   random differential testing of automaton vs interpreter
  bench      step-complexity benchmarks with pass/fail windows

simulate opens its --trace and --stats-json files, and checks the
--dot-prefix directory, before the first tick, so a path it cannot write
fails at once; it writes each trace entry and each --dot-every snapshot
as the run takes it, and the stats also after an invariant violation or
a value past --max-depth.

difftest always checks invariants; a violation is reported as that
schedule's disagreement.

Exit codes: 0 success; 1 disagreement or failed benchmark window;
2 bad input; 3 step/tick budget exhausted, simulate met a value nested
deeper than --max-depth (checking or decoding), or difftest's case
generator found no acceptable case within its attempts (and no case run
so far disagreed); 4 invariant violation.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

from . import asmlang
from . import automaton
from . import bench
from . import compiler
from . import corpusgen
from . import difftest
from . import hfset
from . import interpreter
from . import kernel
from . import pattern
from . import tangle

OK, FAIL, BADINPUT, EXHAUSTED, INVARIANT = 0, 1, 2, 3, 4


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit2("cannot read %s: %s" % (path, exc))


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit2("cannot write %s: %s" % (path, exc))


def _open(path):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SystemExit2("cannot write %s: %s" % (path, exc))


class SystemExit2(Exception):
    """Input problem: message printed to stderr, exit code 2."""


def _load_program(path):
    program = asmlang.parse(_read(path))
    violations = asmlang.validate(program)
    if violations:
        raise SystemExit2("invalid program:\n  " + "\n  ".join(violations))
    return program


def _load_case(args, universe):
    program = _load_program(args.program)
    try:
        if args.state:
            state = interpreter.parse_state(_read(args.state), program,
                                            universe)
        else:
            state = interpreter.State()
        state = interpreter.initial_state(program, state, universe)
    except hfset.HFLimitError as exc:
        raise SystemExit2("state does not fit --max-depth %d: %s"
                          % (args.max_depth, exc))
    return program, state


def cmd_interpret(args):
    universe = hfset.Universe(max_depth=args.max_depth)
    program, state = _load_case(args, universe)
    final, steps, outcome = interpreter.run_to_termination(
        program, state, universe, seed=args.seed,
        max_steps=args.max_steps)
    sys.stdout.write(interpreter.print_state(final))
    print("outcome %s after %d steps" % (outcome, steps))
    if outcome == interpreter.BUDGET:
        return EXHAUSTED
    return OK


def _compile(program, args):
    """The program compiled in the edge mode --negative-edges picks."""
    try:
        return compiler.compile_program(
            program, negative_edges=args.negative_edges)
    except compiler.CompileError as exc:
        raise SystemExit2("compile error: %s" % exc)


def cmd_compile(args):
    unit = _compile(_load_program(args.program), args)
    text = pattern.serialize_ruleset(unit.ruleset)
    if args.output:
        _write(args.output, text)
        print("%d rules -> %s" % (len(unit.ruleset.rules), args.output))
    else:
        sys.stdout.write(text)
    return OK


def _trace_entry(cfg, applied):
    """One --trace entry: tick, rule and binding, then a snapshot of the
    tangle after the tick."""
    binds = " ".join("%s=%d" % pair for pair in
                     sorted(zip(applied.rule.names, applied.binding)))
    return "tick %d rule %s %s\n%s\n\n" % (
        cfg.tick, applied.rule.name, binds,
        cfg.tangle.snapshot().rstrip("\n"))


def _too_deep(cfg, exc, args):
    print("error: tick %d: %s (--max-depth %d)"
          % (cfg.tick, exc, args.max_depth), file=sys.stderr)
    return EXHAUSTED


def cmd_simulate(args):
    universe = hfset.Universe(max_depth=args.max_depth)
    program, state = _load_case(args, universe)
    unit = _compile(program, args)
    graph = unit.initial_graph(state, universe)
    mode = automaton.RANDOM if args.random else automaton.DETERMINISTIC
    cfg = automaton.Configuration(graph, seed=args.seed, mode=mode)
    if args.dot_every:
        directory = os.path.dirname(args.dot_prefix) or "."
        if not os.path.isdir(directory) or not os.access(directory, os.W_OK):
            raise SystemExit2("cannot write %s: %s is not a writable "
                              "directory" % (args.dot_prefix, directory))

    violation = limit = None
    try:
        with contextlib.ExitStack() as files:
            trace = stats_json = None
            if args.trace:
                trace = files.enter_context(_open(args.trace))
            if args.stats_json:
                stats_json = files.enter_context(_open(args.stats_json))

            rounds = automaton.RoundCounter(unit.first_color)

            def on_tick(c, applied):
                rounds(c, applied)
                if trace is not None:
                    trace.write(_trace_entry(c, applied))
                if args.dot_every and c.tick % args.dot_every == 0:
                    _write("%s-%06d.dot" % (args.dot_prefix, c.tick),
                           c.tangle.to_dot())

            try:
                cfg, stats, outcome = automaton.run(
                    cfg, unit.ruleset, max_ticks=args.max_ticks,
                    check_invariants=args.check_invariants,
                    idle_colors=unit.idle_colors, universe=universe,
                    on_tick=on_tick)
            except automaton.InvariantViolation as exc:
                violation, stats = exc, exc.stats
            except hfset.HFLimitError as exc:
                limit, stats = exc, exc.stats
            if stats_json is not None:
                report = dict(stats.as_dict(), rounds=len(rounds.rounds),
                              max_round_ticks=rounds.max_ticks())
                stats_json.write(json.dumps(report, indent=2,
                                            sort_keys=True) + "\n")
    except OSError as exc:
        # only the open --trace and --stats-json files are written here
        raise SystemExit2("cannot write --trace or --stats-json: %s" % exc)
    if violation is not None:
        print("invariant violation: %s" % violation, file=sys.stderr)
        return INVARIANT
    if limit is not None:
        return _too_deep(cfg, limit, args)
    if outcome != automaton.QUIESCENT:
        print("outcome %s after %d ticks" % (outcome, stats.total))
        return EXHAUSTED
    classification = unit.classify(cfg.tangle)
    if classification == interpreter.TERMINAL:
        try:
            final = unit.final_state(cfg.tangle, universe)
        except hfset.HFLimitError as exc:
            return _too_deep(cfg, exc, args)
        sys.stdout.write(interpreter.print_state(final))
    print("outcome %s after %d ticks" % (classification, stats.total))
    sys.stdout.write(stats.format())
    return OK


def cmd_difftest(args):
    universe = hfset.Universe(max_depth=args.max_depth)
    rng = random.Random(args.seed)
    failures = ran = 0
    for i in range(args.count):
        try:
            program, state = corpusgen.generate_case(
                rng, universe, allow_choice=args.allow_choice,
                require_choice=True if args.only_choice else None,
                max_steps=args.max_steps)
        except corpusgen.GenLimit as exc:
            print("stopped before case%03d: %s" % (i, exc))
            break
        ran += 1
        result = difftest.run_case(
            program, state, universe,
            seeds=tuple(range(1, args.runs + 1)),
            negative_edges=args.negative_edges,
            max_ticks=args.max_ticks, check_invariants=True,
            label="case%03d" % i)
        if result.ok:
            print("ok   case%03d (%d ticks)" % (i, result.ticks))
        else:
            failures += 1
            for d in result.disagreements:
                print("FAIL " + d)
            if args.verbose:
                print(asmlang.pretty_print(program))
                sys.stdout.write(interpreter.print_state(state))
    print("%d/%d cases agree" % (ran - failures, ran))
    if failures:
        return FAIL
    return EXHAUSTED if ran < args.count else OK


def cmd_bench(args):
    names = args.family or None
    for name in names or ():
        if name not in bench.FAMILIES:
            raise SystemExit2("unknown benchmark family %r (have: %s)"
                              % (name, ", ".join(sorted(bench.FAMILIES))))
    results = bench.run_all(negative_edges=args.negative_edges,
                            names=names)
    all_ok = True
    for r in results:
        print(r.format())
        all_ok = all_ok and r.ok
    print("kernel: %s" % kernel.KERNEL_NAME)
    return OK if all_ok else FAIL


def _int_at_least(low, what):
    """argparse type for ints of at least `low`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be %s: %r" % (what, text))
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def build_parser():
    p = argparse.ArgumentParser(
        prog="tangleca",
        description="set-rewriting automaton compiler and toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, state=True):
        sp.add_argument("program", help="program file (.asml)")
        if state:
            sp.add_argument("state", nargs="?",
                            help="initial state file (.state); "
                                 "defaults to all-empty criticals")
        sp.add_argument("--max-depth", type=_non_negative_int, default=64,
                        help="value nesting limit (default 64)")

    sp = sub.add_parser("interpret", help="run the reference interpreter")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-steps", type=_positive_int,
                    default=interpreter.MAX_STEPS)
    sp.set_defaults(func=cmd_interpret)

    sp = sub.add_parser("compile", help="lower a program to a rule set")
    sp.add_argument("program")
    sp.add_argument("-o", "--output", help="write rule set to a file")
    sp.add_argument("--negative-edges", action="store_true")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("simulate", help="compile and run the automaton")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--random", action="store_true",
                    help="seeded-random tie-breaking (default: the first "
                         "maximal match in rule order, then join order)")
    sp.add_argument("--max-ticks", type=_positive_int,
                    default=automaton.DEFAULT_MAX_TICKS)
    sp.add_argument("--trace", metavar="FILE",
                    help="write a full per-tick trace")
    sp.add_argument("--stats-json", metavar="PATH",
                    help="write tick counts (total, per phase, per rule), "
                         "the number of matches found, the number of "
                         "deterministic ticks settled without the "
                         "maximality filter, and the idle-tick committed "
                         "checks of --check-invariants (idle_checks) and "
                         "how many fell back to the full check "
                         "(fallbacks) and the nodes they decoded again "
                         "(redecoded), the rounds (one per entry into "
                         "the program's first cycle colour: one per ASM "
                         "step, then a last one that fires nothing) and "
                         "the most ticks one round took (max_round_ticks) "
                         "as JSON")
    sp.add_argument("--dot-every", type=_positive_int, metavar="K",
                    help="write a graphviz snapshot every K ticks")
    sp.add_argument("--dot-prefix", default="tangle",
                    help="snapshot filename prefix (default 'tangle')")
    sp.add_argument("--negative-edges", action="store_true")
    sp.add_argument("--check-invariants", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("difftest",
                        help="random differential testing vs interpreter")
    sp.add_argument("--count", type=_positive_int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--runs", type=_non_negative_int, default=2,
                    help="random-schedule runs per case (default 2)")
    sp.add_argument("--allow-choice", action="store_true")
    sp.add_argument("--only-choice", action="store_true")
    sp.add_argument("--negative-edges", action="store_true")
    sp.add_argument("--max-steps", type=_positive_int,
                    default=corpusgen.DEFAULT_MAX_STEPS)
    sp.add_argument("--max-ticks", type=_positive_int,
                    default=difftest.DEFAULT_MAX_TICKS)
    sp.add_argument("--max-depth", type=_non_negative_int, default=64)
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(func=cmd_difftest)

    sp = sub.add_parser("bench", help="step-complexity benchmarks")
    sp.add_argument("family", nargs="*",
                    help="benchmark families (default: all of %s)"
                         % ", ".join(sorted(bench.FAMILIES)))
    sp.add_argument("--negative-edges", action="store_true")
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return BADINPUT
    except (asmlang.ParseError, hfset.HFParseError,
            interpreter.StateError, tangle.TangleError,
            pattern.RuleError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return BADINPUT


if __name__ == "__main__":
    sys.exit(main())
