"""Benchmark of tangleca: end-to-end metrics per workload, and a traced
run that splits a pass into per-layer times and counts.

    python3 perfbench/run.py                      # every workload in turn
    python3 perfbench/run.py --trace 1            # every workload, traced
    python3 perfbench/run.py --workload union --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports `tangleca` from
`src/` and nothing else.  One workload runs in one process; with no
`--workload` each one runs in a child process of its own, one after
another, so `peak_rss_mb` belongs to one workload.

A pass parses every case, then hands it to `difftest.run_case`, which
runs the interpreter as the oracle, compiles, encodes, runs the automaton
once per schedule, decodes and compares.  Passes repeat until `--seconds`
is spent; pass timings are medians over passes.  Every pass must repeat the
first one's tick count, rule count, final graph sizes, applied-rule
sequence and final states exactly, and every run must agree with the
interpreter, or the result reads `"correct": false` and the exit code
is 1.

Every time is read from the clock of the benchmark's one thread
(`time.thread_time`; set-up from `time.process_time` of the set-up
process).  The program runs on that thread and does no I/O while timed,
so this is its wall time less the spells in which the shared host ran
something else on its core: those took 15% of a `union` pass, in gaps of
up to tens of milliseconds, and set the tick tail.

The host's speed also swings by up to 2x for minutes at a time, so
`--trace 0` scales every timing to a reference speed.  Every
`PROBE_GAP_S` of a pass, at a tick or before a compile, the benchmark
times one walk of a fixed object graph (`Reference`) and leaves that
time out of the pass.  The pass time is multiplied by `REFERENCE_WALK_S`
over the mean walk time of the pass; each tick interval and each compile
by `REFERENCE_WALK_S` over the mean of the two walks around it, since
the host's slow spells can be shorter than a pass.  The reported seconds
are therefore seconds on a host on which one walk takes
`REFERENCE_WALK_S`; the unscaled pass time is printed beside them.  The
tick after a walk is left out of the tick samples, since the walk
evicted part of the program's working set, as is the first tick of each
run, which has no tick before it.  The tick percentiles pool the ticks
of every pass of the run.

Counts and tick times are taken by wrapping `automaton.run` (to pass an
`on_tick` hook) and `compiler.compile_program`: `difftest` looks both up
as module attributes at call time.  `--trace 1` also wraps the layer
functions listed in `TRACED` the same way, keeps one span per call in
memory, and reports per-layer seconds (self time where the name says
so) plus `trace.overhead`, the traced pass time over the untraced pass
time measured alternately in the same process.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name each
metric with its unit, the kernel and the Python version.  `--out FILE`
appends the full record, kernel and Python version included, as one
JSON line; `perfbench/compare.py` compares two such files.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter, thread_time as clock

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

if not (SRC / "tangleca" / "__init__.py").is_file():
    sys.exit("perfbench: no tangleca sources under %s" % SRC)
sys.path.insert(0, str(SRC))

from tangleca import (asmlang, automaton, compiler, difftest,  # noqa: E402
                      hfset, interpreter, kernel, pattern, tangle)

if not pathlib.Path(asmlang.__file__).resolve().is_relative_to(SRC):
    sys.exit("perfbench: imported tangleca from outside %s" % SRC)

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNION_N = 64
ACCUMULATE_DEPTH = 56
DIFFTEST_CORPUS = SRC / "tangleca" / "corpus"
DIFFTEST_FROZEN = HERE / "cases"
DIFFTEST_COUNTS = (20, 60)   # committed corpus, frozen generated cases
MAX_DEPTH = 64
SETUP_SAMPLES = 11
DEFAULT_SECONDS = SPEC["run_seconds"]

# The package's own functions, looked up before any wrapper is installed.
REAL_RUN = automaton.run
REAL_COMPILE = compiler.compile_program
REAL_ENUMERATE = kernel.enumerate_matches
REAL_FINAL_STATE = compiler.CompilationUnit.final_state

PROBE_GAP_S = 0.025         # pass time between two reference walks
REFERENCE_WALK_S = 0.0015   # one walk on the host the baseline was taken on
SETUP_WALKS = 15


class Reference:
    """A fixed graph of slotted objects, walked depth-first to time the host.

    The walk does what the program's inner loops do (attribute reads,
    dict lookups, list pushes and pops over a working set of a few
    hundred kilobytes) and allocates one list, so it never triggers the
    collector on the program's objects.
    """

    class Node:
        __slots__ = ("key", "out", "mark")

        def __init__(self, key):
            self.key = key
            self.out = ()
            self.mark = 0

    def __init__(self, size=5000):
        nodes = [self.Node(i * 7919 % 10007) for i in range(size)]
        for i, node in enumerate(nodes):
            node.out = (nodes[i * 3 % size], nodes[i * 5 % size],
                        nodes[(i + 11) % size])
        self.nodes = nodes
        self.index = {node.key: node for node in nodes}
        self.epoch = 0

    def walk(self):
        """CPU seconds one walk over every node takes."""
        start = clock()
        self.epoch += 1
        epoch, index = self.epoch, self.index
        stack = [self.nodes[0]]
        while stack:
            node = stack.pop()
            if node.mark != epoch:
                node.mark = epoch
                stack.extend(index[node.key].out)
        return clock() - start


@dataclass
class Case:
    label: str
    source: str
    state_text: str


@dataclass
class Workload:
    name: str
    cases: list
    edge_modes: tuple           # negative_edges values
    seeds: tuple                # one random schedule per seed
    check_invariants: bool
    require_done: bool          # must halt in the unit's done color


def union_case(n):
    """`bench.bench_union`'s program and state at size n."""
    xs = ["x%d" % i for i in range(1, n + 1)]
    source = ("atoms m, q, %s;\ncriticals t, p, w, r;\n"
              "if r = {} then r := t U p\n" % ", ".join(xs))
    decoys = ", ".join("{m, %s}" % ", ".join(x for x in xs if x != xi)
                       for xi in xs)
    state = ("term t = {m, %s}\nterm p = {m, q}\nterm w = {%s}\n"
             % (", ".join(xs), decoys))
    return Case("union-%d" % n, source, state)


def accumulate_case(depth):
    """`bench.bench_overhead`'s program and state at the given depth."""
    lim = "{}"
    for _ in range(depth):
        lim = "{%s}" % lim
    source = ("criticals cnt, lim, acc;\n"
              "if cnt != lim then (cnt := {cnt} par acc := {cnt} U acc)\n")
    return Case("accumulate-%d" % depth, source, "term lim = %s\n" % lim)


def read_cases(directory, glob):
    return [Case(p.stem, p.read_text(), p.with_suffix(".state").read_text())
            for p in sorted(directory.glob(glob))]


def load_workload(name, seed):
    """The workload's cases; the seed picks difftest's random schedules.

    union and accumulate run fixed inputs on the deterministic schedule
    only, so the seed does not change them.
    """
    if name == "union":
        return Workload(name, [union_case(UNION_N)], (False,), (),
                        False, True)
    if name == "accumulate":
        return Workload(name, [accumulate_case(ACCUMULATE_DEPTH)], (False,),
                        (), False, True)
    corpus = read_cases(DIFFTEST_CORPUS, "*.asml")
    frozen = read_cases(DIFFTEST_FROZEN, "gen-*.asml")
    if (len(corpus), len(frozen)) != DIFFTEST_COUNTS:
        sys.exit("perfbench: expected %d corpus and %d frozen cases, found "
                 "%d and %d" % (DIFFTEST_COUNTS + (len(corpus), len(frozen))))
    return Workload(name, corpus + frozen, (False, True),
                    (2 * seed + 1, 2 * seed + 2), True, False)


def set_up(name, seed):
    """Load the workload and parse every input once: what `setup_s` times."""
    wl = load_workload(name, seed)
    for case in wl.cases:
        universe = hfset.Universe(max_depth=MAX_DEPTH)
        program = asmlang.parse(case.source)
        interpreter.parse_state(case.state_text, program, universe)
    return wl


def measure_setup(name, seed):
    """Median, over fresh processes, of the CPU seconds from process start
    to the end of set-up.

    Each process walks the `Reference` right after set-up; its time is
    scaled to the reference speed like the passes' timings.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60)
        cpu, walk = map(float, proc.stdout.split()[-2:])
        samples.append(cpu * REFERENCE_WALK_S / walk)
    return statistics.median(samples)


def setup_probe(name, seed):
    """Set up, then print the process's CPU seconds so far and the mean of
    a few walks."""
    set_up(name, seed)
    cpu = time.process_time()
    reference = Reference()
    walks = [reference.walk() for _ in range(SETUP_WALKS)]
    print(cpu, statistics.fmean(walks))


def round_trip_errors(wl):
    """Inputs that do not print back through pretty_print / print_state."""
    errors = []
    for case in wl.cases:
        universe = hfset.Universe(max_depth=MAX_DEPTH)
        program = asmlang.parse(case.source)
        if asmlang.parse(asmlang.pretty_print(program)) != program:
            errors.append("%s: program does not round-trip" % case.label)
        state = interpreter.parse_state(case.state_text, program, universe)
        again = interpreter.parse_state(interpreter.print_state(state),
                                        program, universe)
        if again != state:
            errors.append("%s: state does not round-trip" % case.label)
    return errors


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    for mod, attr, value in replacements:
        setattr(mod, attr, value)
    try:
        yield
    finally:
        for mod, attr, value in saved:
            setattr(mod, attr, value)


class Recorder:
    """Tick times, counts, outcomes and a digest of the runs of one pass.

    The digest covers each run's applied-rule sequence, its outcome and,
    on clean termination, its printed final state, so two passes that
    agree on it behaved identically.

    Given a `Reference`, it also walks it every `PROBE_GAP_S`, at a tick
    or before a compile: `walks` holds the walk times and `paused` their
    sum.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.walks = array("d")
        self.paused = 0.0
        self.next_walk = 0.0
        self.intervals = array("d")     # seconds between consecutive ticks
        self.interval_walks = array("l")    # walks made before each one
        self.ticks = 0
        self.rules = 0
        self.compiles = array("d")      # seconds per compile_program call
        self.compile_walks = array("l")     # walks made before each one
        self.final_nodes = 0
        self.final_edges = 0
        self.halts = []                 # (outcome, halting color, done color)
        self.digest = hashlib.sha256()
        self.unit = None

    def walk_if_due(self, now):
        """Walk the reference if one is given and due; True if it walked."""
        if self.reference is None or now < self.next_walk:
            return False
        self.walks.append(self.reference.walk())
        end = clock()
        self.paused += end - now
        self.next_walk = end + PROBE_GAP_S
        return True

    def compile_program(self, *args, **kwargs):
        self.walk_if_due(clock())
        start = clock()
        unit = REAL_COMPILE(*args, **kwargs)
        self.compiles.append(clock() - start)
        self.compile_walks.append(len(self.walks))
        self.rules += len(unit.ruleset.rules)
        self.unit = unit
        return unit

    def run(self, cfg, rules, **kwargs):
        intervals = self.intervals
        applied_rules = array("l")
        last = 0.0
        # No sample for the first tick (it has no tick before it) or for
        # the tick after a walk.
        skip = True

        def on_tick(_cfg, applied):
            nonlocal last, skip
            now = clock()
            if not skip:
                intervals.append(now - last)
                self.interval_walks.append(len(self.walks))
            skip = False
            last = now
            applied_rules.append(applied.rule_index)
            if self.walk_if_due(now):
                last = clock()
                skip = True

        cfg, stats, outcome = REAL_RUN(cfg, rules, on_tick=on_tick, **kwargs)
        graph = cfg.tangle
        self.ticks += stats.total
        self.final_nodes += graph.node_count()
        self.final_edges += graph.edge_count()
        halt = self.unit.classify(graph)
        self.halts.append((halt, graph.color_of(graph.active),
                           self.unit.done_color))
        self.digest.update(applied_rules.tobytes())
        self.digest.update(halt.encode() + b"\0")
        return cfg, stats, outcome

    def scaled(self, times, walks_before):
        """Each time scaled by the mean of the two walks around it."""
        walks, last = self.walks, len(self.walks) - 1
        if not walks:
            return times
        return array("d", (
            t * 2 * REFERENCE_WALK_S / (walks[max(k - 1, 0)]
                                        + walks[min(k, last)])
            for t, k in zip(times, walks_before)))

    def signature(self):
        return (self.ticks, self.rules, self.final_nodes, self.final_edges,
                self.digest.hexdigest())

    def replacements(self):
        """(span name or None, owner, attribute, replacement) quadruples."""
        def final_state(unit, graph, universe):
            state = REAL_FINAL_STATE(unit, graph, universe)
            self.digest.update(interpreter.print_state(state).encode())
            return state

        return [("automaton.run", automaton, "run", self.run),
                ("compiler.compile_program", compiler, "compile_program",
                 self.compile_program),
                (None, compiler.CompilationUnit, "final_state", final_state)]


class Tracer:
    """In-memory spans (name, start, end, parent index) at layer calls."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                counts[count] += len(result)
            return result
        return traced

    def seconds(self):
        """Total and self seconds per span name."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
            calls[name] += 1
        return total, own, calls


def _enumerate_all(*args, **kwargs):
    # Drained into a list so the kernel's time is one contiguous span;
    # match_all consumes every match anyway, in the same order.
    return list(REAL_ENUMERATE(*args, **kwargs))


# (span name, module, attribute, counter fed with len(result) or None)
TRACED = (
    ("asmlang.parse", asmlang, "parse", None),
    ("interpreter.parse_state", interpreter, "parse_state", None),
    ("interpreter.oracle", interpreter, "run_to_termination", None),
    ("difftest.run_case", difftest, "run_case", None),
    ("tangle.encode", tangle, "encode", None),
    ("tangle.decode", tangle, "decode", None),
    ("tangle.decode_locations", tangle, "decode_locations", None),
    ("tangle.check_invariants", tangle, "check_invariants", None),
    ("pattern.match_all", pattern, "match_all", None),
    ("pattern.maximality_filter", pattern, "maximality_filter",
     "pattern.matches_kept"),
    ("automaton.select_match", automaton, "select_match", None),
    ("pattern.apply", pattern, "apply", None),
)


def tracer_replacements(tracer, recorder):
    out = [(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
           for name, mod, attr, count in TRACED]
    out.append((kernel, "enumerate_matches",
                tracer.wrap("kernel.enumerate_matches", _enumerate_all,
                            "kernel.matches")))
    out += [(mod, attr, fn if name is None else tracer.wrap(name, fn))
            for name, mod, attr, fn in recorder.replacements()]
    return out


def layer_metrics(tracer, ticks):
    total, own, calls = tracer.seconds()
    matches = tracer.counts["kernel.matches"]
    kept = tracer.counts["pattern.matches_kept"]
    return {
        "kernel.enumerate_s": total["kernel.enumerate_matches"],
        "kernel.matches": matches,
        "pattern.match_all_self_s": own["pattern.match_all"],
        "pattern.maximality_filter_s": total["pattern.maximality_filter"],
        "pattern.matches_kept": kept,
        "pattern.kept_frac": kept / matches,
        "automaton.select_s": total["automaton.select_match"],
        "automaton.applied_frac": ticks / matches,
        "pattern.apply_s": total["pattern.apply"],
        "tangle.decode_s": (total["tangle.decode"]
                            + total["tangle.decode_locations"]),
        "tangle.check_invariants_s": total["tangle.check_invariants"],
        "tangle.check_invariants_calls": calls["tangle.check_invariants"],
        "compiler.compile_program_s": total["compiler.compile_program"],
        "tangle.encode_s": total["tangle.encode"],
        "asmlang.parse_s": total["asmlang.parse"],
        "interpreter.parse_state_s": total["interpreter.parse_state"],
        "interpreter.oracle_s": total["interpreter.oracle"],
        "automaton.run_self_s": own["automaton.run"],
        "difftest.run_case_self_s": own["difftest.run_case"],
    }


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


@dataclass
class Pass:
    traced: bool
    metrics: dict
    signature: tuple
    attempted: int
    failed: int
    problems: list
    intervals: array            # scaled tick intervals, seconds
    seconds: float              # the pass's elapsed time, walks included


def run_cases(wl):
    """Every (case, edge mode) through difftest.run_case.

    A run is one (case, edge mode, schedule); returns (attempted runs,
    failed runs, problems).  A case that raises fails all its schedules.
    """
    schedules = 1 + len(wl.seeds)
    attempted = failed = 0
    problems = []
    for negative_edges in wl.edge_modes:
        for case in wl.cases:
            label = case.label + ("+neg" if negative_edges else "")
            attempted += schedules
            try:
                universe = hfset.Universe(max_depth=MAX_DEPTH)
                program = asmlang.parse(case.source)
                state = interpreter.parse_state(case.state_text, program,
                                                universe)
                result = difftest.run_case(
                    program, state, universe, seeds=wl.seeds,
                    negative_edges=negative_edges,
                    check_invariants=wl.check_invariants, label=label)
            except Exception:
                failed += schedules
                problems.append("%s raised:\n%s"
                                % (label, traceback.format_exc()))
                continue
            failed += len({d.split(":", 1)[0]
                           for d in result.disagreements})
            problems.extend(result.disagreements)
    return attempted, failed, problems


def timed_pass(wl, traced, reference=None):
    """One pass; with a `Reference`, timings are scaled to its speed."""
    rec = Recorder(reference)
    tracer = Tracer() if traced else None
    gc.collect()    # every pass starts from the same heap
    with patched(tracer_replacements(tracer, rec) if traced
                 else [r[1:] for r in rec.replacements()]):
        elapsed = perf_counter()
        start = clock()
        rec.next_walk = start + PROBE_GAP_S
        attempted, failed, problems = run_cases(wl)
        wall = clock() - start - rec.paused
    scale = (REFERENCE_WALK_S / statistics.fmean(rec.walks) if rec.walks
             else 1.0)
    if wl.require_done:
        problems += ["%s halted in %s (%s), not %s" % (wl.name, color, halt,
                                                       done)
                     for halt, color, done in rec.halts if color != done]
    metrics = {
        "wall_s": wall * scale,
        "unscaled_wall_s": wall,
        "speed": 1 / scale,
        "compile_s": math.fsum(rec.scaled(rec.compiles, rec.compile_walks)),
        "ticks": rec.ticks,
        "rules": rec.rules,
        "final_nodes": rec.final_nodes,
        "final_edges": rec.final_edges,
    }
    if traced:
        metrics.update(layer_metrics(tracer, rec.ticks))
    return Pass(traced, metrics, rec.signature(), attempted, failed,
                problems, rec.scaled(rec.intervals, rec.interval_walks),
                perf_counter() - elapsed)


def run_workload(args):
    wl = set_up(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    problems = round_trip_errors(wl)
    # The traced run alternates untraced and traced passes, so the
    # overhead ratio compares passes made under the same machine load.
    # The timed run scales its timings to the reference speed; the traced
    # run compares raw times, so it walks nothing.
    order = (False, True) if args.trace else (False,)
    reference = None if args.trace else Reference()
    passes = []
    deadline = perf_counter() + args.seconds
    left = args.seconds
    # Stop when the next pass would likely end well past the deadline.
    while len(passes) < len(order) or left > passes[-1].seconds / 2:
        passes.append(timed_pass(wl, order[len(passes) % len(order)],
                                 reference))
        left = deadline - perf_counter()

    for i, p in enumerate(passes):
        problems.extend(p.problems)
        if p.signature != passes[0].signature:
            problems.append("pass %d (traced=%s) differs from pass 0: %r vs %r"
                            % (i, p.traced, p.signature[:4],
                               passes[0].signature[:4]))
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    def median(group, name):
        values = [p.metrics[name] for p in group]
        # counts repeat exactly (checked above for the signature's ones)
        if isinstance(values[0], int):
            return values[0]
        return statistics.median(values)

    if args.trace:
        specs = SPEC["per_layer"]
        values = {s["name"]: median(traced, s["name"]) for s in specs
                  if s["name"] != "trace.overhead"}
        values["trace.overhead"] = (median(traced, "wall_s")
                                    / median(plain, "wall_s"))
    else:
        specs = SPEC["end_to_end"]
        # Read before the pooled tick list below is built.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Tick latencies pool every tick of every pass of the run.
        ticks = sorted(t for p in plain for t in p.intervals)
        values = {s["name"]: median(plain, s["name"]) for s in specs
                  if s["name"] not in ("setup_s", "peak_rss_mb",
                                       "tick_p50_us", "tick_p99_us")}
        values["tick_p50_us"] = percentile(ticks, 0.50) * 1e6
        values["tick_p99_us"] = percentile(ticks, 0.99) * 1e6
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }

    for line in problems[:20]:
        print("perfbench: " + line, file=sys.stderr)
    print("%s: seed %d, kernel %s, python %s, %d untraced and %d traced "
          "passes, %d tick samples per pass"
          % (wl.name, args.seed, kernel.KERNEL_NAME,
             platform.python_version(), len(plain), len(traced),
             len(passes[0].intervals)))
    if not args.trace:
        print("%s: unscaled wall_s %.6g s at host speed %.4g (mean "
              "reference walk / %g s), medians over passes"
              % (wl.name, median(plain, "unscaled_wall_s"),
                 median(plain, "speed"), REFERENCE_WALK_S))
    for name, m in result["metrics"].items():
        print("%-10s %-30s %14.6g %s" % (wl.name, name, m["value"],
                                          m["unit"]))
    print("%-10s %-30s %14.6g ratio (%d/%d runs)"
          % (wl.name, "failed_frac", failed / attempted, failed, attempted))
    if args.out:
        record = {"workload": wl.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "kernel": kernel.KERNEL_NAME,
                  "python": platform.python_version(), "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in a child process of its own, one after another."""
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("perfbench: %s printed no result" % name, file=sys.stderr)
            correct = False
            continue
        correct = correct and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics["%s.%s" % (name, metric)] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="tangleca benchmark: end-to-end and per-layer metrics")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="time spent on timed passes (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--out", type=pathlib.Path,
                    help="append the full record as one JSON line")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
