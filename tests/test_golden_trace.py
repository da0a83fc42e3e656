"""Applied-match traces on the corpus and the bench cases stay byte-identical.

For each edge mode and schedule, every case runs to quiescence and the
sequence of applied (rule_index, binding) pairs, plus each case's
outcome and tick count, is hashed.  The corpus digests were recorded
before match selection moved to raw kernel pairs; the bench digests
(union-16, whose ticks each wade through many decoy matches, and
overhead-8) before join plans bound the focus's out-edges first, and
union-32's, whose unordered runs are longer, before the kernel stopped
sorting runs it can prove sorted and deterministic selection stopped
filtering past the first maximal pair.  The digests of perfbench's 60
frozen generated programs, where focus steps fan out over location
tuples, were recorded while the kernel still sorted each plan's run
into binding-tuple order, before its join order became the match order
(rule order, then the nodes bound at the plan's steps, in step order).
Any change to matching, maximality filtering or selection that alters a
single applied match shows up here.  The number of pairs the kernel
returns over a deterministic union run is pinned too.  On every
deterministic tick of the corpus, the frozen programs, union-16 and
overhead-8, the pair that selection takes (settled by the plan index's
table or not) must be the maximality filter's first maximal pair.
"""
import hashlib
import pathlib

import pytest

from tangleca import automaton, bench, pattern

from conftest import compile_case, corpus_names, load_corpus_case

GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "3bb188e3c583ba97d102d2acb85f64a41125647f5d9287704fc01230629cf783",
    (False, automaton.RANDOM, 1):
        "2ee172572ff51f747be2ec154a2c298dcfe3e9b0303b0a0ba6539013a4ec8af5",
    (False, automaton.RANDOM, 2):
        "084f057ccbb4ac9f4faea68851b300a0244fb9aad5723a318468f96f3f186334",
    (True, automaton.DETERMINISTIC, 0):
        "625bf20368ca8b8346d8da3819aad95d67b25a96a5720f02ed07eddeb01e21d9",
    (True, automaton.RANDOM, 1):
        "2f1ae13f5ba09516d0e93359f6e849c803929d9f8487a4edba2e0a6c03ce7129",
    (True, automaton.RANDOM, 2):
        "7b0f8c5b33662db703780de515b71aee59c47047c1f475b4a420f031ee1533a5",
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0):
        "3328d9113f90758afdbb12fdc5363a5da2335bd843beaacf872b698e7de4aad1",
    ("overhead-8", False, automaton.RANDOM, 1):
        "6c4933ec70b4f4957df9530e92c003e962bf8c5b2ecc309e951a37d8785c105c",
    ("overhead-8", True, automaton.DETERMINISTIC, 0):
        "54fb15111e8f433e1d9d479a52185f35d2f1304b56800b8147db48380a0e0f64",
    ("overhead-8", True, automaton.RANDOM, 1):
        "5c8bcd2fefddefe78b1a8fffa9376702573cbedadc12819f34508f8470c04584",
    ("union-16", False, automaton.DETERMINISTIC, 0):
        "a8ad6ede156b84981c60de5ed61866d2cc8b8584c09077b3001f31250c098920",
    ("union-16", False, automaton.RANDOM, 1):
        "339f7ed929d95b5bc2f4498cb3d1cbd64fd3de8c4345b03b210bbcf484c291b3",
    ("union-16", True, automaton.DETERMINISTIC, 0):
        "0d8238adb280ee08a308035efe10ab8d254802ab03598382c76998aa36519979",
    ("union-16", True, automaton.RANDOM, 1):
        "fdec66bfa43130366910029c5b88d2f288ce707145cf363a3cea6999788e4601",
    ("union-32", False, automaton.DETERMINISTIC, 0):
        "8976a5675daf341863de3612a0a561b7fc407dfc7ca0c44cfb416c270d18455c",
    ("union-32", False, automaton.RANDOM, 1):
        "89b2a4d8fcd27d120d25ffa2194b224ab11e6ae23ff3f11d3d30e0ae4bf2c3e4",
    ("union-32", True, automaton.DETERMINISTIC, 0):
        "f5d5bbdd95757923aceaf259fef78edbb22064bd8622268984def8b68cf1d351",
    ("union-32", True, automaton.RANDOM, 1):
        "fb252507e9a7271a0c1776cc718195a889a075202b767c0b347659370e0285ff",
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "7ee7170ad558b706dcb3e1946b2dd5a1dac860517e41c5f4172b503fc1263754",
    (False, automaton.RANDOM, 1):
        "b900707fd25078143b8f50768ffebc71e0c3bbc229cd794eb308c5518ec39d95",
    (True, automaton.DETERMINISTIC, 0):
        "7b44116678adbb643dffe8039f48dbf71db2406fa953a603bd8c89a0e37d943d",
    (True, automaton.RANDOM, 1):
        "8074a0075fbd55aa31585289df933b18809b0f15767ae7e88186cf8b423aac5f",
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6216, 791), 32: (39976, 2535), 64: (288744, 9095)}


def trace_digest(cases, negative_edges, mode, seed):
    """sha256 over the applied pairs, outcome and ticks of (name, source,
    state_text) cases, run in the order given."""
    digest = hashlib.sha256()

    def on_tick(_cfg, m):
        binding = " ".join(map(str, m.binding))
        digest.update(("%d %s\n" % (m.rule_index, binding)).encode())

    for name, source, state_text in cases:
        _u, _p, unit, _s, graph = compile_case(
            source, state_text, negative_edges=negative_edges)
        cfg = automaton.Configuration(graph, seed=seed, mode=mode)
        _cfg, stats, outcome = automaton.run(
            cfg, unit.ruleset, max_ticks=200000, on_tick=on_tick)
        digest.update(("%s %s %d\n" % (name, outcome, stats.total)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("negative_edges,mode,seed", sorted(GOLDEN))
def test_applied_trace_unchanged(negative_edges, mode, seed):
    cases = [(name,) + load_corpus_case(name) for name in corpus_names()]
    got = trace_digest(cases, negative_edges, mode, seed)
    assert got == GOLDEN[(negative_edges, mode, seed)]


@pytest.mark.parametrize("name,negative_edges,mode,seed",
                         sorted(BENCH_GOLDEN))
def test_bench_trace_unchanged(name, negative_edges, mode, seed):
    got = trace_digest([(name,) + BENCH_CASES[name]()],
                       negative_edges, mode, seed)
    assert got == BENCH_GOLDEN[(name, negative_edges, mode, seed)]


@pytest.mark.parametrize("negative_edges,mode,seed", sorted(FROZEN_GOLDEN))
def test_frozen_case_trace_unchanged(negative_edges, mode, seed):
    cases = [(p.stem, p.read_text(), p.with_suffix(".state").read_text())
             for p in sorted(FROZEN_DIR.glob("gen-*.asml"))]
    assert len(cases) == 60
    got = trace_digest(cases, negative_edges, mode, seed)
    assert got == FROZEN_GOLDEN[(negative_edges, mode, seed)]


@pytest.mark.parametrize("n", sorted(UNION_PAIRS))
def test_union_kernel_pairs_per_run(n):
    _u, _p, unit, _s, graph = compile_case(*bench.union_case(n))
    _cfg, stats, outcome = automaton.run(automaton.Configuration(graph),
                                         unit.ruleset)
    assert outcome == automaton.QUIESCENT
    assert (stats.matches, stats.total) == UNION_PAIRS[n]


# (ticks settled by the plan index's final table, deterministic ticks)
# over the 20 corpus and 60 frozen programs, union-16 and overhead-8
SETTLED = {False: (6362, 7192), True: (6364, 7192)}


@pytest.mark.parametrize("negative_edges", sorted(SETTLED))
def test_settled_pair_is_the_first_maximal_pair(negative_edges,
                                                monkeypatch):
    real = automaton.select_match

    def checked(pairs, cfg, final, stats=None):
        got = real(pairs, cfg, final, stats)
        assert got == pattern.maximality_filter(pairs, first=True)[0]
        return got

    monkeypatch.setattr(automaton, "select_match", checked)
    cases = [load_corpus_case(name) for name in corpus_names()]
    cases += [(p.read_text(), p.with_suffix(".state").read_text())
              for p in sorted(FROZEN_DIR.glob("gen-*.asml"))]
    cases += [bench.union_case(16), bench.overhead_case(8)]
    assert len(cases) == 82
    settled = ticks = 0
    for source, state_text in cases:
        _u, _p, unit, _s, graph = compile_case(
            source, state_text, negative_edges=negative_edges)
        _cfg, stats, outcome = automaton.run(automaton.Configuration(graph),
                                             unit.ruleset)
        assert outcome == automaton.QUIESCENT
        settled += stats.settled
        ticks += stats.total
    assert (settled, ticks) == SETTLED[negative_edges]
