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
Every digest and count here was re-recorded when the wind-down chain
was folded into the cleanup chain, which renumbered and renamed rules
but changed no tick, outcome or final state, and again when each run of
same-condition stages got one guard and each run of commits one decide
stage, which removed guard and decide ticks but changed no outcome or
final state, and again when the empty set became a plain set and a
decide fire began to enter its commit run past the run's guard, which
removed the union protocol's empty-set stages and one commit guard tick
per round that commits, and again when cleanup began to drop the
registers and bits of one path condition up to three a tick and to
skip an unset condition's in one, each time with outcomes and final
states unchanged.
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
        "57a0db711883fab00b1021c35d109d1bfbc3bec1d9ee4f408196b880b0276015",
    (False, automaton.RANDOM, 1):
        "9da9aeddeeb18e55902b29b8273d3e147fb5e5035602fc715cd4db9396ed784e",
    (False, automaton.RANDOM, 2):
        "20a388cebf7d00e9feffb0116d91eaa6a44266c63aeba2c08727ae11d6daf8ff",
    (True, automaton.DETERMINISTIC, 0):
        "04517389f50bdf09192d9f35922f30639ac37d26184917e2b0467986ba24a90f",
    (True, automaton.RANDOM, 1):
        "5f9579a05f1e5b3b8f61fb0f527d0598240426d46bba83b061343ce98b6e692e",
    (True, automaton.RANDOM, 2):
        "093a98de79a6f8bb36bed876d2ff27edc520320006f70cb507718c468cfc1c57",
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0):
        "759c23074861b725d5e4cef6e01653b488a87d4dfb25c126ebeb8d7f354f6003",
    ("overhead-8", False, automaton.RANDOM, 1):
        "15bda936287eee6318c2e39da7e975b4c142d31d421642ba9ce6e33dc7b5aa39",
    ("overhead-8", True, automaton.DETERMINISTIC, 0):
        "f4c734837af38c8137779df074169e0fb189f97ac0c4715d9d0fcb920c673483",
    ("overhead-8", True, automaton.RANDOM, 1):
        "02220169434d8b0be88a0d4b5b90359759000d3e3f12c0d93ab862ce58d865bc",
    ("union-16", False, automaton.DETERMINISTIC, 0):
        "08eb039251052df00828775653ff7fe9846a4f63503444708a41a03cd3119b11",
    ("union-16", False, automaton.RANDOM, 1):
        "e2b8fad786c5a4e7ea31f39ce78eae38305aa106bb509966b9a1bcb7e36bfc6f",
    ("union-16", True, automaton.DETERMINISTIC, 0):
        "4f23bd625d11eafaadb12bc2ee29b57ad2325a8167592128b32633200a5551a6",
    ("union-16", True, automaton.RANDOM, 1):
        "2f60853a07f5c1ff647140bf19dc418ff22ad34f468f67702aabe20749e06d5f",
    ("union-32", False, automaton.DETERMINISTIC, 0):
        "c298c44108752ca56ffc6346b6b9b7a0e2ca98731eeddbc57dddcfb44e4c9686",
    ("union-32", False, automaton.RANDOM, 1):
        "8643c538a7210bd8a7bde25c8813a3f7e8ea8b5c952d3283ba2f2f5c82a5fc9e",
    ("union-32", True, automaton.DETERMINISTIC, 0):
        "a2a9ea898474707b884d6fdd5ccae245154978257e65f0355245ea486f9f5b87",
    ("union-32", True, automaton.RANDOM, 1):
        "20e327d632140e6741b764e1fa1402d48ff5a6439443c132502788f825ccce5a",
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "36e1921c509649819fc76f5f9d2aa2d11c25fa0028120481c639a9b61c6a0d5a",
    (False, automaton.RANDOM, 1):
        "adc2bd32b7eada439eafa935e8653e6f66aa647332d3ecc95f9f5b3322241cf8",
    (True, automaton.DETERMINISTIC, 0):
        "f0bc8dc5e9be6100419d9102feed953629f38bb131b9114743f76384a49780af",
    (True, automaton.RANDOM, 1):
        "efae6b1028fa8acd98e10879b75c61234564055bf518b4e7bb8c7c52fb8d576c",
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6159, 741), 32: (39887, 2453), 64: (288591, 8949)}


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
SETTLED = {False: (4281, 4941), True: (4283, 4941)}


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
