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
per round that commits, with outcomes and final states unchanged.
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
        "532662dec70c29061b89ca13e1e8e2179c35890fb215904d1e59fe0d326c580f",
    (False, automaton.RANDOM, 1):
        "9efb8edcdbdf633efaa489dd9fa44a20802a9c69a1525eb4a3be9f33aa8dca3f",
    (False, automaton.RANDOM, 2):
        "ec69105978d3298cbbf880832a885b82c805e5d0348e4f4c013dc14a02e15c0f",
    (True, automaton.DETERMINISTIC, 0):
        "bf0056bab003d87d8e22d6ba295bdbdaac7a6dd146e81db4c58b2455c05242e3",
    (True, automaton.RANDOM, 1):
        "542a1c5277b133c2c782c734c8dd058bf7f7dceaad4275b518f69c45cafe9472",
    (True, automaton.RANDOM, 2):
        "7f46e369bb8ea907f766cfbd3ee607831102f283adf70cb9c8628ba3b87e975c",
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0):
        "bf2c292bf265b2284ad49e34b4d7c655c5e5c6cb35ac1e9bc91732f6fa78b05d",
    ("overhead-8", False, automaton.RANDOM, 1):
        "48a79676b5faf194b2d6b1f050969f61de4d876eeab69de2a219a1eddd414228",
    ("overhead-8", True, automaton.DETERMINISTIC, 0):
        "f339fc175bc05cc84b2a79f7a65d68249adda68a026f01ebfd7e3cc8ba648fc7",
    ("overhead-8", True, automaton.RANDOM, 1):
        "3db1ccedadb76f988f5a7610489a8792af20a13ea69f47f0f446f2b906b6a2a0",
    ("union-16", False, automaton.DETERMINISTIC, 0):
        "eead29a3193115559a47ef41b0db5a7baaa63709b0201628d7ff1a576ec43b5f",
    ("union-16", False, automaton.RANDOM, 1):
        "c2cf1b45445033d577f522cb1ab78359f58968137509bddaae945d4e71f717e5",
    ("union-16", True, automaton.DETERMINISTIC, 0):
        "36ee427399000ec91031c2ba34fcaae7a649103e757918189af9640508385c6d",
    ("union-16", True, automaton.RANDOM, 1):
        "807147a3dddeb3c11eabab533847d976fc9d6b693b9e170d3fa17fb657b126d4",
    ("union-32", False, automaton.DETERMINISTIC, 0):
        "18b997d3d1f5a411f4748769a4d22c2b7be1a9596c386504e8e52ea6820e3b8d",
    ("union-32", False, automaton.RANDOM, 1):
        "9d10921acafb2dd3b40e3eb3e497b5e15adb9a9afad34036e90c9f1ef50da2ed",
    ("union-32", True, automaton.DETERMINISTIC, 0):
        "78a768a4fae11b6d0e9795dfe6195d287a22ec651a5cf87fae734ef6be3c034d",
    ("union-32", True, automaton.RANDOM, 1):
        "824a5d08a44f6ea7fc095e826e29dc70d95ad783cc80898f1100687455c39363",
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "a9302e188bbfcf0a3345ccca0f99a2d8b0de40af4294dc5cc665d504c663f1b8",
    (False, automaton.RANDOM, 1):
        "ab0a24731ce8a3b90bd5282f13f2089887f56fc77e54e1444742c112476579dd",
    (True, automaton.DETERMINISTIC, 0):
        "01e83690c8b653eb65e54f3a9437d6476ce15131bd1b58ca01b557dd998195d7",
    (True, automaton.RANDOM, 1):
        "ef1f6925a9442ba8842e5ca44c5990ce5935ab4607cc7826545983bc921cc5b3",
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6174, 747), 32: (39902, 2459), 64: (288606, 8955)}


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
SETTLED = {False: (5577, 6130), True: (5579, 6130)}


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
