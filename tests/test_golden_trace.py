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
skip an unset condition's in one, and again when critical terms, atoms
and {} began to be read where they sit instead of copied into
registers, which removed those copy ticks, each time with outcomes and
final states unchanged.
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
        "d8479bc2d3381c958ab51dfc588ffc0c9d05ca13c72a655e6c808bca958620c1",
    (False, automaton.RANDOM, 1):
        "d80ad1e7fdc87e2b134e6c6e878facc0f4e4c97138bbb1950ea4c6071ba0c87f",
    (False, automaton.RANDOM, 2):
        "99ad9c85c6cd3e38114fbf19ef835715b120882b46c1ad33263d7ed6c2728f6e",
    (True, automaton.DETERMINISTIC, 0):
        "9eeb9f4ccdf3f325865cb894c303cbcb6164d5f82c687bfdb28d9700b9bc299a",
    (True, automaton.RANDOM, 1):
        "e0d2fd08e7ea4cd1f3a847eb22b26126da12832b336c46b9ccec42f60d67c15c",
    (True, automaton.RANDOM, 2):
        "917a2ee5b07bd2b2b434671425c4befccb9423b231cd3c0379e6ba91025f0502",
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0):
        "5222c440a7ab2692019c3f0e5847e2f510b4c814bf37ce82097c0b37413aad31",
    ("overhead-8", False, automaton.RANDOM, 1):
        "656744a11fe5f3f249dba79b78b17f88131725547e05635c5378b88923f74906",
    ("overhead-8", True, automaton.DETERMINISTIC, 0):
        "4b93754b3fc0154bcaf3fe74cf20397ad019eb6b7e356d46239b523da5dead1c",
    ("overhead-8", True, automaton.RANDOM, 1):
        "4ff4da15fc98770125c5a97ae6ab7dd61181040460214787aa12a5c2818fb13a",
    ("union-16", False, automaton.DETERMINISTIC, 0):
        "1747e0ddf2fbe6a501e18dd27eac433db5c664df47daa9ea17fdc2569298d2a4",
    ("union-16", False, automaton.RANDOM, 1):
        "3245349f6a30bd25c35f4a01640cbf69e89b94e9efe0fe77ad6a6948a13220da",
    ("union-16", True, automaton.DETERMINISTIC, 0):
        "8fff2c49f0aa6294a2d910b0e64ce796cad626ef16ad70d67698580aea75b5e6",
    ("union-16", True, automaton.RANDOM, 1):
        "abd4ec06ed87b5b07ac57d9d93ffae81124628437c0bf08b424ce856b7520aa4",
    ("union-32", False, automaton.DETERMINISTIC, 0):
        "04e1ed3607a596f0970fded35697120b5b64a198587cd32ce23f00e8aa11c090",
    ("union-32", False, automaton.RANDOM, 1):
        "bc6f818ee53bb9bb9c2e70fb0f2fa4b573346e82d6e71881cc703f5f0015048d",
    ("union-32", True, automaton.DETERMINISTIC, 0):
        "053e80f6636b9677df533c6e25f8a0dd78faa09d5b43f082ab5b14d2a7f83a4f",
    ("union-32", True, automaton.RANDOM, 1):
        "31bc32133f4ecd4a34a44ac04f2ab9056dd95f6b1773a8fcb2cf9534eca64864",
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "c21e5c1f0008910ad5cb0986f03697c3f65fea9130c87e51372e27759c70294a",
    (False, automaton.RANDOM, 1):
        "065f1076fad580a6d438719f677a957177f022ac6c68d165219f1faef78b4cb7",
    (True, automaton.DETERMINISTIC, 0):
        "13285484bfcdd28fdcb4137a15b6be482a1734049f2dee2acc63f3f0dabaeff9",
    (True, automaton.RANDOM, 1):
        "2ad45e3b84b05532c204bc07a0ba605eac8bb4adfc0e39250f589a39bc6f4f3b",
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6153, 735), 32: (39881, 2447), 64: (288585, 8943)}


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
SETTLED = {False: (3288, 3901), True: (3290, 3901)}


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
