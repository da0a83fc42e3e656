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
but changed no tick, outcome or final state.
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
        "5016582f5870f59c7b1d61aab692ffa212e773b3392082d8ec46b6caa9a99897",
    (False, automaton.RANDOM, 1):
        "51348e1216ef8cada275c5c811b2a8d050f1e20aa5f0e3f4f5c9f3fbdf91d711",
    (False, automaton.RANDOM, 2):
        "fb32048d49c792a22c4a7652e47851e0e9863266aa77ebb981ea5d17371d7f5e",
    (True, automaton.DETERMINISTIC, 0):
        "fde9c9683ccb0498a33209d111ca8b757b2ac1344c2d7e2649133a5ffcfc4801",
    (True, automaton.RANDOM, 1):
        "db99a39cac25cbf38d9cd4575c951311388fd75b2d016dd3ab32336d8888c660",
    (True, automaton.RANDOM, 2):
        "c562b5deb2e8d976788709e1daa9ba857c596ea16e9006072ab4ce6c2187da70",
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0):
        "a61e2f4ec4a0625f14c66c8df3e2115312ee31dbd4e25d1920b9ae4e6ca9cebc",
    ("overhead-8", False, automaton.RANDOM, 1):
        "6fed4c6cb737ddf1a2d74c2bb4d803b4d7b26bf35ba8ab9bc31b0e294c4f9156",
    ("overhead-8", True, automaton.DETERMINISTIC, 0):
        "d0ff0d676646fa3d5edb244e3f076a8bf30eef87b5534891ce04a2b51900f8c9",
    ("overhead-8", True, automaton.RANDOM, 1):
        "c60c03e9b540588c49be73ff73886d824c7452452c1edd5faa61e6b4b854f2e9",
    ("union-16", False, automaton.DETERMINISTIC, 0):
        "82554b8d835f67ab5746f59255e6736aa4845613a246ec301a876140eeb32651",
    ("union-16", False, automaton.RANDOM, 1):
        "e4aecb2e4c1bd3bd4dcb35696a3408d1bd9966c4672cc65f49485a88c95d4aa5",
    ("union-16", True, automaton.DETERMINISTIC, 0):
        "2514c29f5b419176e4b67625739e2b04020bec4ad033e4ac5e05f2f88e083b69",
    ("union-16", True, automaton.RANDOM, 1):
        "22199499375083c61fb8092f54767cc6a4017e88b0821ac9a17d4576a6fce124",
    ("union-32", False, automaton.DETERMINISTIC, 0):
        "15b66b8a111da91b6676d9e05993a8fc3234acd6fcc604154583411ec367a4a1",
    ("union-32", False, automaton.RANDOM, 1):
        "8e9370a80c4c6fc7b7d99540a8d32beaafca54e91f26d7fec527b11b4d2fe9f6",
    ("union-32", True, automaton.DETERMINISTIC, 0):
        "bb460fef5072fbc0c044d5d19e1a10f48c26a97963e07235c09d91750e8874a5",
    ("union-32", True, automaton.RANDOM, 1):
        "0b0a6314fe9fee6124e755fa71c9bb476bb783d1bceed07a66d12b645cf0e660",
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "9f137b724c579fa146564060b3ef168873cbd0ed16bd1b868851e5b4d386e550",
    (False, automaton.RANDOM, 1):
        "289ed9dd63f0aa5fb17354111a8f37419b82ed98a99c0b2e81747d74f7a36370",
    (True, automaton.DETERMINISTIC, 0):
        "a411bcce5be7ecc173c4ef0504f5082d4f73ff1517a842eeaf994d8830230bba",
    (True, automaton.RANDOM, 1):
        "c22897610d979e5fec104a8c869b6f77349cd73e1b034e5e63730c1aed06e71a",
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6218, 791), 32: (39978, 2535), 64: (288746, 9095)}


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
SETTLED = {False: (6187, 7192), True: (6189, 7192)}


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
