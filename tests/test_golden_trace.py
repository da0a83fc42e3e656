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
final state.
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
        "6100a7f403053482731fe548365e37b4139f46f0f230b134f34f703e1409db73",
    (False, automaton.RANDOM, 1):
        "a196f6a842601b9485f01180de6d12c36d7a5f8d80ea9e19424adfa650c05b8e",
    (False, automaton.RANDOM, 2):
        "566a4be07ea1bcaf86f8dad4bdda9cb71b69a405621cc53ddb3d337b672b86c2",
    (True, automaton.DETERMINISTIC, 0):
        "ec4d219392fb51ff54e92b5d3b8f181b9a6381c292dea118a3079f0d87997016",
    (True, automaton.RANDOM, 1):
        "5601feb9457ba7a2145af72783c6160750d4255b235b53f122ed646e1b257962",
    (True, automaton.RANDOM, 2):
        "20589fe29419e06baa555de26d1c7c4cb4cee8444d218c556e82e51d46eda478",
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0):
        "82daa5da3d9caf3824ce52ad13b586e4f706cd08c2d8b88747b7c5fbddff6134",
    ("overhead-8", False, automaton.RANDOM, 1):
        "ee0963863abbac258cb2725fea4f6af6736068cb4904566d725305c77a3f1799",
    ("overhead-8", True, automaton.DETERMINISTIC, 0):
        "be53a2a48e1ef32beca9688c7439e8e585cd7166598c4bb5e2019e30c758737c",
    ("overhead-8", True, automaton.RANDOM, 1):
        "3dd5c2538d3511eafc573960636d45a2ac692b950ebcc2d7f05a985a13867320",
    ("union-16", False, automaton.DETERMINISTIC, 0):
        "1206f41f6673f7a9f47b722f3731cffa86db9c3d68c4f70ec1e320c43b1d4b98",
    ("union-16", False, automaton.RANDOM, 1):
        "a54fc614fe479fcd8e050dca38c88df666f7077b9868f4a61d94252886418535",
    ("union-16", True, automaton.DETERMINISTIC, 0):
        "06bf1786f2e6ee25c279ae06fd91ea4d57c67110ff9529718969f7831ccecee8",
    ("union-16", True, automaton.RANDOM, 1):
        "53ae4d695ae70b2f105de67b0d77fef7e0fd26fd5e1c1bd992059d3a9fd0fbe1",
    ("union-32", False, automaton.DETERMINISTIC, 0):
        "98cb6974e2b91858211f67c327c53dd91a8d1730224496698c7b8d565eeca5f9",
    ("union-32", False, automaton.RANDOM, 1):
        "1ad411661e4a5dab2b57d17375d1511411eb4f1e6ea6bb624413b5bb63947742",
    ("union-32", True, automaton.DETERMINISTIC, 0):
        "6e19b8a5f68d61bdb6b428e84f4e73d41a439a1b0948ab954f276f71878a2c4e",
    ("union-32", True, automaton.RANDOM, 1):
        "9f6b37f95b3d7b4faa3d6f29898e28425245e5983357192278b86f408589bb41",
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "222e4ada6745c5e6f0096d469a62491344747e9586a99c4f8798d7956754144a",
    (False, automaton.RANDOM, 1):
        "a1c3a4f85b6951f8fc44dffa2d1a857e1c81b12c34c6d29e49e93acaf73ac19e",
    (True, automaton.DETERMINISTIC, 0):
        "1d6a177634e24f73354b30006a3fae4726d76ef11444207958d77e1b169388da",
    (True, automaton.RANDOM, 1):
        "caa76691bc2e2ed7344ee4181fa2293ef6dfa8c0c7c8d031453cc9edd3fc9087",
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6214, 787), 32: (39974, 2531), 64: (288742, 9091)}


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
SETTLED = {False: (5758, 6350), True: (5760, 6350)}


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
