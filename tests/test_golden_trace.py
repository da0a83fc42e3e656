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
registers, which removed those copy ticks, and again when a guard began
to emit only its satisfying rows plus one bare-focus skip rule, which
renamed skip ticks and shifted rule indices but changed no tick, each
time with outcomes and final states unchanged.  That last change also
raised UNION_PAIRS by one a run (the skip rule matches on the one
satisfying guard tick too) and SETTLED's settled ticks by 103.
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
        "857ed26550e0775eb2e9aef33d47620d54337bb01186b096e8a3d27cea248322",
    (False, automaton.RANDOM, 1):
        "64dedb74c0c066c39b5a5e28dadc6a1ec3f7f872cd187798738f4dce4267f990",
    (False, automaton.RANDOM, 2):
        "8375a47b219e8adc70592eebcf43e99f8a789e155a7c2f299015e275225ac98c",
    (True, automaton.DETERMINISTIC, 0):
        "a96239e118ea28ac6245c5900383c223f4e905c096ccf23cb284beeb181eb960",
    (True, automaton.RANDOM, 1):
        "f3a5bd70cdb983178444c59f31863a593b34beb7cc3a04dd085bb0dddc23fd4f",
    (True, automaton.RANDOM, 2):
        "2b1879836a0c9f550125387cd636ba7d425ca7ffb7006be580072551cdd10535",
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0):
        "e1417efcad4b4673a7244eb3c0b9a2195d0a8dd4797a27d753ccae8d1fee9cd2",
    ("overhead-8", False, automaton.RANDOM, 1):
        "cbdba87fdfc5d9b256f6bb62727868a916f42bfaeb78a27909bdf89f2d44484a",
    ("overhead-8", True, automaton.DETERMINISTIC, 0):
        "33a48c1f936ab3d112291b8e89de4db5d88b20631bfb1c40cb8e17000de8cb3d",
    ("overhead-8", True, automaton.RANDOM, 1):
        "3a9bb76f4c7ea7ffc0ca2ee473a20837b2064f85afcba8812d2fcd90dedc20ef",
    ("union-16", False, automaton.DETERMINISTIC, 0):
        "cb09eb3c940de8a00361957ea41a0b8c35e908e7b740ddcf7a963e91bceca672",
    ("union-16", False, automaton.RANDOM, 1):
        "0ba80c3c4c14b122e53d680c0f5c8091d7dc66603e7f5d309c70539d49bae7f7",
    ("union-16", True, automaton.DETERMINISTIC, 0):
        "784e6d078a921c944b1018b29e74584bbb83044212645ee90bb1596658cd1a46",
    ("union-16", True, automaton.RANDOM, 1):
        "8280c1c63014a685d1cd32f702c7a831c6e60c8d03c891b2067dac2b70f1400c",
    ("union-32", False, automaton.DETERMINISTIC, 0):
        "f24d54202b0c152210ac576379883cafb8224810fb633c0700c8ea69961b5583",
    ("union-32", False, automaton.RANDOM, 1):
        "1573f2602bc8c49f1c91977ee72d86c74d456f06169719897150e9840797ab77",
    ("union-32", True, automaton.DETERMINISTIC, 0):
        "9e5df48a0ae79f6456cace7ebc29be1d1f2758751db44ae2cf9954ce3ad906db",
    ("union-32", True, automaton.RANDOM, 1):
        "e425238176298a0cd73399629fe5c4657d908a3e981f0ca28ec9f3eb61ce33f3",
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0):
        "760e236f4c42bc8be61dad8db0007391e9444af41814a887a711894df70c756b",
    (False, automaton.RANDOM, 1):
        "83ec22038910a1152a251d0b29524bf49e5c8b3eb230756b9db409e33ebcb9c6",
    (True, automaton.DETERMINISTIC, 0):
        "a3acc33db8cc9865500c80b3cc5338406f16de4e1ecce35a5f408f68f23d50b5",
    (True, automaton.RANDOM, 1):
        "0552976a35804c86e32159e5d6df5dcf8faf68a41c11a13b93170438f7ef6af9",
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6154, 735), 32: (39882, 2447), 64: (288586, 8943)}


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
SETTLED = {False: (3391, 3901), True: (3393, 3901)}


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
