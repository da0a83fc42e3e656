"""Applied-match traces on the corpus, the bench cases and perfbench's 60
frozen programs stay byte-identical.

For each edge mode and schedule, every case runs to quiescence and the
sequence of applied (rule, binding) pairs, plus each case's outcome and
tick count, is hashed twice: once keyed by rule index, once by rule
name.  Any change to matching, maximality filtering or selection that
alters a single applied match moves both digests.  A change that only
reorders rules moves the index-keyed digest and leaves the name-keyed
one alone, which tells a renumbering from a change of behaviour.  The
bench cases are union-16, whose ticks each wade through many decoy
matches, union-32, whose unordered runs are longer, and overhead-8; the
frozen programs' focus steps fan out over location tuples.

The number of pairs the kernel returns over a deterministic union run
is pinned too.  On every deterministic tick of the corpus, the frozen
programs, union-16 and overhead-8, the pair that selection takes
(settled by the plan index's table or not) must be the maximality
filter's first maximal pair, and the number of settled ticks is pinned.

CHANGES.md lists each re-record of these pins, with its old and new
value and the reason.
"""
import hashlib
import pathlib

import pytest

from tangleca import automaton, bench, pattern

from conftest import compile_case, corpus_names, load_corpus_case

# each case: (digest keyed by rule index, digest keyed by rule name), as
# trace_digest returns them
GOLDEN = {
    (False, automaton.DETERMINISTIC, 0): (
        "e856c88328dd4f27d05569a0cabbfc4875972e363d6a65ebec32092de175c22b",
        "128a05da3b161ae859db3c85a2f87497bc5f30350f856b2995c643ae7978133c"),
    (False, automaton.RANDOM, 1): (
        "50a1a54e5de41254ad9ea39d59071e0b0fa9c5af844769b530271b495475c53a",
        "39067a1c19ab511511dbd66b1359b998a7a7d9247778f8fe5df8fda1fd5c55fa"),
    (False, automaton.RANDOM, 2): (
        "4633ea6dc61d4edca0029e9f00e2e9644d1d8364ea19e4033373ba7d60a2cd4d",
        "268bb55590b3286214d137b5f97f538f55c2a171618654b98302bb75318d7823"),
    (True, automaton.DETERMINISTIC, 0): (
        "6ac18f62c3ce450cabca284093f58239e4277b1e537b265bed48e33ed7d39193",
        "19c4f2fc9f4cad8708d0b35a19684ce0658b12521705fee8b4151ac683319010"),
    (True, automaton.RANDOM, 1): (
        "4b28b6622cee7bed810d848f2fd3619f78d1a26ed53f54da010e8361fc36446a",
        "7fcf6f0a219abc66138b39f4692d4f3b475712e2551bb9acccad7a29f94afe49"),
    (True, automaton.RANDOM, 2): (
        "f8be23e60f1eea02c988c28c51a977b418983799ef5c6255d7191adbb6dc0fdc",
        "ad5e4211e04232b37b52559b3c6b0083e1a5228f0abaaaedb02afcd83b4d6e57"),
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0): (
        "19579e8eab48843efaff7d7b44f7d18daaf4624f8e3e479679dbcde363b4c66a",
        "cd89ab38c19652f86eb71bd6029399c9bb19d30f8c8a85b07db0be4545a395b6"),
    ("overhead-8", False, automaton.RANDOM, 1): (
        "4af03edbb693ae6f1fd584d194f5e6b35c5bb95ec78e375ee4243b358fbc1ae2",
        "a47af047106813e3dc20c0940a528192e1a8635bdecea40d0fef594d8803797a"),
    ("overhead-8", True, automaton.DETERMINISTIC, 0): (
        "8de9e4f312cf66d948701a85f7cb63a38737091a00bc53264d18fa10498dbd85",
        "1902d1fd0025ed797af5b9059c0f89c63737f12526e11be866df14d110923f67"),
    ("overhead-8", True, automaton.RANDOM, 1): (
        "64be48e17df68e88a7fe17582e8c98de2366a2c2104f8d3086e8be8e2a6c3f0e",
        "b2b27955ed9bb82d6e59aaada5fc3ca167a435f170c3ef26ad0e391d5e3e9b2d"),
    ("union-16", False, automaton.DETERMINISTIC, 0): (
        "cb09eb3c940de8a00361957ea41a0b8c35e908e7b740ddcf7a963e91bceca672",
        "439ea261dbefee275967cec1bfdac7364ca299765d2b077b2e9b1aeab9d5bc3a"),
    ("union-16", False, automaton.RANDOM, 1): (
        "0ba80c3c4c14b122e53d680c0f5c8091d7dc66603e7f5d309c70539d49bae7f7",
        "1d3975b8199166e31bd02869f4e425cf316756d98b60c43ea8e63bb7b4b6676a"),
    ("union-16", True, automaton.DETERMINISTIC, 0): (
        "784e6d078a921c944b1018b29e74584bbb83044212645ee90bb1596658cd1a46",
        "bcd5da84a7fd46c2e30eaf8db28377bbdec58baca083778ed7886e2cd2f79154"),
    ("union-16", True, automaton.RANDOM, 1): (
        "8280c1c63014a685d1cd32f702c7a831c6e60c8d03c891b2067dac2b70f1400c",
        "93ec4938370f75f0cdc42196fce1361689cef25907c42f6fb23deeb183da725e"),
    ("union-32", False, automaton.DETERMINISTIC, 0): (
        "f24d54202b0c152210ac576379883cafb8224810fb633c0700c8ea69961b5583",
        "6bfbf95b9fbc7d55c8fe118d57cb7c518f12f1f552da369e94f6c471f9e5bf4d"),
    ("union-32", False, automaton.RANDOM, 1): (
        "1573f2602bc8c49f1c91977ee72d86c74d456f06169719897150e9840797ab77",
        "a201667158f4c82570f78b5c9ec41280dcdac095e7a60e4ae9074112795b8c32"),
    ("union-32", True, automaton.DETERMINISTIC, 0): (
        "9e5df48a0ae79f6456cace7ebc29be1d1f2758751db44ae2cf9954ce3ad906db",
        "3078d3322bd913e925ec633a3d750f4b269463d060caa18287285d6b09a571a8"),
    ("union-32", True, automaton.RANDOM, 1): (
        "e425238176298a0cd73399629fe5c4657d908a3e981f0ca28ec9f3eb61ce33f3",
        "f07f070d926fcffd7101494382324705918bc47243b8e594026c3c8d94d6afff"),
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0): (
        "d3d813f5c37743e424b6a174be41c8ae8ec9c730a1a183e87b8aadfadce0c220",
        "d7f29de601071b1d641c5fac2e4e42be1ac330aa4e10a812328faa0d72308743"),
    (False, automaton.RANDOM, 1): (
        "8312feb5d53f9c2d6ded44117bfee04319ea6f6a1781de9dd1c4e1eafc84907e",
        "3f5dab5a708311de50e18f63808a147ef9fef414215061a712a2828492915ac1"),
    (True, automaton.DETERMINISTIC, 0): (
        "8cbba048983f4327cbdbf9b35d1261c0fd20d28f61a023c000cbd51616d95e43",
        "532238e7297e8bf4b0e854ad7dcd0ba3c42ef99ea7c96507a2581fe3b06a4d8d"),
    (True, automaton.RANDOM, 1): (
        "ce2bea390cf54448a480a98772b3dcad8b286eb145a048e9960a915eb2f5c31e",
        "5aee4cbcd6fa925196d178138e1adde91706ebba8ec4f2745f94cda5a4f153e5"),
}

# (pairs the kernel returned, ticks) over a deterministic run; union-64
# is perfbench's `union` workload, whose traced kernel.matches agrees
UNION_PAIRS = {16: (6154, 735), 32: (39882, 2447), 64: (288586, 8943)}


def trace_digest(cases, negative_edges, mode, seed):
    """Two sha256 digests over the applied pairs, outcome and ticks of
    (name, source, state_text) cases, run in the order given: one keys
    each pair by its rule index, the other by its rule name."""
    by_index = hashlib.sha256()
    by_name = hashlib.sha256()

    def on_tick(_cfg, m):
        binding = " ".join(map(str, m.binding))
        by_index.update(("%d %s\n" % (m.rule_index, binding)).encode())
        by_name.update(("%s %s\n" % (m.rule.name, binding)).encode())

    for name, source, state_text in cases:
        _u, _p, unit, _s, graph = compile_case(
            source, state_text, negative_edges=negative_edges)
        cfg = automaton.Configuration(graph, seed=seed, mode=mode)
        _cfg, stats, outcome = automaton.run(
            cfg, unit.ruleset, max_ticks=200000, on_tick=on_tick)
        line = ("%s %s %d\n" % (name, outcome, stats.total)).encode()
        by_index.update(line)
        by_name.update(line)
    return by_index.hexdigest(), by_name.hexdigest()


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
SETTLED = {False: (3419, 3913), True: (3421, 3913)}


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
