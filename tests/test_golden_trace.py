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
        "b4f028250d2b2c76cd78bbbef2ab9358bbc79546fe6ba3d776b15ae2cca7f24f",
        "b9197ae81ba1c8f62430021ac6725d3dea0a172df4f5de12c3f302a2300e60b2"),
    (False, automaton.RANDOM, 1): (
        "b70bbbd77ba577a7f6ff75272f5dd0c734ad532c9280ae7c3ad964984dcc8677",
        "94ccbc7202be73da3b045cd5e912c329b5818646505017fa7f87d3021c7568a9"),
    (False, automaton.RANDOM, 2): (
        "49674e994094056bde146b58484073ac0b17a05fb74bf2fc7fbb9e469fce87e2",
        "8437c043a1cf8db45679ea5eb8d96b9d2bd92bcae36e35e2bfb23ca9cee83dc0"),
    (True, automaton.DETERMINISTIC, 0): (
        "4e6c4a51ce63d2a7ee9ee6da128ed1ec695758d7a70906fae9613712a3d7f722",
        "6b8c2d30244eeac460e42bef2da45d9b3e475f845c9a8b43a763c92dd4f8d2d1"),
    (True, automaton.RANDOM, 1): (
        "5480c1480ed186da51da4bd504e1e85f228f76fc8dd1dd2876b700dae91aeee6",
        "2ff63832173a1675992b544cbfadce8676538676cdb0bc18f17d14ca2945ae51"),
    (True, automaton.RANDOM, 2): (
        "489f792da3ec271a1bca12bc26ab4e07f4fe0df70784b0210fd0065a7ef0260a",
        "03843f56c181e3498a6276702e69cca7e521c719f9c3d6c0bce3bc5cd0d0cc8e"),
}

BENCH_CASES = {
    "union-16": lambda: bench.union_case(16),
    "union-32": lambda: bench.union_case(32),
    "overhead-8": lambda: bench.overhead_case(8),
}

BENCH_GOLDEN = {
    ("overhead-8", False, automaton.DETERMINISTIC, 0): (
        "16b87bf93522b572709bd8d9b536c66bd313f1db2b576feae0647ccfaefa98f0",
        "a7c569062bcec84e5e181aa6829845f789a8a57a998f722c16403ed145d46f46"),
    ("overhead-8", False, automaton.RANDOM, 1): (
        "de225b7c44fb01d44fc8cd39c5fbe0005f3d241192e1dd5d8d426dbed4992cc3",
        "3a42a20a5836bc61d3bed0db37822d7a982c410506e91fc869bcf1b5628e94c7"),
    ("overhead-8", True, automaton.DETERMINISTIC, 0): (
        "22a9edaf4dc0a3d358cfc637dacad385b676a2493fb2c161c0ac50c8a305ac4a",
        "6fe318622e4e6bb03604bc46f5960e69dd65d3db1eb89b04c69521552ebb7f83"),
    ("overhead-8", True, automaton.RANDOM, 1): (
        "e3168f8b6604be89e2bb0c61bfb07bdabd4ff8453d8d33f25d7aa425cf6b7994",
        "39fc6da550f0c5685e593bacc0bb2fbaf296d7321337d0ee3704ee7e83c6c446"),
    ("union-16", False, automaton.DETERMINISTIC, 0): (
        "9945ebb79997327e97b27f584c183f25eb685ac2162bd2963397818312a33d01",
        "eb4f39bdf055cfaa931bf3b8b4b53ec4e45e838719836b240fa6fe7c6b974af4"),
    ("union-16", False, automaton.RANDOM, 1): (
        "5795235c366bca0fc7917e7965c21f6694174a07fb63ed554c3b11149b8a36ec",
        "5f135ca8b8a041449150015c09f4e1c43e0c1daf9c8e462cfbeff443edaec805"),
    ("union-16", True, automaton.DETERMINISTIC, 0): (
        "d420c2ae6c04c060ab2c3826c990268e7a26241de02d8e318e09150896b6cce2",
        "856ac1eecf65c65a66f0a74d061a77352dde8911f9312b4d451e2d1ad0ca06b3"),
    ("union-16", True, automaton.RANDOM, 1): (
        "6a22d0bc4ff07dec582b2e845010536660189ab567da10beefe6f87c3e975b54",
        "3e7a80bc7b075a951179af06c0068f56e7542b2fbcbd1f2dbe23568dbe708f98"),
    ("union-32", False, automaton.DETERMINISTIC, 0): (
        "b892a724d36beaebb2fc3e1b199009f1428f477713185b9d0124bdf1edbea519",
        "3027cf69298a0fa280a3e5db534a4a4087eb63438106172c884079f60c0ce6d5"),
    ("union-32", False, automaton.RANDOM, 1): (
        "09be12af2ec9bfe9213f93680d9202f1ae8ea9acffcc69f2878cdf2ac3e7cb04",
        "14bf50635b433e0747c29628752ad6218cd0858a226e0fc474505d4456feb1ca"),
    ("union-32", True, automaton.DETERMINISTIC, 0): (
        "1b6b35a4076a01c8292c9f03f39c50249f6019d85808250720a9e14cca65a13e",
        "c9628a00320515aa18b17c7c81bcdeea703b101ea5eaf72ba2a06d065f04f874"),
    ("union-32", True, automaton.RANDOM, 1): (
        "914e4e117959d5863541c4f71e4f94d53a44bfb4ebfcb1952541064c6dc3fd6c",
        "ac244922b4e1029737e50f0ba2ac60eef5c4c261223493986acbc934156daf7f"),
}

# perfbench's 60 frozen generated programs, read only: their focus steps
# fan out over function-location tuples
FROZEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases"

FROZEN_GOLDEN = {
    (False, automaton.DETERMINISTIC, 0): (
        "95cd60143fe6f91e0aed53273907b39cc049170765045ae0e744de1cd926025a",
        "0f92bd01e8abb105f6e580aba1894f0965f177096a8a5aea71fda9b03b386fa4"),
    (False, automaton.RANDOM, 1): (
        "5478db0cd051b0f39deff58470b59ca23475e44ef8cf01591e8839d92c573c81",
        "11cf5a73dfb9ee0776b5ea0e6eabc919d6713e85eb67023eba494d77a2ac7783"),
    (True, automaton.DETERMINISTIC, 0): (
        "e735fe1e26549d4db1c899ab179f53ff4176edf5fc36ee970c0d877ae54c345c",
        "362a361ca4a8bc7abb4190a765ad7bb32569fedab18fe798e5abb4a6091d4816"),
    (True, automaton.RANDOM, 1): (
        "7abc82cfa83583ce6ae18c2c38872816b07cba9ba0d08851a855de4d228d793f",
        "0bad32ec78118a69b7e0b96665fe58d536cd25c38b2422ee021f415f0853f0f2"),
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
SETTLED = {False: (3517, 3913), True: (3519, 3913)}


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
