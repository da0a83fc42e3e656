"""Applied-match traces on the corpus stay byte-identical.

For each edge mode and schedule, every corpus case runs to quiescence and
the sequence of applied (rule_index, binding_tuple) pairs, plus each
case's outcome and tick count, is hashed.  The digests were recorded
before match selection moved to raw kernel pairs; any change to
matching, maximality filtering or selection that alters a single applied
match shows up here.
"""
import hashlib

import pytest

from tangleca import automaton

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


def corpus_trace_digest(negative_edges, mode, seed):
    digest = hashlib.sha256()

    def on_tick(_cfg, m):
        binding = " ".join(str(m.binding[n]) for n in m.rule.pattern.names)
        digest.update(("%d %s\n" % (m.rule_index, binding)).encode())

    for name in corpus_names():
        source, state_text = load_corpus_case(name)
        _u, _p, unit, _s, graph = compile_case(
            source, state_text, negative_edges=negative_edges)
        cfg = automaton.Configuration(graph, seed=seed, mode=mode)
        _cfg, stats, outcome = automaton.run(
            cfg, unit.ruleset, max_ticks=200000,
            negative_edges=negative_edges, on_tick=on_tick)
        digest.update(("%s %s %d\n" % (name, outcome, stats.total)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("negative_edges,mode,seed", sorted(GOLDEN))
def test_applied_trace_unchanged(negative_edges, mode, seed):
    got = corpus_trace_digest(negative_edges, mode, seed)
    assert got == GOLDEN[(negative_edges, mode, seed)]
