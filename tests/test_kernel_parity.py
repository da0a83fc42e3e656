"""Compiled and pure-Python matching kernels agree exactly."""
from contextlib import contextmanager

import pytest

from hypothesis import given, settings

from tangleca import automaton, compiler, kernel, pattern

from conftest import compile_case, corpus_names, load_corpus_case
from test_pattern import probe_rules, random_tangles

py_kernel = kernel.load_kernel("python")
try:
    c_kernel = kernel.load_kernel("cython")
except ImportError:  # pragma: no cover - extension not built
    c_kernel = None

needs_extension = pytest.mark.skipif(
    c_kernel is None, reason="compiled kernel not built")


@contextmanager
def using_kernel(ruleset, impl):
    """Route pattern matching through one kernel implementation."""
    saved = pattern.kernel
    pattern.kernel = impl
    ruleset._plans = None
    try:
        yield
    finally:
        pattern.kernel = saved
        ruleset._plans = None


def matches_under(g, ruleset, impl, negative_edges=False):
    with using_kernel(ruleset, impl):
        return pattern.match_all(g, ruleset, negative_edges=negative_edges)


def test_kernel_names():
    assert py_kernel.KERNEL_NAME == "python"
    if c_kernel is not None:
        assert c_kernel.KERNEL_NAME == "cython"
    assert kernel.KERNEL_NAME in ("python", "cython")


@needs_extension
class TestMatchParity:
    @settings(max_examples=150, deadline=None)
    @given(g=random_tangles())
    def test_random_graphs(self, g):
        ruleset = probe_rules()
        for neg in (False, True):
            want = matches_under(g, ruleset, py_kernel,
                                 negative_edges=neg)
            got = matches_under(g, ruleset, c_kernel,
                                negative_edges=neg)
            assert got == want

    def test_candidate_order(self):
        """Both plan indexes offer the same rules, in rule order."""
        ruleset = probe_rules()
        with using_kernel(ruleset, py_kernel):
            plans_py = ruleset.plans()
        ruleset_c = pattern.parse_ruleset(
            pattern.serialize_ruleset(ruleset))
        with using_kernel(ruleset_c, c_kernel):
            plans_c = ruleset_c.plans()
        colors = {r.pattern.color_of(r.pattern.focus)
                  for r in ruleset.rules}
        for color in sorted(c for c in colors if c is not None):
            order_py = [p.rule_index
                        for p in plans_py.candidates(color)]
            order_c = [p.rule_index for p in plans_c.candidates(color)]
            assert order_py == order_c
            assert order_py == sorted(order_py)


@needs_extension
class TestSimulationParity:
    def run_with(self, name, impl, negative_edges):
        source, state_text = load_corpus_case(name)
        _u, _p, unit, state, graph = compile_case(
            source, state_text, negative_edges=negative_edges)
        with using_kernel(unit.ruleset, impl):
            cfg = automaton.Configuration(graph,
                                          mode=automaton.DETERMINISTIC)
            applied = []
            cfg, stats, outcome = automaton.run(
                cfg, unit.ruleset, max_ticks=200000,
                negative_edges=negative_edges,
                on_tick=lambda c, m: applied.append(m.rule.name))
        return applied, cfg.tangle.snapshot(), outcome

    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_runs_identical(self, name):
        for neg in (False, True):
            seq_py, snap_py, out_py = self.run_with(name, py_kernel, neg)
            seq_c, snap_c, out_c = self.run_with(name, c_kernel, neg)
            assert out_py == out_c == automaton.QUIESCENT
            assert seq_py == seq_c
            assert snap_py == snap_c
