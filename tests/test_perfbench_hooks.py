"""The benchmark's hooks into the package still hold.

perfbench/run.py wraps package functions by module and attribute name.
A rename or deletion there would otherwise show only in the next
benchmark run, so this loads the script and runs one untraced and one
traced pass each of its `accumulate` and `union` workloads, and one
untraced pass of its `difftest` workload.  The signatures pinned here are
the benchmark's own repeat check: a change to what the kernel matches
changes them.
"""
import importlib.util
import math
import pathlib
import sys

import pytest

import tangleca

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "perfbench" / "run.py"

pytestmark = pytest.mark.skipif(
    not pathlib.Path(tangleca.__file__).resolve().is_relative_to(ROOT / "src"),
    reason="tangleca is not imported from this checkout's src/")


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_wrapped_attributes_exist(run):
    for _name, module, attr, _count in run.TRACED:
        assert hasattr(module, attr), (module.__name__, attr)
    for _name, owner, attr, _fn in run.Recorder().replacements():
        assert hasattr(owner, attr), (owner.__name__, attr)
    assert hasattr(run.kernel, "enumerate_matches")


def test_accumulate_passes_agree(run):
    wl = run.set_up("accumulate", 0)
    plain = run.timed_pass(wl, traced=False)
    traced = run.timed_pass(wl, traced=True)
    for p in (plain, traced):
        assert p.problems == []
        assert p.failed == 0
    assert plain.signature == traced.signature
    assert plain.signature[:4] == (5084, 81, 227, 1657)
    # every wrapped layer this workload reaches was called
    metrics = traced.metrics
    assert metrics["kernel.matches"] > 0
    assert metrics["pattern.matches_kept"] > 0
    for name in ("kernel.enumerate_s", "pattern.match_all_self_s",
                 "pattern.maximality_filter_s", "automaton.select_s",
                 "pattern.apply_s", "tangle.decode_s",
                 "compiler.compile_program_s", "tangle.encode_s",
                 "asmlang.parse_s", "interpreter.parse_state_s",
                 "interpreter.oracle_s", "automaton.run_self_s",
                 "difftest.run_case_self_s"):
        assert metrics[name] > 0, name


@pytest.fixture(scope="module")
def union(run):
    wl = run.set_up("union", 0)
    return wl, run.timed_pass(wl, traced=False)


def test_union_pass_is_clean(union):
    _wl, plain = union
    assert plain.problems == []
    assert plain.failed == 0
    assert plain.signature[:4] == (8943, 61, 138, 4366)


def test_union_traced_pass_agrees(run, union):
    # most deterministic union ticks are settled by the plan index's
    # table; the 70 that are not still reach the maximality filter
    wl, plain = union
    traced = run.timed_pass(wl, traced=True)
    assert traced.problems == []
    assert traced.failed == 0
    assert traced.signature == plain.signature
    metrics = traced.metrics
    assert metrics["kernel.matches"] == 288586
    assert 0 < metrics["pattern.matches_kept"] < metrics["kernel.matches"]
    for name in ("kernel.enumerate_s", "pattern.match_all_self_s",
                 "pattern.maximality_filter_s", "automaton.select_s",
                 "pattern.apply_s", "automaton.run_self_s"):
        assert metrics[name] > 0, name
    for name, value in metrics.items():
        assert math.isfinite(value), name


def test_difftest_pass_is_clean(run):
    # 80 cases x 2 edge modes x 3 schedules, invariant checks on; the
    # negative-edge mode is the only tier-1 run of negative edges at scale
    wl = run.set_up("difftest", 0)
    plain = run.timed_pass(wl, traced=False)
    assert plain.problems == []
    assert plain.attempted == 480
    assert plain.failed == 0
    assert plain.signature[:4] == (16964, 11130, 5322, 7320)
    assert plain.signature[4].startswith("1eaa40cc")
