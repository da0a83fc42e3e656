"""tangleca: a sequential graph-rewriting automaton over shared
hereditarily-finite-set heaps, with a compiler from a small parallel
assignment language, a reference interpreter, differential testing,
and step-complexity benchmarks.

Layering (low to high):

  hfset       hash-consed hereditarily finite values
  kernel      the pure-Python matching kernel
  pattern     rules (anchored pattern plus rewrite), matching, apply
  tangle      value heaps as colored graphs with maximal sharing
  automaton   sequential tick loop, scheduling, invariant checking
  asmlang     surface language: parser, validator, pretty-printer
  interpreter reference semantics and state (de)serialization
  compiler    lowering programs to rule sets
  corpusgen   rejection-sampled random test cases
  difftest    automaton-vs-interpreter comparison
  bench       step-complexity measurements
  cli         command-line entry points
"""

from . import (asmlang, automaton, bench, compiler, corpusgen, difftest,
               hfset, interpreter, kernel, pattern, tangle)
from .kernel import KERNEL_NAME

__version__ = "0.1.0"

__all__ = ["asmlang", "automaton", "bench", "compiler", "corpusgen",
           "difftest", "hfset", "interpreter", "kernel", "pattern",
           "tangle", "KERNEL_NAME", "__version__"]
