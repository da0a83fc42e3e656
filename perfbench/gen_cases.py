"""Write the frozen generated cases of the `difftest` workload.

    python3 perfbench/gen_cases.py 11

draws 60 cases with `corpusgen.generate_case` (choice allowed) from the
given seed and writes them as `perfbench/cases/gen-NN.asml` and
`gen-NN.state`.  The files are committed, so later changes to `corpusgen`
or the interpreter do not change the benchmark's inputs; `run.py` checks
that each file parses and prints back to the same text.
"""
import argparse
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tangleca import asmlang, corpusgen, hfset, interpreter  # noqa: E402

COUNT = 60


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("--out", type=pathlib.Path, default=HERE / "cases")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    universe = hfset.Universe(max_depth=64)
    rng = random.Random(args.seed)
    for i in range(COUNT):
        program, state = corpusgen.generate_case(rng, universe,
                                                 allow_choice=True)
        stem = args.out / ("gen-%02d" % i)
        stem.with_suffix(".asml").write_text(asmlang.pretty_print(program))
        stem.with_suffix(".state").write_text(interpreter.print_state(state))
    print("wrote %d cases to %s" % (COUNT, args.out))


if __name__ == "__main__":
    main()
