"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload drugs-tgae --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds tiergae's source under `src/`.
The last line of standard output is the JSON result; the lines before it
describe the inputs, the digests and each metric. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

# BLAS reads its thread count when numpy loads, so this comes before any
# import of numpy; one thread keeps the run to a single busy core
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path.cwd()
SRC = ROOT / "src"


def main(argv=None) -> int:
    if not (SRC / "tiergae" / "__init__.py").is_file():
        print(f"perfbench: no tiergae source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import argparse
    import json

    from harness import run
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    result, report = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), ROOT)
    for line in report:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
