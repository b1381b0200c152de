"""lgseg benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  This launcher only checks that the
checkout holds lgseg's sources, pins the BLAS thread count before NumPy is
imported, and puts src/ first on the import path; bench.py does the rest.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lgseg" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} lacks src/lgseg or BENCHMARK.json; "
              "run from the root of an lgseg checkout", file=sys.stderr)
        return 2
    env.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.run(args, ROOT, STARTED)


if __name__ == "__main__":
    sys.exit(main())
