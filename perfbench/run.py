#!/usr/bin/env python3
"""hquc benchmark entry point.

    python3 perfbench/run.py --workload s1_ten_unit --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is the JSON result; the lines before it
(prefixed with ``#``) give the environment, the result checksum and details.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hquc" / "__init__.py").is_file():
        print(f"error: no hquc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    info, result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    print("\n".join(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
