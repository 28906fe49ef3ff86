"""Benchmark of chbfem's two solution strategies.

Run from the root of a source checkout:

    python3 chbbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Workloads are ``desk``, ``fine`` and ``swell`` (see harness.py).  The
package is imported from ``src/`` of the checkout; without it the script
exits with code 2 and prints no result.  One BLAS thread is used and the
numpy kernels are selected, so runs on different commits compare like with
like.  Outputs go to ``.chbbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the machine, the iteration counts, the stop
reasons, any failed checks and, when traced, how each strategy's wall time
splits over the layers.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chbfem" / "__init__.py").is_file():
        print(f"error: no chbfem sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["CHBFEM_KERNELS"] = "numpy"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    info, result = harness.measure(
        harness.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), ROOT / ".chbbench_out" / args.workload)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
