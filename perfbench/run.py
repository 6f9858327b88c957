#!/usr/bin/env python3
"""Benchmark of the mdirac package.

Run from the repository root:

    python3 perfbench/run.py --workload nf_pipeline --seed 1 --seconds 20 --trace 0

Workloads: nf_pipeline, projected_flow, probe_brackets (see
perfbench/README.md).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced loop, and the spans are
written to ``.bench_traces/``.  The package is imported from ``src/``
of the checkout this file sits in; without it the run exits with code 2
and prints no result.
"""

import os

# one process, one BLAS thread: pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "mdirac" / "__init__.py").is_file():
        print("perfbench: no mdirac package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # imports numpy, scipy and mdirac

    if args.workload not in harness.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(harness.WORKLOADS)))
    import_s = time.perf_counter() - t_start
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), import_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
