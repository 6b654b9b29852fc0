"""encapnet benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload synth_train --seed 1 --seconds 56 --trace 0

Workloads: synth_train, routing_train (see harness.py). With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics read from spans. The line has the keys correct,
attempted, failed and metrics. The exit code is 0 when every output check
passed, 1 when one failed, and 2 when the library source is missing.
Details (environment, failures, spans) go to .bench_out/ under the root.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Same variables as encapnet.cli._pin_threads, forced to one thread; they
# must be set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("synth_train", "routing_train")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "encapnet" / "__init__.py").is_file():
        print(f"error: library source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # noqa: E402 - numpy loads here, after the thread pin

    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      thread_vars=THREAD_VARS, out_dir=harness.OUT_DIR)
    detail, result = out["detail"], out["result"]
    print("environment " + json.dumps(detail["environment"], sort_keys=True))
    for failure in detail["failures"]:
        print(f"FAILED: {failure}")
    print(f"failed_frac {detail['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
