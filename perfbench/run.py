"""ripr benchmark.

Run from the root of a ripr checkout:

    python3 perfbench/run.py --workload mt-separate --seed 0 --seconds 25 --trace 0

The last line of standard output is the result, one JSON object with the keys
correct, attempted, failed and metrics; the line before it names the machine
(nproc, Python version, platform) and the run's sample counts.  With
--trace 1 the metrics are the per-layer ones and the spans are written to
perfbench/out/.

    python3 perfbench/run.py --selftest   # tiny sizes; checks the checks
    python3 perfbench/run.py --pin        # rewrite expected.json from this code
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv=None):
    ap = argparse.ArgumentParser(description="ripr benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)

    # Build on the checkout's own sources only, never on an installed copy.
    if not os.path.isfile(os.path.join(SRC, "ripr", "__init__.py")):
        print("error: no ripr sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    import bench
    import workloads

    if args.selftest:
        import selftest
        return selftest.main(OUT)
    if args.pin:
        import selftest
        selftest.pin(OUT, os.path.join(HERE, "expected.json"))
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    result, info = bench.run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, OUT)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
