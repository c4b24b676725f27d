#!/usr/bin/env python3
"""The dsie benchmark.

    python3 perfbench/run.py --workload fixture4-mc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report is
written to ``.perfbench_out/``. See ``perfbench/README.md``.

BLAS and OpenMP settings are taken from the environment unchanged.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dsie" / "__init__.py").is_file():
        print(f"perfbench: no dsie package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import dsie

    if Path(dsie.__file__).resolve().parent != src / "dsie":
        print(f"perfbench: imported dsie from {dsie.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
