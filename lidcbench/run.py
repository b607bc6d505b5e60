"""Run one LIDC benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 lidcbench/run.py --workload dp-scan --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (seed, input trace hash, config, environment,
sample counts, any failed check).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The exit code is 0 only when
every op succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    from lidcbench.harness import run
    from lidcbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="LIDC end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spans_dir=os.path.join(ROOT, "lidcbench", "out"))
    details = report["details"]
    details["environment"] = _environment()
    print(json.dumps(details, sort_keys=True, default=str))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


def _environment() -> dict:
    """The measurement context of ``benchmarks/_bench_utils.py``: cpu_count, git rev."""
    sys.path.append(os.path.join(ROOT, "benchmarks"))
    from _bench_utils import bench_environment

    return bench_environment()


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"lidcbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    # git (for the revision in the record) must not look above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    sys.exit(main())
