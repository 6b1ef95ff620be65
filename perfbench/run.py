"""Benchmark entry point: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload paper-campaign --seed 0 --seconds 45 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
machine and input facts.  Spans of a traced run are written to
``.perfbench_work/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hwfatigue" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}, expected one of "
                     f"{sorted(bench.WORKLOADS)}")
    result, facts, spans = bench.run_benchmark(
        workload, args.seed, args.seconds, bool(args.trace), WORK)
    if args.trace:
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"facts": facts, "spans": spans}) + "\n")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
