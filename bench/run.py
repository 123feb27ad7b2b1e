"""Benchmark entry point: run one workload against the datagraph sources.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/`` next to
this directory, never from an installed copy. Human-readable metric lines
go first; the last line of standard output is the result as one JSON
object. The same document, with the seed, Python version and CPU count, is
written to ``bench/out/results/``; a traced run also writes its spans to
``bench/out/traces/``. Exits 1 when a check fails, 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "datagraph" / "__init__.py").is_file():
        print(f"bench: no datagraph sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import datagraph

    if Path(datagraph.__file__).resolve().parent != SRC / "datagraph":
        print(f"bench: imported datagraph from {datagraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    spans_path = None
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        spans_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scratch=OUT / f"tmp-{args.workload}-{os.getpid()}",
        spans_path=spans_path,
    )
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
