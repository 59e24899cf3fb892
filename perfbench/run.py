#!/usr/bin/env python3
"""Run one convprune benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload finetune --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`
directory, so nothing needs installing. With `--trace 0` the last line of
standard output is the end-to-end metrics; with `--trace 1` it is the
per-layer metrics of a traced run, and the spans are written to
`perfbench/_results/`. The line before it holds the run's provenance. The
whole result, with raw sample times and the output-check failures, goes to
`perfbench/_results/<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from provenance import BLAS_THREAD_VARS, collect, loadavg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "_results"
WORK = HERE / "_work"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["finetune", "retrieve", "sweep"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "convprune" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'convprune'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy first loads it: pin it before that.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import convprune
    if Path(convprune.__file__).resolve().parent != (SRC / "convprune").resolve():
        print(f"perfbench: imported convprune from {convprune.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{name}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": collect(ROOT, SRC, args.seed),
              "loadavg_before": loadavg()}
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics, bench = workloads.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = loadavg()
    if args.trace:
        spans = RESULTS / f"spans-{name}.jsonl"
        bench.tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    out = bench.outcome
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result=result, failures=out.failures, detail=bench.detail,
                  computed_kernel_counts=bench.kernels)
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1))
    for failure in out.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"],
                      "loadavg_before": record["loadavg_before"],
                      "loadavg_after": record["loadavg_after"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
