#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternated pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload sweep --workload finetune --pairs 10 --label image_cache

Each pair runs the checkouts' own `perfbench/run.py` (`--trace 0`) once per
side with the same seed; which side runs first flips every pair. Pair k uses
seed `--first-seed` + k. Per workload and end-to-end metric of the change's
`BENCHMARK.json` it prints both medians, the pairs the change won (ties count
for neither), the parent's interquartile range and a verdict, the first of
these that holds:

  gain          the change won at least 9/10 of the pairs and its median beats
                the parent's by more than the parent's interquartile range;
  worse         the change's median is worse than the parent's by more than
                the metric's `bound` (a fraction of the parent's median);
  unresolved    the parent's interquartile range is wider than that bound,
                and not every change run beats every parent run;
  within bound  anything else.

Runs last `run_seconds` of `BENCHMARK.json`. `BENCH_<label>.json`, in the
current directory, is rewritten after every pair, through a rename, so a
failed write leaves the previous file. It holds the command run,
each side's commit and source hash, the summary, with both sides' quartiles,
and, per run, the end-to-end metrics, the output checks and the provenance
line `perfbench/run.py` printed.

Verdicts read the bounds of the change's `BENCHMARK.json` alone. So each
side also records `benchmark_sha256`, over its `BENCHMARK.json` and the
`*.py` and `*.md` files directly under its `perfbench/`, and when the two
differ the record holds `"benchmark_differs": true` and a warning line is
printed above the summary.

The workload `tier1` runs the Tier-1 suite instead (`TIER1_COMMAND`, in the
checkout, with its `src` on PYTHONPATH). Each run records its wall time
`wall_s`, the passed, failed and error counts and the `--durations` list of
the slowest tests; `wall_s` gets the same verdicts (`TIER1_METRICS`).
That summary is informational: `BENCHMARK.json` gates no Tier-1 metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from convprune.container import write_atomic  # noqa: E402
from provenance import collect  # noqa: E402

SIDES = ("parent", "change")
TIER1 = "tier1"
TIER1_COMMAND = ["python3", "-m", "pytest", "-q", "--continue-on-collection-errors",
                 "--durations=10"]
TIER1_METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True, action="append",
                   help="workload to run; repeat for several, run one after the other")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    return args


def command(bench: dict, workload: str, seed) -> list[str]:
    """The benchmark's command for one untraced run."""
    return bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]


def benchmark_sha256(checkout: Path) -> str:
    """sha256 over `BENCHMARK.json` and every `*.py` and `*.md` file directly
    under `perfbench/` in `checkout`, each name then its bytes, in sorted
    name order."""
    bench = checkout / "perfbench"
    paths = [checkout / "BENCHMARK.json", *bench.glob("*.py"), *bench.glob("*.md")]
    digest = hashlib.sha256()
    for name in sorted(str(path.relative_to(checkout)) for path in paths):
        digest.update(name.encode() + b"\0" + (checkout / name).read_bytes())
    return digest.hexdigest()


def run_once(checkout: Path, cmd: list[str]) -> dict:
    """One run of `cmd` in `checkout`: its provenance line and its result."""
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                           f"{out.stderr}")
    result = json.loads(lines[-1])
    return {**json.loads(lines[-2]), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def parse_tier1(stdout: str) -> dict:
    """The passed, failed and error counts on the last line of a pytest run's
    output, and the tests its `--durations` section lists, slowest first."""
    lines = stdout.strip().splitlines()
    counts = {"passed": 0, "failed": 0, "errors": 0}
    for n, kind in re.findall(r"(\d+) (passed|failed|error)", lines[-1] if lines else ""):
        counts["errors" if kind == "error" else kind] = int(n)
    slowest = [{"seconds": float(m[1]), "when": m[2], "test": m[3]}
               for m in map(re.compile(r"(\d+\.\d+)s (setup|call|teardown) +(\S+)$").match,
                            lines) if m]
    return {**counts, "slowest": slowest}


def run_tier1(checkout: Path) -> dict:
    """One Tier-1 run in `checkout`: its commit and source hash, `wall_s` and
    what `parse_tier1` reads from its output."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    out = subprocess.run(TIER1_COMMAND, cwd=checkout, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    wall_s = time.perf_counter() - start
    if out.returncode not in (0, 1):  # 1: some tests failed, which the run records
        raise RuntimeError(f"Tier-1 in {checkout} exited {out.returncode}:\n"
                           f"{out.stdout[-2000:]}{out.stderr}")
    provenance = collect(checkout, checkout / "src", None)
    return {"provenance": {k: provenance[k] for k in ("git_commit", "source_sha256")},
            "metrics": {"wall_s": wall_s}, **parse_tier1(out.stdout)}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric the runs report: each side's quartiles, the
    change's wins, the parent's interquartile range and the verdict."""
    summary = {}
    for spec in metrics:
        name = spec["name"]
        runs = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                for p in pairs]
        runs = [(a, b) for a, b in runs if a is not None and b is not None]
        if not runs:
            continue
        parent, change = [a for a, _ in runs], [b for _, b in runs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        pq, cq = quartiles(parent), quartiles(change)
        wins, iqr = sum(sign * (b - a) > 0 for a, b in runs), pq[2] - pq[0]
        ahead = sign * (cq[1] - pq[1])  # > 0: the change's median is the better one
        allowed = spec["bound"] * abs(pq[1])
        if wins >= 0.9 * len(runs) and ahead > iqr:
            verdict = "gain"
        elif -ahead > allowed:
            verdict = "worse"
        elif iqr > allowed and min(sign * b for b in change) <= max(sign * a for a in parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"], "pairs": len(runs),
            "parent_median": pq[1], "parent_quartiles": [pq[0], pq[2]],
            "change_median": cq[1], "change_quartiles": [cq[0], cq[2]],
            "change_wins": wins, "parent_iqr": iqr, "verdict": verdict,
        }
    return summary


def main(argv=None) -> int:
    args = _parse(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    out_path = Path(f"BENCH_{args.label}.json")
    digests = {side: benchmark_sha256(checkouts[side]) for side in SIDES}
    differs = digests["parent"] != digests["change"]
    record = {"label": args.label, "command": command(bench, "<workload>", "<seed>"),
              "benchmark_differs": differs,
              "checkouts": {side: {"benchmark_sha256": d} for side, d in digests.items()},
              "workloads": {}}
    if differs:
        print("warning: the benchmark differs between the checkouts; verdicts use the "
              "change's BENCHMARK.json")
    for workload in args.workload:
        pairs: list[dict] = []
        entry = record["workloads"][workload] = {"pairs": pairs}
        tier1 = workload == TIER1
        if tier1:
            entry["command"] = TIER1_COMMAND
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "order": list(order)}
            for side in order:
                pair[side] = run = (run_tier1(checkouts[side]) if tier1 else
                                    run_once(checkouts[side], command(bench, workload, seed)))
                for key in ("git_commit", "source_sha256"):
                    record["checkouts"][side].setdefault(key, run["provenance"][key])
            pairs.append(pair)
            entry["summary"] = summarize(pairs, TIER1_METRICS if tier1 else bench["end_to_end"])
            write_atomic(out_path, (json.dumps(record, indent=1) + "\n").encode())
            print(f"{workload} pair {k + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        print(f"\n{workload}: {len(pairs)} pairs")
        print(f"  {'metric':<20} {'parent median':>14} {'change median':>14} "
              f"{'wins':>6} {'parent IQR':>11}  verdict")
        for name, s in entry["summary"].items():
            print(f"  {name:<20} {s['parent_median']:>14.4g} {s['change_median']:>14.4g} "
                  f"{s['change_wins']:>3}/{s['pairs']:<2} {s['parent_iqr']:>11.4g}  "
                  f"{s['verdict']}")
        failed = sum(p[side]["failed"] for p in pairs for side in SIDES)
        print(f"  failed {'tests' if tier1 else 'operations'}: {failed}")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
