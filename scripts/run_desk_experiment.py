#!/usr/bin/env python3
"""Full desk-scale sweep: every heuristic x keep fraction x pooling, before
and after fine-tuning, averaged over seeds.

Produces, under --out:
  seed<N>/                    per-seed pipeline results (metrics.csv, models,
                              per-point layer reports)
  summary.csv                 seed-averaged mAP / recall@4 per sweep point
  layer_fractions.csv         per-layer remaining fraction for the h1 sweep
                              (first seed, first pooling), one row per (keep
                              fraction, layer); written when h1 is swept

Runtime grows linearly in heuristics x fractions x poolings x seeds x epochs:
one seed of 24 points (h1-h4 x keep 0.5/0.2/0.1 x sqp/rmac) at 20 epochs on
40x8 images took 121 s on a 2-vCPU machine. Trimmed sweeps look like this:

  python scripts/run_desk_experiment.py --out results/quick \
      --heuristics h1,h3 --keep 0.5,0.2 --poolings sqp --seeds 0 --epochs 5
"""

import argparse
import dataclasses
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

from convprune import container
from convprune.cli import ExperimentConfig, fraction_list, name_list, run_pipeline, sweep_points
from convprune.dataset import TRAINABLE_IMAGES_PER_INSTANCE, RetrievalDataset, generate_dataset
from convprune.finetune import FinetuneConfig, sample_triplets, train_baseline
from convprune.network import save_model, tinynet_architecture


def _seeds(text: str) -> list[int]:
    """The argparse type of `--seeds`: comma-separated distinct integers >= 0
    (a repeated seed would be averaged twice)."""
    seeds = text.split(",")
    if not all(s.isdecimal() for s in seeds) or len(set(map(int, seeds))) < len(seeds):
        raise argparse.ArgumentTypeError(f"expected distinct comma-separated integers >= 0, "
                                         f"got {text!r}")
    return [int(s) for s in seeds]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True)
    p.add_argument("--data", default="", help="existing dataset dir (default: generate)")
    gen = inspect.signature(generate_dataset).parameters  # the dataset defaults' one owner
    p.add_argument("--instances", type=int, default=gen["instances"].default)
    p.add_argument("--images", type=int, default=gen["images_per_instance"].default)
    defaults = ExperimentConfig()  # the sweep defaults and flag grammar are the pipeline's
    p.add_argument("--heuristics", type=name_list, default=defaults.heuristics)
    p.add_argument("--keep", type=fraction_list, default=defaults.keep_fractions)
    p.add_argument("--poolings", type=name_list, default=defaults.poolings)
    p.add_argument("--seeds", type=_seeds, default="0,1,2")
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:  # every failed check exits with one line
        return run(args)
    except ValueError as exc:
        sys.exit(f"error: {exc}")


def run(args) -> int:
    out = Path(args.out)
    # the sweep's checks, before a baseline trains for it
    sweep = ExperimentConfig(heuristics=args.heuristics, keep_fractions=args.keep,
                             poolings=args.poolings, epochs=args.epochs)
    data_dir = Path(args.data or out / "data")
    if not args.data:
        if args.images < TRAINABLE_IMAGES_PER_INSTANCE:
            raise ValueError(f"--images {args.images}: training needs at least "
                             f"{TRAINABLE_IMAGES_PER_INSTANCE} images per instance")
        if not (data_dir / "manifest.json").exists():
            print(f"generating dataset ({args.instances}x{args.images}) at {data_dir}")
            # rejects too few instances before it writes anything
            generate_dataset(data_dir, instances=args.instances, images_per_instance=args.images)
    try:
        dataset = RetrievalDataset.load(data_dir)
        sample_triplets(dataset, 0)  # the checks training makes, before any seed trains
    except ValueError as exc:
        raise ValueError(f"{data_dir}: {exc}") from exc

    # accumulate rows keyed by sweep point, then average over seeds
    acc = defaultdict(list)
    for seed in args.seeds:
        seed_dir = out / f"seed{seed}"
        baseline_path = seed_dir / "baseline"
        if not (baseline_path / "manifest.json").exists():
            t0 = time.time()
            model = train_baseline(tinynet_architecture(), dataset,
                                   FinetuneConfig(epochs=args.epochs, seed=seed))
            save_model(model, str(baseline_path))
            print(f"seed {seed}: baseline trained in {time.time() - t0:.0f}s")
        t0 = time.time()
        rows = run_pipeline(dataclasses.replace(sweep, seed=seed, data=str(data_dir),
                                                model=str(baseline_path), out=str(seed_dir)))
        print(f"seed {seed}: sweep finished in {time.time() - t0:.0f}s")
        for *key, map_, recall4 in rows:  # a point with no scored query has recall4 None
            acc[tuple(key)].append((map_, float("nan") if recall4 is None else recall4))

    summary = [["heuristic", "keep_fraction", "pooling", "phase",
                "map_mean", "recall4_mean", "seeds"]]
    for key, vals in sorted(acc.items()):  # the seed means of map and recall@4
        summary.append([*key, *(sum(column) / len(vals) for column in zip(*vals)), len(vals)])
    container.write_csv(out / "summary.csv", summary)
    print(f"wrote {out / 'summary.csv'}")

    # per-layer remaining fractions for the h1 sweep (first seed and pooling), plot-ready
    h1 = [p for p in sweep_points(sweep) if (p.heuristic, p.pooling) == ("h1", sweep.poolings[0])]
    if not h1:
        print(f"{out / 'layer_fractions.csv'} not written: h1 is not in the sweep")
        return 0
    h1_rows = []
    reports = out / f"seed{args.seeds[0]}" / "reports"
    for point in h1:  # every h1 point writes its report
        payload = container.read_json(reports / f"prune_{point.tag}.json", ValueError)
        h1_rows += [[point.fields[1], *(r[k] for k in ("layer", "total", "remaining", "fraction"))]
                    for r in payload["layers"]]
    container.write_csv(out / "layer_fractions.csv",
                        [["keep_fraction", "layer", "total", "remaining", "fraction"], *h1_rows])
    print(f"wrote {out / 'layer_fractions.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
