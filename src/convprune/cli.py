"""Command-line orchestration for the pruning / retrieval experiments.

Subcommands: gen-dataset, train, prune, finetune, extract, evaluate, report,
pipeline. Every command is deterministic given its flags and seeds; all
randomness flows from explicit seeds. Exit codes: 0 success, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import container
from . import dataset as ds
from . import network as net
from . import pruner, retrieval, salience
# descriptor_of is unused here but stays bound: perfbench/tracer.py wraps
# `cli.descriptor_of` by name and fails if the name is missing
from .finetune import (MINING_MODES, FinetuneConfig, descriptor_of,  # noqa: F401
                       finetune as run_finetune, require_int, sample_triplets,
                       split_descriptors, train_baseline)
from .pooling import POOLING_KINDS

DEFAULT_KEEP_FRACTIONS = (0.5, 0.4, 0.3, 0.2, 0.1)


@dataclass
class ExperimentConfig:
    heuristics: list[str] = field(default_factory=lambda: list(salience.HEURISTICS))
    keep_fractions: list[float] = field(default_factory=lambda: list(DEFAULT_KEEP_FRACTIONS))
    poolings: list[str] = field(default_factory=lambda: list(POOLING_KINDS))
    # fine-tune settings: the defaults and the validation are FinetuneConfig's
    epochs: int = FinetuneConfig.epochs
    margin: float = FinetuneConfig.margin
    learning_rate: float = FinetuneConfig.learning_rate
    batch_size: int = FinetuneConfig.batch_size
    mining: str = FinetuneConfig.mining
    rmac_levels: int = FinetuneConfig.rmac_levels
    seed: int = FinetuneConfig.seed
    stats_images: int = 256   # samples for h3/h4 activation statistics
    h2_triplets: int = 64     # triplet batch for h2 salience
    data: str = ""
    model: str = ""
    out: str = ""

    def __post_init__(self):
        for name in ("heuristics", "keep_fractions", "poolings"):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and values):
                raise ValueError(f"{name} must be a nonempty list, got {values!r}")
        require_int(self, "stats_images", 1)
        require_int(self, "h2_triplets", 1)
        for t in self.keep_fractions:
            if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 < t <= 1.0:
                raise ValueError(f"keep fraction must be a number in (0, 1], got {t!r}")
        for h in self.heuristics:
            if h not in salience.HEURISTICS:
                raise ValueError(f"unknown heuristic {h!r}")
        for p in self.poolings:
            self.finetune_config(p)  # rejects bad settings before any point runs

    @classmethod
    def from_file(cls, path: str, overrides: dict) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text()) if path else {}
        if not isinstance(data, dict):
            raise ValueError(f"config {path} is not a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def finetune_config(self, pooling: str) -> FinetuneConfig:
        """The FinetuneConfig for one pooling; fields that both configs have
        are copied by name, the rest keep FinetuneConfig's defaults."""
        own = {f.name for f in dataclasses.fields(self)}
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(FinetuneConfig)
                  if f.name in own}
        return FinetuneConfig(pooling=pooling, **shared)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _descriptor_index(dataset, descriptors: dict) -> retrieval.DescriptorIndex:
    entries = [retrieval.IndexEntry(iid, d, dataset.label_of(iid))
               for iid, d in sorted(descriptors.items())]
    return retrieval.DescriptorIndex(entries=entries)


def evaluate_model(model, dataset, pooling: str, rmac_levels: int = FinetuneConfig.rmac_levels,
                   save_index_to: str | Path | None = None) -> retrieval.EvalResult:
    """Index the "index" split, query the "query" split, score mAP / recall@4."""
    index = _descriptor_index(dataset, split_descriptors(model, dataset, "index", pooling,
                                                         rmac_levels))
    if save_index_to is not None:
        index.save(save_index_to)
    queries = [(iid, desc, set(dataset.relevant[iid])) for iid, desc in
               split_descriptors(model, dataset, "query", pooling, rmac_levels).items()]
    return retrieval.evaluate(index, queries)


def _activation_stats(model, dataset, cfg: ExperimentConfig) -> salience.ActivationStats:
    items = dataset.split("train") or dataset.split("index")
    ids = [it.item_id for it in items][:cfg.stats_images]
    return salience.collect_activation_stats(
        model, (dataset.load_image(i) for i in ids), fingerprint=dataset.fingerprint)


def _salience_for(heuristic: str, model, dataset, cfg: ExperimentConfig, pooling: str,
                  stats: salience.ActivationStats | None = None):
    # gathers the heuristic's inputs; `salience.compute_salience` dispatches
    if stats is None and heuristic in ("h3", "h4"):
        stats = _activation_stats(model, dataset, cfg)
    triplets = None
    if heuristic == "h2":
        triplets = sample_triplets(dataset, cfg.h2_triplets, mode="random", seed=[cfg.seed, 997])
    return salience.compute_salience(heuristic, model, stats=stats, triplets=triplets,
                                     dataset=dataset, pooling=pooling, margin=cfg.margin,
                                     rmac_levels=cfg.rmac_levels)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _training_config(args) -> FinetuneConfig:
    return FinetuneConfig(margin=args.margin, learning_rate=args.lr, epochs=args.epochs,
                          batch_size=args.batch_size, seed=args.seed,
                          mining=args.mining, pooling=args.pooling)


def cmd_gen_dataset(args) -> int:
    shape = tuple(int(d) for d in args.shape.split("x"))
    ds.generate_dataset(args.out, instances=args.instances,
                        images_per_instance=args.images, shape=shape, seed=args.seed)
    print(f"dataset written to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = ds.RetrievalDataset.load(args.data)
    if args.arch == "tinynet":
        arch = net.tinynet_architecture()
    else:
        arch = json.loads(Path(args.arch).read_text())
    cfg = _training_config(args)
    model = train_baseline(arch, dataset, cfg)
    net.save_model(model, args.out)
    last = model.meta["history"][-1]
    print(f"trained {args.epochs} epochs; final mean loss {last['mean_loss']:.4f}; "
          f"saved to {args.out}")
    return 0


def cmd_prune(args) -> int:
    model = net.load_model(args.model)
    cfg = ExperimentConfig(seed=args.seed, margin=args.margin)
    dataset = ds.RetrievalDataset.load(args.data) if args.data else None
    if args.heuristic != "h1" and dataset is None:
        raise ValueError(f"heuristic {args.heuristic} needs --data")
    smap = _salience_for(args.heuristic, model, dataset, cfg, args.pooling)
    pruned, report = pruner.apply_pruning(model, smap, args.keep)
    net.save_model(pruned, args.out)
    if args.report:
        report.write_json(args.report)
    print(f"pruned with {args.heuristic} to keep={args.keep}: achieved "
          f"{report.achieved_keep_fraction:.6f}, threshold {report.threshold}")
    return 0


def cmd_finetune(args) -> int:
    model = net.load_model(args.model)
    dataset = ds.RetrievalDataset.load(args.data)
    cfg = _training_config(args)
    tuned, log = run_finetune(model, dataset, cfg)
    net.save_model(tuned, args.out)
    if args.log:
        container.write_atomic(args.log, "".join(json.dumps(e) + "\n" for e in log).encode())
    print(f"fine-tuned {args.epochs} epochs; final mean loss {log[-1]['mean_loss']:.4f}; "
          f"saved to {args.out}")
    return 0


def cmd_extract(args) -> int:
    model = net.load_model(args.model)
    dataset = ds.RetrievalDataset.load(args.data)
    descs = split_descriptors(model, dataset, args.split, args.pooling, args.rmac_levels)
    out = Path(args.out)
    _descriptor_index(dataset, descs).save(out)
    print(f"extracted {len(descs)} {args.pooling} descriptors to {out}")
    return 0


def cmd_evaluate(args) -> int:
    model = net.load_model(args.model)
    dataset = ds.RetrievalDataset.load(args.data)
    result = evaluate_model(model, dataset, args.pooling, args.rmac_levels)
    container.write_atomic(args.out, result.to_json().encode())
    if args.csv:
        result.write_csv(args.csv)
    r4 = "n/a" if result.mean_recall4 is None else f"{result.mean_recall4:.4f}"
    print(f"mAP {result.mean_ap:.4f}  4xrecall@4 {r4}  ({result.query_count} queries)")
    return 0


def cmd_report(args) -> int:
    payload = json.loads(Path(args.input).read_text())
    out = Path(args.out)
    if "layers" in payload:  # prune report
        pruner.write_prune_csv(out, payload["layers"])
    elif "per_query_ap" in payload:  # eval result
        retrieval.EvalResult(payload["per_query_ap"], payload["per_query_recall4"],
                             payload["query_count"]).write_csv(out)
    else:
        raise ValueError(f"{args.input} is neither a prune report nor an eval result")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_pipeline(cfg: ExperimentConfig) -> Path:
    """prune -> evaluate -> fine-tune -> evaluate for every sweep point.

    Emits metrics.csv rows incrementally so partial results survive a
    failure; models, per-point prune reports, and a JSON-lines event log
    land next to it.
    """
    if not cfg.data or not cfg.model or not cfg.out:
        raise ValueError("pipeline needs data, model, and out paths")
    dataset = ds.RetrievalDataset.load(cfg.data)
    baseline = net.load_model(cfg.model)
    out = Path(cfg.out)
    for sub in ("models", "reports", "descriptors"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    log_path = out / "log.jsonl"
    log_path.write_text("")  # each run starts its own log, as it does metrics.csv
    metrics_path = out / "metrics.csv"

    def log_event(**kv):
        with open(log_path, "a") as fh:
            fh.write(json.dumps({"time": time.time(), **kv}) + "\n")

    salience_cache: dict[str, salience.SalienceMap] = {}
    stats_cache: list[salience.ActivationStats] = []

    def salience_for_point(heuristic: str, pooling: str) -> salience.SalienceMap:
        # h1 and the stats-based heuristics are pooling-independent; h2's
        # loss runs through the pooling, so it gets one map per pooling
        key = heuristic if heuristic != "h2" else f"h2_{pooling}"
        if key not in salience_cache:
            if heuristic in ("h3", "h4") and not stats_cache:
                stats_cache.append(_activation_stats(baseline, dataset, cfg))
            salience_cache[key] = _salience_for(heuristic, baseline, dataset, cfg, pooling,
                                                *stats_cache)
        return salience_cache[key]

    failed = False
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["heuristic", "keep_fraction", "pooling", "phase", "map", "recall4"])
        fh.flush()
        for pooling in cfg.poolings:
            for heuristic in cfg.heuristics:
                for keep in cfg.keep_fractions:
                    tag = f"{heuristic}_t{keep:g}_{pooling}"
                    try:
                        smap = salience_for_point(heuristic, pooling)
                        pruned, report = pruner.apply_pruning(baseline, smap, keep)
                        report.write_json(out / "reports" / f"prune_{tag}.json")
                        report.write_csv(out / "reports" / f"prune_{tag}.csv")
                        before = evaluate_model(pruned, dataset, pooling, cfg.rmac_levels)
                        _write_row(writer, fh, heuristic, keep, pooling, "pruned", before)
                        log_event(stage="pruned", point=tag, map=before.mean_ap)

                        tuned, _ = run_finetune(pruned, dataset, cfg.finetune_config(pooling))
                        net.save_model(tuned, str(out / "models" / tag))
                        after = evaluate_model(tuned, dataset, pooling, cfg.rmac_levels,
                                               save_index_to=out / "descriptors" / tag)
                        _write_row(writer, fh, heuristic, keep, pooling, "finetuned", after)
                        log_event(stage="finetuned", point=tag, map=after.mean_ap)
                    except Exception as exc:  # keep partial results, fail the run
                        failed = True
                        log_event(stage="error", point=tag, error=str(exc))
                        print(f"point {tag} failed: {exc}", file=sys.stderr)
    if failed:
        raise RuntimeError(f"one or more pipeline points failed; partial results in {out}")
    return out


def _write_row(writer, fh, heuristic, keep, pooling, phase, result) -> None:
    r4 = "" if result.mean_recall4 is None else f"{result.mean_recall4:.12g}"
    writer.writerow([heuristic, f"{keep:g}", pooling, phase, f"{result.mean_ap:.12g}", r4])
    fh.flush()


def cmd_pipeline(args) -> int:
    overrides = {
        "heuristics": args.heuristic.split(",") if args.heuristic else None,
        "keep_fractions": [float(t) for t in args.keep.split(",")] if args.keep else None,
        "poolings": args.pooling.split(",") if args.pooling else None,
        "epochs": args.epochs,
        "margin": args.margin,
        "seed": args.seed,
        "data": args.data,
        "model": args.model,
        "out": args.out,
    }
    cfg = ExperimentConfig.from_file(args.config, overrides)
    out = run_pipeline(cfg)
    print(f"pipeline finished; metrics in {out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_training_flags(p: argparse.ArgumentParser) -> None:
    """The fine-tune flags of `train` and `finetune`; `_training_config` reads them."""
    p.add_argument("--epochs", type=int, default=FinetuneConfig.epochs)
    p.add_argument("--margin", type=float, default=FinetuneConfig.margin)
    p.add_argument("--lr", type=float, default=FinetuneConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=FinetuneConfig.batch_size)
    p.add_argument("--mining", choices=MINING_MODES, default=FinetuneConfig.mining)
    p.add_argument("--pooling", choices=POOLING_KINDS, default=FinetuneConfig.pooling)
    p.add_argument("--seed", type=int, default=FinetuneConfig.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convprune",
                                     description="Prune, fine-tune, and evaluate small retrieval CNNs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="render a synthetic retrieval dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--instances", type=int, default=40)
    p.add_argument("--images", type=int, default=8)
    p.add_argument("--shape", default="3x32x32")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_dataset)

    p = sub.add_parser("train", help="train a baseline model from scratch")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arch", default="tinynet", help="'tinynet' or a JSON architecture file")
    _add_training_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("prune", help="prune a model with one heuristic")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--heuristic", choices=list(salience.HEURISTICS), required=True)
    p.add_argument("--keep", type=float, required=True)
    p.add_argument("--data", default="", help="dataset (needed for h2/h3/h4)")
    p.add_argument("--pooling", choices=POOLING_KINDS, default=FinetuneConfig.pooling)
    p.add_argument("--margin", type=float, default=FinetuneConfig.margin)
    p.add_argument("--seed", type=int, default=FinetuneConfig.seed)
    p.add_argument("--report", default="", help="write the prune report JSON here")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("finetune", help="fine-tune a (pruned) model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_training_flags(p)
    p.add_argument("--log", default="", help="write a JSON-lines training log here")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("extract", help="batch-extract descriptors for a split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["train", "index", "query"], default="index")
    p.add_argument("--pooling", choices=POOLING_KINDS, default=FinetuneConfig.pooling)
    p.add_argument("--rmac-levels", type=int, default=FinetuneConfig.rmac_levels)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("evaluate", help="score retrieval quality of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="eval result JSON")
    p.add_argument("--csv", default="", help="also write per-query CSV here")
    p.add_argument("--pooling", choices=POOLING_KINDS, default=FinetuneConfig.pooling)
    p.add_argument("--rmac-levels", type=int, default=FinetuneConfig.rmac_levels)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="render a report JSON (prune/eval) to CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("pipeline", help="full sweep: prune, evaluate, fine-tune, evaluate")
    p.add_argument("--config", default="", help="JSON ExperimentConfig; flags override")
    p.add_argument("--heuristic", default="", help="comma-separated heuristic ids")
    p.add_argument("--keep", default="", help="comma-separated keep fractions")
    p.add_argument("--pooling", default="", help="comma-separated pooling kinds")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
