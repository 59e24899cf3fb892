"""Command-line orchestration for the pruning / retrieval experiments.

Subcommands: gen-dataset, train, prune, finetune, extract, evaluate, report,
pipeline. Every command is deterministic given its flags and seeds; all
randomness flows from explicit seeds. Exit codes: 0 success, 1 runtime
failure, 2 usage error. A command with two outputs checks the second one's
target (`container.check_target`) before it writes the first.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import container
from . import dataset as ds
from . import network as net
from . import pruner, retrieval, salience
# descriptor_of is unused here but stays bound: perfbench/tracer.py wraps
# `cli.descriptor_of` by name and fails if the name is missing
from .finetune import (MINING_MODES, FinetuneConfig, descriptor_of,  # noqa: F401
                       finetune as run_finetune, sample_triplets,
                       split_descriptors, train_baseline)
from .pooling import POOLING_KINDS

DEFAULT_KEEP_FRACTIONS = (0.5, 0.4, 0.3, 0.2, 0.1)
H2_TRIPLETS = 64  # the random triplet batch h2's gradients are summed over


@dataclass
class ExperimentConfig:
    heuristics: list[str] = field(default_factory=lambda: list(salience.HEURISTICS))
    keep_fractions: list[float] = field(default_factory=lambda: list(DEFAULT_KEEP_FRACTIONS))
    poolings: list[str] = field(default_factory=lambda: list(POOLING_KINDS))
    # fine-tune settings: the defaults and the validation are FinetuneConfig's
    epochs: int = FinetuneConfig.epochs
    margin: float = FinetuneConfig.margin
    seed: int = FinetuneConfig.seed
    data: str = ""
    model: str = ""
    out: str = ""

    def __post_init__(self):
        for name in ("heuristics", "keep_fractions", "poolings"):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and values):
                raise ValueError(f"{name} must be a nonempty list, got {values!r}")
        for t in self.keep_fractions:
            if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 < t <= 1.0:
                raise ValueError(f"keep fraction must be a number in (0, 1], got {t!r}")
        for h in self.heuristics:
            if h not in salience.HEURISTICS:
                raise ValueError(f"unknown heuristic {h!r}")
        for name in ("data", "model", "out"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a path string, got {getattr(self, name)!r}")
        tags = [point.tag for point in sweep_points(self)]
        repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
        if repeated:  # a repeated point would overwrite the first one's files
            raise ValueError(f"sweep points repeat: {repeated}")
        for p in self.poolings:
            self.finetune_config(p)  # rejects bad settings before any point runs

    @classmethod
    def from_file(cls, path: str, overrides: dict) -> "ExperimentConfig":
        data = container.read_json(path, ValueError) if path else {}
        if not isinstance(data, dict):
            raise ValueError(f"config {path} is not a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def finetune_config(self, pooling: str) -> FinetuneConfig:
        """The FinetuneConfig for one pooling; the fields both configs have
        are copied by `settings_for`, the rest keep FinetuneConfig's defaults."""
        return FinetuneConfig(pooling=pooling, **settings_for(FinetuneConfig, self))


def settings_for(config_class, source) -> dict:
    """The attributes of `source` (parsed flags or an ExperimentConfig) that
    name fields of the dataclass `config_class`: every settings flag has the
    dest of the field it sets."""
    given = vars(source)
    return {f.name: given[f.name] for f in dataclasses.fields(config_class) if f.name in given}


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _descriptor_index(dataset, descriptors: dict) -> retrieval.DescriptorIndex:
    return retrieval.DescriptorIndex([retrieval.IndexEntry(iid, d, dataset.label_of(iid))
                                      for iid, d in descriptors.items()])


def evaluate_model(model, dataset, pooling: str,
                   save_index_to: str | Path | None = None) -> retrieval.EvalResult:
    """Index the "index" split, query the "query" split, score mAP / recall@4."""
    index = _descriptor_index(dataset, split_descriptors(model, dataset, "index", pooling))
    if save_index_to is not None:
        index.save(save_index_to)
    queries = [(iid, desc, set(dataset.relevant[iid])) for iid, desc in
               split_descriptors(model, dataset, "query", pooling).items()]
    return retrieval.evaluate(index, queries)


def _activation_stats(model, dataset) -> salience.ActivationStats:
    items = dataset.split("train") or dataset.split("index")
    return salience.collect_activation_stats(model, (dataset.load_image(it.item_id) for it in items))


def _salience_for(heuristic: str, model, dataset, cfg: FinetuneConfig,
                  stats: salience.ActivationStats | None = None) -> salience.SalienceMap:
    """The one salience dispatcher: gathers h2's triplets (from `cfg`'s seed, pooling
    and margin), or h3/h4's `stats` unless given, and calls `salience.salience_h*` on
    the module, where perfbench patches it."""
    if heuristic == "h1":
        return salience.salience_h1(model)
    if heuristic == "h2":
        triplets = sample_triplets(dataset, H2_TRIPLETS, mode="random", seed=[cfg.seed, 997])
        return salience.salience_h2(model, triplets, dataset, pooling=cfg.pooling,
                                    margin=cfg.margin)
    if heuristic in ("h3", "h4"):
        stats = stats if stats is not None else _activation_stats(model, dataset)
        return (salience.salience_h3 if heuristic == "h3" else salience.salience_h4)(model, stats)
    raise ValueError(f"unknown heuristic {heuristic!r} (expected one of {salience.HEURISTICS})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _shape(text: str) -> tuple[int, int, int]:
    """The argparse type of `gen-dataset --shape`: CxHxW, three positive integers."""
    dims = text.split("x")
    if len(dims) != 3 or not all(d.isdecimal() and int(d) > 0 for d in dims):
        raise argparse.ArgumentTypeError(f"expected CxHxW, three positive integers, got {text!r}")
    return tuple(int(d) for d in dims)


def fraction_list(text: str) -> list[float]:
    """The argparse type of a sweep's `--keep`: comma-separated numbers; the
    config checks that each is a keep fraction, as it does for a config file."""
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}") from None


def name_list(text: str) -> list[str]:
    """The argparse type of a sweep's heuristic and pooling flags: comma-separated names."""
    return text.split(",")


def cmd_gen_dataset(args) -> int:
    ds.generate_dataset(args.out, instances=args.instances,
                        images_per_instance=args.images, shape=args.shape, seed=args.seed)
    print(f"dataset written to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = ds.RetrievalDataset.load(args.data)
    if args.arch == "tinynet":
        arch = net.tinynet_architecture()
    else:
        arch = container.read_json(args.arch, ValueError)
    model = train_baseline(arch, dataset, FinetuneConfig(**settings_for(FinetuneConfig, args)))
    net.save_model(model, args.out)
    last = model.meta["history"][-1]
    print(f"trained {args.epochs} epochs; final mean loss {last['mean_loss']:.4f}; "
          f"saved to {args.out}")
    return 0


def cmd_prune(args) -> int:
    if args.report:
        container.check_target(args.report)
    model = net.load_model(args.model)
    cfg = FinetuneConfig(**settings_for(FinetuneConfig, args))
    dataset = ds.RetrievalDataset.load(args.data) if args.data else None
    if args.heuristic != "h1" and dataset is None:
        raise ValueError(f"heuristic {args.heuristic} needs --data")
    smap = _salience_for(args.heuristic, model, dataset, cfg)
    pruned, report = pruner.apply_pruning(model, smap, args.keep)
    net.save_model(pruned, args.out)
    if args.report:
        report.write_json(args.report)
    print(f"pruned with {args.heuristic} to keep={args.keep}: achieved "
          f"{report.achieved_keep_fraction:.6f}, threshold {report.threshold}")
    return 0


def cmd_finetune(args) -> int:
    if args.log:
        container.check_target(args.log)
    model = net.load_model(args.model)
    dataset = ds.RetrievalDataset.load(args.data)
    tuned, log = run_finetune(model, dataset, FinetuneConfig(**settings_for(FinetuneConfig, args)))
    net.save_model(tuned, args.out)
    if args.log:
        container.write_jsonl(args.log, log)
    print(f"fine-tuned {args.epochs} epochs; final mean loss {log[-1]['mean_loss']:.4f}; "
          f"saved to {args.out}")
    return 0


def cmd_extract(args) -> int:
    model = net.load_model(args.model)
    dataset = ds.RetrievalDataset.load(args.data)
    descs = split_descriptors(model, dataset, args.split, args.pooling)
    _descriptor_index(dataset, descs).save(args.out)
    print(f"extracted {len(descs)} {args.pooling} descriptors to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.csv:
        container.check_target(args.csv)
        if Path(args.csv).resolve() == Path(args.out).resolve():
            raise ValueError(f"cannot write {args.csv}: it is the --out file")
    model = net.load_model(args.model)
    dataset = ds.RetrievalDataset.load(args.data)
    result = evaluate_model(model, dataset, args.pooling)
    result.write_json(args.out)
    if args.csv:
        result.write_csv(args.csv)
    r4 = "n/a" if result.mean_recall4 is None else f"{result.mean_recall4:.4f}"
    print(f"mAP {result.mean_ap:.4f}  4xrecall@4 {r4}  ({result.query_count} queries)")
    return 0


def cmd_report(args) -> int:
    payload = container.read_json(args.input, ValueError)
    try:
        if "layers" in payload:  # prune report
            pruner.write_prune_csv(args.out, payload["layers"])
        elif "per_query_ap" in payload:  # eval result
            result = retrieval.EvalResult(payload["per_query_ap"], payload["per_query_recall4"],
                                          payload["query_count"])
            if (payload["mean_ap"], payload["recall4"]) != (result.mean_ap, result.mean_recall4):
                raise ValueError("mean_ap or recall4 is not the mean of its per-query values")
            result.write_csv(args.out)
        else:
            raise ValueError("no 'layers' or 'per_query_ap' key")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.input} is not a prune report or an eval result ({exc!r})") from exc
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class SweepPoint(NamedTuple):
    """One sweep point: its metrics.csv rows begin with `fields`, and `tag` names its files."""
    heuristic: str
    keep: float
    pooling: str

    @property
    def fields(self) -> list[str]:
        return [self.heuristic, f"{self.keep:g}", self.pooling]

    @property
    def tag(self) -> str:
        return "{}_t{}_{}".format(*self.fields)


def sweep_points(cfg: ExperimentConfig) -> list[SweepPoint]:
    """The sweep's points in run order: pooling-major, then heuristic, then keep fraction."""
    return [SweepPoint(h, t, p) for p in cfg.poolings for h in cfg.heuristics
            for t in cfg.keep_fractions]


def _run_point(point: SweepPoint, smap, baseline, dataset, ft_cfg: FinetuneConfig, out: Path):
    """Prune, evaluate, fine-tune and evaluate again, writing the point's reports, model
    and index under `out`; yields a (metrics.csv row, event) pair after each evaluation."""
    pruned, report = pruner.apply_pruning(baseline, smap, point.keep)
    report.write_json(out / "reports" / f"prune_{point.tag}.json")
    report.write_csv(out / "reports" / f"prune_{point.tag}.csv")
    before = evaluate_model(pruned, dataset, point.pooling)
    yield ([*point.fields, "pruned", before.mean_ap, before.mean_recall4],
           dict(stage="pruned", point=point.tag, map=before.mean_ap))
    tuned, epochs = run_finetune(pruned, dataset, ft_cfg)
    net.save_model(tuned, str(out / "models" / point.tag))
    after = evaluate_model(tuned, dataset, point.pooling,
                           save_index_to=out / "descriptors" / point.tag)
    yield ([*point.fields, "finetuned", after.mean_ap, after.mean_recall4],
           dict(stage="finetuned", point=point.tag, map=after.mean_ap, epochs=epochs))


def run_pipeline(cfg: ExperimentConfig) -> list[list]:
    """prune -> evaluate -> fine-tune -> evaluate for each of `sweep_points(cfg)`;
    returns the data rows written to metrics.csv, with their floats unrounded.

    Checks, before the first write, that the baseline takes the dataset's
    images and that the train split can form triplets. Runs each point in
    `_run_point` on the salience map of its heuristic and pooling, gathered
    once, and rewrites metrics.csv and the JSON-lines event log atomically
    after each row and event it yields (a `finetuned` event carries the epoch
    log), so partial results survive a failed point, which logs an `error`
    event and fails the run once every point has run."""
    if not cfg.data or not cfg.model or not cfg.out:
        raise ValueError("pipeline needs data, model, and out paths")
    dataset = ds.RetrievalDataset.load(cfg.data)
    baseline = net.load_model(cfg.model)
    if baseline.input_shape != dataset.image_shape:
        raise ValueError(f"baseline {cfg.model} takes {baseline.input_shape} images, "
                         f"dataset {cfg.data} holds {dataset.image_shape}")
    sample_triplets(dataset, 0)  # fine-tuning's checks on the train split
    out = Path(cfg.out)
    metrics_path, log_path = out / "metrics.csv", out / "log.jsonl"
    rows = [["heuristic", "keep_fraction", "pooling", "phase", "map", "recall4"]]
    events: list[dict] = []  # each run starts its own log, as it does metrics.csv
    container.write_csv(metrics_path, rows)
    container.write_jsonl(log_path, events)
    smaps: dict[tuple[str, str], salience.SalienceMap] = {}
    stats = None  # h3/h4's activation statistics, gathered once for every point
    for point in sweep_points(cfg):
        ft_cfg = cfg.finetune_config(point.pooling)
        key = (point.heuristic, point.pooling)
        try:
            if key not in smaps:
                if point.heuristic in ("h3", "h4") and stats is None:
                    stats = _activation_stats(baseline, dataset)
                smaps[key] = _salience_for(point.heuristic, baseline, dataset, ft_cfg, stats)
            for row, event in _run_point(point, smaps[key], baseline, dataset, ft_cfg, out):
                rows.append(row)
                container.write_csv(metrics_path, rows)
                events.append({"time": time.time(), **event})
                container.write_jsonl(log_path, events)
        except Exception as exc:  # keep partial results, fail the run
            events.append(dict(time=time.time(), stage="error", point=point.tag, error=str(exc)))
            container.write_jsonl(log_path, events)
            print(f"point {point.tag} failed: {exc}", file=sys.stderr)
    if any(event["stage"] == "error" for event in events):
        raise RuntimeError(f"one or more pipeline points failed; partial results in {out}")
    return rows[1:]


def cmd_pipeline(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, settings_for(ExperimentConfig, args))
    run_pipeline(cfg)
    print(f"pipeline finished; metrics in {Path(cfg.out) / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_training_flags(p: argparse.ArgumentParser) -> None:
    """The FinetuneConfig flags of `train` and `finetune`."""
    p.add_argument("--epochs", type=int, default=FinetuneConfig.epochs)
    p.add_argument("--margin", type=float, default=FinetuneConfig.margin)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                   default=FinetuneConfig.learning_rate)
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
    gen = inspect.signature(ds.generate_dataset).parameters  # the defaults' one owner
    p.add_argument("--instances", type=int, default=gen["instances"].default)
    p.add_argument("--images", type=int, default=gen["images_per_instance"].default)
    p.add_argument("--shape", type=_shape, default=gen["shape"].default)
    p.add_argument("--seed", type=int, default=gen["seed"].default)
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
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("evaluate", help="score retrieval quality of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="eval result JSON")
    p.add_argument("--csv", default="", help="also write per-query CSV here")
    p.add_argument("--pooling", choices=POOLING_KINDS, default=FinetuneConfig.pooling)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("report", help="render a report JSON (prune/eval) to CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("pipeline", help="full sweep: prune, evaluate, fine-tune, evaluate")
    p.add_argument("--config", default="", help="JSON ExperimentConfig; flags override")
    p.add_argument("--heuristic", dest="heuristics", metavar="HEURISTIC", type=name_list,
                   help="comma-separated heuristic ids")
    p.add_argument("--keep", dest="keep_fractions", metavar="KEEP", type=fraction_list,
                   help="comma-separated keep fractions")
    p.add_argument("--pooling", dest="poolings", metavar="POOLING", type=name_list,
                   help="comma-separated pooling kinds")
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
