"""Set-up, the three workloads, their output checks and their metrics.

Every workload is a closed loop with one client: the next sample starts when
the previous one has returned. The program is driven only through its public
functions, looked up as module attributes so that the tracer's wrappers see
every call. The 40x8 dataset and the baseline always come from seed 0 (the
repository's reference experiment); `--seed` draws the workload's own inputs:
the fine-tune triplets, the retrieve gallery and queries, and the sweep's
triplets.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from tracer import TINYNET_CONV_LAYERS, Tracer

cli = importlib.import_module("convprune.cli")
dsm = importlib.import_module("convprune.dataset")
ft = importlib.import_module("convprune.finetune")
net = importlib.import_module("convprune.network")
pruner = importlib.import_module("convprune.pruner")
retrieval = importlib.import_module("convprune.retrieval")
salience = importlib.import_module("convprune.salience")

DATA_INSTANCES, DATA_IMAGES, DATA_SEED = 40, 8, 0
BASELINE_EPOCHS = 1          # "trained briefly": its cost is part of setup_s
SETUP_REPEATS = 3            # setup_s is the median of these
FINETUNE_KEEP = 0.5
GALLERY_INSTANCES = 300      # retrieve: 1,200-image gallery, 300 queries
SWEEP_HEURISTICS = ["h1", "h2", "h3", "h4"]
SWEEP_KEEP = [0.5, 0.1]
SWEEP_POINTS = len(SWEEP_HEURISTICS) * len(SWEEP_KEEP)
COMPANION_PASSES = 3         # sweep: per sample, 3 x 40 queries for query_ms_p90
MIN_SAMPLES = {"finetune": 1, "retrieve": 1, "sweep": 2}  # sweep compares two metrics.csv

CONV_LAYERS = [f"L{i}" for i in sorted(TINYNET_CONV_LAYERS.values())]

# Wrappers each workload must reach in its traced segment. A refactor that
# moves a call path away from a wrapper fails the run instead of reporting 0.
_FORWARD = ([f"tensor.conv_fwd.{l}" for l in CONV_LAYERS]
            + ["tensor.relu_fwd", "tensor.maxpool2_fwd", "finetune.descriptor_of",
               "dataset.load_image"])
_TRAINING = ([f"tensor.conv_bwd.{l}" for l in CONV_LAYERS]
             + ["tensor.relu_bwd", "tensor.maxpool2_bwd", "tensor.tape_backward",
                "network.forward_tape", "finetune.finetune", "finetune.sgd_batch_step",
                "finetune.sample_triplets", "finetune.triplet_loss_op",
                "retrieval.similarity_bwd", "finetune.hinge_bwd"])
_QUERYING = ["network.forward", "retrieval.rank", "retrieval.similarity",
             "retrieval.average_precision"]
EXPECTED_CALLS = {
    "finetune": _FORWARD + _TRAINING + ["pooling.sqp_fwd", "pooling.sqp_bwd"],
    "retrieve": _FORWARD + _QUERYING + ["pooling.sqp_fwd"],
    "sweep": _FORWARD + _TRAINING + _QUERYING + [
        "pooling.rmac_fwd", "pooling.rmac_bwd", "retrieval.evaluate", "salience.h1",
        "salience.h2", "salience.h3", "salience.h4", "salience.stats",
        "pruner.apply_pruning", "container.write", "container.read", "network.load_model",
        "network.save_model", "dataset.load", "dataset.read_image", "cli.evaluate_model",
        "cli.run_pipeline"],
}


class Outcome:
    """Output checks; each counts as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _median(values) -> float:
    return float(statistics.median(values))


def _p90(values) -> float:
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def _same_weights(a, b) -> bool:
    return all(np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)
               and np.array_equal(la.mask, lb.mask)
               for (_, la), (_, lb) in zip(a.conv_layers(), b.conv_layers()))


def conv_kernel_counts(model) -> dict[str, dict]:
    """Per conv layer, per image: forward and backward multiply-accumulates
    and the im2col buffer size, computed from the shapes (not measured).

    Backward runs two GEMMs of the forward's size (weight gradient and input
    gradient); the col2im scatter adds no multiplies.
    """
    out = {}
    c, h, w = model.input_shape
    for idx, layer in enumerate(model.layers):
        if isinstance(layer, net.ConvLayer):
            c_out, c_in, kh, kw = layer.weights.shape
            h = (h + 2 * layer.padding - kh) // layer.stride + 1
            w = (w + 2 * layer.padding - kw) // layer.stride + 1
            macs = c_out * c_in * kh * kw * h * w
            out[f"L{idx}"] = {"fwd_macs": macs, "bwd_macs": 2 * macs,
                              "im2col_bytes": c_in * kh * kw * h * w * 8,
                              "weights_shape": [c_out, c_in, kh, kw], "out_hw": [h, w],
                              "label": "computed"}
        elif isinstance(layer, net.MaxPool2Layer):
            h, w = h // 2, w // 2
    return out


def composed_retrieval(model, data, pooling: str) -> dict:
    """Index the "index" split with descriptor_of, then run every query as
    descriptor_of + rank back to back and score it with average_precision."""
    start = time.perf_counter()
    entries = [retrieval.IndexEntry(it.item_id,
                                    ft.descriptor_of(model, data.load_image(it.item_id), pooling),
                                    it.label)
               for it in data.split("index")]
    index = retrieval.DescriptorIndex(entries=entries)
    index_s = time.perf_counter() - start
    query_s, aps = [], []
    for it in data.split("query"):
        t0 = time.perf_counter()
        desc = ft.descriptor_of(model, data.load_image(it.item_id), pooling)
        ranking = retrieval.rank(desc, index, exclude_id=it.item_id)
        query_s.append(time.perf_counter() - t0)
        aps.append(retrieval.average_precision(ranking, set(data.relevant[it.item_id])))
    return {"index_s": index_s, "index_images": len(entries), "query_s": query_s,
            "map": float(np.mean(aps))}


def _retrieval_metrics(passes: list[dict]) -> dict:
    """Index throughput over all passes; the per-pass median query time,
    averaged over passes (this machine's speed shifts between passes, and a
    median pooled over two speeds jumps between them); p90 pooled."""
    query_ms = [1000.0 * q for p in passes for q in p["query_s"]]
    return {
        "index_images_per_s": (sum(p["index_images"] for p in passes)
                               / sum(p["index_s"] for p in passes)),
        "query_ms_p50": float(np.mean([1000.0 * _median(p["query_s"]) for p in passes])),
        "query_ms_p90": _p90(query_ms),
        "map": passes[0]["map"],
    }


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.outcome = Outcome()
        self.tracer = Tracer()
        self.detail: dict = {}
        self.traced_samples = 0
        self.overhead_pct = 0.0

    # -- set-up ------------------------------------------------------------

    def train_baseline(self, data):
        """The seed-0 tinynet after BASELINE_EPOCHS of training, and the
        seconds per epoch it took."""
        t0 = time.perf_counter()
        model = ft.train_baseline(net.tinynet_architecture(), data,
                                  ft.FinetuneConfig(epochs=BASELINE_EPOCHS, seed=0))
        return model, (time.perf_counter() - t0) / BASELINE_EPOCHS

    def setup(self, extra):
        """Generate the 40x8 dataset, train the baseline, then run the
        workload's own preparation and warm-up; repeated SETUP_REPEATS times
        from scratch. Returns the last repetition's state."""
        setup_s, state, first = [], None, None
        self.epoch_s = []
        for k in range(SETUP_REPEATS):
            root = self.work / f"setup{k}"
            t0 = time.perf_counter()
            data = dsm.generate_dataset(root / "data", DATA_INSTANCES, DATA_IMAGES,
                                        seed=DATA_SEED)
            baseline, epoch_s = self.train_baseline(data)
            state = extra(root, data, baseline)
            setup_s.append(time.perf_counter() - t0)
            self.epoch_s.append(epoch_s)
            if first is None:
                first = baseline
            else:
                self.outcome.check(_same_weights(first, baseline),
                                   f"setup {k}: baseline differs from setup 0")
                shutil.rmtree(self.work / f"setup{k - 1}")
        self.detail["setup_s"] = setup_s
        self.setup_s = _median(setup_s)
        self.baseline_loss = baseline.meta["history"][-1]["mean_loss"]
        self.kernels = conv_kernel_counts(baseline)
        return state

    # -- the timed loop ------------------------------------------------------

    def _loop(self, sample, seconds: float, min_samples: int, first: int = 0, between=None):
        durations, results = [], []
        start = time.perf_counter()
        while len(durations) < min_samples or time.perf_counter() - start < seconds:
            i = first + len(durations)
            self.tracer.run_id = i
            t0 = time.perf_counter()
            results.append(sample(i))
            durations.append(time.perf_counter() - t0)
            if between is not None:
                between(results[-1])
        return durations, results

    def measure(self, sample, between):
        """Untraced: a loop of `seconds` that runs `between(result)` after
        each sample, so the companion measurements spread over the same
        window. Traced: half untraced, then half with the tracer installed,
        no companions; the ratio of median sample times is the overhead."""
        min_samples = MIN_SAMPLES[self.workload]
        if not self.trace:
            durations, results = self._loop(sample, self.seconds, min_samples, between=between)
            self.detail["sample_s"] = durations
            return durations, results
        plain, plain_results = self._loop(sample, self.seconds / 2, 1)
        with self.tracer.installed():
            traced, traced_results = self._loop(sample, self.seconds / 2,
                                                max(1, min_samples - len(plain)), len(plain))
        self.traced_samples = len(traced)
        self.overhead_pct = 100.0 * (_median(traced) / _median(plain) - 1.0)
        self.detail["sample_s"] = plain + traced
        self.detail["traced_sample_s"] = traced
        return plain, plain_results + traced_results

    def finish(self, metrics: dict, units: float) -> dict:
        if self.trace:
            summary = self.tracer.summary()
            missing = [n for n in EXPECTED_CALLS[self.workload]
                       if summary.get(n, {}).get("calls", 0) == 0]
            self.outcome.check(not missing, f"wrappers with zero calls: {missing}")
            self.detail["span_summary"] = summary
            return layer_metrics(summary, self.tracer, units, self.kernels, self.overhead_pct)
        metrics["setup_s"] = self.setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}

    # -- workloads -------------------------------------------------------------

    def run_finetune(self) -> dict:
        """Samples: one single-epoch finetune() of the same pruned model.
        Companion: a composed retrieval pass of the tuned model on the 40x8
        data, for the retrieval metrics."""
        def prepare(root, data, baseline):
            pruned, _ = pruner.apply_pruning(baseline, salience.salience_h1(baseline),
                                             FINETUNE_KEEP)
            return {"data": data, "pruned": pruned}

        st = self.setup(prepare)
        data, pruned = st["data"], st["pruned"]
        cfg = ft.FinetuneConfig(epochs=1, seed=self.seed, pooling="sqp", mining="random",
                                batch_size=16)
        n_triplets = len(data.split("train"))
        passes = []
        durations, results = self.measure(
            lambda i: ft.finetune(pruned, data, cfg),
            lambda result: passes.append(composed_retrieval(result[0], data, "sqp")))
        first_model, first_log = results[0]
        for i, (model, log) in enumerate(results):
            self.outcome.ops(1)
            try:
                net.validate_masks(model)
                masks_ok = True
            except ValueError:
                masks_ok = False
            self.outcome.check(masks_ok, f"epoch {i}: pruned weights moved off zero")
            self.outcome.check(math.isfinite(log[0]["mean_loss"]), f"epoch {i}: loss not finite")
            self.outcome.check(_same_weights(first_model, model),
                               f"epoch {i}: result differs from epoch 0 on identical input")
        self.detail["active_fraction"] = first_log[0]["active_fraction"]
        metrics = {}
        if not self.trace:
            metrics = {
                "triplets_per_s": n_triplets * len(durations) / sum(durations),
                "epoch_s_p50": _median(durations),
                "final_loss": first_log[0]["mean_loss"],
                "points_per_min": 60.0 * len(durations) / sum(durations),
                **_retrieval_metrics(passes),
            }
        return self.finish(metrics, n_triplets * self.traced_samples)

    def run_retrieve(self) -> dict:
        """Samples: index the 1,200-image gallery, then run the 300 queries.
        Companion: one more baseline training epoch on the 40x8 data, for the
        fine-tune metrics (pooled with the set-up's epochs)."""
        def prepare(root, data, baseline):
            gallery = dsm.generate_dataset(root / "gallery", GALLERY_INSTANCES, DATA_IMAGES,
                                           seed=self.seed)
            for it in gallery.items:  # fill the image cache
                gallery.load_image(it.item_id)
            probe = ft.descriptor_of(baseline, gallery.load_image(gallery.items[0].item_id), "sqp")
            retrieval.rank(probe, retrieval.DescriptorIndex(
                [retrieval.IndexEntry("probe", probe, 0)]))
            return {"data": data, "baseline": baseline, "gallery": gallery}

        st = self.setup(prepare)
        data, baseline, gallery = st["data"], st["baseline"], st["gallery"]
        n_queries = len(gallery.split("query"))
        durations, passes = self.measure(
            lambda i: composed_retrieval(baseline, gallery, "sqp"),
            lambda result: self.epoch_s.append(self.train_baseline(data)[1]))
        self.outcome.ops(n_queries * len(passes))
        for i, p in enumerate(passes):
            self.outcome.check(p["map"] == passes[0]["map"],
                               f"pass {i}: mAP {p['map']} differs from pass 0")
        reference = cli.evaluate_model(baseline, gallery, "sqp").mean_ap
        self.outcome.check(reference == passes[0]["map"],
                           f"composed mAP {passes[0]['map']} != evaluate_model mAP {reference}")
        self.detail["baseline_epoch_s"] = self.epoch_s
        metrics = {}
        if not self.trace:
            n_train = len(data.split("train"))
            metrics = {
                "triplets_per_s": n_train * len(self.epoch_s) / sum(self.epoch_s),
                "epoch_s_p50": _median(self.epoch_s),
                "final_loss": self.baseline_loss,
                "points_per_min": 60.0 * len(durations) / sum(durations),
                **_retrieval_metrics(passes[:len(durations)]),
            }
        return self.finish(metrics, n_queries * self.traced_samples)

    def run_sweep(self) -> dict:
        """Samples: one run_pipeline call into a fresh directory. The
        fine-tune metrics come from the per-epoch log each saved model
        carries. Companion: composed retrieval passes of a reloaded point
        model on the 40x8 data, for the retrieval metrics."""
        def prepare(root, data, baseline):
            net.save_model(baseline, str(root / "baseline"))
            cli.evaluate_model(baseline, data, "rmac")  # first rmac calls
            return {"data": data, "root": root}

        st = self.setup(prepare)
        data, root = st["data"], st["root"]

        def sample(i):
            out = self.work / f"sweep{i}"
            cfg = cli.ExperimentConfig(heuristics=SWEEP_HEURISTICS, keep_fractions=SWEEP_KEEP,
                                       poolings=["rmac"], epochs=1, seed=self.seed,
                                       data=str(root / "data"), model=str(root / "baseline"),
                                       out=str(out))
            cli.run_pipeline(cfg)
            return out

        passes = []

        def companion(out):
            model = net.load_model(str(out / "models" / "h1_t0.5_rmac"))
            passes.extend(composed_retrieval(model, data, "rmac")
                          for _ in range(COMPANION_PASSES))

        durations, outs = self.measure(sample, companion)
        reference = (outs[0] / "metrics.csv").read_bytes()
        epochs = []
        for i, out in enumerate(outs):
            self.outcome.ops(SWEEP_POINTS)
            self.outcome.check((out / "metrics.csv").read_bytes() == reference,
                               f"sample {i}: metrics.csv differs from sample 0")
            epochs.append(self._check_points(out, i))
        rows = [r.split(",") for r in reference.decode().splitlines()[1:]]
        tuned = [float(r[4]) for r in rows if r[3] == "finetuned"]
        self.outcome.check(len(tuned) == SWEEP_POINTS, f"{len(tuned)} finetuned rows")
        metrics = {}
        if not self.trace:
            epoch_s = [e["wall_time"] for sample_epochs in epochs for e in sample_epochs]
            n_train = len(data.split("train"))
            metrics = {
                "triplets_per_s": n_train * len(epoch_s) / sum(epoch_s),
                "epoch_s_p50": _median(epoch_s),
                "final_loss": float(np.mean([e["mean_loss"] for e in epochs[0]])),
                "points_per_min": 60.0 * SWEEP_POINTS * len(durations) / sum(durations),
                **_retrieval_metrics(passes),
                "map": float(np.mean(tuned)),
            }
        return self.finish(metrics, SWEEP_POINTS * self.traced_samples)

    def _check_points(self, out: Path, sample: int) -> list[dict]:
        """Exact keep fractions in every prune report; every saved model
        reloads with the reported mask. Returns each model's last epoch log."""
        epochs = []
        for h in SWEEP_HEURISTICS:
            for keep in SWEEP_KEEP:
                tag = f"{h}_t{keep:g}_rmac"
                report = json.loads((out / "reports" / f"prune_{tag}.json").read_text())
                total = sum(r["total"] for r in report["layers"])
                remaining = sum(r["remaining"] for r in report["layers"])
                expected = total - int(round((1.0 - keep) * total))
                self.outcome.check(
                    remaining == expected
                    and report["achieved_keep_fraction"] == expected / total,
                    f"sample {sample} {tag}: kept {remaining} of {total}, expected {expected}")
                try:
                    model = net.load_model(str(out / "models" / tag))
                except (ValueError, OSError, KeyError) as exc:
                    self.outcome.check(False, f"sample {sample} {tag}: reload failed: {exc}")
                    continue
                kept = sum(int(l.mask.sum()) for _, l in model.conv_layers())
                self.outcome.check(kept == expected,
                                   f"sample {sample} {tag}: reloaded model keeps {kept}")
                epochs.append(model.meta["history"][-1])
        return epochs


E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "triplets_per_s": "1/s", "epoch_s_p50": "s",
    "final_loss": "loss", "index_images_per_s": "1/s", "query_ms_p50": "ms",
    "query_ms_p90": "ms", "map": "mAP", "points_per_min": "1/min",
}


def layer_metrics(summary: dict, tracer: Tracer, units: float, kernels: dict,
                  overhead_pct: float) -> dict:
    """Per-layer metrics from the traced segment, each per unit of the
    workload's work (triplet, query or sweep point) unless named otherwise."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def ms(seconds):
        return 1000.0 * seconds / units if units else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    triplets = tracer.counts["finetune.triplets_drawn"]
    m = {}
    conv_flops, conv_s = 0.0, 0.0
    for layer in CONV_LAYERS:
        fwd, bwd = f"tensor.conv_fwd.{layer}", f"tensor.conv_bwd.{layer}"
        m[f"tensor.conv_fwd_ms.{layer}"] = (ms(total(fwd)), "ms")
        m[f"tensor.conv_bwd_ms.{layer}"] = (ms(total(bwd)), "ms")
        conv_flops += 2.0 * (kernels[layer]["fwd_macs"] * calls(fwd)
                             + kernels[layer]["bwd_macs"] * calls(bwd))
        conv_s += self_s(fwd) + self_s(bwd)
    m["tensor.conv_gflops"] = (ratio(conv_flops, conv_s) / 1e9, "GFLOP/s")
    m["tensor.relu_ms"] = (ms(total("tensor.relu_fwd") + total("tensor.relu_bwd")), "ms")
    m["tensor.maxpool2_ms"] = (ms(total("tensor.maxpool2_fwd") + total("tensor.maxpool2_bwd")),
                              "ms")
    m["tensor.tape_backward_self_ms"] = (ms(self_s("tensor.tape_backward")), "ms")
    m["network.forward_ms_per_image"] = (
        1000.0 * ratio(total("network.forward"), calls("network.forward")), "ms")
    m["network.forward_tape_ms_per_image"] = (
        1000.0 * ratio(total("network.forward_tape"), calls("network.forward_tape")), "ms")
    m["network.forwards_per_triplet"] = (ratio(calls("network.forward_tape"), triplets), "count")
    m["pooling.sqp_fwd_ms"] = (ms(total("pooling.sqp_fwd")), "ms")
    m["pooling.sqp_bwd_ms"] = (ms(total("pooling.sqp_bwd")), "ms")
    m["pooling.rmac_fwd_ms"] = (ms(total("pooling.rmac_fwd")), "ms")
    m["pooling.rmac_bwd_ms"] = (ms(total("pooling.rmac_bwd")), "ms")
    m["retrieval.rank_ms_per_query"] = (
        1000.0 * ratio(total("retrieval.rank"), calls("retrieval.rank")), "ms")
    m["retrieval.similarity_calls_per_query"] = (
        ratio(calls("retrieval.similarity"), calls("retrieval.rank")), "count")
    m["retrieval.similarity_op_ms"] = (ms(total("finetune.triplet_loss_op")
                                          + total("retrieval.similarity_bwd")
                                          + total("finetune.hinge_bwd")), "ms")
    m["finetune.sgd_step_ms"] = (ms(self_s("finetune.sgd_batch_step")), "ms")
    m["finetune.sample_triplets_ms"] = (ms(total("finetune.sample_triplets")), "ms")
    m["finetune.backward_fraction"] = (ratio(calls("tensor.tape_backward"), triplets), "ratio")
    m["salience.h2_ms"] = (ms(total("salience.h2")), "ms")
    m["salience.stats_ms"] = (ms(total("salience.stats")), "ms")
    m["pruner.apply_pruning_ms"] = (ms(total("pruner.apply_pruning")), "ms")
    m["container.write_ms"] = (ms(total("container.write")), "ms")
    m["container.write_bytes"] = (ratio(tracer.write_bytes, units), "B")
    m["container.read_ms"] = (ms(total("container.read")), "ms")
    m["cli.evaluate_model_ms"] = (ms(total("cli.evaluate_model")), "ms")
    m["cli.pipeline_self_ms"] = (ms(self_s("cli.run_pipeline")), "ms")
    m["dataset.image_reads"] = (ratio(calls("dataset.read_image"), units), "count")
    m["dataset.cache_hit_ratio"] = (
        1.0 - ratio(calls("dataset.read_image"), calls("dataset.load_image")), "ratio")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, Bench]:
    bench = Bench(workload, seed, seconds, trace, work)
    metrics = getattr(bench, f"run_{workload}")()
    return metrics, bench
