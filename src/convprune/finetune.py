"""Triplet sampling, ranking hinge loss, and mask-preserving SGD.

Fine-tuning drives the whole descriptor pipeline end to end: conv layers,
pooling, similarity normalization, and the hinge. After every parameter
update the masked weights are reset to exactly zero (projection), so pruned
edges stay pruned no matter what the gradients do. Biases train freely.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import RetrievalDataset
from .network import (NetworkModel, clone_model, compact_model, expand_compact,
                      forward_features, init_network, validate_masks)
from .pooling import POOLING_KINDS, Descriptor, pool_features
from .retrieval import similarity, similarity_op
from .tensor import GradientTape, TapeEntry, register_backward, stack_item


@dataclass(frozen=True)
class Triplet:
    query: str
    positive: str
    negative: str


MINING_MODES = ("random", "hard")


@dataclass
class FinetuneConfig:
    # Descriptor similarities live on a [-1, 1] cosine scale, so hinge
    # gradients are small; 0.2 is the plain-SGD rate that actually trains
    # the desk-scale network (1e-3 leaves the loss flat for 20 epochs).
    margin: float = 0.1
    learning_rate: float = 0.2
    epochs: int = 20
    batch_size: int = 16
    seed: int = 0
    mining: str = "random"        # one of MINING_MODES
    pooling: str = "sqp"          # one of POOLING_KINDS
    rmac_levels: int = 3
    hard_pool_size: int = 32

    def __post_init__(self):
        if not self.margin > 0:  # also rejects NaN
            raise ValueError(f"margin must be positive, got {self.margin}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and positive, "
                             f"got {self.learning_rate}")
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0),
                              ("rmac_levels", 1), ("hard_pool_size", 1)):
            require_int(self, name, minimum)
        if self.mining not in MINING_MODES:
            raise ValueError(f"unknown mining mode {self.mining!r}")
        if self.pooling not in POOLING_KINDS:
            raise ValueError(f"unknown pooling {self.pooling!r}")


def require_int(config, name: str, minimum: int) -> None:
    """ValueError unless the field `name` of `config` is an integer (not a
    bool) >= `minimum`."""
    value = getattr(config, name)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name.replace('_', ' ')} must be an integer >= {minimum}, "
                         f"got {value!r}")


class TrainingDiverged(RuntimeError):
    """Loss or gradient went non-finite during fine-tuning."""


def _hinge(value: float) -> float:
    # not max(0, value): python max swallows NaN, hiding a diverged pipeline
    if not np.isfinite(value):
        return value
    return value if value > 0.0 else 0.0


def triplet_loss(query, positive, negative, margin: float) -> float:
    """Ranking hinge: max(0, margin + K(q, neg) - K(q, pos))."""
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    k_pos = similarity(query, positive)
    k_neg = similarity(query, negative)
    return _hinge(margin + k_neg - k_pos)


def triplet_loss_op(dq: np.ndarray, dpos: np.ndarray, dneg: np.ndarray,
                    margin: float, tape: GradientTape) -> np.ndarray:
    """Tape-recorded hinge over tape-recorded similarities."""
    k_pos = similarity_op(dq, dpos, tape)
    k_neg = similarity_op(dq, dneg, tape)
    value = margin + float(k_neg) - float(k_pos)
    out = np.array(_hinge(value))
    tape.record("triplet_hinge", (k_pos, k_neg), out,
                {"active": bool(np.isfinite(value) and value > 0.0)})
    return out


def _hinge_backward(entry: TapeEntry, upstream: np.ndarray):
    if not entry.ctx["active"]:
        z = np.zeros(())
        return z, z.copy()
    g = float(upstream)
    return np.array(-g), np.array(g)


register_backward("triplet_hinge", _hinge_backward)


# ---------------------------------------------------------------------------
# Triplet sampling
# ---------------------------------------------------------------------------

def sample_triplets(dataset: RetrievalDataset, count: int, mode: str = "random",
                    seed: int | list[int] = 0, split: str = "train",
                    descriptors: dict[str, Descriptor] | None = None,
                    pool_size: int = 32) -> list[Triplet]:
    """Draw (query, positive, negative) id triples from a dataset split.

    Random mode picks everything uniformly; hard mode picks the negative as
    the most query-similar wrong-instance item among a random candidate pool
    of `pool_size`, using the caller-supplied `descriptors`.
    """
    items = dataset.split(split)
    by_label: dict[int, list[str]] = {}
    for it in items:
        by_label.setdefault(it.label, []).append(it.item_id)
    if len(by_label) < 2:
        raise ValueError(f"triplet sampling needs >= 2 instances in split {split!r}, "
                         f"found {len(by_label)}")
    if not any(len(ids) >= 2 for ids in by_label.values()):
        raise ValueError(f"no instance in split {split!r} has two images; "
                         "cannot form a positive pair")
    if mode == "hard" and descriptors is None:
        raise ValueError("hard mining needs current descriptors")
    all_ids = [it.item_id for it in items]
    labels = {it.item_id: it.label for it in items}
    rng = np.random.default_rng(seed)
    triplets = []
    while len(triplets) < count:
        query = all_ids[rng.integers(0, len(all_ids))]
        same = [i for i in by_label[labels[query]] if i != query]
        if not same:
            continue  # single-image instance: resample the query
        positive = same[rng.integers(0, len(same))]
        others = [i for i in all_ids if labels[i] != labels[query]]
        if mode == "random":
            negative = others[rng.integers(0, len(others))]
        else:
            pool_idx = rng.choice(len(others), size=min(pool_size, len(others)), replace=False)
            pool = [others[i] for i in sorted(pool_idx)]
            # highest similarity wins; ties break by item id for determinism
            negative = max(pool, key=lambda i: (similarity(descriptors[query], descriptors[i]), i))
        triplets.append(Triplet(query=query, positive=positive, negative=negative))
    return triplets


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def descriptor_of(model: NetworkModel, image: np.ndarray, pooling: str,
                  rmac_levels: int = 3,
                  tape: GradientTape | None = None) -> Descriptor | list[Descriptor]:
    """The descriptor of a [C,H,W] image, or the list of descriptors of an
    image-major [N,C,H,W] stack, which runs the network once for all N."""
    feats = forward_features(model, image, tape=tape)
    if feats.ndim == 3:
        return pool_features(feats, pooling, levels=rmac_levels, tape=tape)
    return [pool_features(stack_item(feats, n, tape), pooling, levels=rmac_levels, tape=tape)
            for n in range(len(feats))]


def split_descriptors(model: NetworkModel, dataset: RetrievalDataset, split: str,
                      pooling: str, rmac_levels: int) -> dict[str, Descriptor]:
    """{item id: descriptor} for every item of `split`, in split order.

    Runs the compact network `model`'s masks leave. The calling process loads
    every image, then the items are cut into `_workers` contiguous shares:
    the caller describes share 0 and a child forked for this call describes
    each other share (processes, not threads: an untaped forward holds the
    interpreter lock most of the time). Shares are joined in split order, so
    the descriptors are bitwise those of a serial loop. Forking is safe here
    because `_workers` allows more than one share only when BLAS runs one
    thread per call, and the fine-tuning thread pool lives within one
    `triplet_gradients` call."""
    model = compact_model(model)[0]
    ids = [it.item_id for it in dataset.split(split)]
    images = [dataset.load_image(i) for i in ids]

    def describe(share):
        return [descriptor_of(model, image, pooling, rmac_levels) for image in share]

    n = _workers(len(ids))
    shares = [images[len(ids) * k // n:len(ids) * (k + 1) // n] for k in range(n)]
    return dict(zip(ids, (d for part in _forked_map(describe, shares) for d in part)))


def _forked_map(fn, shares: list) -> list:
    """[fn(share) for share in shares]: the caller runs share 0 and a child
    forked for this call runs each other share, sending back its pickled
    result or exception over a pipe. Every child is reaped before this
    returns or raises, and a child's exception is raised here. Runs inline
    where there is no `os.fork`."""
    if len(shares) < 2 or not hasattr(os, "fork"):
        return [fn(share) for share in shares]
    pids, pipes = [], []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    for pipe in pipes:  # its own read end and the earlier children's
                        pipe.close()
                    _child_main(fn, share, w)
                pids.append(pid)
            finally:
                os.close(w)  # the child never gets here: `_child_main` exits
        results = [fn(shares[0])]
        for pipe in pipes:
            data = pipe.read()
            if not data:
                raise RuntimeError("a descriptor worker process exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            # a child whose result was read has exited or is exiting; one whose
            # result is not wanted may be blocked on a full pipe
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_main(fn, share, w: int) -> None:
    """A forked child's whole life: run `fn(share)`, write (True, result) or
    (False, exception) to the pipe `w`, and exit without running any of the
    parent's cleanup."""
    try:
        try:
            payload = pickle.dumps((True, fn(share)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - the parent raises it; this process exits
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an exception holding something unpicklable
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(w, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _workers(n: int) -> int:
    """Workers for `triplet_gradients` (threads) and `split_descriptors`
    (processes): one per usable core, capped at `n`, when BLAS runs one
    thread per call (the first of the BLAS thread variables that is set reads
    1); otherwise 1. Workers on top of a multi-threaded BLAS oversubscribe
    the cores and run slower."""
    pinned = next((os.environ[v] for v in _BLAS_THREAD_VARS if os.environ.get(v)), None)
    if pinned != "1":
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, n))


def _triplet_pass(model: NetworkModel, images: list, pooling: str, margin: float,
                  rmac_levels: int) -> tuple[float, list | None]:
    """One triplet on its own tape: one forward of the [3,C,H,W] stack of its
    query, positive and negative images (a tape constant) and, if the hinge
    is active, one backward. Returns (loss, per conv layer (weight grad,
    bias grad), or None when the hinge is inactive or the loss non-finite)."""
    stack = np.stack(images)
    tape = GradientTape(constants=(stack,))
    dq, dp, dn = descriptor_of(model, stack, pooling, rmac_levels, tape=tape)
    loss = triplet_loss_op(dq.values, dp.values, dn.values, margin, tape)
    loss_value = float(loss)
    if loss_value == 0.0 or not np.isfinite(loss_value):
        return loss_value, None
    tape.backward(loss)
    return loss_value, [(tape.gradient(layer.weights), tape.gradient(layer.bias))
                        for _, layer in model.conv_layers()]


def triplet_gradients(model: NetworkModel, triplets, dataset: RetrievalDataset, pooling: str,
                      margin: float, rmac_levels: int = 3,
                      where: str = "") -> tuple[dict, float, int]:
    """Per triplet: one tape forward of its three images, stacked (a tape
    constant), and, if the hinge is active, one backward. Returns ({conv
    layer index: (weight grad sum, bias grad sum)}, summed loss, active
    hinge count).

    Triplets run on `_workers` threads, each on its own tape; the calling
    thread loads every image first and consumes the results in triplet
    order, so the first non-finite loss in that order raises and the sums
    are bitwise those of a serial loop for any worker count."""
    conv_layers = model.conv_layers()
    grads = {idx: (np.zeros_like(l.weights), np.zeros_like(l.bias)) for idx, l in conv_layers}
    triplets = list(triplets)
    images = [[dataset.load_image(i) for i in (t.query, t.positive, t.negative)]
              for t in triplets]

    def run(triplet_images):
        return _triplet_pass(model, triplet_images, pooling, margin, rmac_levels)

    loss_sum = 0.0
    active = 0
    workers = _workers(len(triplets))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    try:
        results = map(run, images) if pool is None else pool.map(run, images)
        for t, (loss_value, layer_grads) in zip(triplets, results):
            if not np.isfinite(loss_value):
                raise TrainingDiverged(f"non-finite loss{where}, triplet "
                                       f"{t.query}/{t.positive}/{t.negative}")
            loss_sum += loss_value
            if layer_grads is None:
                continue  # inactive hinge: zero gradient, no backward pass ran
            active += 1
            for (idx, _), pair in zip(conv_layers, layer_grads):
                for acc, g in zip(grads[idx], pair):
                    if g is not None:
                        acc += g
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return grads, loss_sum, active


def sgd_batch_step(model: NetworkModel, batch: list[Triplet], dataset: RetrievalDataset,
                   config: FinetuneConfig, where: str = "") -> tuple[float, int]:
    """One in-place SGD step along the mean triplet gradient; masked weights
    are projected back to exactly zero. Returns (summed loss, active count)."""
    grads, loss_sum, active = triplet_gradients(model, batch, dataset, config.pooling,
                                                config.margin, config.rmac_levels, where)
    scale = config.learning_rate / len(batch)
    for idx, layer in model.conv_layers():
        gw, gb = grads[idx]
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise TrainingDiverged(f"non-finite gradient{where}, layer {idx}")
        layer.weights -= scale * gw
        layer.weights[~layer.mask] = 0.0  # mask-preserving projection
        layer.bias -= scale * gb
    return loss_sum, active


def finetune(model: NetworkModel, dataset: RetrievalDataset,
             config: FinetuneConfig) -> tuple[NetworkModel, list[dict]]:
    """SGD over triplet batches; returns (updated model copy, per-epoch log).

    One epoch samples as many triplets as there are training images. Masked
    weights are projected back to exactly zero after every update. Training
    runs on the compact network the masks leave (`compact_model`), whose
    weights and biases are then written into a copy of `model`; the entries
    it drops have an exactly zero dense gradient, so they keep their values.
    """
    validate_masks(model)
    tuned = clone_model(model)
    model, kept = compact_model(model)
    n_train = len(dataset.split("train"))
    if n_train == 0:
        raise ValueError("dataset has no training images")
    triplets_per_epoch = n_train
    log: list[dict] = []

    for epoch in range(config.epochs):
        t_start = time.perf_counter()
        descriptors = None
        if config.mining == "hard":
            descriptors = split_descriptors(model, dataset, "train", config.pooling,
                                            config.rmac_levels)
        triplets = sample_triplets(dataset, triplets_per_epoch, mode=config.mining,
                                   seed=[config.seed, epoch], descriptors=descriptors,
                                   pool_size=config.hard_pool_size)
        loss_sum = 0.0
        active = 0
        for start in range(0, len(triplets), config.batch_size):
            batch = triplets[start:start + config.batch_size]
            batch_loss, batch_active = sgd_batch_step(
                model, batch, dataset, config,
                where=f" at epoch {epoch}, batch starting at triplet {start}")
            loss_sum += batch_loss
            active += batch_active
        entry = {
            "epoch": epoch,
            "mean_loss": loss_sum / len(triplets),
            "active_fraction": active / len(triplets),
            "wall_time": time.perf_counter() - t_start,
        }
        log.append(entry)
        tuned.meta.setdefault("history", []).append(entry)
    expand_compact(tuned, model, kept)
    validate_masks(tuned)
    return tuned, log


def train_baseline(architecture: dict, dataset: RetrievalDataset,
                   config: FinetuneConfig, name: str = "baseline") -> NetworkModel:
    """Train the unpruned reference model from a fresh He init."""
    model = init_network(architecture, seed=config.seed, name=name)
    trained, _ = finetune(model, dataset, config)
    trained.meta["name"] = name
    return trained
