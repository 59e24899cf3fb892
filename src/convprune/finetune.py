"""Triplet sampling, ranking hinge loss, and mask-preserving SGD.

Fine-tuning drives the whole descriptor pipeline end to end: conv layers,
pooling, similarity normalization, and the hinge. After every parameter
update the masked weights are reset to exactly zero (projection), so pruned
edges stay pruned no matter what the gradients do. Biases train freely.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import time
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

    def __post_init__(self):
        for name in ("margin", "learning_rate"):
            require_positive_real(self, name)
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
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


def require_positive_real(config, name: str) -> None:
    """ValueError unless the field `name` of `config` is a finite real (not a bool) > 0."""
    value = getattr(config, name)
    if (not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool)
            or not 0 < value < np.inf):  # the comparisons also reject NaN
        raise ValueError(f"{name.replace('_', ' ')} must be a finite number > 0, got {value!r}")


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
                    seed: int | list[int] = 0, descriptors: dict[str, Descriptor] | None = None,
                    pool_size: int = 32) -> list[Triplet]:
    """Draw (query, positive, negative) id triples from the "train" split.

    Random mode picks everything uniformly; hard mode picks the negative as
    the most query-similar wrong-instance item among a random candidate pool
    of `pool_size`, using the caller-supplied `descriptors`.
    """
    items = dataset.split("train")
    by_label: dict[int, list[str]] = {}
    for it in items:
        by_label.setdefault(it.label, []).append(it.item_id)
    if len(by_label) < 2:
        raise ValueError(f"triplet sampling needs >= 2 instances in train, found {len(by_label)}")
    if not any(len(ids) >= 2 for ids in by_label.values()):
        raise ValueError("no training instance has two images; cannot form a positive pair")
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
                  tape: GradientTape | None = None) -> Descriptor | list[Descriptor]:
    """The descriptor of a [C,H,W] image, or the list of descriptors of an
    image-major [N,C,H,W] stack, which runs the network once for all N."""
    feats = forward_features(model, image, tape=tape)
    if feats.ndim == 3:
        return pool_features(feats, pooling, tape=tape)
    return [pool_features(stack_item(feats, n, tape), pooling, tape=tape)
            for n in range(len(feats))]


def split_descriptors(model: NetworkModel, dataset: RetrievalDataset, split: str,
                      pooling: str) -> dict[str, Descriptor]:
    """{item id: descriptor} for every item of `split`, in split order.

    Runs the compact network `model`'s masks leave. The calling process loads
    every image, then describes them by index through `_forked_map`, so the
    descriptors are bitwise those of a serial loop for any worker count."""
    model = compact_model(model)[0]
    ids = [it.item_id for it in dataset.split(split)]
    images = [dataset.load_image(i) for i in ids]
    descriptors = _forked_map(lambda k: descriptor_of(model, images[k], pooling),
                              range(len(images)))
    return dict(zip(ids, list(descriptors)))


def _forked_map(fn, items):
    """Yield fn(item) for every item, in item order, from a `_Workers` pool
    forked at the first `next` and closed when the generator ends or closes."""
    items = list(items)
    workers = _Workers(fn, _workers(len(items)))
    try:
        yield from workers.map(items)
    finally:
        workers.close()


# The caller's ends of every live pool's pipes, per process as descriptors are:
# a new worker closes them all, so each end has one holder, and a worker or a
# caller that dies ends its pipes even while another pool forks.
_CALLER_ENDS: set[int] = set()


class _Workers:
    """`n - 1` forked processes, each running `fn` on the share of items every
    `map` sends it; the caller runs share 0, and all of it with n == 1. Items
    and results cross pipes, so pass ids or indices: a worker sees memory as
    it was at the fork, apart from shared memory (`_share_weights`)."""

    def __init__(self, fn, n: int):
        self.fn, self.n, self.children = fn, n, []
        try:
            for _ in range(n - 1):
                (req_r, req_w), (res_r, res_w) = os.pipe(), os.pipe()
                _CALLER_ENDS.update((req_w, res_r))
                child = [0, req_w, open(res_r, "rb")]  # pid 0 until the fork succeeds
                self.children.append(child)
                try:
                    child[0] = os.fork()
                    if child[0] == 0:
                        _serve(fn, req_r, res_w)
                finally:  # the child never gets here: `_serve` exits
                    os.close(req_r)
                    os.close(res_w)
        except BaseException:
            self.close()
            raise

    def map(self, items: list):
        """Yield fn(item) for every item, in item order. Each worker is sent
        its contiguous share at once; the caller runs share 0 lazily, then
        reads the workers in share order, so an exception is raised where a
        serial loop would raise it. A map left with results unread closes."""
        n = self.n
        shares = [items[len(items) * k // n:len(items) * (k + 1) // n] for k in range(n)]
        unread = len(items) - len(shares[0])
        try:
            for (_, requests, _), share in zip(self.children, shares[1:]):
                data = memoryview(pickle.dumps(share, pickle.HIGHEST_PROTOCOL))
                while data:
                    data = data[os.write(requests, data):]
            yield from map(self.fn, shares[0])
            for (_, _, results), share in zip(self.children, shares[1:]):
                for _ in share:
                    try:
                        ok, value = pickle.load(results)
                    except (EOFError, pickle.UnpicklingError):
                        raise RuntimeError("a worker process exited without its results") from None
                    unread -= 1
                    if not ok:
                        raise value
                    yield value
        finally:
            if unread:
                self.close()

    def close(self) -> None:
        """Kill and reap every worker, which may wait for a share or be blocked
        on a full pipe; later maps run inline."""
        children, self.children, self.n = self.children, [], 1
        for pid, requests, results in children:
            _CALLER_ENDS.difference_update((requests, results.fileno()))
            os.close(requests)
            results.close()
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve(fn, r: int, w: int) -> None:
    """A forked worker's whole life. Per share read from the pipe `r`, run
    `fn` over it up to its first exception (a result that cannot be pickled
    counts as one), and only then, so it never blocks on a pipe the caller
    does not read yet, write (True, result) per result and (False, exception)
    to the pipe `w`. Exit, skipping the caller's cleanup, when `r` ends."""
    try:
        for fd in _CALLER_ENDS:
            os.close(fd)
        with open(r, "rb") as requests, open(w, "wb") as out:
            while True:
                try:
                    share = pickle.load(requests)
                except EOFError:
                    break
                replies = []
                try:
                    for item in share:
                        result = fn(item)
                        try:
                            replies.append(pickle.dumps((True, result), pickle.HIGHEST_PROTOCOL))
                        except Exception as exc:  # noqa: BLE001 - pickling can raise anything
                            raise pickle.PicklingError(f"a worker's result cannot be pickled: "
                                                       f"{type(exc).__name__}: {exc}") from None
                except BaseException as exc:  # noqa: BLE001 - the caller raises it
                    try:
                        replies.append(pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL))
                    except Exception:  # an exception holding something unpicklable
                        replies.append(pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: "
                                                                         f"{exc}"))))
                out.writelines(replies)
                out.flush()
    finally:
        os._exit(0)


def _share_weights(model: NetworkModel) -> None:
    """Move the conv weights and biases of `model` into one shared anonymous
    mapping, as views of it, so workers forked afterwards read every in-place
    update the caller makes."""
    arrays = [(layer, name) for _, layer in model.conv_layers() for name in ("weights", "bias")]
    shared = mmap.mmap(-1, max(1, sum(getattr(l, name).nbytes for l, name in arrays)))
    offset = 0
    for layer, name in arrays:
        old = getattr(layer, name)
        new = np.frombuffer(shared, old.dtype, old.size, offset).reshape(old.shape)
        new[...] = old
        setattr(layer, name, new)
        offset += old.nbytes


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _workers(n: int) -> int:
    """Processes for `n` items: one per usable core, capped at `n`, when
    `os.fork` exists and BLAS runs one thread per call (the first of the
    BLAS thread variables that is set reads 1); otherwise 1. Workers on top
    of a multi-threaded BLAS oversubscribe the cores and run slower."""
    pinned = next((os.environ[v] for v in _BLAS_THREAD_VARS if os.environ.get(v)), None)
    if pinned != "1" or not hasattr(os, "fork"):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, n))


def _triplet_pass(model: NetworkModel, dataset: RetrievalDataset, triplet: Triplet,
                  pooling: str, margin: float) -> tuple[float, list | None]:
    """One triplet on its own tape: one forward of the [3,C,H,W] stack of its
    query, positive and negative images (a tape constant) and, if the hinge
    is active, one backward. Returns (loss, per conv layer (weight grad,
    bias grad), or None when the hinge is inactive or the loss non-finite)."""
    stack = np.stack([dataset.load_image(i)
                      for i in (triplet.query, triplet.positive, triplet.negative)])
    tape = GradientTape(constants=(stack,))
    dq, dp, dn = descriptor_of(model, stack, pooling, tape=tape)
    loss = triplet_loss_op(dq.values, dp.values, dn.values, margin, tape)
    loss_value = float(loss)
    if loss_value == 0.0 or not np.isfinite(loss_value):
        return loss_value, None
    tape.backward(loss)
    return loss_value, [(tape.gradient(layer.weights), tape.gradient(layer.bias))
                        for _, layer in model.conv_layers()]


def triplet_gradients(model: NetworkModel, triplets, dataset: RetrievalDataset, pooling: str,
                      margin: float, where: str = "",
                      workers: _Workers | None = None) -> tuple[dict, float, int]:
    """Per triplet: one tape forward of its three images, stacked (a tape
    constant), and, if the hinge is active, one backward. Returns ({conv
    layer index: (weight grad sum, bias grad sum)}, summed loss, active
    hinge count).

    Triplets run, each on its own tape, on `workers` (a pool running
    `_triplet_pass` with these arguments, which `finetune` keeps) or else
    through `_forked_map`. The caller folds the results in triplet order, so
    the first non-finite loss in that order raises and the sums are bitwise
    those of a serial loop for any worker count."""
    conv_layers = model.conv_layers()
    grads = {idx: (np.zeros_like(l.weights), np.zeros_like(l.bias)) for idx, l in conv_layers}
    triplets = list(triplets)
    results = workers.map(triplets) if workers is not None else _forked_map(
        lambda t: _triplet_pass(model, dataset, t, pooling, margin), triplets)
    loss_sum = 0.0
    active = 0
    try:
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
        results.close()
    return grads, loss_sum, active


def sgd_batch_step(model: NetworkModel, batch: list[Triplet], dataset: RetrievalDataset,
                   config: FinetuneConfig, where: str = "",
                   workers: _Workers | None = None) -> tuple[float, int]:
    """One in-place SGD step along the mean triplet gradient; masked weights
    are projected back to exactly zero. Returns (summed loss, active count)."""
    grads, loss_sum, active = triplet_gradients(model, batch, dataset, config.pooling,
                                                config.margin, where, workers)
    scale = config.learning_rate / len(batch)
    for idx, layer in model.conv_layers():
        gw, gb = grads[idx]
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise TrainingDiverged(f"non-finite gradient{where}, layer {idx}")
        layer.weights -= scale * gw
        layer.weights[~layer.mask] = 0.0  # mask-preserving projection
        layer.bias -= scale * gb
    return loss_sum, active


def training_workers(dataset: RetrievalDataset, config: FinetuneConfig) -> int:
    """The processes `finetune` trains on: `_workers` of its largest batch."""
    return _workers(min(config.batch_size, len(dataset.split("train"))))


def finetune(model: NetworkModel, dataset: RetrievalDataset,
             config: FinetuneConfig) -> tuple[NetworkModel, list[dict]]:
    """SGD over triplet batches; returns (updated model copy, per-epoch log).

    One epoch samples as many triplets as there are training images. Masked
    weights are projected back to exactly zero after every update. Training
    runs on the compact network the masks leave (`compact_model`), whose
    weights and biases are then written into a copy of `model`; the entries
    it drops have an exactly zero dense gradient, so they keep their values.

    The `training_workers` processes are forked once, after the compact
    weights move to shared memory and the training images into the dataset
    cache, and serve every batch of every epoch: each SGD step the caller
    takes in place is what they read on the next batch.
    """
    validate_masks(model)
    tuned = clone_model(model)
    model, kept = compact_model(model)
    n_train = len(dataset.split("train"))
    if n_train == 0:
        raise ValueError("dataset has no training images")
    triplets_per_epoch = n_train
    log: list[dict] = []
    n_workers = training_workers(dataset, config)
    if n_workers > 1:
        _share_weights(model)
        for it in dataset.split("train"):
            dataset.load_image(it.item_id)
    workers = _Workers(lambda t: _triplet_pass(model, dataset, t, config.pooling, config.margin),
                       n_workers)
    try:
        for epoch in range(config.epochs):
            t_start = time.perf_counter()
            descriptors = None
            if config.mining == "hard":
                descriptors = split_descriptors(model, dataset, "train", config.pooling)
            triplets = sample_triplets(dataset, triplets_per_epoch, mode=config.mining,
                                       seed=[config.seed, epoch], descriptors=descriptors)
            loss_sum = 0.0
            active = 0
            for start in range(0, len(triplets), config.batch_size):
                batch = triplets[start:start + config.batch_size]
                batch_loss, batch_active = sgd_batch_step(
                    model, batch, dataset, config,
                    where=f" at epoch {epoch}, batch starting at triplet {start}",
                    workers=workers)
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
    finally:
        workers.close()
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
