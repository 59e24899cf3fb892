"""In-memory span tracer installed around convprune's public entry points.

The program is never edited. Each wrapper replaces a name where its caller
looks it up: callers bind most names with `from .x import y`, so
`convprune.network.conv2d_forward` (not `convprune.tensor.conv2d_forward`) is
what `forward_features` calls, `convprune.cli.descriptor_of` is what
`evaluate_model` calls, and backward rules are swapped in the registry behind
`register_backward`. `Tracer.installed()` puts every wrapper in place and
restores the originals on exit.

A span is (id, parent id, name, start, end, run id). Spans stay in memory and
are written out once, at the end of the run. Self time is a span's duration
minus the durations of its direct children; the program is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# tinynet's five conv weight shapes are distinct, so a weight shape names its
# layer (the index into NetworkModel.layers).
TINYNET_CONV_LAYERS = {
    (16, 3, 3, 3): 0,
    (16, 16, 3, 3): 2,
    (32, 16, 3, 3): 5,
    (32, 32, 3, 3): 7,
    (64, 32, 3, 3): 10,
}

# Backward rules by op name, and the span each is recorded under.
BACKWARD_SPANS = {
    "relu": "tensor.relu_bwd",
    "maxpool2": "tensor.maxpool2_bwd",
    "sqp_pool": "pooling.sqp_bwd",
    "rmac_pool": "pooling.rmac_bwd",
    "similarity": "retrieval.similarity_bwd",
    "triplet_hinge": "finetune.hinge_bwd",
}


def conv_layer(weights) -> str:
    return f"L{TINYNET_CONV_LAYERS.get(tuple(weights.shape), 'x')}"


def _forward_name(args, kwargs) -> str:
    tape = kwargs.get("tape", args[2] if len(args) > 2 else None)
    return "network.forward" if tape is None else "network.forward_tape"


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.write_bytes = 0
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Wrap `fn` in a span; `name` is a string or a function of the call's
        arguments; `after(result, args, kwargs)` runs outside the span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, label, start, end, self.run_id)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        target = raw.__func__ if isinstance(raw, classmethod) else raw
        new = make(target)
        setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
        self._restore.append((owner, attr, raw))

    # -- install / uninstall ------------------------------------------------

    @contextmanager
    def installed(self):
        mod = {name: importlib.import_module(f"convprune.{name}")
               for name in ("tensor", "network", "pooling", "retrieval", "finetune",
                            "salience", "pruner", "container", "dataset", "cli")}
        s, c = self._span, self._count

        def count_triplets(result, args, kwargs):
            self.counts["finetune.triplets_drawn"] += len(result)

        def count_bytes(result, args, kwargs):
            path = Path(result)
            self.write_bytes += sum(f.stat().st_size for f in path.iterdir() if f.is_file())

        patches = [
            # tensor: the forward ops as forward_features looks them up
            (mod["network"], "conv2d_forward",
             lambda f: s(lambda a, k: f"tensor.conv_fwd.{conv_layer(a[1])}", f)),
            (mod["network"], "relu_forward", lambda f: s("tensor.relu_fwd", f)),
            (mod["network"], "maxpool2_forward", lambda f: s("tensor.maxpool2_fwd", f)),
            (mod["tensor"].GradientTape, "backward", lambda f: s("tensor.tape_backward", f)),
            # network
            (mod["finetune"], "forward_features", lambda f: s(_forward_name, f)),
            (mod["salience"], "forward_features", lambda f: s(_forward_name, f)),
            (mod["network"], "load_model", lambda f: s("network.load_model", f)),
            (mod["network"], "save_model", lambda f: s("network.save_model", f)),
            # pooling: pool_features dispatches through the module globals
            (mod["pooling"], "sqp_pool", lambda f: s("pooling.sqp_fwd", f)),
            (mod["pooling"], "rmac_pool", lambda f: s("pooling.rmac_fwd", f)),
            # retrieval
            (mod["retrieval"], "rank", lambda f: s("retrieval.rank", f)),
            (mod["retrieval"], "similarity", lambda f: c("retrieval.similarity", f)),
            (mod["retrieval"], "average_precision",
             lambda f: s("retrieval.average_precision", f)),
            (mod["retrieval"], "evaluate", lambda f: s("retrieval.evaluate", f)),
            # finetune
            (mod["finetune"], "finetune", lambda f: s("finetune.finetune", f)),
            (mod["cli"], "run_finetune", lambda f: s("finetune.finetune", f)),
            (mod["finetune"], "sgd_batch_step", lambda f: s("finetune.sgd_batch_step", f)),
            (mod["finetune"], "sample_triplets",
             lambda f: s("finetune.sample_triplets", f, count_triplets)),
            (mod["cli"], "sample_triplets",
             lambda f: s("finetune.sample_triplets", f, count_triplets)),
            (mod["finetune"], "descriptor_of", lambda f: s("finetune.descriptor_of", f)),
            (mod["cli"], "descriptor_of", lambda f: s("finetune.descriptor_of", f)),
            # salience.salience_h2 imports triplet_loss_op from the module at call time
            (mod["finetune"], "triplet_loss_op", lambda f: s("finetune.triplet_loss_op", f)),
            # salience
            (mod["salience"], "salience_h1", lambda f: s("salience.h1", f)),
            (mod["salience"], "salience_h2", lambda f: s("salience.h2", f)),
            (mod["salience"], "salience_h3", lambda f: s("salience.h3", f)),
            (mod["salience"], "salience_h4", lambda f: s("salience.h4", f)),
            (mod["salience"], "collect_activation_stats", lambda f: s("salience.stats", f)),
            # pruner
            (mod["pruner"], "apply_pruning", lambda f: s("pruner.apply_pruning", f)),
            # container: network.save_model / load_model call container.<name>
            (mod["container"], "write_container",
             lambda f: s("container.write", f, count_bytes)),
            (mod["container"], "read_container", lambda f: s("container.read", f)),
            # dataset: load_image calls the module-level file reader on a cache miss
            (mod["dataset"].RetrievalDataset, "load_image",
             lambda f: c("dataset.load_image", f)),
            (mod["dataset"], "load_image_file", lambda f: s("dataset.read_image", f)),
            (mod["dataset"].RetrievalDataset, "load", lambda f: s("dataset.load", f)),
            # cli
            (mod["cli"], "evaluate_model", lambda f: s("cli.evaluate_model", f)),
            (mod["cli"], "run_pipeline", lambda f: s("cli.run_pipeline", f)),
        ]
        registry = mod["tensor"]._BACKWARD_FNS
        originals = dict(registry)
        try:
            for owner, attr, make in patches:
                self._patch(owner, attr, make)
            mod["tensor"].register_backward(
                "conv2d", s(lambda a, k: f"tensor.conv_bwd.{conv_layer(a[0].inputs[1])}",
                            originals["conv2d"]))
            for op, name in BACKWARD_SPANS.items():
                mod["tensor"].register_backward(op, s(name, originals[op]))
            yield self
        finally:
            for owner, attr, raw in reversed(self._restore):
                setattr(owner, attr, raw)
            self._restore.clear()
            for op, fn in originals.items():
                mod["tensor"].register_backward(op, fn)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total seconds and self seconds."""
        child = defaultdict(float)
        for sid, parent, _name, start, end, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _parent, name, start, end, _run in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})["calls"] += n
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "run": run}) + "\n")
