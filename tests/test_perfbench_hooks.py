"""The benchmark tracer's hooks still bind to the program.

`perfbench/tracer.py` wraps program functions by looking them up by name in
their modules; a refactor that unbinds one of those names breaks `--trace 1`
with a KeyError, and one that stops calling a wrapped name leaves the
wrapper with zero calls, which fails a traced run. Installing and removing
the tracer here catches the first and checks that every wrapped name gets
its original back; a traced training step catches the second.
"""

import importlib
from pathlib import Path

import pytest

from convprune import finetune as ft
from convprune.dataset import generate_dataset
from convprune.network import init_network, tinynet_architecture

MODULES = ("tensor", "network", "pooling", "retrieval", "finetune", "salience", "pruner",
           "container", "dataset", "cli")


def _bindings():
    mods = {name: importlib.import_module(f"convprune.{name}") for name in MODULES}
    owners = {**mods, "GradientTape": mods["tensor"].GradientTape,
              "RetrievalDataset": mods["dataset"].RetrievalDataset}
    snapshot = {name: dict(vars(owner)) for name, owner in owners.items()}
    snapshot["backward rules"] = dict(mods["tensor"]._BACKWARD_FNS)
    return snapshot


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    before = _bindings()
    with tracer.Tracer().installed():
        during = _bindings()
    after = _bindings()
    changed = [(owner, name) for owner, names in before.items()
               for name, value in names.items() if during[owner][name] is not value]
    assert ("cli", "evaluate_model") in changed
    assert ("finetune", "descriptor_of") in changed
    for owner, names in before.items():
        assert after[owner].keys() == names.keys(), owner
        for name, value in names.items():
            assert after[owner][name] is value, (owner, name)


@pytest.mark.parametrize("pooling", ["sqp", "rmac"])
def test_traced_training_step_reaches_every_wrapper(pooling, monkeypatch, tmp_path):
    """One tinynet fine-tune epoch of a single SGD batch, under the tracer,
    calls every wrapper the benchmark's forward and training workloads
    require; a refactor that drops a wrapped call fails here, not only in a
    traced benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    data = generate_dataset(tmp_path / "data", instances=2, images_per_instance=7, seed=3)
    model = init_network(tinynet_architecture(), seed=0)
    # a margin of 2 keeps every hinge active: cosine similarities lie in [-1, 1]
    cfg = ft.FinetuneConfig(epochs=1, batch_size=len(data.split("train")), margin=2.0,
                            pooling=pooling)
    with tracer.Tracer().installed() as trace:
        ft.finetune(model, data, cfg)  # looked up as the benchmark does
    summary = trace.summary()
    assert summary["finetune.sgd_batch_step"]["calls"] == 1
    expected = workloads._FORWARD + workloads._TRAINING + [f"pooling.{pooling}_fwd",
                                                           f"pooling.{pooling}_bwd"]
    missing = [name for name in expected if summary.get(name, {}).get("calls", 0) == 0]
    assert not missing
