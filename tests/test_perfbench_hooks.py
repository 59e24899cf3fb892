"""The benchmark tracer's hooks still bind to the program.

`perfbench/tracer.py` wraps program functions by looking them up by name in
their modules; a refactor that unbinds one of those names breaks `--trace 1`
with a KeyError. Installing and removing the tracer here catches that, and
checks that every wrapped name gets its original back.
"""

import importlib
from pathlib import Path

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
