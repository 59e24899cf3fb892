"""CLI subcommands, exit codes, and the pipeline sweep."""

import argparse
import csv
import dataclasses
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from convprune.cli import (ExperimentConfig, cmd_report, evaluate_model, main, run_pipeline,
                           sweep_points)
from convprune.container import (BLOB_NAME, MANIFEST_NAME, ContainerError, read_container,
                                 write_csv, write_json, write_jsonl)
from convprune.dataset import DatasetError, RetrievalDataset, save_tensor
from convprune.finetune import FinetuneConfig
from convprune.network import load_model
from convprune.pooling import POOLING_KINDS
from convprune.retrieval import EvalResult

from util import build_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset plus a briefly trained baseline, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-dataset", "--out", str(root / "data"), "--instances", "6",
                 "--images", "8", "--seed", "1"]) == 0
    arch = {
        "input_shape": [3, 32, 32],
        "layers": [
            {"kind": "conv", "channels": 6, "kernel": 3, "stride": 1, "padding": 1},
            {"kind": "relu"},
            {"kind": "maxpool2"},
            {"kind": "conv", "channels": 8, "kernel": 3, "stride": 1, "padding": 1},
            {"kind": "relu"},
            {"kind": "maxpool2"},
        ],
    }
    (root / "arch.json").write_text(json.dumps(arch))
    assert main(["train", "--data", str(root / "data"), "--out", str(root / "baseline"),
                 "--arch", str(root / "arch.json"), "--epochs", "2", "--seed", "1"]) == 0
    return root


def test_gen_dataset_and_manifest(workspace):
    ds = RetrievalDataset.load(workspace / "data")
    assert len(ds.items) == 48
    assert all(len(ds.relevant[q.item_id]) == 4 for q in ds.split("query"))


def test_trained_model_loads(workspace):
    model = load_model(str(workspace / "baseline"))
    assert model.meta["history"]


def test_prune_counts(workspace):
    report_path = workspace / "prune_report.json"
    assert main(["prune", "--model", str(workspace / "baseline"),
                 "--out", str(workspace / "pruned"), "--heuristic", "h1",
                 "--keep", "0.5", "--report", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    model = load_model(str(workspace / "pruned"))
    total = sum(l.weights.size for _, l in model.conv_layers())
    remaining = sum(int(l.mask.sum()) for _, l in model.conv_layers())
    assert abs(remaining - 0.5 * total) <= 1.0
    assert payload["target_keep_fraction"] == 0.5


def test_prune_data_heuristics_run(workspace):
    for h in ("h2", "h3", "h4"):
        assert main(["prune", "--model", str(workspace / "baseline"),
                     "--out", str(workspace / f"pruned_{h}"), "--heuristic", h,
                     "--keep", "0.5", "--data", str(workspace / "data")]) == 0


def test_prune_h3_without_data_fails(workspace):
    assert main(["prune", "--model", str(workspace / "baseline"),
                 "--out", str(workspace / "nope"), "--heuristic", "h3",
                 "--keep", "0.5"]) == 1


def test_finetune_command(workspace):
    log_path = workspace / "ft_log.jsonl"
    assert main(["finetune", "--model", str(workspace / "pruned"),
                 "--data", str(workspace / "data"), "--out", str(workspace / "tuned"),
                 "--epochs", "1", "--seed", "2", "--log", str(log_path)]) == 0
    entries = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(entries) == 1
    assert {"epoch", "mean_loss", "active_fraction", "wall_time"} <= set(entries[0])
    model = load_model(str(workspace / "tuned"))
    for _, layer in model.conv_layers():
        assert np.all(layer.weights[~layer.mask] == 0.0)


def test_extract_pooling_tags(workspace):
    for pooling in ("sqp", "rmac"):
        assert main(["extract", "--model", str(workspace / "baseline"),
                     "--data", str(workspace / "data"), "--split", "index",
                     "--pooling", pooling, "--out", str(workspace / f"desc_{pooling}")]) == 0
    sq, sq_tensors = read_container(workspace / "desc_sqp")
    rm, rm_tensors = read_container(workspace / "desc_rmac")
    assert sq["pooling"] == "sqp" and rm["pooling"] == "rmac"
    assert sq_tensors["descriptors"].shape == rm_tensors["descriptors"].shape == (24, 8)
    assert sorted(p.name for p in (workspace / "desc_sqp").iterdir()) == [MANIFEST_NAME,
                                                                         BLOB_NAME]


def test_evaluate_command_and_report(workspace):
    out_json = workspace / "eval.json"
    out_csv = workspace / "eval.csv"
    assert main(["evaluate", "--model", str(workspace / "baseline"),
                 "--data", str(workspace / "data"), "--out", str(out_json),
                 "--csv", str(out_csv)]) == 0
    payload = json.loads(out_json.read_text())
    assert 0.0 <= payload["mean_ap"] <= 1.0
    assert 0.0 <= payload["recall4"] <= 4.0
    # report renders the same JSON to CSV
    out2 = workspace / "eval2.csv"
    assert main(["report", "--input", str(out_json), "--out", str(out2)]) == 0
    assert out2.read_text() == out_csv.read_text()


@pytest.mark.parametrize("payload", [
    "no layers here",
    {"layers": [{"layer": "L0", "total": 4, "fraction": 0.5}]},
    {"per_query_ap": {"q0": 1.0}, "query_count": 1},
    {"layers": [{"layer": "L0", "total": 4, "remaining": 2, "fraction": "half"}]},
    {"per_query_ap": {"q0": [1.0]}, "per_query_recall4": {}, "query_count": 1},
    {"layers": [{"layer": "L0", "total": 4, "remaining": 2, "fraction": 0.9}]},
    {"layers": [{"layer": "L0", "total": 4, "remaining": 5, "fraction": 1.25}]},
    {"layers": [{"layer": "L0", "total": 4, "remaining": -1, "fraction": -0.25}]},
    {"layers": [{"layer": "L0", "total": 4.0, "remaining": 2, "fraction": 0.5}]},
    {"layers": [{"layer": "L0", "total": 0, "remaining": 0, "fraction": 1.0}]},
    {"layers": [{"layer": "L0", "total": 4, "remaining": 4, "fraction": True}]},
    {"per_query_ap": {"q1": 1.0}, "per_query_recall4": {"q1": 4, "q9": 0}, "query_count": 7},
    {"per_query_ap": {"q1": 7.5, "q2": -1}, "per_query_recall4": {"q1": 9}, "query_count": 2},
    {"per_query_ap": {"q1": 1.5}, "per_query_recall4": {}, "query_count": 1},
    {"per_query_ap": {"q1": -0.5}, "per_query_recall4": {}, "query_count": 1},
    {"per_query_ap": {"q1": True}, "per_query_recall4": {}, "query_count": 1},
    {"per_query_ap": {"q1": 0.5}, "per_query_recall4": {"q9": 2}, "query_count": 1},
    {"per_query_ap": {"q1": 0.5}, "per_query_recall4": {"q1": 5}, "query_count": 1},
    {"per_query_ap": {"q1": 0.5}, "per_query_recall4": {"q1": -1}, "query_count": 1},
    {"per_query_ap": {"q1": 0.5}, "per_query_recall4": {"q1": 2.0}, "query_count": 1},
    {"per_query_ap": {"q1": 0.5}, "per_query_recall4": {"q1": 2}, "query_count": 3},
    {"rows": []},
    {"mean_ap": 0.9, "recall4": 1.0, "query_count": 1, "per_query_ap": {"q1": 0.5},
     "per_query_recall4": {"q1": 1}},
    {"mean_ap": 0.5, "recall4": 3.5, "query_count": 1, "per_query_ap": {"q1": 0.5},
     "per_query_recall4": {"q1": 1}},
], ids=["string", "prune-row-without-remaining", "eval-without-recall4",
        "prune-fraction-not-a-number", "eval-ap-not-a-number", "prune-fraction-not-the-ratio",
        "prune-remaining-above-total", "prune-remaining-negative", "prune-total-not-an-integer",
        "prune-empty-layer-fraction-not-zero", "prune-fraction-a-bool",
        "eval-recall4-of-no-query-and-count-off", "eval-ap-and-recall4-out-of-range",
        "eval-ap-above-one", "eval-ap-negative", "eval-ap-a-bool", "eval-recall4-of-no-query",
        "eval-recall4-above-four", "eval-recall4-negative", "eval-recall4-not-an-integer",
        "eval-query-count-not-the-ap-count", "object-without-layers-or-ap",
        "eval-mean-ap-not-the-ap-mean", "eval-recall4-not-the-recall-mean"])
def test_report_rejects_malformed_input_naming_the_file(payload, tmp_path):
    path = tmp_path / "bad_report.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "report.csv"
    with pytest.raises(ValueError, match="bad_report.json"):
        cmd_report(argparse.Namespace(input=str(path), out=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("fault", ["missing", "unreadable", "not-json"])
@pytest.mark.parametrize("flag", ["--config", "--arch", "--input"])
def test_cli_input_files_raise_value_error_naming_the_file(workspace, tmp_path, monkeypatch,
                                                           capsys, flag, fault):
    path = tmp_path / "input.json"
    if fault != "missing":
        path.write_bytes(b"{" if fault == "not-json" else b"{}")
    real_read = Path.read_bytes

    def read(self):
        if fault == "unreadable" and self.name == path.name:
            raise PermissionError(13, "Permission denied")
        return real_read(self)
    monkeypatch.setattr(Path, "read_bytes", read)
    out = tmp_path / "out"
    argv = {
        "--config": ["pipeline", "--config", str(path), "--data", str(workspace / "data"),
                     "--model", str(workspace / "baseline"), "--out", str(out)],
        "--arch": ["train", "--arch", str(path), "--data", str(workspace / "data"),
                   "--out", str(out)],
        "--input": ["report", "--input", str(path), "--out", str(out)],
    }[flag]
    if flag == "--config":
        with pytest.raises(ValueError, match=re.escape(str(path))):
            ExperimentConfig.from_file(str(path), {})
    assert main(argv) == 1
    assert re.search(rf"^error: .*{re.escape(str(path))}", capsys.readouterr().err, re.M)
    assert not out.exists()


@pytest.mark.parametrize("csv_name", ["e.json", "sub/../e.json"])
def test_evaluate_refuses_one_file_for_both_outputs(csv_name, workspace, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["evaluate", "--model", str(workspace / "baseline"), "--data",
                 str(workspace / "data"), "--out", "e.json", "--csv", csv_name]) == 1
    assert capsys.readouterr().err.splitlines() == \
        [f"error: cannot write {csv_name}: it is the --out file"]
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_evaluate_planted_duplicates_map_one(tmp_path):
    rng = np.random.default_rng(8)
    # every instance: the query image is byte-identical to its single index image
    images = []
    for _ in range(4):
        img = rng.uniform(0.0, 1.0, size=(3, 16, 16))
        images.append([img.copy(), img.copy()])
    ds = build_dataset(tmp_path / "dup", images)
    arch = {"input_shape": [3, 16, 16],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1}]}
    from convprune.network import init_network
    model = init_network(arch, seed=0)
    with pytest.warns(RuntimeWarning, match="recall@4"):
        result = evaluate_model(model, ds, "sqp")
    assert result.mean_ap == 1.0


def test_usage_error_exit_code_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prune", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    for shape in ("3x32", "3x32x32x1", "3xax32", "3x0x32"):  # a malformed shape is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["gen-dataset", "--out", str(tmp_path / "bad"), "--shape", shape])
        assert exc.value.code == 2
        assert "--shape" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    with pytest.raises(SystemExit) as exc:  # a malformed number too; a bad fraction is exit 1
        main(["pipeline", "--keep", "abc", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert "--keep" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_runtime_error_exit_code_1(tmp_path):
    assert main(["evaluate", "--model", str(tmp_path / "missing"),
                 "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o.json")]) == 1
    assert main(["gen-dataset", "--out", str(tmp_path / "bad"), "--shape", "4x8x8"]) == 1


def test_salience_for_gathers_inputs_for_the_one_dispatcher(workspace, monkeypatch):
    from convprune import cli, salience
    from convprune.finetune import sample_triplets
    model = load_model(str(workspace / "baseline"))
    dataset = RetrievalDataset.load(workspace / "data")
    cfg = FinetuneConfig(seed=3, pooling="rmac")
    calls = []
    for h in salience.HEURISTICS:  # patched on the module, as perfbench's tracer does
        score = getattr(salience, f"salience_{h}")
        monkeypatch.setattr(salience, f"salience_{h}", lambda *a, _f=score, **kw:
                            calls.append((a, kw)) or _f(*a, **kw))
    maps = {h: cli._salience_for(h, model, dataset, cfg) for h in salience.HEURISTICS}
    assert [m.heuristic for m in maps.values()] == list(salience.HEURISTICS)
    (h1_args, _), (h2_args, h2_kwargs), (h3_args, _), (h4_args, _) = calls
    assert h1_args == (model,)
    assert h2_args == (model, sample_triplets(dataset, 64, seed=[3, 997]), dataset)
    assert h2_kwargs == {"pooling": "rmac", "margin": cfg.margin}
    train_images = len(dataset.split("train"))
    assert h3_args[1].sample_count == train_images and h4_args[1].sample_count == train_images
    given = h3_args[1]
    cli._salience_for("h4", model, dataset, cfg, given)
    assert calls[-1][0][1] is given  # statistics passed in are used, not gathered again
    with pytest.raises(ValueError, match="unknown heuristic"):
        cli._salience_for("h9", model, dataset, cfg)


def test_extract_writes_the_index_evaluate_saves(workspace, tmp_path):
    assert main(["extract", "--model", str(workspace / "baseline"),
                 "--data", str(workspace / "data"), "--split", "index",
                 "--pooling", "rmac", "--out", str(tmp_path / "extracted")]) == 0
    model = load_model(str(workspace / "baseline"))
    dataset = RetrievalDataset.load(workspace / "data")
    evaluate_model(model, dataset, "rmac", save_index_to=tmp_path / "saved")
    names = sorted(p.name for p in (tmp_path / "extracted").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "saved").iterdir())
    for name in names:
        assert ((tmp_path / "extracted" / name).read_bytes()
                == (tmp_path / "saved" / name).read_bytes())


def test_split_descriptors_keep_split_order(workspace):
    from convprune.finetune import split_descriptors
    model = load_model(str(workspace / "baseline"))
    dataset = RetrievalDataset.load(workspace / "data")
    descs = split_descriptors(model, dataset, "query", "sqp")
    assert list(descs) == [it.item_id for it in dataset.split("query")]


def test_descriptor_index_roundtrip(workspace, tmp_path):
    from convprune.retrieval import DescriptorIndex
    assert main(["extract", "--model", str(workspace / "baseline"),
                 "--data", str(workspace / "data"), "--split", "index",
                 "--pooling", "sqp", "--out", str(tmp_path / "desc")]) == 0
    index = DescriptorIndex.load(tmp_path / "desc")
    assert index.kind == "sqp"
    assert len(index.ids) == len(index.labels) == 24  # 6 instances x 4 index images
    assert index.labels[index.ids.index("i000_v1")] == 0


def test_experiment_config_validation(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"keep_fractions": [0.5, 1.5]}))
    with pytest.raises(ValueError, match="keep fraction"):
        ExperimentConfig.from_file(str(cfg_path), {})
    cfg_path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_file(str(cfg_path), {})
    cfg_path.write_text(json.dumps({"heuristics": ["h1"], "epochs": 3}))
    cfg = ExperimentConfig.from_file(str(cfg_path), {"epochs": 5})
    assert cfg.epochs == 5 and cfg.heuristics == ["h1"]


def _pipeline_via_main(monkeypatch, argv) -> list:
    """Run `convprune pipeline` with `argv`; returns the configs it handed to run_pipeline."""
    from convprune import cli
    received = []
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg: received.append(cfg) or run_pipeline(cfg))
    assert main(["pipeline", *argv]) == 0
    return received


def test_pipeline_flags_run_the_sweep_of_the_equal_config(workspace, tmp_path, monkeypatch):
    paths = {"data": str(workspace / "data"), "model": str(workspace / "baseline")}
    settings = {"heuristics": ["h1", "h3"], "keep_fractions": [0.5, 0.25],
                "poolings": ["sqp", "rmac"], "epochs": 1, "margin": 0.2, "seed": 5, **paths}
    run_pipeline(ExperimentConfig(**settings, out=str(tmp_path / "direct")))
    received = _pipeline_via_main(monkeypatch, [
        "--heuristic", "h1,h3", "--keep", "0.5,0.25", "--pooling", "sqp,rmac", "--epochs", "1",
        "--margin", "0.2", "--seed", "5", "--data", paths["data"], "--model", paths["model"],
        "--out", str(tmp_path / "flags")])
    assert received == [ExperimentConfig(**settings, out=str(tmp_path / "flags"))]
    assert ((tmp_path / "flags" / "metrics.csv").read_bytes()
            == (tmp_path / "direct" / "metrics.csv").read_bytes())


def test_pipeline_flag_overrides_its_config_file_key(workspace, tmp_path, monkeypatch):
    settings = {"heuristics": ["h2"], "keep_fractions": [0.5], "poolings": ["sqp"], "epochs": 1,
                "seed": 2, "data": str(workspace / "data"), "model": str(workspace / "baseline"),
                "out": str(tmp_path / "from_file")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    run_pipeline(ExperimentConfig(**{**settings, "seed": 6, "out": str(tmp_path / "direct")}))
    received = _pipeline_via_main(monkeypatch, ["--config", str(cfg_path), "--seed", "6"])
    assert received == [ExperimentConfig(**{**settings, "seed": 6})]
    assert ((tmp_path / "from_file" / "metrics.csv").read_bytes()
            == (tmp_path / "direct" / "metrics.csv").read_bytes())


# flag: (the FinetuneConfig field it sets, an argument, the field's value for it)
SETTINGS_FLAGS = {"--epochs": ("epochs", "3", 3), "--margin": ("margin", "0.3", 0.3),
                  "--lr": ("learning_rate", "0.05", 0.05), "--batch-size": ("batch_size", "4", 4),
                  "--mining": ("mining", "hard", "hard"), "--pooling": ("pooling", "rmac", "rmac"),
                  "--seed": ("seed", "7", 7)}


@pytest.mark.parametrize("command, receiver, flags", [
    ("train", "train_baseline", list(SETTINGS_FLAGS)),
    ("finetune", "run_finetune", list(SETTINGS_FLAGS)),
    ("prune", "_salience_for", ["--margin", "--pooling", "--seed"]),  # what h2's triplets use
])
def test_settings_flags_reach_their_config_fields(command, receiver, flags, workspace,
                                                  tmp_path, monkeypatch):
    from convprune import cli
    from convprune.network import tinynet_architecture
    received = []

    def stop(*args):
        received.append(args)
        raise RuntimeError("stopped once the config arrived")
    monkeypatch.setattr(cli, receiver, stop)
    data, out = str(workspace / "data"), str(tmp_path / "out")
    argv = {"train": ["train", "--data", data, "--out", out],
            "finetune": ["finetune", "--model", str(workspace / "baseline"), "--data", data,
                         "--out", out],
            "prune": ["prune", "--model", str(workspace / "baseline"), "--data", data,
                      "--out", out, "--heuristic", "h2", "--keep", "0.5"]}[command]
    assert main(argv) == 1
    assert main([*argv, *(arg for flag in flags for arg in (flag, SETTINGS_FLAGS[flag][1]))]) == 1
    expected = FinetuneConfig(**{SETTINGS_FLAGS[f][0]: SETTINGS_FLAGS[f][2] for f in flags})
    assert [args[-1] for args in received] == [FinetuneConfig(), expected]
    if command == "train":  # the default --arch
        assert all(args[0] == tinynet_architecture() for args in received)
    if command == "prune":
        assert all(args[0] == "h2" for args in received)
    assert not Path(out).exists()


@pytest.mark.parametrize("key", ["stats_images", "h2_triplets", "learning_rate", "batch_size",
                                 "mining"])
def test_experiment_config_rejects_the_deleted_salience_sizes(key, tmp_path, workspace):
    # h3/h4 statistics cover the whole train split and h2 draws H2_TRIPLETS;
    # a sweep fine-tunes with FinetuneConfig's learning rate, batch size and mining
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: 16}))
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_file(str(cfg_path), {})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--data", str(workspace / "data"),
                 "--model", str(workspace / "baseline"), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("content", ["[]", '["epochs", 2]', '"h1"', "3", "null"])
def test_experiment_config_file_must_be_an_object(content, tmp_path, workspace):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(content)
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_file(str(cfg_path), {})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--data", str(workspace / "data"),
                 "--model", str(workspace / "baseline"), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("arch", [
    {"input_shape": [3, 32, 32]},
    {"input_shape": [3, 32, 32], "layers": ["conv"]},
    {"input_shape": [3, 32, 32], "layers": [{"channels": 4, "kernel": 3}]},
    {"layers": [{"kind": "conv", "channels": 4, "kernel": 3}]},
    [{"kind": "conv", "channels": 4, "kernel": 3}],
], ids=["no-layers", "string-layer", "layer-without-kind", "no-input-shape", "list"])
def test_train_rejects_malformed_architecture_file(arch, tmp_path, workspace):
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps(arch))
    out = tmp_path / "model"
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--arch", str(arch_path), "--epochs", "1"]) == 1
    assert not out.exists()


def _report(workspace):
    from convprune.pruner import layer_size_report
    return layer_size_report(load_model(str(workspace / "baseline")))


ATOMIC_WRITERS = {
    "prune-json": lambda ws, path: _report(ws).write_json(path),
    "prune-csv": lambda ws, path: _report(ws).write_csv(path),
    "eval-csv": lambda ws, path: EvalResult({"q": 0.5}, {"q": 2}, 1).write_csv(path),
    "evaluate-json": lambda ws, path: main([
        "evaluate", "--model", str(ws / "baseline"), "--data", str(ws / "data"),
        "--out", str(path)]),
    "finetune-log": lambda ws, path: main([
        "finetune", "--model", str(ws / "baseline"), "--data", str(ws / "data"),
        "--out", str(path.parent.parent / "tuned"), "--epochs", "1", "--log", str(path)]),
    "cptn": lambda ws, path: save_tensor(np.zeros((2, 3)), path),
    "write-csv": lambda ws, path: write_csv(path, [["a", 0.5]]),
    "write-json": lambda ws, path: write_json(path, {"a": 0.5}),
    "write-jsonl": lambda ws, path: write_jsonl(path, [{"a": 0.5}]),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_report_writers_replace_atomically(writer, workspace, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    target = out / "report"
    target.write_bytes(b"previous\n")
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == target:
            raise OSError("rename failed")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    try:
        failed = ATOMIC_WRITERS[writer](workspace, target) == 1  # a command's exit code
    except OSError:
        failed = True
    assert failed
    assert target.read_bytes() == b"previous\n"
    assert [p.name for p in out.iterdir()] == ["report"]
    monkeypatch.setattr(os, "replace", real_replace)
    assert ATOMIC_WRITERS[writer](workspace, target) in (None, 0)
    assert target.read_bytes() != b"previous\n"
    assert [p.name for p in out.iterdir()] == ["report"]


@pytest.mark.parametrize("bad", [{"epochs": 0}, {"margin": 0.0}, {"epochs": -1},
                                 {"margin": -0.2}, {"margin": float("nan")},
                                 {"margin": float("inf")}, {"margin": True}, {"margin": "0.1"},
                                 {"margin": None}])
def test_experiment_config_rejects_bad_finetune_settings(bad, tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(str(cfg_path), {})


def test_readme_lists_every_experiment_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"an `ExperimentConfig`: keys(.*?)\)", readme, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize("bad", [
    {"epochs": 2.5}, {"keep_fractions": [0.5, 0.5]}, {"seed": 1.5},
    {"epochs": True}, {"seed": -1}, {"keep_fractions": [0.1, 0.1000001]},
    {"heuristics": ["h1", "h1"]}, {"poolings": ["sqp", "sqp"]},
    {"heuristics": []}, {"keep_fractions": []}, {"poolings": []},
    {"keep_fractions": [True]}, {"heuristics": "h1"}, {"heuristics": ["h9"]},
])
def test_experiment_config_rejects_wrong_types_and_empty_lists(bad, tmp_path, workspace):
    # each of these used to be accepted and fail only inside a pipeline point,
    # or, for repeated sweep points, overwrite the first point's files
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(str(cfg_path), {})
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--data", str(workspace / "data"),
                 "--model", str(workspace / "baseline"), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["data", "model", "out"])
def test_experiment_config_rejects_a_number_for_a_path(key, tmp_path, workspace, monkeypatch):
    # a number used to construct and fail inside run_pipeline with a TypeError
    monkeypatch.chdir(tmp_path)  # so that an out path "5" would land here
    paths = {"data": str(workspace / "data"), "model": str(workspace / "baseline"),
             "out": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"heuristics": ["h1"], "keep_fractions": [0.5],
                                    **paths, key: 5}))
    with pytest.raises(ValueError, match=f"{key} must be a path string"):
        ExperimentConfig.from_file(str(cfg_path), {})
    assert main(["pipeline", "--config", str(cfg_path)]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("history", [5, [1], {"epoch": 0}])
def test_baseline_with_a_malformed_history_fails_to_load(history, tmp_path, workspace):
    # a history that is not a list of objects used to load, and `finetune`
    # failed appending to it after a whole epoch
    baseline = tmp_path / "baseline"
    shutil.copytree(workspace / "baseline", baseline)
    manifest = json.loads((baseline / MANIFEST_NAME).read_text())
    manifest["metadata"]["history"] = history
    (baseline / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ContainerError, match="history"):
        load_model(str(baseline))
    out = tmp_path / "out"
    assert main(["pipeline", "--data", str(workspace / "data"), "--model", str(baseline),
                 "--out", str(out), "--heuristic", "h1", "--keep", "0.5"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("pooling", POOLING_KINDS)
def test_experiment_config_finetune_defaults_are_finetune_configs(pooling):
    assert ExperimentConfig().finetune_config(pooling) == FinetuneConfig(pooling=pooling)


def test_pipeline_bad_config_fails_before_any_output(workspace, tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "--data", str(workspace / "data"),
                 "--model", str(workspace / "baseline"), "--out", str(out),
                 "--heuristic", "h1", "--keep", "0.5", "--pooling", "sqp",
                 "--epochs", "0"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--heuristic", "--pooling"])
def test_pipeline_empty_list_flag_fails_the_config_check(flag, workspace, tmp_path, capsys):
    # an empty flag is a list holding one empty name, which no heuristic or pooling has
    out = tmp_path / "out"
    assert main(["pipeline", "--data", str(workspace / "data"),
                 "--model", str(workspace / "baseline"), "--out", str(out),
                 "--heuristic", "h1", "--keep", "0.5", "--pooling", "sqp", flag, ""]) == 1
    assert "unknown" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_rows_and_t1_consistency(workspace):
    out = workspace / "results"
    cfg = ExperimentConfig(heuristics=["h1"], keep_fractions=[1.0, 0.5], poolings=["sqp"],
                           epochs=1, seed=3, data=str(workspace / "data"),
                           model=str(workspace / "baseline"), out=str(out))
    returned = run_pipeline(cfg)
    with open(out / "metrics.csv", newline="") as fh:
        cells = list(csv.reader(fh))[1:]
    # the returned rows are the data rows of metrics.csv, their floats unrounded
    assert [[f"{c:.12g}" if isinstance(c, float) else c for c in row] for row in returned] == cells
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 * 2 * 1 * 2  # heuristics x fractions x poolings x phases
    assert {r["phase"] for r in rows} == {"pruned", "finetuned"}
    # the t=1 pruned row equals a standalone evaluation of the baseline
    baseline = load_model(str(workspace / "baseline"))
    dataset = RetrievalDataset.load(workspace / "data")
    expected = evaluate_model(baseline, dataset, "sqp")
    t1 = next(r for r in rows if r["keep_fraction"] == "1" and r["phase"] == "pruned")
    assert t1["map"] == f"{expected.mean_ap:.12g}"
    assert (out / "reports" / "prune_h1_t1_sqp.csv").exists()
    assert (out / "models" / "h1_t0.5_sqp" / "manifest.json").exists()
    assert sorted(p.name for p in (out / "descriptors" / "h1_t0.5_sqp").iterdir()) == [
        MANIFEST_NAME, BLOB_NAME]
    assert (out / "log.jsonl").read_text().strip()


def test_report_prune_csv_matches_pipeline_csv(workspace):
    out = workspace / "report_csv"
    run_pipeline(ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                                  epochs=1, seed=2, data=str(workspace / "data"),
                                  model=str(workspace / "baseline"), out=str(out)))
    reports = out / "reports"
    assert main(["report", "--input", str(reports / "prune_h1_t0.5_sqp.json"),
                 "--out", str(out / "rendered.csv")]) == 0
    rendered = (out / "rendered.csv").read_bytes()
    assert rendered == (reports / "prune_h1_t0.5_sqp.csv").read_bytes()
    assert rendered.splitlines()[-1].startswith(b"all,")


def test_pipeline_rerun_byte_identical(workspace):
    cfgs = []
    for name in ("rerun_a", "rerun_b"):
        cfgs.append(ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                                     epochs=1, seed=4, data=str(workspace / "data"),
                                     model=str(workspace / "baseline"),
                                     out=str(workspace / name)))
    for cfg in cfgs:
        run_pipeline(cfg)
    a = (workspace / "rerun_a" / "metrics.csv").read_bytes()
    b = (workspace / "rerun_b" / "metrics.csv").read_bytes()
    assert a == b


def test_sweep_writes_the_same_bytes_on_one_worker_and_on_two(workspace, monkeypatch):
    """Every file but log.jsonl is byte-identical; model manifests are
    compared without each history entry's wall_time."""
    from convprune import finetune as finetune_module
    outs = {}
    for workers in (1, 2):
        monkeypatch.setattr(finetune_module, "_workers", lambda n, k=workers: k)
        outs[workers] = workspace / f"workers_{workers}"
        run_pipeline(ExperimentConfig(heuristics=["h1", "h2", "h3"], keep_fractions=[0.5, 0.1],
                                      poolings=["rmac"], epochs=1, seed=4,
                                      data=str(workspace / "data"),
                                      model=str(workspace / "baseline"), out=str(outs[workers])))

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file() and p.name != "log.jsonl")

    def manifest_without_timings(workers, rel):
        manifest = json.loads((outs[workers] / rel).read_text())
        for entry in manifest["metadata"]["history"]:
            assert "workers" not in entry
            del entry["wall_time"]
        return manifest

    for workers, out in outs.items():  # the log shows each run's worker count
        events = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
        tuned = [e for e in events if e["stage"] == "finetuned"]
        assert len(tuned) == 6
        assert all(entry["workers"] == workers for e in tuned for entry in e["epochs"])
    assert files(outs[1]) == files(outs[2])
    assert len(list((outs[1] / "models").iterdir())) == 6
    for rel in files(outs[1]):
        if rel.parts[0] == "models" and rel.name == MANIFEST_NAME:
            assert manifest_without_timings(1, rel) == manifest_without_timings(2, rel), rel
        else:
            assert (outs[1] / rel).read_bytes() == (outs[2] / rel).read_bytes(), rel


def test_sweep_runs_pooling_major_then_heuristic_then_keep(workspace):
    out = workspace / "order"
    cfg = ExperimentConfig(heuristics=["h3", "h1"], keep_fractions=[0.5], poolings=["rmac", "sqp"],
                           epochs=1, seed=4, data=str(workspace / "data"),
                           model=str(workspace / "baseline"), out=str(out))
    points = sweep_points(cfg)
    assert [p.fields for p in points] == [["h3", "0.5", "rmac"], ["h1", "0.5", "rmac"],
                                          ["h3", "0.5", "sqp"], ["h1", "0.5", "sqp"]]
    run_pipeline(cfg)
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["phase"] for r in rows] == ["pruned", "finetuned"] * len(points)
    fields = [[r["heuristic"], r["keep_fraction"], r["pooling"]] for r in rows]
    assert fields[::2] == fields[1::2] == [p.fields for p in points]
    tags = sorted(p.tag for p in points)
    assert sorted(p.name for p in (out / "models").iterdir()) == tags
    assert sorted(p.name for p in (out / "descriptors").iterdir()) == tags
    assert sorted(p.name for p in (out / "reports").iterdir()) == sorted(
        f"prune_{tag}.{ext}" for tag in tags for ext in ("csv", "json"))


def _write_report_input(ws, tmp):
    _report(ws).write_json(tmp / "input.json")
    return tmp / "input.json"


# each writer's argv with `target` as the output under test; its other outputs go to `tmp`
OUTPUT_FLAGS = {
    "prune --report": lambda ws, tmp, target: [
        "prune", "--model", str(ws / "baseline"), "--heuristic", "h1", "--keep", "0.5",
        "--out", str(tmp / "pruned"), "--report", str(target)],
    "evaluate --out": lambda ws, tmp, target: [
        "evaluate", "--model", str(ws / "baseline"), "--data", str(ws / "data"),
        "--out", str(target)],
    "evaluate --csv": lambda ws, tmp, target: [
        "evaluate", "--model", str(ws / "baseline"), "--data", str(ws / "data"),
        "--out", str(tmp / "eval.json"), "--csv", str(target)],
    "finetune --log": lambda ws, tmp, target: [
        "finetune", "--model", str(ws / "baseline"), "--data", str(ws / "data"),
        "--out", str(tmp / "tuned"), "--epochs", "1", "--log", str(target)],
    "report --out": lambda ws, tmp, target: [
        "report", "--input", str(_write_report_input(ws, tmp)), "--out", str(target)],
    "extract --out": lambda ws, tmp, target: [
        "extract", "--model", str(ws / "baseline"), "--data", str(ws / "data"),
        "--out", str(target)],
}


@pytest.mark.parametrize("writer", sorted(OUTPUT_FLAGS))
def test_writers_create_missing_directories_and_name_a_failed_target(writer, workspace, tmp_path,
                                                                     capsys):
    argv = OUTPUT_FLAGS[writer]
    target = tmp_path / "nodir" / "sub" / "out"
    assert main(argv(workspace, tmp_path, target)) == 0
    assert target.is_file() or (target / MANIFEST_NAME).is_file()
    # a container's first file is its blob
    target = tmp_path / "taken"
    blocked = target / BLOB_NAME if writer == "extract --out" else target
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert main(argv(workspace, tmp_path, target)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {blocked}: "), err
    assert ".tmp" not in err[0]
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("blocked", [".", "..", "afile/out", "taken"])
@pytest.mark.parametrize("writer", sorted(set(OUTPUT_FLAGS) - {"extract --out"}))
def test_a_target_that_cannot_name_a_file_fails_before_any_output(writer, blocked, workspace,
                                                                  tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "taken").mkdir()
    argv = OUTPUT_FLAGS[writer](workspace, tmp_path, Path(blocked))
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {blocked}: "), err
    # nothing written: a command with two outputs checks the second before the first
    assert sorted(tmp_path.rglob("*")) == before


def test_a_container_under_a_file_fails_naming_its_blob(workspace, tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    target = tmp_path / "afile" / "index"
    assert main(OUTPUT_FLAGS["extract --out"](workspace, tmp_path, target)) == 1
    assert capsys.readouterr().err.splitlines() == \
        [f"error: cannot write {target / BLOB_NAME}: {tmp_path / 'afile'} is not a directory"]


def test_pipeline_rerun_starts_a_fresh_log(workspace):
    out = workspace / "fresh_log"
    cfg = ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                           epochs=1, seed=4, data=str(workspace / "data"),
                           model=str(workspace / "baseline"), out=str(out))
    run_pipeline(cfg)
    first = (out / "log.jsonl").read_text().splitlines()
    run_pipeline(cfg)
    events = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    assert [e["stage"] for e in events] == ["pruned", "finetuned"] == \
        [json.loads(line)["stage"] for line in first]
    assert min(e["time"] for e in events) > max(json.loads(line)["time"] for line in first)


def _run_sweep_point(workspace, out):
    run_pipeline(ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                                  epochs=1, seed=4, data=str(workspace / "data"),
                                  model=str(workspace / "baseline"), out=str(out)))


def _fail_rename(monkeypatch, target: Path, nth: int) -> list[bytes]:
    """Make the `nth` rename onto `target` fail; returns, per rename onto it,
    the bytes `target` held just before it."""
    real_replace = os.replace
    held = []

    def replace(src, dst):
        if Path(dst) == target:
            held.append(target.read_bytes() if target.exists() else b"")
            if len(held) == nth:
                raise OSError("rename failed")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return held


def test_pipeline_metrics_keep_complete_rows_when_a_write_fails(workspace, tmp_path,
                                                                monkeypatch):
    _run_sweep_point(workspace, tmp_path / "whole")
    whole = (tmp_path / "whole" / "metrics.csv").read_bytes()
    assert len(whole.splitlines()) == 3  # the header, the pruned and the finetuned row
    metrics = tmp_path / "failed" / "metrics.csv"
    writes = _fail_rename(monkeypatch, metrics, 3)  # the finetuned row's write
    with pytest.raises(RuntimeError, match="partial results"):
        _run_sweep_point(workspace, tmp_path / "failed")
    assert len(writes) == 3
    assert metrics.read_bytes() == b"".join(whole.splitlines(keepends=True)[:2])
    assert not [p for p in metrics.parent.iterdir() if p.name.endswith(".tmp")]
    assert "rename failed" in (metrics.parent / "log.jsonl").read_text()


def test_pipeline_log_keeps_complete_lines_when_a_write_fails(workspace, tmp_path,
                                                              monkeypatch):
    log = tmp_path / "failed" / "log.jsonl"
    # the log's writes: the fresh empty log, the pruned, finetuned and error events
    held = _fail_rename(monkeypatch, log, 3)
    with pytest.raises(RuntimeError, match="partial results"):
        _run_sweep_point(workspace, tmp_path / "failed")
    assert len(held) == 4
    # the failed write left the complete pruned line, which the error event's write extends
    assert [json.loads(line)["stage"] for line in held[3].splitlines()] == ["pruned"]
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert [e["stage"] for e in events] == ["pruned", "finetuned", "error"]
    assert "rename failed" in events[-1]["error"]
    assert not [p for p in log.parent.iterdir() if p.name.endswith(".tmp")]


def test_pipeline_rejects_a_truncated_image_before_any_output(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    image = next((data / "tensors").iterdir())
    image.write_bytes(image.read_bytes()[:-4])
    out = tmp_path / "out"
    cfg = ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                           epochs=1, data=str(data), model=str(workspace / "baseline"),
                           out=str(out))
    with pytest.raises(DatasetError, match=f"{image.name}: payload"):
        run_pipeline(cfg)
    assert not out.exists()


def test_no_image_file_is_read_after_the_dataset_loads(workspace, monkeypatch):
    """Evaluation, fine-tuning and h2 salience, each on two processes, run
    with the image file reader broken once the dataset has loaded."""
    from convprune import dataset as dataset_module, finetune as finetune_module
    from convprune.finetune import sample_triplets
    from convprune.salience import salience_h2
    dataset = RetrievalDataset.load(workspace / "data")
    model = load_model(str(workspace / "baseline"))

    def broken(path):
        raise OSError(f"{path} read after the dataset loaded")
    monkeypatch.setattr(dataset_module, "load_image_file", broken)
    monkeypatch.setattr(finetune_module, "_workers", lambda n: 2)
    result = evaluate_model(model, dataset, "rmac")
    assert result.query_count == len(dataset.split("query"))
    _, log = finetune_module.finetune(model, dataset, FinetuneConfig(epochs=1))
    assert len(log) == 1
    triplets = sample_triplets(dataset, 4, mode="random", seed=0)
    salience_h2(model, triplets, dataset, pooling="rmac", margin=2.0)


def test_pipeline_finetuned_events_carry_the_epoch_log(workspace, monkeypatch):
    from convprune import finetune as finetune_module
    monkeypatch.setattr(finetune_module, "_workers", lambda n: 2)
    out = workspace / "telemetry"
    run_pipeline(ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                                  epochs=2, seed=4, data=str(workspace / "data"),
                                  model=str(workspace / "baseline"), out=str(out)))
    events = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    tuned = [e for e in events if e["stage"] == "finetuned"]
    assert len(tuned) == 1 and "workers" not in tuned[0]  # each epoch entry carries it
    assert [e["epoch"] for e in tuned[0]["epochs"]] == [0, 1]
    for entry in tuned[0]["epochs"]:
        assert {"mean_loss", "active_fraction", "wall_time"} <= entry.keys()
        assert entry["workers"] == 2
    assert b"wall_time" not in (out / "metrics.csv").read_bytes()


def test_pipeline_requires_paths():
    with pytest.raises(ValueError, match="pipeline needs"):
        run_pipeline(ExperimentConfig())


def test_pipeline_point_failure_preserves_partial_results(workspace, tmp_path, monkeypatch):
    # a fine-tune that fails fails every point, but the metrics file and the
    # error log must still be written
    from convprune import cli

    def failing_finetune(*args, **kwargs):
        raise ValueError("fine-tuning failed")
    monkeypatch.setattr(cli, "run_finetune", failing_finetune)
    out = tmp_path / "broken"
    cfg = ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                           epochs=1, seed=0, data=str(workspace / "data"),
                           model=str(workspace / "baseline"), out=str(out))
    with pytest.raises(RuntimeError, match="partial results"):
        run_pipeline(cfg)
    assert (out / "metrics.csv").read_text().startswith("heuristic,")
    assert "error" in (out / "log.jsonl").read_text()


def test_pipeline_checks_baseline_and_training_split_before_any_output(workspace, tmp_path):
    from convprune.dataset import generate_dataset
    from convprune.network import init_network, save_model
    arch = {"input_shape": [3, 16, 16],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1}]}
    save_model(init_network(arch, seed=0), str(tmp_path / "wrong"))
    generate_dataset(tmp_path / "pairless", instances=3, images_per_instance=6, seed=0)
    out = tmp_path / "out"
    for data, model, message in [
            (workspace / "data", tmp_path / "wrong", r"takes \(3, 16, 16\) images"),
            (tmp_path / "pairless", workspace / "baseline", "two images")]:
        assert main(["pipeline", "--data", str(data), "--model", str(model), "--out", str(out),
                     "--heuristic", "h1", "--keep", "0.5", "--pooling", "sqp"]) == 1
        assert not out.exists()
        with pytest.raises(ValueError, match=message):
            run_pipeline(ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5],
                                          poolings=["sqp"], data=str(data), model=str(model),
                                          out=str(out)))
        assert not out.exists()
