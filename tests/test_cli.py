"""CLI subcommands, exit codes, and the pipeline sweep."""

import argparse
import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from convprune.cli import ExperimentConfig, cmd_report, evaluate_model, main, run_pipeline
from convprune.container import BLOB_NAME, MANIFEST_NAME, read_container
from convprune.dataset import RetrievalDataset, save_tensor
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
], ids=["string", "prune-row-without-remaining", "eval-without-recall4"])
def test_report_rejects_malformed_input_naming_the_file(payload, tmp_path):
    path = tmp_path / "bad_report.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "report.csv"
    with pytest.raises(ValueError, match="bad_report.json"):
        cmd_report(argparse.Namespace(input=str(path), out=str(out)))
    assert not out.exists()


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


def test_runtime_error_exit_code_1(tmp_path):
    assert main(["evaluate", "--model", str(tmp_path / "missing"),
                 "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o.json")]) == 1
    assert main(["gen-dataset", "--out", str(tmp_path / "bad"), "--shape", "4x8x8"]) == 1


def test_salience_for_gathers_inputs_for_the_one_dispatcher(workspace, monkeypatch):
    from convprune import cli, salience
    from convprune.finetune import sample_triplets
    model = load_model(str(workspace / "baseline"))
    dataset = RetrievalDataset.load(workspace / "data")
    cfg = ExperimentConfig(seed=3, h2_triplets=8, stats_images=16)
    calls = []
    for h in salience.HEURISTICS:  # patched on the module, as perfbench's tracer does
        score = getattr(salience, f"salience_{h}")
        monkeypatch.setattr(salience, f"salience_{h}", lambda *a, _f=score, **kw:
                            calls.append((a, kw)) or _f(*a, **kw))
    maps = {h: cli._salience_for(h, model, dataset, cfg, "rmac") for h in salience.HEURISTICS}
    assert [m.heuristic for m in maps.values()] == list(salience.HEURISTICS)
    (h1_args, _), (h2_args, h2_kwargs), (h3_args, _), (h4_args, _) = calls
    assert h1_args == (model,)
    assert h2_args == (model, sample_triplets(dataset, 8, seed=[3, 997]), dataset)
    assert h2_kwargs == {"pooling": "rmac", "margin": cfg.margin}
    assert h3_args[1].sample_count == 16 and h4_args[1].sample_count == 16
    given = h3_args[1]
    cli._salience_for("h4", model, dataset, cfg, "rmac", given)
    assert calls[-1][0][1] is given  # statistics passed in are used, not gathered again
    with pytest.raises(ValueError, match="unknown heuristic"):
        cli._salience_for("h9", model, dataset, cfg, "rmac")


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
    assert len(index.entries) == 24  # 6 instances x 4 index images
    assert index.labels()["i000_v1"] == 0


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


@pytest.mark.parametrize("bad", [{"epochs": 0}, {"margin": 0.0}, {"batch_size": 0},
                                 {"mining": "bogus"}, {"learning_rate": -0.2},
                                 {"margin": float("inf")}, {"margin": True}, {"margin": "0.1"},
                                 {"learning_rate": True}])
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
    {"epochs": 2.5}, {"stats_images": "16"}, {"batch_size": 1.5}, {"seed": 1.5},
    {"epochs": True}, {"seed": -1}, {"h2_triplets": 0}, {"stats_images": 0},
    {"h2_triplets": 2.0}, {"heuristics": []}, {"keep_fractions": []}, {"poolings": []},
    {"keep_fractions": [True]}, {"heuristics": "h1"},
])
def test_experiment_config_rejects_wrong_types_and_empty_lists(bad, tmp_path, workspace):
    # each of these used to be accepted and fail only inside a pipeline point
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


def test_pipeline_rows_and_t1_consistency(workspace):
    out = workspace / "results"
    cfg = ExperimentConfig(heuristics=["h1"], keep_fractions=[1.0, 0.5], poolings=["sqp"],
                           epochs=1, seed=3, data=str(workspace / "data"),
                           model=str(workspace / "baseline"), out=str(out))
    run_pipeline(cfg)
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


def test_pipeline_metrics_keep_complete_rows_when_a_write_fails(workspace, tmp_path,
                                                                monkeypatch):
    def run(name):
        cfg = ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                               epochs=1, seed=4, data=str(workspace / "data"),
                               model=str(workspace / "baseline"), out=str(tmp_path / name))
        run_pipeline(cfg)

    run("whole")
    whole = (tmp_path / "whole" / "metrics.csv").read_bytes()
    assert len(whole.splitlines()) == 3  # the header, the pruned and the finetuned row
    metrics = tmp_path / "failed" / "metrics.csv"
    real_replace = os.replace
    writes = []

    def replace(src, dst):
        if Path(dst) == metrics:
            writes.append(dst)
            if len(writes) == 3:  # the finetuned row's write
                raise OSError("rename failed")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(RuntimeError, match="partial results"):
        run("failed")
    assert len(writes) == 3
    assert metrics.read_bytes() == b"".join(whole.splitlines(keepends=True)[:2])
    assert not [p for p in metrics.parent.iterdir() if p.name.endswith(".tmp")]
    assert "rename failed" in (metrics.parent / "log.jsonl").read_text()


def test_pipeline_finetuned_events_carry_the_epoch_log(workspace, monkeypatch):
    from convprune import finetune as finetune_module
    monkeypatch.setattr(finetune_module, "_workers", lambda n: 2)
    out = workspace / "telemetry"
    run_pipeline(ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                                  epochs=2, seed=4, data=str(workspace / "data"),
                                  model=str(workspace / "baseline"), out=str(out)))
    events = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    tuned = [e for e in events if e["stage"] == "finetuned"]
    assert len(tuned) == 1 and tuned[0]["workers"] == 2
    assert [e["epoch"] for e in tuned[0]["epochs"]] == [0, 1]
    for entry in tuned[0]["epochs"]:
        assert {"mean_loss", "active_fraction", "wall_time"} <= entry.keys()
    assert b"wall_time" not in (out / "metrics.csv").read_bytes()


def test_pipeline_requires_paths():
    with pytest.raises(ValueError, match="pipeline needs"):
        run_pipeline(ExperimentConfig())


def test_pipeline_point_failure_preserves_partial_results(workspace, tmp_path):
    # a baseline whose input shape mismatches the dataset fails every point,
    # but the metrics file and the error log must still be written
    from convprune.network import init_network, save_model
    arch = {"input_shape": [3, 16, 16],
            "layers": [{"kind": "conv", "channels": 4, "kernel": 3, "stride": 1, "padding": 1}]}
    save_model(init_network(arch, seed=0), str(tmp_path / "wrong"))
    out = tmp_path / "broken"
    cfg = ExperimentConfig(heuristics=["h1"], keep_fractions=[0.5], poolings=["sqp"],
                           epochs=1, seed=0, data=str(workspace / "data"),
                           model=str(tmp_path / "wrong"), out=str(out))
    with pytest.raises(RuntimeError, match="partial results"):
        run_pipeline(cfg)
    assert (out / "metrics.csv").read_text().startswith("heuristic,")
    assert "error" in (out / "log.jsonl").read_text()
