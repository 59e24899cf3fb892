"""The scripts under scripts/: the desk experiment's early checks and the
verdicts of the paired benchmark comparison."""

import csv
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convprune import cli
from convprune.cli import ExperimentConfig
from convprune.dataset import generate_dataset

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _desk_experiment(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "run_desk_experiment.py"),
                           *args], capture_output=True, text=True, env=env, timeout=120)


def test_desk_experiment_rejects_bad_input_before_writing(tmp_path):
    out = tmp_path / "out"
    run = _desk_experiment("--out", str(out), "--instances", "3", "--images", "6")
    assert run.returncode != 0
    assert "7" in run.stderr and len(run.stderr.splitlines()) == 1
    assert not (out / "data").exists()

    run = _desk_experiment("--out", str(out), "--keep", "0.5,0.5")  # repeated sweep points
    assert run.returncode != 0
    assert "repeat" in run.stderr and len(run.stderr.splitlines()) == 1
    assert not out.exists()

    # a given dataset is checked by the triplet sampler before any seed trains
    generate_dataset(tmp_path / "data", instances=3, images_per_instance=6, seed=0)
    run = _desk_experiment("--out", str(out), "--data", str(tmp_path / "data"))
    assert run.returncode != 0
    assert "two images" in run.stderr and len(run.stderr.splitlines()) == 1
    assert not out.exists()


def test_desk_experiment_reports_unloadable_data_and_too_few_instances(tmp_path):
    out = tmp_path / "out"
    (tmp_path / "empty").mkdir()
    run = _desk_experiment("--out", str(out), "--data", str(tmp_path / "empty"))
    assert run.returncode != 0
    assert run.stderr.startswith("error: ") and "manifest.json" in run.stderr
    assert len(run.stderr.splitlines()) == 1
    assert not out.exists()

    run = _desk_experiment("--out", str(out), "--instances", "1")
    assert run.returncode != 0
    assert run.stderr.startswith("error: ") and "2 instances" in run.stderr
    assert len(run.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["abc", "-1", "0,1,0", "0,,1"])
def test_desk_experiment_rejects_bad_seeds_as_a_usage_error(seeds, tmp_path, capsys):
    desk = _script("run_desk_experiment")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        desk.main(["--out", str(out), "--seeds", seeds])
    assert exit_info.value.code == 2
    assert f"--seeds: expected distinct comma-separated integers >= 0, got {seeds!r}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keep", ["abc", ""])
def test_desk_experiment_rejects_a_malformed_keep_list_as_pipeline_does(keep, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        _script("run_desk_experiment").main(["--out", str(out), "--keep", keep])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["pipeline", "--out", str(out), "--keep", keep])
    assert exit_info.value.code == 2
    pipeline_err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: ") and [line for line in err if "error:" in line] == [err[-1]]
    message = "error: argument --keep: expected comma-separated numbers: " + repr(keep)
    assert err[-1].endswith(message) and pipeline_err[-1].endswith(message)
    assert not out.exists()


def test_desk_experiment_sweep_defaults_are_the_pipeline_defaults():
    args = _script("run_desk_experiment").parse_args(["--out", "out"])
    sweep = ExperimentConfig()
    assert args.heuristics == sweep.heuristics
    assert args.keep == sweep.keep_fractions
    assert args.poolings == sweep.poolings
    assert args.epochs == sweep.epochs


def test_dataset_flag_defaults_are_generate_datasets():
    defaults = {name: p.default for name, p in inspect.signature(generate_dataset).parameters.items()}
    args = cli.build_parser().parse_args(["gen-dataset", "--out", "out"])
    assert (args.instances, args.images, args.shape, args.seed) == (
        defaults["instances"], defaults["images_per_instance"], defaults["shape"], defaults["seed"])
    args = _script("run_desk_experiment").parse_args(["--out", "out"])
    assert (args.instances, args.images) == (defaults["instances"], defaults["images_per_instance"])


def test_desk_experiment_summary_averages_the_rows_run_pipeline_returns(tmp_path, monkeypatch):
    desk = _script("run_desk_experiment")
    generate_dataset(tmp_path / "data", instances=3, images_per_instance=7, seed=0)
    returned = []
    run_pipeline = desk.run_pipeline

    def recording(cfg):
        rows = run_pipeline(cfg)
        returned.append(rows)
        return rows

    monkeypatch.setattr(desk, "run_pipeline", recording)
    out = tmp_path / "out"
    assert desk.main(["--out", str(out), "--data", str(tmp_path / "data"), "--heuristics", "h1",
                      "--keep", "0.5", "--poolings", "sqp", "--seeds", "0,1", "--epochs", "1"]) == 0
    assert len(returned) == 2 and len(returned[0]) == len(returned[1]) == 2
    with open(out / "summary.csv", newline="") as f:
        summary = list(csv.DictReader(f))
    assert len(summary) == 2
    for row, seed0, seed1 in zip(summary, *(sorted(rows) for rows in returned)):
        assert [row[k] for k in ("heuristic", "keep_fraction", "pooling", "phase")] == \
            seed0[:4] == seed1[:4]
        assert row["map_mean"] == f"{(seed0[4] + seed1[4]) / 2:.12g}"
        assert row["recall4_mean"] == f"{(seed0[5] + seed1[5]) / 2:.12g}"
        assert row["seeds"] == "2"


def test_desk_experiment_layer_fractions_follow_the_h1_point_tags(tmp_path, capsys,
                                                                  monkeypatch):
    desk = _script("run_desk_experiment")
    generate_dataset(tmp_path / "data", instances=3, images_per_instance=7, seed=0)
    out = tmp_path / "out"
    args = ["--out", str(out), "--data", str(tmp_path / "data"), "--poolings", "sqp",
            "--seeds", "0", "--epochs", "1"]
    assert desk.main([*args, "--heuristics", "h1", "--keep", "0.50"]) == 0
    rows = (out / "layer_fractions.csv").read_text().splitlines()
    assert rows[0] == "keep_fraction,layer,total,remaining,fraction"
    assert len(rows) > 1 and all(row.startswith("0.5,") for row in rows[1:])
    point = ("heuristic", "keep_fraction", "pooling", "phase")
    with open(out / "seed0" / "metrics.csv", newline="") as f:
        maps = {tuple(row[k] for k in point): row["map"] for row in csv.DictReader(f)}
    with open(out / "summary.csv", newline="") as f:
        summary = list(csv.DictReader(f))
    assert len(summary) == 2  # one seed: each mean prints as its seed's cell
    assert all(row["map_mean"] == maps[tuple(row[k] for k in point)] for row in summary)

    (out / "layer_fractions.csv").unlink()
    assert desk.main([*args, "--heuristics", "h3", "--keep", "0.5"]) == 0
    assert "layer_fractions.csv not written: h1 is not in the sweep" in capsys.readouterr().out
    assert not (out / "layer_fractions.csv").exists()

    run_pipeline = desk.run_pipeline

    def losing_reports(cfg):  # a sweep whose h1 reports are gone
        result = run_pipeline(cfg)
        for report in (out / "seed0" / "reports").iterdir():
            report.unlink()
        return result

    monkeypatch.setattr(desk, "run_pipeline", losing_reports)
    with pytest.raises(SystemExit, match=r"^error: .*prune_h1_t0\.5_sqp\.json"):
        desk.main([*args, "--heuristics", "h1", "--keep", "0.5"])
    assert not (out / "layer_fractions.csv").exists()


def _pairs(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"metrics": {"m": a}}, "change": {"metrics": {"m": b}}}
            for a, b in zip(parent, change)]


STEADY = [100.0 + k for k in range(10)]               # IQR 4.5, inside a 25% bound
WIDE = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]  # IQR 55
SPLIT = [0.0] * 5 + [100.0] * 5                         # median 50, IQR 100


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("higher", STEADY, [v + 20 for v in STEADY], "gain"),
    ("lower", STEADY, [v - 20 for v in STEADY], "gain"),
    ("higher", STEADY, [v - 40 for v in STEADY], "worse"),
    ("lower", STEADY, [v + 40 for v in STEADY], "worse"),
    ("higher", WIDE, [v + 1 for v in WIDE], "unresolved"),
    ("higher", STEADY, [v + 1 for v in STEADY], "within bound"),
    ("higher", SPLIT, [101.0] * 10, "within bound"),  # every change run beats every parent run
])
def test_bench_pairs_summary_verdicts(better, parent, change, verdict):
    spec = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    summary = _script("bench_pairs").summarize(_pairs(parent, change), [spec])["m"]
    assert summary["verdict"] == verdict
    assert summary["pairs"] == 10


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_bench_pairs_rejects_fewer_than_one_pair(pairs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where BENCH_<label>.json would land
    with pytest.raises(SystemExit) as exc:
        _script("bench_pairs").main(["--parent", str(ROOT), "--change", str(ROOT),
                                     "--workload", "sweep", "--pairs", pairs, "--label", "x"])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_pairs_keeps_the_previous_evidence_when_a_write_fails(tmp_path, monkeypatch):
    bench = _script("bench_pairs")
    monkeypatch.chdir(tmp_path)  # where BENCH_<label>.json lands
    run = {"provenance": {"git_commit": "c", "source_sha256": "s"}, "correct": 1,
           "attempted": 1, "failed": 0, "metrics": {"map": 0.5}}
    monkeypatch.setattr(bench, "run_once", lambda checkout, cmd: run)
    evidence = tmp_path / "BENCH_x.json"
    evidence.write_text("previous\n")
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "sweep",
            "--pairs", "1", "--label", "x"]
    real_replace = os.replace

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        bench.main(argv)
    assert evidence.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]

    monkeypatch.setattr(os, "replace", real_replace)
    assert bench.main(argv) == 0
    assert len(json.loads(evidence.read_text())["workloads"]["sweep"]["pairs"]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]


def test_bench_pairs_flags_a_benchmark_that_differs_between_checkouts(tmp_path, monkeypatch,
                                                                      capsys):
    bench = _script("bench_pairs")
    run = {"provenance": {"git_commit": "c", "source_sha256": "s"}, "correct": 1,
           "attempted": 1, "failed": 0, "metrics": {"map": 0.5}}
    monkeypatch.setattr(bench, "run_once", lambda checkout, cmd: run)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench" / "_results").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
        (tmp_path / side / "perfbench" / "run.py").write_text("print()\n")
        # run output is not part of the benchmark
        (tmp_path / side / "perfbench" / "_results" / "run.json").write_text(side)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", "parent", "--change", "change", "--workload", "sweep",
            "--pairs", "1", "--label", "x"]
    assert bench.main(argv) == 0
    assert json.loads((tmp_path / "BENCH_x.json").read_text())["benchmark_differs"] is False
    assert "warning" not in capsys.readouterr().out

    spec["end_to_end"][0]["bound"] *= 2  # a loosened bound
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    assert bench.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert record["benchmark_differs"] is True
    digests = [record["checkouts"][side]["benchmark_sha256"] for side in ("parent", "change")]
    assert digests[0] != digests[1]
    out = capsys.readouterr().out.splitlines()
    warnings = [k for k, line in enumerate(out) if line.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0] < out.index("sweep: 1 pairs")


TIER1_TAIL = """\
........................................................................ [ 98%]
.......F..                                                               [100%]
============================= slowest 10 durations =============================
33.60s call     tests/test_acceptance.py::test_c10_trend_holds
22.41s setup    tests/test_acceptance.py::test_c09_pruned_vs_baseline[h1]
0.50s teardown tests/test_cli.py::test_pipeline_rerun_byte_identical
=========================== short test summary info ============================
FAILED tests/test_cli.py::test_report_rejects_malformed_input_naming_the_file[x]
1 failed, 536 passed, 2 errors in 83.50s (0:01:23)
"""


def test_bench_pairs_parses_the_tier1_tail():
    parsed = _script("bench_pairs").parse_tier1(TIER1_TAIL)
    assert (parsed["passed"], parsed["failed"], parsed["errors"]) == (536, 1, 2)
    assert parsed["slowest"] == [
        {"seconds": 33.6, "when": "call", "test": "tests/test_acceptance.py::test_c10_trend_holds"},
        {"seconds": 22.41, "when": "setup",
         "test": "tests/test_acceptance.py::test_c09_pruned_vs_baseline[h1]"},
        {"seconds": 0.5, "when": "teardown",
         "test": "tests/test_cli.py::test_pipeline_rerun_byte_identical"}]
    assert _script("bench_pairs").parse_tier1("17 passed in 2.51s\n") == {
        "passed": 17, "failed": 0, "errors": 0, "slowest": []}
