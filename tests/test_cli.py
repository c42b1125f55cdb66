"""End-to-end CLI behavior: pipeline verbs, determinism, exit codes."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import chanchart
from chanchart import encoder, fileio, synthgen, trainer
from chanchart.cli import main
from chanchart.config import ExperimentConfig, derive_seeds, preset
from chanchart.rng import SplitMix64, substream
from chanchart.synthgen import ChannelSet, generate_trajectory, synthesize_channels
from chanchart.trainer import split_dataset, train_size
from chanchart.triplet import mine_triplets
from helpers import ccm1_bytes


def _small_doc(n_subcarriers=4, n_init=12, k=3, d_out=2, init="random"):
    """A fast explicit scenario: 61 samples on a 60 m loop, M = 4*n_subcarriers."""
    return {
        "scenario": {
            "kind": "explicit",
            "trajectory": {"waypoints": [[0.0, 0.0], [20.0, 0.0], [20.0, 10.0],
                                         [0.0, 10.0], [0.0, 0.0]],
                           "speed": 1.0, "sample_rate": 1.0, "jitter_sigma": 0.05},
            "radio": {"n_rows": 2, "n_cols": 2, "n_subcarriers": n_subcarriers,
                      "bs_position": [10.0, 5.0, 8.0]},
            "scatterers": {"points": [[-5.0, 5.0, 4.0], [25.0, 5.0, 3.0]],
                           "gains": [0.5, 0.4]},
        },
        "encoder": {"n_init": n_init, "k": k, "k_iso": 4, "d_out": d_out,
                    "init": init},
        "mining": {"t_close": 3.0, "t_far": 9.0, "per_anchor": 1},
        "training": {"epochs": 2, "batch_size": 8, "learning_rate": 1e-3,
                     "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": [0.05, 0.1]},
        "seeds": derive_seeds(0),
        "baseline": {"mlp": False},
    }


def _write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


# ---------------------------------------------------------------------------
# the pipeline, verb by verb


def test_full_pipeline(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc())
    data = str(tmp_path / "data.bin")
    model0 = str(tmp_path / "model0.bin")
    model1 = str(tmp_path / "model1.bin")
    loss = str(tmp_path / "loss.csv")
    metrics = str(tmp_path / "metrics.csv")
    base = str(tmp_path / "chart")

    assert main(["generate", "--config", cfg, "--out", data]) == 0
    assert "generate: wrote" in capsys.readouterr().out

    assert main(["init", "--config", cfg, "--data", data, "--out", model0]) == 0
    assert main(["train", "--config", cfg, "--data", data, "--model-in", model0,
                 "--out", model1, "--loss-csv", loss]) == 0
    assert main(["eval", "--config", cfg, "--data", data, "--model", model1,
                 "--out", metrics]) == 0
    assert main(["chart", "--config", cfg, "--data", data, "--model", model1,
                 "--out", base]) == 0

    loss_lines = open(loss).read().splitlines()
    assert loss_lines[0] == "epoch,mean_loss" and len(loss_lines) == 3
    assert loss_lines[1].startswith("1,")

    metric_lines = open(metrics).read().splitlines()
    assert metric_lines[0] == "K,K_frac,trustworthiness,continuity"
    assert len(metric_lines) == 3  # two K fractions

    chart_lines = open(base + ".csv").read().splitlines()
    assert chart_lines[0] == "index,chart_x,chart_y,true_x,true_y"
    assert len(chart_lines) == 62  # 61 samples on the 60 m loop

    svg = open(base + ".svg").read()
    assert svg.startswith("<svg ") and svg.count("<circle") == 61


def test_generate_is_byte_deterministic(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc())
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert main(["generate", "--config", cfg, "--out", a]) == 0
    assert main(["generate", "--config", cfg, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_compare_writes_all_artifacts_deterministically(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc(init="smart"))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2)]) == 0

    names = ["metrics.csv", "loss_smart.csv", "loss_random.csv",
             "model_smart.bin", "model_random.bin",
             "chart_smart.csv", "chart_smart.svg",
             "chart_random.csv", "chart_random.svg"]
    for name in names:
        assert (out1 / name).exists(), name
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    lines = (out1 / "metrics.csv").read_text().splitlines()
    assert lines[0] == "arm,phase,K,K_frac,trustworthiness,continuity"
    # 2 arms x 2 phases x 2 grid fractions (baseline.mlp is off)
    assert len(lines) == 9
    arms = {line.split(",")[0] for line in lines[1:]}
    assert arms == {"smart", "random"}


@pytest.fixture(scope="module")
def tiny_compare(tmp_path_factory):
    """compare's artifacts on the tiny preset, MLP arm included."""
    d = tmp_path_factory.mktemp("compare")
    cfg = _write_doc(d, _tiny_doc(baseline={"mlp": True}))
    assert main(["compare", "--config", cfg, "--out", str(d / "out")]) == 0
    return d / "out"


@pytest.mark.parametrize("arm", ["random", "smart"])
def test_file_verbs_write_the_bytes_compare_writes(tmp_path, capsys, tiny_compare, arm):
    # generate -> init -> train -> eval -> chart read and write files where
    # compare holds the dataset in memory; both must give the same bytes
    cfg = _write_doc(tmp_path, _tiny_doc(encoder={"init": arm}))
    data, model0, model1 = (str(tmp_path / n) for n in ("data.bin", "m0.bin", "m1.bin"))
    loss, metrics, chart = (str(tmp_path / n) for n in ("loss.csv", "metrics.csv", "chart"))
    common = ["--config", cfg, "--data", data]
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    assert main(["init", *common, "--out", model0]) == 0
    assert main(["train", *common, "--model-in", model0, "--out", model1,
                 "--loss-csv", loss]) == 0
    assert main(["eval", *common, "--model", model1, "--out", metrics]) == 0
    assert main(["chart", *common, "--model", model1, "--out", chart]) == 0
    for got, name in ((model1, f"model_{arm}.bin"), (loss, f"loss_{arm}.csv"),
                      (chart + ".csv", f"chart_{arm}.csv"), (chart + ".svg", f"chart_{arm}.svg")):
        assert open(got, "rb").read() == (tiny_compare / name).read_bytes(), name
    header, *rows = (tiny_compare / "metrics.csv").read_text().splitlines()
    assert header.startswith("arm,phase,")
    trained = [row.split(",", 2)[2] for row in rows if row.startswith(f"{arm},trained,")]
    assert len(trained) == len(preset("tiny").k_grid)
    assert open(metrics).read().splitlines() == [header.split(",", 2)[2]] + trained


def test_eval_and_chart_of_compare_mlp_model_write_compare_bytes(tmp_path, capsys,
                                                                  tiny_compare):
    # the MLP model file compare writes, read back by the verbs that chart it
    cfg = _write_doc(tmp_path, _tiny_doc())
    data, metrics, chart = (str(tmp_path / n) for n in ("data.bin", "metrics.csv", "chart"))
    common = ["--config", cfg, "--data", data, "--model", str(tiny_compare / "model_mlp.bin")]
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    assert main(["eval", *common, "--out", metrics]) == 0
    assert main(["chart", *common, "--out", chart]) == 0
    for got, name in ((chart + ".csv", "chart_mlp.csv"), (chart + ".svg", "chart_mlp.svg")):
        assert open(got, "rb").read() == (tiny_compare / name).read_bytes(), name
    header, *rows = (tiny_compare / "metrics.csv").read_text().splitlines()
    trained = [row.split(",", 2)[2] for row in rows if row.startswith("mlp,trained,")]
    assert len(trained) == len(preset("tiny").k_grid)
    assert open(metrics).read().splitlines() == [header.split(",", 2)[2]] + trained


def test_seed_override_rederives_stage_seeds(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc())
    assert main(["show-config", "--config", cfg, "--seed-override", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seeds"] == derive_seeds(5)


def test_show_config_to_file_round_trips(tmp_path, capsys):
    cfg_path = _write_doc(tmp_path, _small_doc())
    out = tmp_path / "resolved.json"
    assert main(["show-config", "--config", cfg_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["encoder"]["n_init"] == 12
    assert doc["scenario"]["kind"] == "explicit"


def test_explicit_document_resolves_to_this_document():
    # compared as JSON text, so key order is pinned along with every value;
    # the radio keeps only the keys the document gives
    want = {
        "scenario": {
            "kind": "explicit",
            "trajectory": {"waypoints": [[0.0, 0.0], [20.0, 0.0], [20.0, 10.0], [0.0, 10.0],
                                         [0.0, 0.0]],
                           "speed": 1.0, "sample_rate": 1.0, "jitter_sigma": 0.05},
            "radio": {"n_rows": 2, "n_cols": 2, "n_subcarriers": 4,
                      "bs_position": [10.0, 5.0, 8.0]},
            "scatterers": {"points": [[-5.0, 5.0, 4.0], [25.0, 5.0, 3.0]],
                           "gains": [0.5, 0.4]},
        },
        "encoder": {"n_init": 12, "k": 3, "k_iso": 4, "d_out": 2, "init": "random"},
        "mining": {"t_close": 3.0, "t_far": 9.0, "per_anchor": 1},
        "training": {"epochs": 2, "batch_size": 8, "learning_rate": 0.001, "beta1": 0.9,
                     "beta2": 0.999, "eps": 1e-08, "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": [0.05, 0.1]},
        "seeds": {"trajectory": 16294208416658607535, "init": 7960286522194355700,
                  "mining": 487617019471545679, "training": 17909611376780542444},
        "baseline": {"mlp": False},
    }
    assert json.dumps(ExperimentConfig.from_dict(_small_doc()).to_dict()) == json.dumps(want)


def test_preset_show_config(tmp_path, capsys):
    assert main(["show-config", "--preset", "tiny"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["n_samples"] == 200


# ---------------------------------------------------------------------------
# failure paths and exit codes


def test_bad_preset_name_exits_2(capsys):
    assert main(["show-config", "--preset", "nope"]) == 2
    err = _stderr_error(capsys)
    assert err["error"] == "config" and "nope" in err["detail"]


def test_invalid_config_json_exits_2(tmp_path, capsys):
    # nesting past the parser's recursion limit is invalid JSON too, not a traceback
    path = tmp_path / "broken.json"
    for text in ("{oops", '{"scenario": ' + "[" * 100_000 + "]" * 100_000 + "}"):
        path.write_text(text, encoding="utf-8")
        assert main(["show-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        line = json.loads(err[0])
        assert line["error"] == "config"
        assert line["detail"].startswith(f"{path}: not valid JSON (")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    doc = _small_doc()
    doc["extra_section"] = {}
    cfg = _write_doc(tmp_path, doc)
    assert main(["show-config", "--config", cfg]) == 2
    assert "extra_section" in _stderr_error(capsys)["detail"]


def test_missing_dataset_exits_4(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc())
    code = main(["init", "--config", cfg, "--data", str(tmp_path / "absent.bin"),
                 "--out", str(tmp_path / "m.bin")])
    assert code == 4
    assert _stderr_error(capsys)["error"] == "io"


def test_corrupt_dataset_exits_4(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc())
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["init", "--config", cfg, "--data", str(bad),
                 "--out", str(tmp_path / "m.bin")])
    assert code == 4
    assert _stderr_error(capsys)["error"] == "format"


def test_model_dataset_mismatch_exits_3(tmp_path, capsys):
    cfg_a = _write_doc(tmp_path, _small_doc(n_subcarriers=4), "a.json")
    cfg_b = _write_doc(tmp_path, _small_doc(n_subcarriers=5), "b.json")
    data_a = str(tmp_path / "data_a.bin")
    data_b = str(tmp_path / "data_b.bin")
    model = str(tmp_path / "model.bin")
    assert main(["generate", "--config", cfg_a, "--out", data_a]) == 0
    assert main(["generate", "--config", cfg_b, "--out", data_b]) == 0
    assert main(["init", "--config", cfg_a, "--data", data_a, "--out", model]) == 0
    capsys.readouterr()
    code = main(["eval", "--config", cfg_b, "--data", data_b, "--model", model,
                 "--out", str(tmp_path / "m.csv")])
    assert code == 3
    err = _stderr_error(capsys)
    assert err["error"] == "dimension" and "M=16" in err["detail"]


def test_k_larger_than_n_init_exits_3(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc(n_init=2, k=3))
    data = str(tmp_path / "data.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    capsys.readouterr()
    code = main(["init", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "m.bin")])
    assert code == 3
    init_err = _stderr_error(capsys)
    assert init_err == {"error": "dimension", "detail": "encoder.k=3 exceeds n_init=2"}
    assert _compare_refuses(tmp_path, capsys, cfg) == init_err


def _compare_refuses(tmp_path, capsys, cfg) -> dict:
    """compare must exit 3 with one JSON line and no output directory; returns
    the error."""
    out = tmp_path / "compare"
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert not out.exists()
    return json.loads(err[0])


def test_smart_dictionary_larger_than_the_dataset_exits_3(tmp_path, capsys):
    # the small scenario has 61 samples
    cfg = _write_doc(tmp_path, _small_doc(n_init=62, init="smart"))
    data = str(tmp_path / "data.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    capsys.readouterr()
    code = main(["init", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "m.bin")])
    assert code == 3
    init_err = _stderr_error(capsys)
    assert init_err == {"error": "dimension",
                        "detail": "encoder.n_init=62 exceeds dataset size 61"}
    assert _compare_refuses(tmp_path, capsys, cfg) == init_err


def test_k_iso_not_below_a_smart_dictionary_exits_3(tmp_path, capsys):
    # Isomap on n_init atoms keeps at most n_init - 1 neighbours per atom
    doc = _small_doc(n_init=12, init="smart")
    doc["encoder"]["k_iso"] = 12
    cfg = _write_doc(tmp_path, doc)
    data = str(tmp_path / "data.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    capsys.readouterr()
    code = main(["init", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "m.bin")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "dimension",
                                  "detail": "encoder.k_iso=12 must be below n_init=12"}
    assert not (tmp_path / "m.bin").exists()
    assert _compare_refuses(tmp_path, capsys, cfg) == json.loads(err[0])


def test_d_out_above_a_smart_dictionary_exits_3(tmp_path, capsys):
    # classical MDS on n_init atoms yields at most n_init coordinates
    doc = _small_doc(n_init=2, k=1, d_out=3, init="smart")
    doc["encoder"]["k_iso"] = 1
    cfg = _write_doc(tmp_path, doc)
    data = str(tmp_path / "data.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    capsys.readouterr()
    code = main(["init", "--config", cfg, "--data", data,
                 "--out", str(tmp_path / "m.bin")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "dimension",
                                  "detail": "encoder.d_out=3 exceeds n_init=2"}
    assert not (tmp_path / "m.bin").exists()


def test_chart_requires_2d_model(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc(d_out=3))
    data = str(tmp_path / "data.bin")
    model = str(tmp_path / "model.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    assert main(["init", "--config", cfg, "--data", data, "--out", model]) == 0
    capsys.readouterr()
    code = main(["chart", "--config", cfg, "--data", data, "--model", model,
                 "--out", str(tmp_path / "chart")])
    assert code == 3
    assert "d_out=3" in _stderr_error(capsys)["detail"]
    # the 2-D rule is checked before the dataset is opened
    code = main(["chart", "--config", cfg, "--data", str(tmp_path / "missing.bin"),
                 "--model", model, "--out", str(tmp_path / "chart")])
    assert code == 3 and "d_out=3" in _stderr_error(capsys)["detail"]
    # compare exports every arm's chart, so it refuses before writing anything
    assert _compare_refuses(tmp_path, capsys, cfg) == {
        "error": "dimension", "detail": "chart export needs a 2-D chart, model has d_out=3"}


def test_diverging_training_exits_2_with_one_json_line(tmp_path, capsys):
    doc = _small_doc()
    doc["training"]["learning_rate"] = 1e300
    cfg = _write_doc(tmp_path, doc)
    data, model0 = str(tmp_path / "data.bin"), str(tmp_path / "model0.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    assert main(["init", "--config", cfg, "--data", data, "--out", model0]) == 0
    capsys.readouterr()
    code = main(["train", "--config", cfg, "--data", data, "--model-in", model0,
                 "--out", str(tmp_path / "model1.bin")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "config"
    assert doc["detail"].startswith("training diverged: non-finite ")


def test_non_finite_config_value_exits_2_with_one_json_line(tmp_path, capsys):
    doc = _small_doc()
    doc["training"]["learning_rate"] = float("nan")  # written as the JSON token NaN
    cfg = _write_doc(tmp_path, doc)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "data.bin")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "config", "detail": "training.learning_rate: "
                                  "expected a finite number, got nan"}
    assert not (tmp_path / "data.bin").exists()


@pytest.mark.parametrize("key, value, detail", [
    ("speed", -1.0, "speed and sample_rate must be positive"),
    ("waypoints", [[0.0, 0.0]], "need at least two waypoints"),
    ("waypoints", [[0.0, 0.0], [0.5, 0.0]],
     "a path of 0.5 m at 1.0 m per sample gives 1 sample, fewer than 2"),
])
@pytest.mark.parametrize("verb", ["show-config", "generate"])
def test_trajectory_that_generate_rejects_exits_2_at_parse(tmp_path, capsys, verb, key,
                                                           value, detail):
    doc = _small_doc()
    doc["scenario"]["trajectory"][key] = value
    argv = [verb, "--config", _write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "config",
                                  "detail": f"scenario.trajectory: {detail}"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, seed", [("seeds", -1), ("seeds", 2**64 + 1),
                                         ("flag", -1), ("flag", 2**64)])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, where, seed):
    doc, flags = _small_doc(), []
    if where == "seeds":
        doc["seeds"]["trajectory"] = seed
    else:
        flags = ["--seed-override", str(seed)]
    assert main(["show-config", "--config", _write_doc(tmp_path, doc), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["detail"].endswith(f"seed must lie in [0, 2^64), got {seed}")


def test_seed_override_takes_seeds_up_to_2_pow_64(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc())
    for root in (2**63, 2**64 - 1):
        assert main(["show-config", "--config", cfg, "--seed-override", str(root)]) == 0
        assert json.loads(capsys.readouterr().out)["seeds"] == derive_seeds(root)


def _tiny_doc(**sections):
    doc = preset("tiny").to_dict()
    for name, values in sections.items():
        doc[name].update(values)
    return doc


def _parse_error(tmp_path, capsys, doc) -> str:
    """show-config on doc must exit 2 with one JSON line; returns its detail."""
    assert main(["show-config", "--config", _write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"
    return json.loads(err[0])["detail"]


_BIG = 10**400  # an integer past the float range


@pytest.mark.parametrize("kind, change, detail", [
    ("loop", {"n_samples": _BIG}, "scenario.n_samples must lie in [2, 2^53]"),
    ("loop", {"geometry_samples": _BIG}, "scenario.geometry_samples must lie in [2, 2^53]"),
    ("loop", {"geometry_samples": 2**53 + 1},
     "scenario.geometry_samples must lie in [2, 2^53]"),
    ("explicit", {"waypoints": [[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0]]},
     "scenario.trajectory: a path of inf m at 1.0 m per sample needs more than 2^53 samples"),
    ("explicit", {"speed": 1e-300, "sample_rate": 1e300},
     "scenario.trajectory: a path of 60.0 m at 0.0 m per sample needs more than 2^53 samples"),
], ids=["n_samples", "geometry_samples", "past-2-pow-53", "length-overflow", "step-underflow"])
def test_scenario_that_cannot_be_sampled_exits_2_at_parse(tmp_path, capsys, kind, change,
                                                          detail):
    if kind == "loop":
        doc = _tiny_doc(scenario=change)
    else:
        doc = _small_doc()
        doc["scenario"]["trajectory"].update(change)
    assert _parse_error(tmp_path, capsys, doc) == detail


def test_k_grid_fraction_that_cannot_be_scored_exits_2_at_parse(tmp_path, capsys):
    # K = round(0.7 * n) exceeds (2n - 2) // 3 for every n
    detail = _parse_error(tmp_path, capsys, _tiny_doc(eval={"k_grid": [0.7]}))
    assert detail == "eval.k_grid: fraction 0.7 outside (0, 2/3)"


def test_mining_windows_without_triplets_exit_2_at_parse(tmp_path, capsys):
    # at tiny's 0.70 samples/s both windows round to 0 samples
    detail = _parse_error(tmp_path, capsys, _tiny_doc(mining={"t_close": 0.01, "t_far": 0.02}))
    assert detail.startswith("mining.t_close/t_far: at 0.6968484242121059 samples/s")


@pytest.mark.parametrize("scenario", ["tiny", "explicit"])
def test_mining_windows_wider_than_the_training_split_exit_2_at_parse(tmp_path, capsys,
                                                                      scenario):
    doc = preset("tiny").to_dict() if scenario == "tiny" else _small_doc()
    cfg = ExperimentConfig.from_dict(doc)
    n = cfg.scenario.get("n_samples") or cfg.scenario_objects()[0].n_samples
    n_train = train_size(n, cfg.training.split_ratio)
    # S_close = n_train - 2 leaves anchor 0 one far candidate, n_train - 1
    for s_close, code in ((n_train - 2, 0), (n_train - 1, 2)):
        mining = replace(cfg.mining, t_close=s_close / cfg.sample_rate(), t_far=1000.0)
        assert mining.s_close == s_close
        assert (len(mine_triplets(n_train, mining)) > 0) == (code == 0)
        doc["mining"].update(t_close=mining.t_close, t_far=mining.t_far)
        capsys.readouterr()
        assert main(["show-config", "--config", _write_doc(tmp_path, doc)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "config",
        "detail": f"mining.t_close: S_close = {n_train - 1} samples needs a training "
                  f"split of at least {n_train + 1} samples, and the scenario's "
                  f"split holds {n_train}"}


def test_config_and_preset_are_mutually_exclusive(tmp_path, capsys):
    cfg = _write_doc(tmp_path, _small_doc())
    with pytest.raises(SystemExit) as exc:
        main(["show-config", "--config", cfg, "--preset", "tiny"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["show-config"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verbs that read or write only the channel rows they use


def _line_doc(length: int, n_subcarriers: int = 4, scatterer=None):
    """_small_doc on a straight path of ``length`` m, one sample per metre and
    no jitter, so sample i sits at (i, 0)."""
    doc = _small_doc(n_subcarriers=n_subcarriers)
    doc["scenario"]["trajectory"].update(waypoints=[[0.0, 0.0], [float(length), 0.0]],
                                         jitter_sigma=0.0)
    if scatterer is not None:
        doc["scenario"]["scatterers"]["points"].append(scatterer)
        doc["scenario"]["scatterers"]["gains"].append(0.5)
    return doc


def _sha256(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.mark.parametrize("scenario", ["tiny", "explicit"])
def test_streamed_generate_writes_the_in_memory_dataset(tmp_path, capsys, scenario):
    # the explicit path has 1,025 samples: two full 512-row synthesis blocks
    # and a one-row block
    if scenario == "tiny":
        args, cfg = ["--preset", "tiny"], preset("tiny")
    else:
        path = _write_doc(tmp_path, _line_doc(1024))
        args, cfg = ["--config", path], ExperimentConfig.from_file(path)
    streamed, in_memory = tmp_path / "streamed.bin", tmp_path / "in_memory.bin"
    assert main(["generate", *args, "--out", str(streamed)]) == 0
    traj, radio, scat, _ = cfg.scenario_objects()
    cs = synthesize_channels(generate_trajectory(traj), radio, scat,
                             sample_rate=traj.sample_rate)
    assert cs.channels.shape[0] == (200 if scenario == "tiny" else 1025)
    fileio.write_dataset(str(in_memory), cs)
    assert _sha256(streamed) == _sha256(in_memory)


def test_generate_failing_in_a_late_block_leaves_no_file(tmp_path, capsys):
    # sample 600, in the second 512-row block, sits on a scatterer
    cfg = _write_doc(tmp_path, _line_doc(1024, scatterer=[600.0, 0.0, 0.0]))
    out = tmp_path / "data.bin"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "config",
                                  "detail": "scatterer coincides with sample 600"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_compare_failing_in_synthesis_leaves_no_directory(tmp_path, capsys):
    # 2 samples/s on the 20 m line puts sample 10 on the scatterer at (5, 0)
    doc = _line_doc(20, scatterer=[5.0, 0.0, 0.0])
    doc["scenario"]["trajectory"]["sample_rate"] = 2.0
    out = tmp_path / "compare"
    assert main(["compare", "--config", _write_doc(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "config",
                                  "detail": "scatterer coincides with sample 10"}
    assert not out.exists()


def test_allocation_failure_exits_2_with_one_json_line(tmp_path, capsys, monkeypatch):
    # a config sized past the machine's memory fails in numpy's allocator
    detail = ("Unable to allocate 745. GiB for an array with shape (100000000000,) "
              "and data type float64")

    def allocate(cfg):
        raise MemoryError(detail)
    monkeypatch.setattr(synthgen, "generate_trajectory", allocate)
    out = tmp_path / "data.bin"
    assert main(["generate", "--preset", "tiny", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "config", "detail": detail}
    assert not out.exists()


# ---------------------------------------------------------------------------
# well-formed datasets the pipeline cannot compute on


def _crafted_data(tmp_path, n: int, zero: bool) -> str:
    """A CCD1 file of n M = 16 channel rows, all zero or random, on a line."""
    channels = np.zeros((n, 16), dtype=np.complex128)
    if not zero:
        rng = SplitMix64(7)
        channels += (rng.normals(16 * n) + 1j * rng.normals(16 * n)).reshape(n, 16)
    positions = np.stack([np.arange(n, dtype=np.float64), np.zeros(n)], axis=1)
    path = str(tmp_path / "data.bin")
    fileio.write_dataset(path, ChannelSet(channels=channels, positions=positions,
                                          sample_rate=1.0))
    return path


@pytest.mark.parametrize("verb, n, zero, detail", [
    ("train", 1, False, "need at least two samples to split"),
    ("eval", 1, False, "need at least two samples to split"),
    ("train", 4, False, "mining produced no triplets"),
    ("train", 61, True, "all training triplets degenerate"),
    ("eval", 61, True, "fewer than 3 chartable samples"),
    ("init", 61, True, "zero-norm channel row at index 0"),
    ("eval", 10, False, "K=2 outside [1, 1] for n=3"),
])
def test_dataset_the_pipeline_cannot_compute_on_exits_5(tmp_path, capsys, verb, n, zero,
                                                        detail):
    # _small_doc's windows need a 5-sample training split: 4 samples give 3;
    # 10 samples hold out 3, for which K = round(0.6 * 3) = 2 exceeds (2n - 2) // 3
    doc = _small_doc(init="smart" if verb == "init" else "random")
    doc["eval"]["k_grid"] = [0.6]
    cfg = _write_doc(tmp_path, doc)
    data = _crafted_data(tmp_path, n, zero)
    model = str(tmp_path / "model.bin")
    fileio.write_model(model, encoder.init_random(16, 12, 3, 2, seed=1))
    out = tmp_path / "out"
    argv = [verb, "--config", cfg, "--data", data, "--out", str(out)]
    if verb != "init":
        argv += ["--model-in" if verb == "train" else "--model", model]
    capsys.readouterr()
    assert main(argv) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "data", "detail": detail}
    assert not out.exists()


def _nan_at(data: str, row: int, path: str) -> None:
    """Copy the dataset ``data`` to ``path`` with one NaN in channel row ``row``."""
    raw = bytearray(open(data, "rb").read())
    n, m, p = struct.unpack_from("<3Q", raw, 4)
    struct.pack_into("<d", raw, 28 + 8 * n * p + 16 * m * row + 8, math.nan)
    open(path, "wb").write(raw)


@pytest.mark.parametrize("verb", ["init", "train", "eval", "chart"])
def test_nan_in_a_row_the_verb_does_not_keep_exits_4(tmp_path, capsys, verb):
    cfg_path = _write_doc(tmp_path, _small_doc(init="smart"))
    cfg = ExperimentConfig.from_file(cfg_path)
    data, model = str(tmp_path / "data.bin"), str(tmp_path / "model.bin")
    assert main(["generate", "--config", cfg_path, "--out", data]) == 0
    assert main(["init", "--config", cfg_path, "--data", data, "--out", model]) == 0
    n = fileio.read_dataset(data).channels.shape[0]
    atoms = set(encoder.smart_atoms(n, cfg.encoder.n_init, cfg.seeds["init"]).tolist())
    train_rows, held_out = split_dataset(n, cfg.training.split_ratio,
                                         substream(cfg.seeds["training"], 0))
    row = {"init": min(set(range(n)) - atoms), "train": int(held_out[-1]),
           "eval": int(train_rows[-1]), "chart": n - 1}[verb]
    bad = str(tmp_path / "bad.bin")
    _nan_at(data, row, bad)
    argv = [verb, "--config", cfg_path, "--data", bad, "--out", str(tmp_path / "out")]
    if verb != "init":
        argv += ["--model-in" if verb == "train" else "--model", model]
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "format",
                                  "detail": f"{bad}: non-finite value in channels"}


def _scaled_rows(data: str, rows, scale: float, path: str) -> None:
    """Copy the dataset ``data`` to ``path`` with channel ``rows`` multiplied by ``scale``."""
    raw = bytearray(open(data, "rb").read())
    n, m, p = struct.unpack_from("<3Q", raw, 4)
    for row in rows:
        at = 28 + 8 * n * p + 16 * m * row
        entries = np.frombuffer(raw, "<f8", 2 * m, at) * scale + 0.0  # + 0.0: no -0.0
        raw[at:at + 16 * m] = entries.tobytes()
    open(path, "wb").write(raw)


def test_rows_whose_sum_of_squares_overflows_are_charted_as_zero_rows(tmp_path, capsys):
    # every entry of rows 5 and 150 stays finite at 2^600 times its value, so
    # the reader takes them; the verbs must treat them as the zero rows they
    # chart as, and a smart init whose dictionary holds row 5 refuses them
    doc = _tiny_doc()
    cfg = _write_doc(tmp_path, doc)
    data = str(tmp_path / "data.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    names = ("m0.bin", "m1.bin", "loss.csv", "metrics.csv", "chart.csv", "chart.svg")
    written = []
    for case, scale in (("large", 2.0 ** 600), ("zero", 0.0)):
        d = tmp_path / case
        d.mkdir()
        _scaled_rows(data, (5, 150), scale, str(d / "data.bin"))
        common = ["--config", cfg, "--data", str(d / "data.bin")]
        assert main(["init", *common, "--out", str(d / "m0.bin")]) == 0
        assert main(["train", *common, "--model-in", str(d / "m0.bin"),
                     "--out", str(d / "m1.bin"), "--loss-csv", str(d / "loss.csv")]) == 0
        assert main(["eval", *common, "--model", str(d / "m1.bin"),
                     "--out", str(d / "metrics.csv")]) == 0
        assert main(["chart", *common, "--model", str(d / "m1.bin"),
                     "--out", str(d / "chart")]) == 0
        written.append([(d / name).read_bytes() for name in names])
    for name, large, zero in zip(names, *written):
        assert large == zero, name
    doc["encoder"]["init"] = "smart"
    cfg = _write_doc(tmp_path, doc, "smart.json")
    n = fileio.read_dataset(data).channels.shape[0]
    atoms = encoder.smart_atoms(n, doc["encoder"]["n_init"], doc["seeds"]["init"]).tolist()
    out = tmp_path / "smart.bin"
    capsys.readouterr()
    assert main(["init", "--config", cfg, "--data", str(tmp_path / "large" / "data.bin"),
                 "--out", str(out)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    detail = f"channel row at index {atoms.index(5)} has a sum of squares >= 2^510"
    assert json.loads(err[0]) == {"error": "data", "detail": detail}
    assert not out.exists()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("change", ["truncate", "nan"])
def test_dataset_changed_while_train_reads_it_exits_4(tmp_path, capsys, monkeypatch, change):
    # train checks every row when it opens the dataset, then reads each
    # batch's rows as the step needs them: a file truncated after its first
    # step, or a NaN written into a training row after the check, is caught
    # by the read, and the dataset is closed
    cfg_path = _write_doc(tmp_path, _small_doc())
    cfg = ExperimentConfig.from_file(cfg_path)
    data, model = str(tmp_path / "data.bin"), str(tmp_path / "model.bin")
    assert main(["generate", "--config", cfg_path, "--out", data]) == 0
    fileio.write_model(model, encoder.init_random(16, 12, 3, 2, seed=1))
    n = fileio.read_dataset(data).channels.shape[0]
    train_rows, _ = split_dataset(n, cfg.training.split_ratio,
                                  substream(cfg.seeds["training"], 0))
    if change == "truncate":
        adam_step, steps = trainer.adam_step, []

        def step_then_truncate(*args):
            adam_step(*args)
            steps.append(1)
            os.truncate(data, 28 + 8 * n * 2)  # header and positions: no channel row
        monkeypatch.setattr(trainer, "adam_step", step_then_truncate)
        detail = f"{data}: truncated while reading channels"
    else:
        mine = trainer.mine_triplets

        def nan_then_mine(*args):
            _nan_at(data, int(train_rows[train_rows.size // 2]), data)
            return mine(*args)
        monkeypatch.setattr(trainer, "mine_triplets", nan_then_mine)
        detail = f"{data}: non-finite value in channels"
    out = tmp_path / "out.bin"
    argv = ["train", "--config", cfg_path, "--data", data, "--model-in", model,
            "--out", str(out)]
    capsys.readouterr()
    fds = _open_fds()
    assert main(argv) == 4
    assert _open_fds() == fds
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "format" and error["detail"].startswith(detail)
    if change == "truncate":
        assert len(steps) == 1  # failed in the second step of the first epoch
    assert not out.exists()


@pytest.mark.parametrize("verb", ["chart", "train"])
def test_failed_write_names_the_requested_path(tmp_path, capsys, verb):
    # the detail names the path on the command line, not its temporary file
    cfg = _write_doc(tmp_path, _small_doc())
    data, model = str(tmp_path / "data.bin"), str(tmp_path / "model.bin")
    assert main(["generate", "--config", cfg, "--out", data]) == 0
    fileio.write_model(model, encoder.init_random(16, 12, 3, 2, seed=1))
    if verb == "chart":
        requested = str(tmp_path / "missing" / "c.csv")
        argv = ["chart", "--model", model, "--out", str(tmp_path / "missing" / "c")]
    else:
        requested = str(tmp_path / "losses") + os.sep
        os.mkdir(requested)
        argv = ["train", "--model-in", model, "--out", str(tmp_path / "out.bin"),
                "--loss-csv", requested]
    capsys.readouterr()
    assert main(argv + ["--config", cfg, "--data", data]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "io" and repr(requested) in error["detail"], error
    assert ".tmp" not in error["detail"]
    assert not any(p.name.endswith(".tmp") for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("verb", ["train", "eval", "chart"])
def test_model_of_another_m_exits_3_before_reading_any_channel(tmp_path, capsys, verb):
    # a default-size dataset (97 MB of zero channels, sparse on disk) and an
    # M = 16 hybrid or MLP model: the verb must stop at the header
    n, m = 5910, 1024
    data = tmp_path / "data.bin"
    with open(data, "wb") as fh:
        fh.write(fileio.MAGIC_DATASET + struct.pack("<3Q", n, m, 2))
        fh.truncate(28 + 8 * n * (2 + 2 * m))
    model = str(tmp_path / "model.bin")
    argv = [verb, "--preset", "default", "--data", str(data), "--out", str(tmp_path / "out"),
            "--model-in" if verb == "train" else "--model", model]
    for params in (encoder.init_random(16, 30, 5, 2, seed=1),
                   encoder.mlp_init(16, seed=1, hidden=(8, 4))):
        fileio.write_model(model, params)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "dimension",
            "detail": "model expects M=16 channel entries, dataset has M=1024"}
        assert peak < 1 << 20
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin", "model.bin"]


def test_generate_chart_and_eval_memory_does_not_grow_with_n(tmp_path, capsys):
    # M = 256; at N = 6,001 the dataset is 23.5 MB, about twice every bound.
    # train and eval read their rows from the file as each step needs them
    m, data, model = 256, str(tmp_path / "data.bin"), str(tmp_path / "model.bin")
    fileio.write_model(model, encoder.init_random(m, 12, 3, 2, seed=1))
    block = 16 * m  # bytes per channel row
    bounds = {"generate": 4 * 512 * block,           # synthesis blocks
              "train": 1024 * block,
              "eval": 2 * 1024 * block,
              "chart": 3 * 1024 * block}
    assert 6001 * block > 1.9 * max(bounds.values())
    for length in (1500, 6000):
        cfg = _write_doc(tmp_path, _line_doc(length, n_subcarriers=m // 4))
        for verb in bounds:
            argv = [verb, "--config", cfg, "--out", str(tmp_path / "out")]
            if verb == "generate":
                argv[-1] = data
            else:
                argv += ["--data", data, "--model-in" if verb == "train" else "--model", model]
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0, (verb, length)
            assert peak < bounds[verb], (verb, length, peak)


# ---------------------------------------------------------------------------
# corrupted input files


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """A tiny-preset dataset plus a hybrid and a small MLP model that fit it."""
    d = tmp_path_factory.mktemp("tiny")
    data = str(d / "data.bin")
    assert main(["generate", "--preset", "tiny", "--out", data]) == 0
    m = fileio.read_dataset(data).channels.shape[1]
    hybrid, mlp = str(d / "hybrid.bin"), str(d / "mlp.bin")
    fileio.write_model(hybrid, encoder.init_random(m, 30, 5, 2, seed=1))
    fileio.write_model(mlp, encoder.mlp_init(m, seed=2, hidden=(8, 4)))
    return {"data": data, "hybrid": hybrid, "mlp": mlp}


def _header_fields(raw: bytes) -> list:
    """(offset, value) of every u64 header field of a CCD1 or CCM1 file."""
    if raw[:4] == b"CCD1":
        return [(4 + 8 * i, v) for i, v in enumerate(struct.unpack_from("<3Q", raw, 4))]
    (kind,) = struct.unpack_from("<Q", raw, 4)
    if kind == 0:
        return [(4 + 8 * i, v) for i, v in enumerate(struct.unpack_from("<5Q", raw, 4))]
    (count,) = struct.unpack_from("<Q", raw, 12)
    return [(4 + 8 * i, v) for i, v in enumerate(struct.unpack_from(f"<{count + 3}Q", raw, 4))]


def _corruptions(raw: bytes, rng: SplitMix64, n_cuts: int):
    """Truncations at header boundaries and random points, then header rewrites.

    A rewrite replaces one u64 field with an edge value, a neighbour of the
    true value or a random value.  The hybrid ``k`` field (offset 36) only
    gets values outside [1, N_init], since any other k is a valid model.  An
    MLP file also gets an odd input width with a payload of matching size.
    """
    fields = _header_fields(raw)
    cuts = {0, 2, 4} | {off for off, _ in fields} | {off + 8 for off, _ in fields}
    cuts |= {len(raw) - 1, len(raw) - 8}
    while len(cuts) < n_cuts:
        cuts.add(rng.randbelow(len(raw)))
    for cut in sorted(cuts):
        yield f"truncated to {cut} bytes", raw[:cut]
    yield "bad magic", b"CCX1" + raw[4:]
    is_hybrid = raw[:4] == b"CCM1" and fields[0][1] == 0
    for off, old in fields:
        values = {v % (1 << 64) for v in (0, old - 1, old + 1, 2 * old, 1 << 32, 1 << 40,
                                          1 << 63, (1 << 64) - 1, rng.next_u64())}
        if is_hybrid and off == 36:
            values = {v for v in values if not 1 <= v <= fields[2][1]}
        for v in sorted(values - {old}):
            yield f"u64 at {off}: {old} -> {v}", raw[:off] + struct.pack("<Q", v) + raw[off + 8:]
    if raw[:4] == b"CCM1" and fields[0][1] == 1:
        # one more input column, with the payload grown to match: every size
        # check passes, and only the odd input width is wrong
        (off, width), (_, hidden) = fields[2], fields[3]
        blob = raw[:off] + struct.pack("<Q", width + 1) + raw[off + 8:] + bytes(8 * hidden)
        yield "odd MLP input width", blob


def test_corrupted_files_fail_with_one_json_line(tiny_files, tmp_path, capsys):
    rng = SplitMix64(404)
    bad = str(tmp_path / "bad.bin")
    out = str(tmp_path / "out")
    cases = 0
    for target, verbs in (("data", ("init", "eval")), ("hybrid", ("eval", "train")),
                          ("mlp", ("eval", "chart"))):
        raw = open(tiny_files[target], "rb").read()
        for i, (what, blob) in enumerate(_corruptions(raw, rng, n_cuts=24)):
            with open(bad, "wb") as fh:
                fh.write(blob)
            files = dict(tiny_files, **{target: bad})
            verb = verbs[i % 2]
            argv = [verb, "--preset", "tiny", "--data", files["data"], "--out", out]
            if verb != "init":
                model = files["mlp" if target == "mlp" else "hybrid"]
                argv += ["--model-in" if verb == "train" else "--model", model]
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err.splitlines()
            assert code in (2, 3, 4, 5), (target, what, code)
            assert len(err) == 1, (target, what, err)
            doc = json.loads(err[0])
            assert set(doc) == {"error", "detail"}, (target, what, doc)
            if what == "odd MLP input width":
                assert (code, doc["error"]) == (4, "format"), doc
            cases += 1
    assert 100 <= cases <= 200


def _with_arrays(model, arrays):
    """A model of ``model``'s kind (and k) holding ``arrays`` as its file arrays."""
    if model.KIND == 0:
        return encoder.EncoderParams(*arrays, k=model.k)
    return encoder.MlpParams(weights=list(arrays))


def _run_verb(verb, data, model, out, capsys):
    """(exit code, stderr lines) of one verb, which must raise no RuntimeWarning."""
    argv = [verb, "--preset", "tiny", "--data", data, "--out", out,
            "--model-in" if verb == "train" else "--model", model]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], verb
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("kind", ["hybrid", "mlp"])
def test_models_past_the_parameter_bound_exit_4_and_write_nothing(tiny_files, tmp_path,
                                                                  capsys, kind):
    # a hybrid from init with its dictionary times 1e300, and an MLP with its
    # first two layers times 1e300: every chart would overflow to NaN
    data, model = tiny_files["data"], str(tmp_path / "model.bin")
    if kind == "hybrid":
        assert main(["init", "--preset", "tiny", "--data", data, "--out", model]) == 0
        params = fileio.read_model(model)
        arrays = [params.d_re * 1e300, params.d_im * 1e300, params.z]
    else:
        with fileio.RowReader(data) as reader:
            params = encoder.mlp_init(reader.m, seed=2, hidden=(16, 8))
        arrays = [w * 1e300 if i < 2 else w for i, w in enumerate(params.weights)]
    with open(model, "wb") as fh:
        fh.write(ccm1_bytes(_with_arrays(params, arrays)))
    for verb in ("eval", "chart", "train"):
        code, err = _run_verb(verb, data, model, str(tmp_path / "out"), capsys)
        assert code == 4, verb
        assert len(err) == 1, (verb, err)
        assert json.loads(err[0]) == {
            "error": "format",
            "detail": f"{model}: model parameter sum of squares >= 2^510 can overflow a chart"}
        assert os.listdir(tmp_path) == ["model.bin"], verb


def test_parameters_scaled_by_2_to_the_k_run_below_the_bound_and_exit_4_at_it(
        tiny_files, tmp_path, capsys):
    # one seeded file array of each tiny model is scaled by 2^k, for k on both
    # sides of the first k at which an exact rational oracle finds a hybrid
    # atom or anchor, or an MLP running product of layer sums of squares,
    # at or above 2^510
    rng = SplitMix64(510)
    scaled, out = str(tmp_path / "scaled.bin"), str(tmp_path / "out")
    runs = {False: 0, True: 0}
    for target in ("hybrid", "mlp"):
        params = fileio.read_model(tiny_files[target])
        arrays = params.file_arrays()
        which = rng.randbelow(len(arrays))
        cols = [[sum(Fraction(x) ** 2 for x in col) for col in a.T.tolist()] for a in arrays]

        def reaches_bound(k):
            sums = [[c * Fraction(4) ** k for c in s] if i == which else s
                    for i, s in enumerate(cols)]
            if params.KIND == 0:
                figures = [a + b for a, b in zip(sums[0], sums[1])] + sums[2]
            else:
                figures = [math.prod(sum(s) for s in sums[:i + 1]) for i in range(len(sums))]
            return max(figures) >= 2 ** 510

        lo, hi = 0, 600  # the bound is first reached at k = hi
        assert not reaches_bound(lo) and reaches_bound(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reaches_bound(mid) else (mid, hi)
        for k in sorted({hi - 2 - rng.randbelow(8), hi - 1, hi, hi + rng.randbelow(8)}):
            blob = ccm1_bytes(_with_arrays(params, [a * 2.0 ** k if i == which else a
                                                    for i, a in enumerate(arrays)]))
            with open(scaled, "wb") as fh:
                fh.write(blob)
            code, err = _run_verb(("eval", "chart")[k % 2], tiny_files["data"], scaled, out,
                                  capsys)
            past = reaches_bound(k)
            if past:
                assert (code, len(err)) == (4, 1), (target, k, err)
                assert json.loads(err[0])["error"] == "format"
            else:
                assert (code, err) == (0, []), (target, k, err)
            runs[past] += 1
    assert runs[False] >= 4 and runs[True] >= 4


# ---------------------------------------------------------------------------
# malformed config documents


def _nodes(doc, path=()):
    """(path, value) of the document and of every section, list and value in it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Wrong types, bools for ints, non-finite numbers, ints past 2^63 and past the
# float range, non-lists for lists and non-objects for sections.
_MUTANTS = ("x", True, None, [], {}, [1.0], {"x": 1}, 0.5, float("nan"), float("inf"),
            float("-inf"), 2**63, 2**64 + 1, -(2**63) - 1, 10**400)


def _config_mutations(rng: SplitMix64):
    """Seeded mutations of the tiny, default and an explicit-scenario document."""
    docs = [preset("tiny").to_dict(), preset("default").to_dict(), _small_doc()]
    for doc in docs:
        for path, value in _nodes(doc):
            picks = {int(rng.randbelow(len(_MUTANTS))) for _ in range(4)}
            for i in sorted(picks):
                yield f"{path} -> {_MUTANTS[i]!r}", _replaced(doc, path, _MUTANTS[i])
            if isinstance(value, dict):
                yield f"{path} + bogus key", _replaced(doc, path, dict(value, bogus=1))


def test_config_mutations_exit_cleanly(tmp_path, capsys):
    # a mutated document either still parses (a seed past 2^63 is a valid
    # seed) or fails with exit code 2, 3 or 4 and one JSON line on stderr
    path = tmp_path / "cfg.json"
    failed = 0
    for what, doc in _config_mutations(SplitMix64(505)):
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["show-config", "--config", str(path)])
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == [], (what, err)
            continue
        assert code in (2, 3, 4, 5), (what, code)
        assert len(err) == 1, (what, err)
        assert set(json.loads(err[0])) == {"error", "detail"}, (what, err)
        failed += 1
    assert failed > 300


@pytest.mark.parametrize("verb", ["show-config", "generate"])
def test_non_list_scatterer_gains_exit_2(tmp_path, capsys, verb):
    doc = _small_doc()
    doc["scenario"]["scatterers"]["gains"] = 0.5
    argv = [verb, "--config", _write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["detail"].startswith("scenario.scatterers.gains:")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# dependencies


def test_cli_imports_nothing_beyond_numpy_and_the_standard_library():
    # numpy is the only runtime dependency; where other packages are
    # installed, a stray import of one would otherwise go unnoticed
    code = ("import sys; before = set(sys.modules); import chanchart.cli; "
            "print(*{name.partition('.')[0] for name in set(sys.modules) - before})")
    src = os.path.dirname(os.path.dirname(chanchart.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert set(out.split()) - sys.stdlib_module_names == {"chanchart", "numpy"}
