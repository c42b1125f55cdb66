"""Experiment configuration: parsing, validation, presets, realization."""

import copy
import json
from dataclasses import fields

import numpy as np
import pytest

from chanchart.cli import main
from chanchart.config import (
    ConfigError,
    EncoderSettings,
    ExperimentConfig,
    PRESETS,
    STAGES,
    derive_seeds,
    preset,
)
from chanchart.evalmetrics import DEFAULT_K_GRID
from chanchart.rng import substream
from chanchart.synthgen import generate_trajectory
from chanchart.trainer import TrainConfig
from chanchart.triplet import MiningConfig


def _minimal_doc(**overrides):
    # the smallest loop whose 70% training split (702 samples) spans the
    # default 100 s close window at 7 samples/s (700 samples) plus two
    doc = {"scenario": {"kind": "loop", "n_samples": 1003}}
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# seeds


def test_derive_seeds_uses_stage_substreams():
    seeds = derive_seeds(42)
    assert set(seeds) == set(STAGES)
    for i, stage in enumerate(STAGES):
        assert seeds[stage] == substream(42, i)
    assert len(set(seeds.values())) == 4
    assert derive_seeds(42) == derive_seeds(42)
    assert derive_seeds(42) != derive_seeds(43)


def test_with_seed_root_rederives_only_seeds():
    cfg = preset("tiny")
    other = cfg.with_seed_root(9)
    assert other.seeds == derive_seeds(9)
    a, b = cfg.to_dict(), other.to_dict()
    a.pop("seeds"), b.pop("seeds")
    assert a == b


# ---------------------------------------------------------------------------
# parsing and defaults


def test_minimal_document_gets_defaults():
    cfg = ExperimentConfig.from_dict(_minimal_doc())
    assert cfg.scenario == {"kind": "loop", "n_samples": 1003,
                            "geometry_samples": 1003, "jitter_sigma": 0.05}
    assert cfg.encoder.n_init == 100 and cfg.encoder.init == "smart"
    assert cfg.mining.t_close == 100.0 and cfg.mining.per_anchor == 1
    assert cfg.training.epochs == 30 and cfg.training.split_ratio == 0.7
    assert cfg.k_grid == DEFAULT_K_GRID
    assert cfg.seeds == derive_seeds(0)
    assert cfg.baseline_mlp is True


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict(_minimal_doc(bogus=1))
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict(_minimal_doc(encoder={"bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict(_minimal_doc(training={"bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_dict(
            {"scenario": {"kind": "loop", "n_samples": 5, "bogus": 1}})


def test_seeds_section_must_be_complete():
    partial = {"trajectory": 1, "init": 2, "mining": 3}
    with pytest.raises(ConfigError, match="training"):
        ExperimentConfig.from_dict(_minimal_doc(seeds=partial))
    extra = derive_seeds(0)
    extra["extra"] = 7
    with pytest.raises(ConfigError, match="extra"):
        ExperimentConfig.from_dict(_minimal_doc(seeds=extra))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_seeds_outside_64_bits_rejected(seed):
    # SplitMix64 reduces a seed mod 2^64, so these would alias a seed in range
    for stage in STAGES:
        seeds = dict(derive_seeds(0), **{stage: seed})
        with pytest.raises(ConfigError, match=rf"^seeds\.{stage}: seed must lie in \[0, 2\^64\)"):
            ExperimentConfig.from_dict(_minimal_doc(seeds=seeds))
    with pytest.raises(ConfigError, match=r"^seed root: seed must lie in \[0, 2\^64\)"):
        preset("tiny").with_seed_root(seed)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_seeds_across_64_bits_accepted(seed):
    seeds = {stage: seed for stage in STAGES}
    assert ExperimentConfig.from_dict(_minimal_doc(seeds=seeds)).seeds == seeds
    assert preset("tiny").with_seed_root(seed).seeds == derive_seeds(seed)


def test_type_checks_reject_bools_and_strings():
    with pytest.raises(ConfigError, match="encoder.n_init"):
        ExperimentConfig.from_dict(_minimal_doc(encoder={"n_init": True}))
    with pytest.raises(ConfigError, match="encoder.n_init"):
        ExperimentConfig.from_dict(_minimal_doc(encoder={"n_init": "5"}))
    with pytest.raises(ConfigError, match="t_close"):
        ExperimentConfig.from_dict(_minimal_doc(mining={"t_close": "fast"}))
    with pytest.raises(ConfigError, match="baseline.mlp"):
        ExperimentConfig.from_dict(_minimal_doc(baseline={"mlp": 1}))


def test_value_range_validation():
    with pytest.raises(ConfigError, match="^encoder.init must be 'smart' or 'random', got 'magic'$"):
        ExperimentConfig.from_dict(_minimal_doc(encoder={"init": "magic"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _minimal_doc(mining={"t_close": 10.0, "t_far": 5.0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_doc(training={"epochs": 0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_doc(training={"split_ratio": 1.0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_doc(eval={"k_grid": []}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_minimal_doc(eval={"k_grid": [0.0]}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"scenario": {"kind": "loop", "n_samples": 1}})
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict({"scenario": {"kind": "hexagon"}})


_EXPLICIT = {
    "kind": "explicit",
    "trajectory": {"waypoints": [[0.0, 0.0], [8.0, 0.0]], "speed": 1.0, "sample_rate": 2.0},
    "radio": {"n_rows": 2, "n_cols": 2, "n_subcarriers": 3},
    "scatterers": {"points": [[4.0, 9.0, 3.0]], "gains": [0.5]},
}


@pytest.mark.parametrize("section, key, value, match", [
    ("training", "learning_rate", float("nan"), "training.learning_rate"),
    ("training", "margin", float("inf"), "training.margin"),
    ("mining", "t_far", float("-inf"), "mining.t_far"),
    ("training", "beta1", 2.0, "beta1"),
    ("training", "beta2", 1.0, "beta2"),
    ("training", "beta1", -0.5, "beta1"),
    ("training", "eps", -1.0, "training.eps"),
    ("training", "eps", 0.0, "training.eps"),
    ("scenario", "jitter_sigma", float("nan"), "scenario.jitter_sigma"),
    ("scenario", "jitter_sigma", -0.1, "scenario.jitter_sigma"),
    ("trajectory", "jitter_sigma", float("nan"), "scenario.trajectory.jitter_sigma"),
    ("trajectory", "jitter_sigma", -0.1, "scenario.trajectory.jitter_sigma"),
    ("scatterers", "gains", 0.5, "scenario.scatterers.gains"),
    ("scatterers", "gains", [0.0], "scenario.scatterers"),
    pytest.param("training", "margin", 10**400, "training.margin",
                 id="training-margin-int-past-float-range"),
    ("trajectory", "speed", -1.0, "^scenario.trajectory: speed and sample_rate must be positive"),
    ("trajectory", "sample_rate", 0.0,
     "^scenario.trajectory: speed and sample_rate must be positive"),
    ("trajectory", "waypoints", [[0.0, 0.0]],
     "^scenario.trajectory: need at least two waypoints"),
    # null is half a wavelength for antenna_spacing only; f_c and bandwidth have no null
    ("radio", "f_c", None, r"^scenario.radio.f_c: expected a finite number, got None$"),
    ("radio", "bandwidth", None,
     r"^scenario.radio.bandwidth: expected a finite number, got None$"),
    ("radio", "f_c", 0.0, r"^scenario.radio: f_c and bandwidth must be positive$"),
    ("radio", "antenna_spacing", -1.0, r"^scenario.radio.antenna_spacing must be positive$"),
    ("radio", "n_rows", 0, r"^scenario.radio: array and subcarrier counts must be >= 1$"),
    ("radio", "n_cols", 2.0, r"^scenario.radio.n_cols: expected an integer, got 2.0$"),
    ("radio", "bs_position", [1.0, 2.0],
     r"^scenario.radio.bs_position: expected a 3-element list$"),
    ("training", "epochs", -1, r"^training.epochs must be >= 0$"),
])
def test_bad_values_rejected_at_parse_time(section, key, value, match):
    # json.loads accepts NaN and Infinity, so a config file can carry them
    if section in ("trajectory", "radio", "scatterers"):
        doc = {"scenario": json.loads(json.dumps(_EXPLICIT))}
        doc["scenario"][section][key] = value
    elif section == "scenario":
        doc = _minimal_doc()
        doc["scenario"][key] = value
    else:
        doc = _minimal_doc(**{section: {key: value}})
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(doc)


def test_explicit_scenario_resolves_to_this_section():
    # the trajectory gains its jitter_sigma default; the radio keeps only the
    # keys the document gives
    want = dict(_EXPLICIT, trajectory=dict(_EXPLICIT["trajectory"], jitter_sigma=0.0))
    cfg = ExperimentConfig.from_dict({"scenario": _EXPLICIT,
                                      "mining": {"t_close": 2.0, "t_far": 4.0}})
    assert json.dumps(cfg.to_dict()["scenario"]) == json.dumps(want)


def test_to_dict_round_trips():
    for name in PRESETS:
        cfg = ExperimentConfig.from_dict(PRESETS[name])
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


def test_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal_doc()), encoding="utf-8")
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.scenario["n_samples"] == 1003

    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        ExperimentConfig.from_file(str(path))

    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        ExperimentConfig.from_file(str(path))


@pytest.mark.parametrize("text, detail", [
    ('{"scenario": {"kind": "loop", "n_samples": 1003},'
     ' "training": {"epochs": 3, "epochs": 5}}', "duplicate key 'epochs'"),
    ('{"scenario": {"kind": "loop", "n_samples": 1003},'
     ' "seeds": {"init": 1, "init": 2}}', "duplicate key 'init'"),
    ('{"scenario": {"kind": "loop", "n_samples": 1003},'
     ' "scenario": {"kind": "loop", "n_samples": 1003}}', "duplicate key 'scenario'"),
], ids=["training", "seeds", "top-level"])
def test_duplicate_key_in_a_config_file_exits_2(tmp_path, capsys, text, detail):
    # the last value would otherwise win without a word
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    assert main(["show-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "config", "detail": f"{path}: {detail}"}


def test_config_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"scenario": {"kind": "loop\xff"}}')
    assert main(["show-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["detail"].startswith(f"{path}: not valid JSON (")


# ---------------------------------------------------------------------------
# presets


def test_tiny_preset_resolves_to_this_document():
    # compared as JSON text, so key order is pinned along with every value
    want = {
        "scenario": {"kind": "loop", "n_samples": 200, "geometry_samples": 2000,
                     "jitter_sigma": 0.05},
        "encoder": {"n_init": 30, "k": 5, "k_iso": 5, "d_out": 2, "init": "random"},
        "mining": {"t_close": 4.0, "t_far": 12.0, "per_anchor": 1},
        "training": {"epochs": 3, "batch_size": 32, "learning_rate": 0.001, "beta1": 0.9,
                     "beta2": 0.999, "eps": 1e-08, "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1]},
        "seeds": {"trajectory": 16294208416658607535, "init": 7960286522194355700,
                  "mining": 487617019471545679, "training": 17909611376780542444},
        "baseline": {"mlp": True},
    }
    assert json.dumps(preset("tiny").to_dict()) == json.dumps(want)


_K_GRID = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1]
_RESOLVED = {
    "desk": {
        "scenario": {"kind": "loop", "n_samples": 2000, "geometry_samples": 8865,
                     "jitter_sigma": 0.05},
        "encoder": {"n_init": 100, "k": 5, "k_iso": 5, "d_out": 2, "init": "smart"},
        "mining": {"t_close": 100.0, "t_far": 290.0, "per_anchor": 2},
        "training": {"epochs": 30, "batch_size": 64, "learning_rate": 0.0003, "beta1": 0.9,
                     "beta2": 0.999, "eps": 1e-08, "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": _K_GRID},
        "seeds": {"trajectory": 10451216379200822465, "init": 13757245211066428519,
                  "mining": 17911839290282890590, "training": 8196980753821780235},
        "baseline": {"mlp": True},
    },
    "default": {
        "scenario": {"kind": "loop", "n_samples": 5910, "geometry_samples": 5910,
                     "jitter_sigma": 0.05},
        "encoder": {"n_init": 100, "k": 5, "k_iso": 5, "d_out": 2, "init": "smart"},
        "mining": {"t_close": 100.0, "t_far": 290.0, "per_anchor": 1},
        "training": {"epochs": 30, "batch_size": 64, "learning_rate": 0.001, "beta1": 0.9,
                     "beta2": 0.999, "eps": 1e-08, "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": _K_GRID},
        "seeds": {"trajectory": 16294208416658607535, "init": 7960286522194355700,
                  "mining": 487617019471545679, "training": 17909611376780542444},
        "baseline": {"mlp": True},
    },
}


@pytest.mark.parametrize("name", sorted(_RESOLVED))
def test_desk_and_default_presets_resolve_to_these_documents(name):
    # compared as JSON text, as tiny is
    assert json.dumps(preset(name).to_dict()) == json.dumps(_RESOLVED[name])


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_resolved_sections_follow_the_field_order(name):
    doc = preset(name).to_dict()
    assert list(doc) == ["scenario", "encoder", "mining", "training", "eval", "seeds",
                         "baseline"]
    for section, cls in (("encoder", EncoderSettings), ("mining", MiningConfig),
                         ("training", TrainConfig)):
        # seeds come from the seeds section and the sampling rate from the dataset
        assert list(doc[section]) == [f.name for f in fields(cls)
                                      if f.name not in ("seed", "sample_rate")]
    assert list(doc["seeds"]) == list(STAGES)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_parsing_never_changes_a_preset(name):
    # the presets are shared module-level documents: a resolved config, its
    # reseeded copy and their dicts must hold none of their parts
    before = copy.deepcopy(PRESETS[name])
    cfg = preset(name)
    for resolved in (cfg, cfg.with_seed_root(3)):
        doc = resolved.to_dict()
        resolved.scenario["n_samples"] = -1
        resolved.scenario["extra"] = {}
        resolved.seeds["init"] = -1
        for section in doc.values():
            section.clear()
    assert PRESETS[name] == before


def test_preset_names_and_unknown():
    assert set(PRESETS) == {"default", "desk", "tiny"}
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("nope")


def test_default_preset_is_full_size():
    cfg = preset("default")
    assert cfg.scenario["n_samples"] == 5910
    assert cfg.scenario["geometry_samples"] == 5910
    assert cfg.encoder.init == "smart"
    assert cfg.sample_rate() == 7.0


def test_tiny_preset_shape():
    cfg = preset("tiny")
    assert cfg.scenario["n_samples"] == 200
    assert cfg.scenario["geometry_samples"] == 2000
    assert cfg.encoder.init == "random"
    assert cfg.training.epochs == 3


# ---------------------------------------------------------------------------
# realization


def test_loop_scenario_with_sparser_sampling():
    cfg = preset("tiny")
    traj, radio, scat, n = cfg.scenario_objects()
    assert n == 200
    assert radio.m == 1024 and len(scat.points) == 6
    # geometry of the 2000-sample loop, walked with only 200 samples
    perimeter = (2000 - 1) * 0.2
    assert np.isclose(traj.sample_rate, 1.4 * 199 / perimeter)
    track = generate_trajectory(traj)
    assert track.shape[0] == 200


def test_desk_scenario_objects():
    cfg = preset("desk")
    traj, _, _, n = cfg.scenario_objects()
    assert n == 2000
    assert np.isclose(traj.sample_rate, 1.4 * 1999 / ((8865 - 1) * 0.2))
    track = generate_trajectory(traj)
    assert track.shape[0] == 2000


def test_loop_whose_path_misses_n_samples_is_rejected_at_parse(tmp_path, capsys):
    # in float64, 10^7 samples over a 4*10^7-sample geometry leave the
    # sampled path one sample short, which generate would find only later
    doc = {"scenario": {"kind": "loop", "n_samples": 10_000_000,
                        "geometry_samples": 40_000_000}}
    detail = "scenario.n_samples: the loop's sampled path holds 9999999 samples, not 10000000"
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(doc)
    assert str(exc.value) == detail
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["show-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "config", "detail": detail}


def test_explicit_scenario_round_trip():
    doc = {
        "scenario": {
            "kind": "explicit",
            "trajectory": {"waypoints": [[0.0, 0.0], [8.0, 0.0]],
                           "speed": 1.0, "sample_rate": 2.0},
            "radio": {"n_rows": 2, "n_cols": 2, "n_subcarriers": 3,
                      "bs_position": [1.0, 1.0, 5.0]},
            "scatterers": {"points": [[4.0, 9.0, 3.0]], "gains": [0.5]},
        },
        "mining": {"t_close": 2.0, "t_far": 4.0},
    }
    cfg = ExperimentConfig.from_dict(doc)
    traj, radio, scat, n = cfg.scenario_objects()
    assert n is None
    assert traj.waypoints == [[0.0, 0.0], [8.0, 0.0]]
    assert traj.jitter_sigma == 0.0
    assert radio.m == 12 and radio.bs_position == (1.0, 1.0, 5.0)
    assert scat.gains == [0.5]
    assert cfg.sample_rate() == 2.0
    assert generate_trajectory(traj).shape[0] == 17

    # the objects built at parse time, not a fresh set per call
    assert all(a is b for a, b in zip(cfg.scenario_objects(), (traj, radio, scat)))

    bad = json.loads(json.dumps(doc))
    bad["scenario"]["radio"]["n_rows"] = 0
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_explicit_radio_resolves_the_keys_it_gives():
    # an integer for a float field resolves to a float; a null antenna
    # spacing stays null in the document and is half a wavelength in the radio
    doc = {"scenario": json.loads(json.dumps(_EXPLICIT)),
           "mining": {"t_close": 2.0, "t_far": 4.0}}
    doc["scenario"]["radio"].update(f_c=3500000000, antenna_spacing=None)
    cfg = ExperimentConfig.from_dict(doc)
    assert json.dumps(cfg.to_dict()["scenario"]["radio"]) == (
        '{"n_rows": 2, "n_cols": 2, "n_subcarriers": 3, "f_c": 3500000000.0, '
        '"antenna_spacing": null}')
    radio = cfg.scenario_objects()[1]
    assert radio.f_c == 3.5e9 and radio.antenna_spacing == radio.wavelength / 2.0


def test_mining_and_train_config_builders():
    cfg = preset("desk")
    mining = cfg.mining_config(2.0)
    assert mining.t_close == 100.0 and mining.t_far == 290.0
    assert mining.sample_rate == 2.0
    assert mining.per_anchor == 2
    assert mining.seed == cfg.seeds["mining"]
    tc = cfg.train_config()
    assert tc.epochs == 30 and tc.batch_size == 64
    assert tc.learning_rate == 3e-4 and tc.margin == 1.0
    assert tc.split_ratio == 0.7
    assert tc.seed == cfg.seeds["training"]
