"""Experiment configuration: strict JSON schema, presets, seed derivation.

An experiment is described by a JSON document with seven sections --
``scenario``, ``encoder``, ``mining``, ``training``, ``eval``, ``seeds``,
``baseline``.  Parsing is strict: unknown keys anywhere in the document are
rejected, as are values of the wrong type, so a typo fails loudly instead of
silently falling back to a default.

Scenario kinds:

* ``loop`` -- rectangular loop sized for ``geometry_samples`` points at
  0.2 m spacing, walked with ``n_samples`` equally spaced samples.  With
  ``geometry_samples == n_samples`` this is the stock scenario (0.2 m steps
  at 7 samples/s); a larger ``geometry_samples`` keeps the full-size
  geometry while sampling it more sparsely.
* ``explicit`` -- trajectory waypoints, radio parameters, and scatterers
  spelled out in full.

Seeds are per stage (``trajectory``, ``init``, ``mining``, ``training``).
``derive_seeds(root)`` expands one root seed into the four stage seeds via
independent substreams, which is what the CLI's ``--seed-override`` uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .evalmetrics import DEFAULT_K_GRID
from .rng import substream
from .synthgen import RadioConfig, ScattererSet, TrajectoryConfig, loop_scenario
from .trainer import TrainConfig
from .triplet import MiningConfig


class ConfigError(ValueError):
    """Raised for malformed experiment configuration documents."""


STAGES = ("trajectory", "init", "mining", "training")


def derive_seeds(root: int) -> dict:
    """Expand one root seed into the per-stage seed dictionary."""
    return {stage: substream(root, i) for i, stage in enumerate(STAGES)}


# ---------------------------------------------------------------------------
# validation helpers


def _check_keys(d: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {sorted(missing)}")


def _as_int(v, where: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def _as_float(v, where: str) -> float:
    # json accepts NaN and Infinity; no field takes them
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _as_nonnegative(v, where: str) -> float:
    x = _as_float(v, where)
    if x < 0.0:
        raise ConfigError(f"{where} must be >= 0")
    return x


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected true/false, got {v!r}")
    return v


def _as_str(v, where: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{where}: expected a string, got {v!r}")
    return v


def _as_point_list(v, dim: int, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a non-empty list of points")
    out = []
    for i, p in enumerate(v):
        if not isinstance(p, list) or len(p) != dim:
            raise ConfigError(f"{where}[{i}]: expected a {dim}-element list")
        out.append([_as_float(x, f"{where}[{i}][{j}]") for j, x in enumerate(p)])
    return out


# ---------------------------------------------------------------------------
# sections


@dataclass
class EncoderSettings:
    n_init: int = 100
    k: int = 5
    k_iso: int = 5
    d_out: int = 2
    init: str = "smart"

    def __post_init__(self):
        if self.n_init < 1 or self.k < 1 or self.k_iso < 1 or self.d_out < 1:
            raise ConfigError("encoder: n_init, k, k_iso, d_out must be >= 1")
        if self.init not in ("smart", "random"):
            raise ConfigError(f"encoder.init: expected 'smart' or 'random', got {self.init!r}")


@dataclass
class MiningSettings:
    t_close: float = 100.0
    t_far: float = 290.0
    per_anchor: int = 1

    def __post_init__(self):
        if not (0.0 < self.t_close < self.t_far):
            raise ConfigError("mining: need 0 < t_close < t_far")
        if self.per_anchor < 1:
            raise ConfigError("mining.per_anchor must be >= 1")


@dataclass
class TrainingSettings:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    margin: float = 1.0
    split_ratio: float = 0.7

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("training: epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or self.margin < 0:
            raise ConfigError("training: learning_rate must be > 0 and margin >= 0")
        if not (0.0 < self.split_ratio < 1.0):
            raise ConfigError("training.split_ratio must lie in (0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("training: beta1 and beta2 must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("training.eps must be > 0")


_RADIO_KEYS = {"n_rows", "n_cols", "n_subcarriers", "f_c", "bandwidth",
               "antenna_spacing", "bs_position"}


def _parse_radio(d: dict, where: str) -> RadioConfig:
    _check_keys(d, _RADIO_KEYS, set(), where)
    kw = {}
    for key in ("n_rows", "n_cols", "n_subcarriers"):
        if key in d:
            kw[key] = _as_int(d[key], f"{where}.{key}")
    for key in ("f_c", "bandwidth", "antenna_spacing"):
        if key in d and d[key] is not None:
            kw[key] = _as_float(d[key], f"{where}.{key}")
    if "bs_position" in d:
        (pos,) = _as_point_list([d["bs_position"]], 3, f"{where}.bs_position")
        kw["bs_position"] = tuple(pos)
    try:
        return RadioConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_LOOP_KEYS = {"kind", "n_samples", "geometry_samples", "jitter_sigma"}
_EXPLICIT_KEYS = {"kind", "trajectory", "radio", "scatterers"}
_TRAJ_KEYS = {"waypoints", "speed", "sample_rate", "jitter_sigma"}
_SCAT_KEYS = {"points", "gains"}


def _parse_scenario(d: dict) -> dict:
    if not isinstance(d, dict):
        raise ConfigError("scenario: expected an object")
    kind = _as_str(d.get("kind", "loop"), "scenario.kind")
    if kind == "loop":
        _check_keys(d, _LOOP_KEYS, {"n_samples"}, "scenario")
        out = {"kind": "loop", "n_samples": _as_int(d["n_samples"], "scenario.n_samples")}
        if out["n_samples"] < 2:
            raise ConfigError("scenario.n_samples must be >= 2")
        out["geometry_samples"] = _as_int(d.get("geometry_samples", out["n_samples"]),
                                          "scenario.geometry_samples")
        if out["geometry_samples"] < 2:
            raise ConfigError("scenario.geometry_samples must be >= 2")
        out["jitter_sigma"] = _as_nonnegative(d.get("jitter_sigma", 0.05),
                                              "scenario.jitter_sigma")
        return out
    if kind == "explicit":
        _check_keys(d, _EXPLICIT_KEYS, {"trajectory", "radio", "scatterers"}, "scenario")
        traj = d["trajectory"]
        _check_keys(traj, _TRAJ_KEYS, {"waypoints", "speed", "sample_rate"}, "scenario.trajectory")
        sc = d["scatterers"]
        _check_keys(sc, _SCAT_KEYS, {"points", "gains"}, "scenario.scatterers")
        out = {
            "kind": "explicit",
            "trajectory": {
                "waypoints": _as_point_list(traj["waypoints"], 2, "scenario.trajectory.waypoints"),
                "speed": _as_float(traj["speed"], "scenario.trajectory.speed"),
                "sample_rate": _as_float(traj["sample_rate"], "scenario.trajectory.sample_rate"),
                "jitter_sigma": _as_nonnegative(traj.get("jitter_sigma", 0.0),
                                                "scenario.trajectory.jitter_sigma"),
            },
            "radio": dict(d["radio"]) if isinstance(d["radio"], dict) else d["radio"],
            "scatterers": {
                "points": _as_point_list(sc["points"], 3, "scenario.scatterers.points"),
                "gains": [_as_float(g, f"scenario.scatterers.gains[{i}]")
                          for i, g in enumerate(sc["gains"])],
            },
        }
        _parse_radio(out["radio"], "scenario.radio")  # validate now, build later
        if len(out["scatterers"]["gains"]) != len(out["scatterers"]["points"]):
            raise ConfigError("scenario.scatterers: points and gains must have equal length")
        return out
    raise ConfigError(f"scenario.kind: expected 'loop' or 'explicit', got {kind!r}")


# ---------------------------------------------------------------------------
# the document


_TOP_KEYS = {"scenario", "encoder", "mining", "training", "eval", "seeds", "baseline"}
_ENCODER_KEYS = {"n_init", "k", "k_iso", "d_out", "init"}
_MINING_KEYS = {"t_close", "t_far", "per_anchor"}
_TRAINING_KEYS = {"epochs", "batch_size", "learning_rate", "beta1", "beta2",
                  "eps", "margin", "split_ratio"}
_EVAL_KEYS = {"k_grid"}
_BASELINE_KEYS = {"mlp"}


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    scenario: dict
    encoder: EncoderSettings = field(default_factory=EncoderSettings)
    mining: MiningSettings = field(default_factory=MiningSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)
    k_grid: tuple = DEFAULT_K_GRID
    seeds: dict = field(default_factory=lambda: derive_seeds(0))
    baseline_mlp: bool = True

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        _check_keys(doc, _TOP_KEYS, {"scenario"}, "config")
        scenario = _parse_scenario(doc["scenario"])

        enc = doc.get("encoder", {})
        _check_keys(enc, _ENCODER_KEYS, set(), "encoder")
        encoder = EncoderSettings(
            n_init=_as_int(enc.get("n_init", 100), "encoder.n_init"),
            k=_as_int(enc.get("k", 5), "encoder.k"),
            k_iso=_as_int(enc.get("k_iso", 5), "encoder.k_iso"),
            d_out=_as_int(enc.get("d_out", 2), "encoder.d_out"),
            init=_as_str(enc.get("init", "smart"), "encoder.init"))

        mi = doc.get("mining", {})
        _check_keys(mi, _MINING_KEYS, set(), "mining")
        mining = MiningSettings(
            t_close=_as_float(mi.get("t_close", 100.0), "mining.t_close"),
            t_far=_as_float(mi.get("t_far", 290.0), "mining.t_far"),
            per_anchor=_as_int(mi.get("per_anchor", 1), "mining.per_anchor"))

        tr = doc.get("training", {})
        _check_keys(tr, _TRAINING_KEYS, set(), "training")
        defaults = TrainingSettings()
        training = TrainingSettings(
            epochs=_as_int(tr.get("epochs", defaults.epochs), "training.epochs"),
            batch_size=_as_int(tr.get("batch_size", defaults.batch_size), "training.batch_size"),
            learning_rate=_as_float(tr.get("learning_rate", defaults.learning_rate),
                                    "training.learning_rate"),
            beta1=_as_float(tr.get("beta1", defaults.beta1), "training.beta1"),
            beta2=_as_float(tr.get("beta2", defaults.beta2), "training.beta2"),
            eps=_as_float(tr.get("eps", defaults.eps), "training.eps"),
            margin=_as_float(tr.get("margin", defaults.margin), "training.margin"),
            split_ratio=_as_float(tr.get("split_ratio", defaults.split_ratio),
                                  "training.split_ratio"))

        ev = doc.get("eval", {})
        _check_keys(ev, _EVAL_KEYS, set(), "eval")
        grid = ev.get("k_grid", list(DEFAULT_K_GRID))
        if not isinstance(grid, list) or not grid:
            raise ConfigError("eval.k_grid: expected a non-empty list of fractions")
        k_grid = tuple(_as_float(g, f"eval.k_grid[{i}]") for i, g in enumerate(grid))
        for g in k_grid:
            if not (0.0 < g <= 1.0):
                raise ConfigError(f"eval.k_grid: fraction {g!r} outside (0, 1]")

        sd = doc.get("seeds", derive_seeds(0))
        _check_keys(sd, set(STAGES), set(STAGES), "seeds")
        seeds = {stage: _as_int(sd[stage], f"seeds.{stage}") for stage in STAGES}

        ba = doc.get("baseline", {})
        _check_keys(ba, _BASELINE_KEYS, set(), "baseline")
        baseline_mlp = _as_bool(ba.get("mlp", True), "baseline.mlp")

        return ExperimentConfig(scenario=scenario, encoder=encoder, mining=mining,
                                training=training, k_grid=k_grid, seeds=seeds,
                                baseline_mlp=baseline_mlp)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return ExperimentConfig.from_dict(doc)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        e, m, t = self.encoder, self.mining, self.training
        return {
            "scenario": json.loads(json.dumps(self.scenario)),
            "encoder": {"n_init": e.n_init, "k": e.k, "k_iso": e.k_iso,
                        "d_out": e.d_out, "init": e.init},
            "mining": {"t_close": m.t_close, "t_far": m.t_far, "per_anchor": m.per_anchor},
            "training": {"epochs": t.epochs, "batch_size": t.batch_size,
                         "learning_rate": t.learning_rate, "beta1": t.beta1,
                         "beta2": t.beta2, "eps": t.eps, "margin": t.margin,
                         "split_ratio": t.split_ratio},
            "eval": {"k_grid": list(self.k_grid)},
            "seeds": dict(self.seeds),
            "baseline": {"mlp": self.baseline_mlp},
        }

    def with_seed_root(self, root: int) -> "ExperimentConfig":
        """Copy of this config with all stage seeds re-derived from one root."""
        doc = self.to_dict()
        doc["seeds"] = derive_seeds(root)
        return ExperimentConfig.from_dict(doc)

    # -- realization -------------------------------------------------------

    def scenario_objects(self):
        """Build (TrajectoryConfig, RadioConfig, ScattererSet, n_samples)."""
        seed = self.seeds["trajectory"]
        sc = self.scenario
        if sc["kind"] == "loop":
            n, geo = sc["n_samples"], sc["geometry_samples"]
            traj, radio, scat = loop_scenario(geo, seed=seed, jitter_sigma=sc["jitter_sigma"])
            if geo != n:
                # same loop geometry, walked with n samples instead of geo
                perimeter = (geo - 1) * 0.2
                rate = 1.4 * (n - 1) / perimeter
                traj = TrajectoryConfig(waypoints=traj.waypoints, speed=1.4,
                                        sample_rate=rate,
                                        jitter_sigma=sc["jitter_sigma"], seed=seed)
            return traj, radio, scat, n
        tr = sc["trajectory"]
        traj = TrajectoryConfig(waypoints=tr["waypoints"], speed=tr["speed"],
                                sample_rate=tr["sample_rate"],
                                jitter_sigma=tr["jitter_sigma"], seed=seed)
        radio = _parse_radio(sc["radio"], "scenario.radio")
        scat = ScattererSet(points=sc["scatterers"]["points"],
                            gains=sc["scatterers"]["gains"])
        return traj, radio, scat, None

    def sample_rate(self) -> float:
        """The sampling rate implied by the scenario, samples per second."""
        traj, _, _, _ = self.scenario_objects()
        return traj.sample_rate

    def mining_config(self, sample_rate: float) -> MiningConfig:
        return MiningConfig(t_close=self.mining.t_close, t_far=self.mining.t_far,
                            sample_rate=sample_rate, per_anchor=self.mining.per_anchor,
                            seed=self.seeds["mining"])

    def train_config(self) -> TrainConfig:
        t = self.training
        return TrainConfig(epochs=t.epochs, batch_size=t.batch_size,
                           learning_rate=t.learning_rate, beta1=t.beta1, beta2=t.beta2,
                           eps=t.eps, margin=t.margin, split_ratio=t.split_ratio,
                           seed=self.seeds["training"])


# ---------------------------------------------------------------------------
# presets


def _preset_default() -> dict:
    return {
        "scenario": {"kind": "loop", "n_samples": 5910, "jitter_sigma": 0.05},
        "encoder": {"n_init": 100, "k": 5, "k_iso": 5, "d_out": 2, "init": "smart"},
        "mining": {"t_close": 100.0, "t_far": 290.0, "per_anchor": 1},
        "training": {"epochs": 30, "batch_size": 64, "learning_rate": 1e-3,
                     "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": list(DEFAULT_K_GRID)},
        "seeds": derive_seeds(0),
        "baseline": {"mlp": True},
    }


def _preset_desk() -> dict:
    # Full-scale loop geometry (sized for 8865 samples at 0.2 m) walked with
    # 2000 samples: ~0.89 m spacing keeps the neighbor-recovery problem
    # nontrivial at desk scale.  Mining windows stay at the stock 100 s /
    # 290 s; the lower learning rate and two triplets per anchor were tuned
    # so that training reliably improves both quality metrics from a smart
    # start while the MLP baseline trains to convergence.
    return {
        "scenario": {"kind": "loop", "n_samples": 2000, "geometry_samples": 8865,
                     "jitter_sigma": 0.05},
        "encoder": {"n_init": 100, "k": 5, "k_iso": 5, "d_out": 2, "init": "smart"},
        "mining": {"t_close": 100.0, "t_far": 290.0, "per_anchor": 2},
        "training": {"epochs": 30, "batch_size": 64, "learning_rate": 3e-4,
                     "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": list(DEFAULT_K_GRID)},
        "seeds": derive_seeds(1),
        "baseline": {"mlp": True},
    }


def _preset_tiny() -> dict:
    # Small and fast: 200 samples on a loop sized for 2000 (sparse 2 m
    # spacing), short mining windows to match, three epochs.  Used by the
    # CLI smoke tests and as the chance-level reference scenario.
    return {
        "scenario": {"kind": "loop", "n_samples": 200, "geometry_samples": 2000,
                     "jitter_sigma": 0.05},
        "encoder": {"n_init": 30, "k": 5, "k_iso": 5, "d_out": 2, "init": "random"},
        "mining": {"t_close": 4.0, "t_far": 12.0, "per_anchor": 1},
        "training": {"epochs": 3, "batch_size": 32, "learning_rate": 1e-3,
                     "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": list(DEFAULT_K_GRID)},
        "seeds": derive_seeds(0),
        "baseline": {"mlp": True},
    }


PRESETS = {"default": _preset_default, "desk": _preset_desk, "tiny": _preset_tiny}


def preset(name: str) -> ExperimentConfig:
    """Named built-in experiment; raises ConfigError for unknown names."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return ExperimentConfig.from_dict(builder())
