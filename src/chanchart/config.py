"""Experiment configuration: strict JSON schema, presets, seed derivation.

An experiment is described by a JSON document with seven sections --
``scenario``, ``encoder``, ``mining``, ``training``, ``eval``, ``seeds``,
``baseline``.  Parsing is strict: unknown keys anywhere in the document are
rejected, as are values of the wrong type, so a typo fails loudly instead of
silently falling back to a default.

Every section that builds a runtime dataclass is parsed by one function,
``_section``, over that dataclass's fields: ``encoder`` (EncoderSettings),
``mining`` (MiningConfig), ``training`` (TrainConfig), and the explicit
scenario's ``trajectory`` (TrajectoryConfig), ``radio`` (RadioConfig) and
``scatterers`` (ScattererSet).  A section's keys, defaults and range checks
live in its dataclass alone.

Scenario kinds:

* ``loop`` -- rectangular loop sized for ``geometry_samples`` points at
  0.2 m spacing, walked with ``n_samples`` equally spaced samples.  With
  ``geometry_samples == n_samples`` this is the stock scenario (0.2 m steps
  at 7 samples/s); a larger ``geometry_samples`` keeps the full-size
  geometry while sampling it more sparsely.
* ``explicit`` -- trajectory waypoints, radio parameters, and scatterers
  spelled out in full.

The scenario objects are built once, while the document is parsed, so a
scenario that cannot be sampled, or a loop whose sampled path does not hold
``n_samples`` samples, fails there; ``scenario_objects()`` returns those
objects.

Seeds are per stage (``trajectory``, ``init``, ``mining``, ``training``).
``derive_seeds(root)`` expands one root seed into the four stage seeds via
independent substreams, which is what the CLI's ``--seed-override`` uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

from .evalmetrics import DEFAULT_K_GRID
from .rng import substream
from .synthgen import RadioConfig, ScattererSet, TrajectoryConfig, loop_scenario
from .trainer import TrainConfig, train_size
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
    # json accepts NaN, Infinity and integers past the float range; no field takes them
    try:
        ok = not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _as_seed(v, where: str) -> int:
    # SplitMix64 reduces its seed mod 2^64: a seed outside [0, 2^64) would
    # name the same stream as one inside it
    seed = _as_int(v, where)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where}: seed must lie in [0, 2^64), got {seed}")
    return seed


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected true/false, got {v!r}")
    return v


def _as_str(v, where: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{where}: expected a string, got {v!r}")
    return v


def _as_floats(v, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a non-empty list of numbers")
    return [_as_float(x, f"{where}[{i}]") for i, x in enumerate(v)]


def _as_point(v, dim: int, where: str) -> list:
    if not isinstance(v, list) or len(v) != dim:
        raise ConfigError(f"{where}: expected a {dim}-element list")
    return [_as_float(x, f"{where}[{j}]") for j, x in enumerate(v)]


def _as_points(v, dim: int, where: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: expected a non-empty list of points")
    return [_as_point(p, dim, f"{where}[{i}]") for i, p in enumerate(v)]


def _as_count(v, where: str) -> int:
    # a sample count past 2^53 no longer converts to a float exactly
    n = _as_int(v, where)
    if not 2 <= n <= 2**53:
        raise ConfigError(f"{where} must lie in [2, 2^53]")
    return n


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
        for name in ("n_init", "k", "k_iso", "d_out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.init not in ("smart", "random"):
            raise ValueError(f"init must be 'smart' or 'random', got {self.init!r}")


# Fields that no encoder, mining or training section sets: stage seeds come
# from the seeds section, and the sampling rate from the scenario.
_DERIVED = ("seed", "sample_rate")
# Each field is type-checked by its annotation, or, for the list and tuple
# fields, by its name.
_PARSE = {"int": _as_int, "float": _as_float, "str": _as_str,
          "float | None": lambda v, where: None if v is None else _as_float(v, where)}
_LISTS = {"waypoints": lambda v, where: _as_points(v, 2, where),
          "points": lambda v, where: _as_points(v, 3, where),
          "bs_position": lambda v, where: tuple(_as_point(v, 3, where)),
          "gains": _as_floats}


def _section_dict(obj, derived=_DERIVED) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in derived}


def _section(d: dict, cls, where: str, required=(), **derived):
    """Build the dataclass ``cls`` from one section; absent keys keep the field defaults.

    Unknown keys are rejected, as are absent ``required`` ones; the fields
    given in ``derived`` come from elsewhere in the document.  The
    dataclass's own range checks raise ValueError, reported here as
    ConfigError by one rule: a message that starts with "<field> must" is
    reported on the dotted key (``training.eps must be > 0``), any other on
    the section (``scenario.trajectory: need at least two waypoints``).
    """
    types = {f.name: f.type for f in fields(cls) if f.name not in derived}
    _check_keys(d, set(types), set(required), where)
    kw = {key: (_LISTS.get(key) or _PARSE[types[key]])(v, f"{where}.{key}")
          for key, v in d.items()}
    try:
        return cls(**kw, **derived)
    except ValueError as exc:
        sep = "." if str(exc).partition(" must")[0] in types else ": "
        raise ConfigError(f"{where}{sep}{exc}") from exc


def _parse_scenario(d: dict, seed: int):
    """The scenario section, resolved, and its (TrajectoryConfig, RadioConfig,
    ScattererSet, n_samples or None); ``seed`` seeds the trajectory."""
    if not isinstance(d, dict):
        raise ConfigError("scenario: expected an object")
    kind = _as_str(d.get("kind", "loop"), "scenario.kind")
    if kind == "loop":
        _check_keys(d, {"kind", "n_samples", "geometry_samples", "jitter_sigma"},
                    {"n_samples"}, "scenario")
        n = _as_count(d["n_samples"], "scenario.n_samples")
        geo = _as_count(d.get("geometry_samples", n), "scenario.geometry_samples")
        jitter = _as_float(d.get("jitter_sigma", 0.05), "scenario.jitter_sigma")
        if jitter < 0.0:
            raise ConfigError("scenario.jitter_sigma must be >= 0")
        sc = {"kind": "loop", "n_samples": n, "geometry_samples": geo, "jitter_sigma": jitter}
        traj, radio, scat = loop_scenario(n, seed, jitter, geo)
        if traj.n_samples != n:  # the sampled path can fall one short in float64
            raise ConfigError(f"scenario.n_samples: the loop's sampled path holds "
                              f"{traj.n_samples} samples, not {n}")
        return sc, (traj, radio, scat, n)
    if kind != "explicit":
        raise ConfigError(f"scenario.kind: expected 'loop' or 'explicit', got {kind!r}")
    _check_keys(d, {"kind", "trajectory", "radio", "scatterers"},
                {"trajectory", "radio", "scatterers"}, "scenario")
    traj = _section(d["trajectory"], TrajectoryConfig, "scenario.trajectory",
                    ("waypoints", "speed", "sample_rate"), seed=seed)
    radio = _section(d["radio"], RadioConfig, "scenario.radio")
    scat = _section(d["scatterers"], ScattererSet, "scenario.scatterers", ("points", "gains"))
    # the radio keeps only the keys the document gives, and a null
    # antenna_spacing (half a wavelength) stays null
    sc = {"kind": "explicit", "trajectory": _section_dict(traj, ("seed",)),
          "radio": {key: v if v is None else getattr(radio, key)
                    for key, v in d["radio"].items()},
          "scatterers": _section_dict(scat)}
    return sc, (traj, radio, scat, None)


# ---------------------------------------------------------------------------
# the document


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment description.

    ``training`` and ``mining`` carry their stage seeds, and ``mining`` the
    scenario's sampling rate.
    """

    scenario: dict
    encoder: EncoderSettings
    mining: MiningConfig
    training: TrainConfig
    k_grid: tuple
    seeds: dict
    baseline_mlp: bool
    _objects: tuple = field(repr=False, compare=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        _check_keys(doc, {"scenario", "encoder", "mining", "training", "eval", "seeds",
                          "baseline"}, {"scenario"}, "config")
        sd = doc.get("seeds", derive_seeds(0))
        _check_keys(sd, set(STAGES), set(STAGES), "seeds")
        seeds = {stage: _as_seed(sd[stage], f"seeds.{stage}") for stage in STAGES}

        scenario, objects = _parse_scenario(doc["scenario"], seeds["trajectory"])
        traj = objects[0]
        encoder = _section(doc.get("encoder", {}), EncoderSettings, "encoder")
        rate = traj.sample_rate
        mining = _section(doc.get("mining", {}), MiningConfig, "mining",
                          sample_rate=rate, seed=seeds["mining"])
        if not (math.isfinite(mining.t_far * rate) and 1 <= mining.s_close < mining.s_far):
            raise ConfigError(f"mining.t_close/t_far: at {rate!r} samples/s the windows "
                              "must round to 1 <= S_close < S_far samples")
        training = _section(doc.get("training", {}), TrainConfig, "training",
                            seed=seeds["training"])
        if training.epochs < 1:  # TrainConfig itself allows 0 epochs, a no-op
            raise ConfigError("training.epochs must be >= 1")
        # an anchor has a far candidate only if the split spans S_close + 2 samples
        n_train = train_size(traj.n_samples, training.split_ratio)
        if n_train < mining.s_close + 2:
            raise ConfigError(f"mining.t_close: S_close = {mining.s_close} samples needs a "
                              f"training split of at least {mining.s_close + 2} samples, "
                              f"and the scenario's split holds {n_train}")

        ev = doc.get("eval", {})
        _check_keys(ev, {"k_grid"}, set(), "eval")
        k_grid = tuple(_as_floats(ev.get("k_grid", list(DEFAULT_K_GRID)), "eval.k_grid"))
        for g in k_grid:  # K = round(g * n) must not exceed (2n - 2) // 3
            if not (0.0 < g < 2.0 / 3.0):
                raise ConfigError(f"eval.k_grid: fraction {g!r} outside (0, 2/3)")

        ba = doc.get("baseline", {})
        _check_keys(ba, {"mlp"}, set(), "baseline")
        baseline_mlp = _as_bool(ba.get("mlp", True), "baseline.mlp")

        return ExperimentConfig(scenario=scenario, encoder=encoder, mining=mining,
                                training=training, k_grid=k_grid, seeds=seeds,
                                baseline_mlp=baseline_mlp, _objects=objects)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        def unique(pairs: list) -> dict:  # a repeated key would silently win
            obj = {}
            for key, value in pairs:
                if key in obj:
                    raise ConfigError(f"{path}: duplicate key {key!r}")
                obj[key] = value
            return obj

        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_pairs_hook=unique)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return ExperimentConfig.from_dict(doc)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "scenario": json.loads(json.dumps(self.scenario)),
            "encoder": _section_dict(self.encoder),
            "mining": _section_dict(self.mining),
            "training": _section_dict(self.training),
            "eval": {"k_grid": list(self.k_grid)},
            "seeds": dict(self.seeds),
            "baseline": {"mlp": self.baseline_mlp},
        }

    def with_seed_root(self, root: int) -> "ExperimentConfig":
        """Copy of this config with all stage seeds re-derived from one root.

        The root must lie in [0, 2^64), like every stage seed; otherwise
        ConfigError.
        """
        doc = self.to_dict()
        doc["seeds"] = derive_seeds(_as_seed(root, "seed root"))
        return ExperimentConfig.from_dict(doc)

    # -- realization -------------------------------------------------------

    def scenario_objects(self):
        """The (TrajectoryConfig, RadioConfig, ScattererSet, n_samples) built at
        parse time, the same objects on every call; n_samples is None for an
        explicit scenario."""
        return self._objects

    def sample_rate(self) -> float:
        """The sampling rate implied by the scenario, samples per second."""
        return self.mining.sample_rate

    def mining_config(self, sample_rate: float) -> MiningConfig:
        return replace(self.mining, sample_rate=sample_rate)

    def train_config(self) -> TrainConfig:
        return replace(self.training)


# ---------------------------------------------------------------------------
# presets: each gives its scenario and only the values that differ from the
# section defaults, which are the full-size ``default`` experiment's values;
# preset() only reads them, and a resolved config shares no part of them


PRESETS = {
    "default": {"scenario": {"kind": "loop", "n_samples": 5910, "jitter_sigma": 0.05}},
    # Full-scale loop geometry (sized for 8865 samples at 0.2 m) walked with
    # 2000 samples: ~0.89 m spacing keeps the neighbor-recovery problem
    # nontrivial at desk scale.  Mining windows stay at the stock 100 s /
    # 290 s; the lower learning rate and two triplets per anchor were tuned
    # so that training reliably improves both quality metrics from a smart
    # start while the MLP baseline trains to convergence.
    "desk": {
        "scenario": {"kind": "loop", "n_samples": 2000, "geometry_samples": 8865,
                     "jitter_sigma": 0.05},
        "mining": {"per_anchor": 2},
        "training": {"learning_rate": 3e-4},
        "seeds": derive_seeds(1),
    },
    # Small and fast: 200 samples on a loop sized for 2000 (sparse 2 m
    # spacing), short mining windows to match, three epochs.  Used by the
    # CLI smoke tests and as the chance-level reference scenario.
    "tiny": {
        "scenario": {"kind": "loop", "n_samples": 200, "geometry_samples": 2000,
                     "jitter_sigma": 0.05},
        "encoder": {"n_init": 30, "init": "random"},
        "mining": {"t_close": 4.0, "t_far": 12.0},
        "training": {"epochs": 3, "batch_size": 32},
    },
}


def preset(name: str) -> ExperimentConfig:
    """Named built-in experiment; raises ConfigError for unknown names."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return ExperimentConfig.from_dict(PRESETS[name])
