"""Pipeline driver: generate -> init -> train -> eval -> chart, plus compare.

Every verb takes the experiment description either from a JSON file
(``--config``) or a built-in preset (``--preset default|desk|tiny``), and an
optional ``--seed-override R`` that re-derives all stage seeds from the root
seed R.  Outputs are deterministic functions of (config, seeds): rerunning a
verb with identical inputs produces byte-identical files.

Exit codes: 0 success; 2 malformed config or invalid values (including a
run that cannot allocate its arrays); 3 dimension mismatch between config,
dataset, and model; 4 I/O or file-format failure; 5 a well-formed dataset
that the pipeline cannot compute on (zero channels, too few samples or
triplets).  On failure, the last stderr line is machine-readable JSON:
``{"error": "<category>", "detail": "<message>"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import encoder, evalmetrics, fileio, synthgen
from .config import ConfigError, ExperimentConfig, preset
from .metricspace import DataError
from .rng import substream
from .trainer import split_dataset, train

EXIT_CONFIG = 2
EXIT_DIMENSION = 3
EXIT_IO = 4
EXIT_DATA = 5


class DimensionError(ValueError):
    """Config, dataset, and model dimensions disagree."""


def _check_m(model, m: int) -> None:
    if model.m != m:
        raise DimensionError(f"model expects M={model.m} channel entries, dataset has M={m}")


def _check_2d(d_out: int) -> None:
    if d_out != 2:
        raise DimensionError(f"chart export needs a 2-D chart, model has d_out={d_out}")


@contextlib.contextmanager
def _dataset(cfg: ExperimentConfig, data_path: str, check):
    """The dataset as a ChannelSet whose channels are read from the file by index.

    Every verb that reads a dataset opens it here.  The channels are a
    fileio.RowReader: ``check(n, m)`` runs before any channel row is read,
    every row is then checked for non-finite values, and a verb holds only
    the rows it gathers.
    """
    with fileio.RowReader(data_path, check) as data:
        yield synthgen.ChannelSet(channels=data, positions=data.positions,
                                  sample_rate=cfg.sample_rate())


def _split(cfg: ExperimentConfig, n: int):
    """The train/held-out index split implied by the training seed."""
    return split_dataset(n, cfg.training.split_ratio, substream(cfg.seeds["training"], 0))


# ---------------------------------------------------------------------------
# verbs


def _scenario(cfg: ExperimentConfig):
    """The scenario's track, radio, scatterers and sampling rate."""
    traj, radio, scat, _ = cfg.scenario_objects()
    return synthgen.generate_trajectory(traj), radio, scat, traj.sample_rate


def cmd_generate(cfg: ExperimentConfig, out_path: str) -> int:
    # each 512-row synthesis block is written as it is computed
    track, radio, scat, _ = _scenario(cfg)
    fileio.write_dataset_blocks(out_path, track, radio.m,
                                synthgen.channel_blocks(track, radio, scat))
    print(f"generate: wrote {out_path} with N={track.shape[0]} samples, "
          f"M={radio.m} channel entries")
    return 0


def _init_model(cfg: ExperimentConfig, cs, kind: str):
    """A fresh encoder of kind smart, random (hybrid) or mlp."""
    e, seed, m = cfg.encoder, cfg.seeds["init"], cs.channels.shape[1]
    if kind == "smart":
        return encoder.init_smart(cs, e.n_init, e.k_iso, e.k, e.d_out, seed)
    if kind == "random":
        return encoder.init_random(m, e.n_init, e.k, e.d_out, seed)
    return encoder.mlp_init(m, seed, d_out=e.d_out)


def _check_encoder_fits(cfg: ExperimentConfig, n: int, smart: bool) -> None:
    """k must fit in the dictionary; a smart one must exceed k_iso, hold d_out atoms, fit in n."""
    e = cfg.encoder
    if e.k > e.n_init:
        raise DimensionError(f"encoder.k={e.k} exceeds n_init={e.n_init}")
    if smart and e.k_iso >= e.n_init:
        raise DimensionError(f"encoder.k_iso={e.k_iso} must be below n_init={e.n_init}")
    if smart and e.d_out > e.n_init:
        raise DimensionError(f"encoder.d_out={e.d_out} exceeds n_init={e.n_init}")
    if smart and e.n_init > n:
        raise DimensionError(f"encoder.n_init={e.n_init} exceeds dataset size {n}")


def cmd_init(cfg: ExperimentConfig, data_path: str, out_path: str) -> int:
    # a smart init reads only its dictionary atoms, the others no channel row
    e = cfg.encoder
    with _dataset(cfg, data_path,
                  lambda n, m: _check_encoder_fits(cfg, n, e.init == "smart")) as cs:
        model = _init_model(cfg, cs, e.init)
    fileio.write_model(out_path, model)
    print(f"init: wrote {out_path} ({e.init} init, "
          f"{encoder.count_params(model)} parameters)")
    return 0


def cmd_train(cfg: ExperimentConfig, data_path: str, model_in: str,
              model_out: str, loss_path: str | None) -> int:
    # each step reads its batch's rows; train takes the training split itself
    model = fileio.read_model(model_in)
    with _dataset(cfg, data_path, lambda n, m: _check_m(model, m)) as cs:
        report = train(model, cs, cfg.train_config(), cfg.mining_config(cs.sample_rate))
    fileio.write_model(model_out, model)
    if loss_path is not None:
        fileio.write_text(loss_path, fileio.loss_csv(report.epoch_losses))
    print(f"train: {len(report.epoch_losses)} epochs, mean loss "
          f"{report.epoch_losses[0]:.6f} -> {report.epoch_losses[-1]:.6f}, "
          f"wrote {model_out}")
    return 0


def cmd_eval(cfg: ExperimentConfig, data_path: str, model_path: str,
             out_path: str) -> int:
    # each chart block's rows are read as it is charted
    model = fileio.read_model(model_path)
    with _dataset(cfg, data_path, lambda n, m: _check_m(model, m)) as cs:
        _, held_out = _split(cfg, cs.positions.shape[0])
        report = evalmetrics.evaluate(model, cs, held_out, cfg.k_grid)
    fileio.write_text(out_path, report.to_csv())
    k, frac, tw, ct = report.rows[0]
    print(f"eval: {report.n_eval} held-out samples, TW@{frac:g}={tw:.4f} "
          f"CT@{frac:g}={ct:.4f} (K={k}), wrote {out_path}")
    return 0


def cmd_chart(cfg: ExperimentConfig, data_path: str, model_path: str,
              out_base: str) -> int:
    # each chart block's rows are read as it is charted
    model = fileio.read_model(model_path)
    _check_2d(model.d_out)
    with _dataset(cfg, data_path, lambda n, m: _check_m(model, m)) as cs:
        chart, ok = encoder.chart_batch(model, cs.channels)
    csv_path, svg_path = out_base + ".csv", out_base + ".svg"
    fileio.write_text(csv_path, fileio.chart_csv(chart, cs.positions))
    fileio.write_text(svg_path, fileio.chart_svg(chart))
    skipped = int(chart.shape[0] - np.count_nonzero(ok))
    note = f" ({skipped} degenerate samples charted at origin)" if skipped else ""
    print(f"chart: wrote {csv_path} and {svg_path}{note}")
    return 0


def cmd_compare(cfg: ExperimentConfig, out_dir: str) -> int:
    _check_2d(cfg.encoder.d_out)  # every arm's chart is exported
    n = cfg.scenario_objects()[0].n_samples
    _check_encoder_fits(cfg, n, smart=True)  # compare always runs the smart arm
    track, radio, scat, rate = _scenario(cfg)
    cs = synthgen.synthesize_channels(track, radio, scat, sample_rate=rate)
    os.makedirs(out_dir, exist_ok=True)
    _, eval_idx = _split(cfg, n)
    mining = cfg.mining_config(cs.sample_rate)

    lines = ["arm,phase,K,K_frac,trustworthiness,continuity"]
    for name in ("smart", "random", "mlp") if cfg.baseline_mlp else ("smart", "random"):
        model = _init_model(cfg, cs, name)
        for phase in ("untrained", "trained"):
            if phase == "trained":
                report = train(model, cs, cfg.train_config(), mining)
                fileio.write_text(os.path.join(out_dir, f"loss_{name}.csv"),
                                  fileio.loss_csv(report.epoch_losses))
            metrics = evalmetrics.evaluate(model, cs, eval_idx, cfg.k_grid)
            lines += [f"{name},{phase},{row}" for row in metrics.to_csv().splitlines()[1:]]
            k, frac, tw, ct = metrics.rows[0]
            print(f"compare[{name}] {phase}: TW@{frac:g}={tw:.4f} CT@{frac:g}={ct:.4f}")
        fileio.write_model(os.path.join(out_dir, f"model_{name}.bin"), model)
        chart, _ = encoder.chart_batch(model, cs.channels)
        fileio.write_text(os.path.join(out_dir, f"chart_{name}.csv"),
                          fileio.chart_csv(chart, np.asarray(cs.positions)))
        fileio.write_text(os.path.join(out_dir, f"chart_{name}.svg"),
                          fileio.chart_svg(chart))
    fileio.write_text(os.path.join(out_dir, "metrics.csv"), "\n".join(lines) + "\n")
    print(f"compare: wrote {os.path.join(out_dir, 'metrics.csv')}")
    return 0


def cmd_show_config(cfg: ExperimentConfig, out_path: str | None) -> int:
    text = json.dumps(cfg.to_dict(), indent=2) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        fileio.write_text(out_path, text)
        print(f"show-config: wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing; each verb's parser names the function that runs it


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="experiment config JSON file")
    group.add_argument("--preset", metavar="NAME", dest="preset_name",
                       help="built-in experiment: default, desk, or tiny")
    common.add_argument("--seed-override", type=int, metavar="R", default=None,
                        help="re-derive all stage seeds from root seed R")

    parser = argparse.ArgumentParser(
        prog="chanchart",
        description="Unsupervised channel charting pipeline on synthetic MIMO channels.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", parents=[common], help="synthesize a channel dataset")
    p.add_argument("--out", required=True, metavar="DATA", help="dataset file to write")
    p.set_defaults(run=lambda cfg, a: cmd_generate(cfg, a.out))

    p = sub.add_parser("init", parents=[common], help="initialize an encoder model")
    p.add_argument("--data", required=True, metavar="DATA", help="dataset file")
    p.add_argument("--out", required=True, metavar="MODEL", help="model file to write")
    p.set_defaults(run=lambda cfg, a: cmd_init(cfg, a.data, a.out))

    p = sub.add_parser("train", parents=[common], help="train a model on mined triplets")
    p.add_argument("--data", required=True, metavar="DATA", help="dataset file")
    p.add_argument("--model-in", required=True, metavar="MODEL", help="initial model file")
    p.add_argument("--out", required=True, metavar="MODEL", help="trained model file to write")
    p.add_argument("--loss-csv", default=None, metavar="CSV",
                   help="optional per-epoch mean loss CSV")
    p.set_defaults(run=lambda cfg, a: cmd_train(cfg, a.data, a.model_in, a.out, a.loss_csv))

    p = sub.add_parser("eval", parents=[common],
                       help="score a model on the held-out split")
    p.add_argument("--data", required=True, metavar="DATA", help="dataset file")
    p.add_argument("--model", required=True, metavar="MODEL", help="model file")
    p.add_argument("--out", required=True, metavar="CSV", help="metrics CSV to write")
    p.set_defaults(run=lambda cfg, a: cmd_eval(cfg, a.data, a.model, a.out))

    p = sub.add_parser("chart", parents=[common],
                       help="export chart coordinates as CSV and SVG")
    p.add_argument("--data", required=True, metavar="DATA", help="dataset file")
    p.add_argument("--model", required=True, metavar="MODEL", help="model file")
    p.add_argument("--out", required=True, metavar="BASE",
                   help="output base path; writes BASE.csv and BASE.svg")
    p.set_defaults(run=lambda cfg, a: cmd_chart(cfg, a.data, a.model, a.out))

    p = sub.add_parser("compare", parents=[common],
                       help="run smart/random/mlp arms end-to-end on shared data")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.set_defaults(run=lambda cfg, a: cmd_compare(cfg, a.out))

    p = sub.add_parser("show-config", parents=[common],
                       help="print or write the resolved config JSON")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write here instead of stdout ('-' for stdout)")
    p.set_defaults(run=lambda cfg, a: cmd_show_config(cfg, a.out))

    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.preset_name is not None:
        cfg = preset(args.preset_name)
    else:
        cfg = ExperimentConfig.from_file(args.config)
    if args.seed_override is not None:
        cfg = cfg.with_seed_root(args.seed_override)
    return cfg


def _fail(category: str, detail: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": category, "detail": detail}) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_resolve_config(args), args)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except fileio.FileFormatError as exc:
        return _fail("format", str(exc), EXIT_IO)
    except DimensionError as exc:
        return _fail("dimension", str(exc), EXIT_DIMENSION)
    except DataError as exc:
        return _fail("data", str(exc), EXIT_DATA)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)
    except (ValueError, MemoryError) as exc:  # MemoryError: a config sized past memory
        return _fail("config", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
