"""The benchmark's workloads: fixed pipelines of public chanchart calls.

A round runs one workload's pipeline once, timed from its first call to the
end of its last, and then checks the outputs, untimed.  Every pipeline call
and every check is one operation.  A call that raises, a CLI verb that exits
non-zero or writes a JSON error line, and a check that does not hold each
count as one failed operation; none of them aborts the run.

Functions are looked up in their modules at call time (``_mod("trainer")
.train``), so a traced round sees the tracer's wrappers and an untraced
round sees the package as it is.

Workloads (see BENCHMARK.json for the one-line reasons):

* ``desk-mlp`` -- desk scenario, MLP baseline arm trained for 3 epochs.  The
  smart arm's untrained start is built and scored as the reference for
  criterion 7's clause c (untrained smart beats trained MLP).
* ``desk-hybrid`` -- the smart arm exactly as criterion 7 runs it: init,
  evaluate, train for the preset's 30 epochs, evaluate.
* ``full-cli`` -- default scenario with 200 dictionary atoms through
  ``cli.main``: generate, init, train (one epoch), eval and chart, every
  verb reading its inputs back from disk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

WORKLOADS = ("desk-mlp", "desk-hybrid", "full-cli")
DEFAULT_SEEDS = {"desk-mlp": 1, "desk-hybrid": 1, "full-cli": 0}
MLP_EPOCHS = 3
CLI_N_INIT = 200
CLI_EPOCHS = 1
CRITERION7_ROOTS = (1, 2, 3)


def _mod(name: str):
    return sys.modules[f"chanchart.{name}"]


class StepFailed(Exception):
    """A pipeline call failed; the calls that need its result cannot run."""


class Ops:
    """Counts attempted and failed operations, keeping a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{what}: {detail}")

    def call(self, what: str, fn, *args, **kwargs):
        """Run one pipeline call; raise StepFailed if it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, never fatal to the run
            self._fail(what, f"{type(exc).__name__}: {exc}")
            raise StepFailed(what) from exc

    def cli(self, argv: list[str]) -> bool:
        """Run one verb through cli.main; it must exit 0 with no JSON error line."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = _mod("cli").main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments by exiting
            code = exc.code
        except Exception as exc:  # a crashing verb is counted, never fatal to the run
            self._fail(f"cli {argv[0]}", f"{type(exc).__name__}: {exc}")
            return False
        errors = [line for line in err.getvalue().splitlines() if _is_error_line(line)]
        if code != 0 or errors:
            self._fail(f"cli {argv[0]}", f"exit {code}; {'; '.join(errors) or 'no error line'}")
            return False
        return True

    def check(self, what: str, predicate) -> bool:
        """Evaluate one output check; an exception counts as a failed check."""
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a check that cannot be evaluated has failed
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return False
        if not ok:
            self._fail(what, "does not hold")
        return ok


def _is_error_line(line: str) -> bool:
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return isinstance(doc, dict) and "error" in doc


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclasses.dataclass
class Round:
    """What one round measured and produced."""

    start: float = math.nan          # perf_counter at the first pipeline call
    wall_s: float = math.nan
    train_s: float = math.nan
    trained_triplets: int = 0        # triplets per epoch x epochs
    tw_k1: float = math.nan
    ct_k1: float = math.nan
    digests: dict = dataclasses.field(default_factory=dict)


# ---------------------------------------------------------------------------
# configuration (part of set-up, not of the timed pipeline)


@dataclasses.dataclass
class Plan:
    """A workload resolved for one seed: its config and where its files go."""

    workload: str
    seed: int
    cfg: object                      # ExperimentConfig with stage seeds from the root seed
    workdir: Path
    fast: bool = False
    triplets_per_epoch: int = 0
    epochs: int = 0


def _cli_doc(fast: bool) -> dict:
    doc = _mod("config").preset("tiny" if fast else "default").to_dict()
    doc["encoder"]["init"] = "smart"
    if not fast:
        doc["encoder"]["n_init"] = CLI_N_INIT
    doc["training"]["epochs"] = CLI_EPOCHS
    return doc


def resolve(workload: str, seed: int, fast: bool):
    """The workload's ExperimentConfig: presets re-seeded as --seed-override does."""
    config = _mod("config")
    if workload == "full-cli":
        return config.ExperimentConfig.from_dict(_cli_doc(fast)).with_seed_root(seed)
    return config.preset("tiny" if fast else "desk").with_seed_root(seed)


def plan(workload: str, seed: int, fast: bool, workdir: Path) -> Plan:
    cfg = resolve(workload, seed, fast)
    workdir.mkdir(parents=True, exist_ok=True)
    p = Plan(workload, seed, cfg, workdir, fast)
    if workload == "full-cli":
        (workdir / "config.json").write_text(json.dumps(_cli_doc(fast)), encoding="utf-8")
    p.epochs = MLP_EPOCHS if workload == "desk-mlp" else cfg.training.epochs
    # Triplets per epoch, as train mines them: over the train split of the samples.
    n = cfg.scenario["n_samples"]
    trainer, rng = _mod("trainer"), _mod("rng")
    train_idx, _ = trainer.split_dataset(n, cfg.training.split_ratio,
                                         rng.substream(cfg.seeds["training"], 0))
    p.triplets_per_epoch = len(_mod("triplet").mine_triplets(
        int(train_idx.size), cfg.mining_config(cfg.sample_rate())))
    return p


# ---------------------------------------------------------------------------
# the in-process desk pipelines


def _clear(workdir: Path) -> None:
    """Remove the previous round's outputs, so a failed write cannot pass as new."""
    for stale in workdir.glob("*"):
        if stale.name != "config.json":
            stale.unlink()


def _finite_losses(losses: list, epochs: int) -> bool:
    return len(losses) == epochs and all(math.isfinite(x) for x in losses)


def _metrics_csv(reports: list) -> str:
    lines = ["phase,K,K_frac,trustworthiness,continuity"]
    for phase, report in reports:
        for k, frac, tw, ct in report.rows:
            lines.append(f"{phase},{k},{float(frac)!r},{float(tw)!r},{float(ct)!r}")
    return "\n".join(lines) + "\n"


def _same_model(a, b) -> bool:
    if hasattr(a, "weights"):
        return len(a.weights) == len(b.weights) and all(
            np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    return (a.k == b.k and np.array_equal(a.d_re, b.d_re)
            and np.array_equal(a.d_im, b.d_im) and np.array_equal(a.z, b.z))


def desk_round(ops: Ops, p: Plan) -> Round:
    """desk-mlp or desk-hybrid: synthesize, init, train, evaluate, write, read back."""
    synthgen, trainer, encoder = _mod("synthgen"), _mod("trainer"), _mod("encoder")
    evalmetrics, fileio, rng = _mod("evalmetrics"), _mod("fileio"), _mod("rng")
    cfg, e = p.cfg, p.cfg.encoder
    tcfg = dataclasses.replace(cfg.train_config(), epochs=p.epochs)
    paths = {name: p.workdir / name for name in ("model.bin", "metrics.csv", "chart.csv")}
    _clear(p.workdir)
    r = Round()
    smart_eval = report = final = back = model = None
    r.start = time.perf_counter()
    try:
        traj, radio, scat, n = cfg.scenario_objects()
        track = ops.call("generate_trajectory", synthgen.generate_trajectory, traj)
        cs = ops.call("synthesize_channels", synthgen.synthesize_channels,
                      track, radio, scat, sample_rate=traj.sample_rate)
        _, eval_idx = ops.call("split_dataset", trainer.split_dataset, n,
                               cfg.training.split_ratio,
                               rng.substream(cfg.seeds["training"], 0))
        mining = cfg.mining_config(cs.sample_rate)
        smart = ops.call("init_smart", encoder.init_smart, cs, e.n_init, e.k_iso, e.k,
                         e.d_out, cfg.seeds["init"])
        smart_eval = ops.call("evaluate untrained", evalmetrics.evaluate,
                              smart, cs, eval_idx, cfg.k_grid)
        if p.workload == "desk-mlp":
            model = ops.call("mlp_init", encoder.mlp_init, radio.m, cfg.seeds["init"],
                             d_out=e.d_out)
        else:
            model = smart
        t_train = time.perf_counter()
        report = ops.call("train", trainer.train, model, cs, tcfg, mining)
        r.train_s = time.perf_counter() - t_train
        final = ops.call("evaluate trained", evalmetrics.evaluate,
                         model, cs, eval_idx, cfg.k_grid)
        chart, _ = ops.call("chart_batch", encoder.chart_batch, model, cs.channels)
        ops.call("write metrics", fileio.write_text, paths["metrics.csv"], _metrics_csv(
            [("smart untrained", smart_eval), ("trained", final)]))
        ops.call("write chart", fileio.write_text, paths["chart.csv"],
                 fileio.chart_csv(chart, cs.positions))
        ops.call("write_model", fileio.write_model, paths["model.bin"], model)
        back = ops.call("read_model", fileio.read_model, paths["model.bin"])
    except StepFailed:
        pass
    r.wall_s = time.perf_counter() - r.start

    r.trained_triplets = p.triplets_per_epoch * p.epochs if report else 0
    if final is not None:
        _, _, r.tw_k1, r.ct_k1 = final.rows[0]
    losses = report.epoch_losses if report else []
    ops.check("epoch losses are finite", lambda: _finite_losses(losses, p.epochs))
    ops.check("TW/CT lie in [0, 1]", lambda: all(
        0.0 <= v <= 1.0 for rep in (smart_eval, final) for row in rep.rows for v in row[2:]))
    ops.check("model file reads back bit-exactly", lambda: _same_model(model, back))
    # Criterion 7's clauses are claims about the desk scenario, not about tiny.
    untrained = smart_eval.rows[0] if smart_eval else None
    if p.workload == "desk-hybrid" and not p.fast:
        ops.check("criterion 7a: last-epoch loss below first",
                  lambda: losses[-1] < losses[0])
        if p.seed in CRITERION7_ROOTS:
            # Training does not raise K=1% quality on every seed (root 5 loses
            # TW); criterion 7 claims it for its three roots only.
            ops.check("criterion 7b: trained TW and CT beat untrained",
                      lambda: r.tw_k1 > untrained[2] and r.ct_k1 > untrained[3])
    elif p.workload == "desk-mlp" and not p.fast:
        ops.check("criterion 7c: untrained smart TW and CT beat trained MLP",
                  lambda: untrained[2] > r.tw_k1 and untrained[3] > r.ct_k1)
    r.digests = {name: sha256_file(path) for name, path in paths.items() if path.exists()}
    return r


# ---------------------------------------------------------------------------
# the CLI pipeline


def cli_verbs(p: Plan) -> list[list[str]]:
    """The full-cli verbs in order; each reads what the previous ones wrote."""
    w = p.workdir
    common = ["--config", str(w / "config.json"), "--seed-override", str(p.seed)]
    data = str(w / "data.ccd")
    return [
        ["generate", *common, "--out", data],
        ["init", *common, "--data", data, "--out", str(w / "model_init.bin")],
        ["train", *common, "--data", data, "--model-in", str(w / "model_init.bin"),
         "--out", str(w / "model.bin"), "--loss-csv", str(w / "loss.csv")],
        ["eval", *common, "--data", data, "--model", str(w / "model.bin"),
         "--out", str(w / "metrics.csv")],
        ["chart", *common, "--data", data, "--model", str(w / "model.bin"),
         "--out", str(w / "chart")],
    ]


def run_verbs(ops: Ops, verbs: list[list[str]]) -> dict:
    """Run every verb, even after one fails; returns verb -> wall seconds."""
    times = {}
    for argv in verbs:
        t0 = time.perf_counter()
        ops.cli(argv)
        times[argv[0]] = time.perf_counter() - t0
    return times


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def cli_round(ops: Ops, p: Plan) -> Round:
    """full-cli: generate, init, train, eval, chart through cli.main."""
    w = p.workdir
    _clear(w)
    r = Round()
    r.start = time.perf_counter()
    times = run_verbs(ops, cli_verbs(p))
    r.wall_s = time.perf_counter() - r.start
    r.train_s = times["train"]
    r.trained_triplets = p.triplets_per_epoch * p.epochs

    ops.check("epoch losses are finite", lambda: _finite_losses(
        [float(row[1]) for row in _csv_rows(w / "loss.csv")], p.epochs))
    ops.check("TW/CT lie in [0, 1]", lambda: all(
        0.0 <= float(v) <= 1.0 for row in _csv_rows(w / "metrics.csv") for v in row[2:]))
    try:
        _, _, tw, ct = _csv_rows(w / "metrics.csv")[0]
        r.tw_k1, r.ct_k1 = float(tw), float(ct)
    except (OSError, ValueError):
        pass
    names = ("model_init.bin", "model.bin", "metrics.csv", "chart.csv")
    r.digests = {name: sha256_file(w / name) for name in names if (w / name).exists()}
    (w / "data.ccd").unlink(missing_ok=True)
    return r


def run_round(ops: Ops, p: Plan) -> Round:
    return cli_round(ops, p) if p.workload == "full-cli" else desk_round(ops, p)
