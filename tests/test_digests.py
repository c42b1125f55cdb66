"""Byte ledger: the sha256 of every file the CLI writes on the tiny preset.

``digests.json`` holds the digests of ``compare --preset tiny``, of
``show-config`` for every preset, and of the file verbs on ``tiny``
(``generate``; ``init`` with the preset's random init and with a smart init;
``train --loss-csv``, ``eval`` and ``chart`` on each model).  A change that
keeps every byte passes with the ledger as it is.  A change that alters bytes
commits the new ledger, which the failure message prints, and says why.

The bytes depend on the numpy build and the BLAS kernels, so the ledger
records the fingerprint of the machine it was written on.  Elsewhere the
ledger check is skipped and names both fingerprints; the thread-count check
runs everywhere.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import chanchart
from chanchart.cli import main
from chanchart.config import PRESETS, preset

LEDGER = os.path.join(os.path.dirname(__file__), "digests.json")


def _fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def _digests(root) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def _write_artifacts(out) -> None:
    """Runs every ledger verb, writing its files under `out`."""
    for d in ("show-config", "random", "smart"):
        (out / d).mkdir(parents=True)
    _run("compare", "--preset", "tiny", "--out", out / "compare")
    for name in sorted(PRESETS):
        _run("show-config", "--preset", name, "--out", out / "show-config" / f"{name}.json")
    data = out / "tiny.bin"
    _run("generate", "--preset", "tiny", "--out", data)
    doc = preset("tiny").to_dict()
    doc["encoder"]["init"] = "smart"
    smart = out.parent / "smart.json"
    smart.write_text(json.dumps(doc), encoding="utf-8")
    for arm, source in (("random", ["--preset", "tiny"]), ("smart", ["--config", smart])):
        d = out / arm
        common = [*source, "--data", data]
        _run("init", *common, "--out", d / "init.bin")
        _run("train", *common, "--model-in", d / "init.bin", "--out", d / "trained.bin",
             "--loss-csv", d / "loss.csv")
        _run("eval", *common, "--model", d / "trained.bin", "--out", d / "metrics.csv")
        _run("chart", *common, "--model", d / "trained.bin", "--out", d / "chart")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "out"
    _write_artifacts(out)
    return out


def test_artifact_bytes_match_the_ledger(artifacts):
    with open(LEDGER, encoding="utf-8") as f:
        ledger = json.load(f)
    here = _fingerprint()
    if ledger["fingerprint"] != here:
        pytest.skip(f"ledger written with {ledger['fingerprint']}, this machine is {here}")
    got = _digests(artifacts)
    differ = sorted(name for name in got.keys() | ledger["files"].keys()
                    if got.get(name) != ledger["files"].get(name))
    new_ledger = json.dumps({"fingerprint": here, "files": got}, indent=1)
    assert not differ, f"files that differ from the ledger: {differ}\nnew ledger:\n{new_ledger}"


def test_compare_bytes_do_not_depend_on_blas_threads(artifacts, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(chanchart.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-m", "chanchart.cli", "compare", "--preset", "tiny",
                          "--out", str(tmp_path / "compare")], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    single = _digests(tmp_path / "compare")
    assert len(single) == 13
    assert single == _digests(artifacts / "compare")
