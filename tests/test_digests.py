"""Byte ledger: the sha256 of every file the CLI writes on the tiny preset.

``digests.json`` holds the digests of ``compare --preset tiny``, of
``show-config`` for every preset, and of the file verbs (``generate``;
``init`` with a random and with a smart init; ``train --loss-csv``, ``eval``
and ``chart`` on each model) on ``tiny`` and on ``tiny`` with 1,200 samples.
A change that keeps every byte passes with the ledger as it is.  A change
that alters bytes commits the new ledger, which the failure message prints,
and says why.

The bytes depend on the numpy build and the BLAS kernels, so the ledger
records the fingerprint of the machine it was written on.  Elsewhere the
ledger check is skipped and names both fingerprints.  The thread-count check
runs everywhere: it runs ``compare`` on ``tiny``, on ``tiny`` with 100
atoms and on ``tiny`` with 1,200 samples, at one and at two BLAS threads and
requires the same files.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys

import pytest

import chanchart
from chanchart.cli import main
from chanchart.config import PRESETS, preset
from helpers import LEDGER, fingerprint


def _digests(root) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def _file_verbs(out, doc, configs) -> None:
    """Runs generate, then init, train --loss-csv, eval and chart with a
    random and a smart init of `doc`, writing under `out`; each arm's config
    is written to the directory `configs`."""
    data = out / "tiny.bin"
    for arm in ("random", "smart"):
        (out / arm).mkdir(parents=True)
        arm_doc = copy.deepcopy(doc)
        arm_doc["encoder"]["init"] = arm
        config = configs / f"{out.name}-{arm}.json"
        config.write_text(json.dumps(arm_doc), encoding="utf-8")
        if arm == "random":
            _run("generate", "--config", config, "--out", data)
        d = out / arm
        common = ["--config", config, "--data", data]
        _run("init", *common, "--out", d / "init.bin")
        _run("train", *common, "--model-in", d / "init.bin", "--out", d / "trained.bin",
             "--loss-csv", d / "loss.csv")
        _run("eval", *common, "--model", d / "trained.bin", "--out", d / "metrics.csv")
        _run("chart", *common, "--model", d / "trained.bin", "--out", d / "chart")


def _write_artifacts(out) -> None:
    """Runs every ledger verb, writing its files under `out`."""
    (out / "show-config").mkdir(parents=True)
    _run("compare", "--preset", "tiny", "--out", out / "compare")
    for name in sorted(PRESETS):
        _run("show-config", "--preset", name, "--out", out / "show-config" / f"{name}.json")
    doc = preset("tiny").to_dict()
    _file_verbs(out, doc, out.parent)
    # 1,200 samples: chart charts four 256-row blocks and one of 176 rows,
    # eval one of 256 and one of 104
    doc["scenario"]["n_samples"] = 1200
    _file_verbs(out / "n1200", doc, out.parent)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "out"
    _write_artifacts(out)
    return out


def test_artifact_bytes_match_the_ledger(artifacts):
    with open(LEDGER, encoding="utf-8") as f:
        ledger = json.load(f)
    here = fingerprint()
    if ledger["fingerprint"] != here:
        pytest.skip(f"ledger written with {ledger['fingerprint']}, this machine is {here}")
    got = _digests(artifacts)
    differ = sorted(name for name in got.keys() | ledger["files"].keys()
                    if got.get(name) != ledger["files"].get(name))
    new_ledger = json.dumps({"fingerprint": here, "files": got}, indent=1)
    assert not differ, f"files that differ from the ledger: {differ}\nnew ledger:\n{new_ledger}"


@pytest.mark.parametrize("section, key, value",
                         [(None, None, None), ("encoder", "n_init", 100),
                          ("scenario", "n_samples", 1200)],
                         ids=["tiny", "tiny-n_init-100", "tiny-n_samples-1200"])
def test_compare_bytes_do_not_depend_on_blas_threads(section, key, value, tmp_path):
    # both sides run in their own process with a set thread count, so the
    # check holds on a one-core machine too; at n_init 100 the dictionary is
    # 200 columns wide, where tiny's 30 atoms make it 64 with its pad, and
    # at 1,200 samples the chart and held-out blocks exceed 200 rows
    src = os.path.dirname(os.path.dirname(os.path.abspath(chanchart.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    source = ["--preset", "tiny"]
    if section is not None:
        doc = preset("tiny").to_dict()
        doc[section][key] = value
        (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        source = ["--config", str(tmp_path / "config.json")]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / f"threads-{threads}"
        run = subprocess.run([sys.executable, "-m", "chanchart.cli", "compare", *source,
                              "--out", str(out)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests.append(_digests(out))
    assert len(digests[0]) == 13
    differ = sorted(name for name in digests[0] if digests[0][name] != digests[1].get(name))
    assert not differ, f"files that differ between 1 and 2 BLAS threads: {differ}"
