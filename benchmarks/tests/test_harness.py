"""Tests of the benchmark harness itself: python3 -m pytest benchmarks/tests"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chanchart.cli  # noqa: F401  (registers every chanchart.* module)
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_fast_mode_emits_every_metric_with_its_unit(workload, trace, tmp_path, capsys):
    code = run.main(["--workload", workload, "--seconds", "1", "--trace", str(trace),
                     "--fast"], out_dir=tmp_path)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and v["value"] == v["value"]


def _span(i, parent, name, start, end):
    return spans.Span(i, parent, name, float(start), float(end), 0)


def test_self_time_on_hand_built_span_tree():
    # train [0, 10] with children that overlap each other, a grandchild, and a
    # child running past the parent's end
    tree = [
        _span(0, None, "trainer.train", 0, 10),
        _span(1, 0, "encoder.forward_batch", 1, 3),
        _span(2, 1, "encoder.chart_batch", 1.5, 2.5),
        _span(3, 0, "trainer.adam_step", 2, 5),
        _span(4, 0, "trainer.adam_step", 8, 12),
        _span(5, None, "evalmetrics.evaluate", 20, 26),
        _span(6, 5, "evalmetrics.rank_matrix", 21, 22),
        _span(7, 5, "evalmetrics.rank_matrix", 23, 24),
    ]
    ix = spans.SpanIndex(tree)
    assert spans.self_time(tree[0], ix.children[0]) == pytest.approx(4.0)
    assert spans.self_time(tree[1], ix.children[1]) == pytest.approx(1.0)
    assert spans.self_time(tree[2], []) == pytest.approx(1.0)
    m = spans.layer_metrics(ix)
    assert m["trainer.train_s"] == pytest.approx(10.0)
    assert m["trainer.self_s"] == pytest.approx(4.0)
    assert m["trainer.adam_s"] == pytest.approx(7.0)
    assert m["trainer.steps"] == 2
    assert m["trainer.step_ms_p50"] == pytest.approx(7000.0)
    assert m["evalmetrics.self_s"] == pytest.approx(4.0)
    assert m["evalmetrics.rank_s"] == pytest.approx(2.0)
    assert ix.top_level(0, 30) == pytest.approx(16.0)
    assert ix.top_level(0, 15) == pytest.approx(10.0)


def test_tracer_wraps_names_imported_by_value_and_restores_them():
    mods = {n: sys.modules[f"chanchart.{n}"] for n in ("encoder", "evalmetrics", "trainer",
                                                        "isomap", "cli")}
    by_value = [("encoder", "isomap"), ("encoder", "distance_matrix"),
                ("evalmetrics", "chart_batch"), ("trainer", "adam_step"),
                ("trainer", "mine_triplets"), ("trainer", "triplet_loss_grad_batch"),
                ("isomap", "jacobi_eigh"), ("cli", "train"), ("cli", "split_dataset")]
    before = {(m, a): getattr(mods[m], a) for m, a in by_value}
    tracer = spans.Tracer()
    with tracer.round(0):
        for (m, a), original in before.items():
            wrapped = getattr(mods[m], a)
            assert wrapped is not original and wrapped.__wrapped__ is original, (m, a)
        sys.modules["chanchart.metricspace"].distance_matrix(
            sys.modules["chanchart.synthgen"].channel_vector(
                (1.0, 2.0), sys.modules["chanchart.synthgen"].RadioConfig(n_rows=2, n_cols=2),
                sys.modules["chanchart.synthgen"].ScattererSet())[None, :])
    assert all(getattr(mods[m], a) is original for (m, a), original in before.items())
    assert [s.name for s in tracer.spans] == ["synthgen.channel_vector",
                                              "metricspace.distance_matrix"]
    assert tracer.spans[1].counts == {"pairs": 0}


def _tiny_cli_plan(tmp_path):
    return workloads.plan("full-cli", 0, True, tmp_path / "work")


def test_forced_failure_counts_in_fail_frac_and_the_run_goes_on(tmp_path):
    plan = _tiny_cli_plan(tmp_path)
    verbs = workloads.cli_verbs(plan)
    eval_argv = next(v for v in verbs if v[0] == "eval")
    eval_argv[eval_argv.index("--data") + 1] = str(tmp_path / "missing.ccd")
    ops = workloads.Ops()
    times = workloads.run_verbs(ops, verbs)
    assert list(times) == ["generate", "init", "train", "eval", "chart"]
    assert (ops.attempted, ops.failed) == (5, 1)
    assert ops.failures[0].startswith("cli eval: exit 4")
    assert (plan.workdir / "chart.csv").exists()  # the verb after the failure still ran


def test_failed_calls_and_checks_are_counted_not_raised():
    ops = workloads.Ops()
    with pytest.raises(workloads.StepFailed):
        ops.call("divide", lambda: 1 / 0)
    assert ops.check("holds", lambda: True)
    assert not ops.check("does not hold", lambda: False)
    assert not ops.check("cannot be evaluated", lambda: {}["missing"])
    assert not ops.cli(["no-such-verb"])
    assert (ops.attempted, ops.failed) == (5, 4)


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "desk-mlp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
