"""Self-tests of the benchmark harness.

Run with ``python -m pytest perfbench``; they take a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import slaterkit  # noqa: E402
from slaterkit import linalg, mixed, states  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bindings() -> dict:
    import scipy.optimize

    return {(module.__name__, name): value
            for module in tracing._package_modules() + [scipy.optimize]
            for name, value in vars(module).items()}


def test_wrappers_cover_bound_names_and_are_fully_removed():
    before = _bindings()
    contract = linalg.epsilon_contract
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        # names bound by ``from .linalg import ...`` are the ones callers use
        assert states.epsilon_contract is not contract
        assert linalg.epsilon_contract is not contract
        assert mixed.takagi_canonical.perfbench_span == "linalg.takagi_canonical"
        state = states.fermion_state(6, 2, {(0, 1): 0.6, (2, 3): 0.8})
        assert states.slater_rank_by_contractions(state) == 2
    finally:
        tracing.uninstall(patches)
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    names = [span[0] for span in tracer.spans]
    assert "states.slater_rank_by_contractions" in names
    contraction = names.index("linalg.epsilon_contract")
    parent = tracer.spans[tracer.spans[contraction][3]][0]
    assert parent == "states.two_fermion_rank_below"


def test_planted_wrong_answer_and_raise_are_counted_and_the_loop_goes_on(monkeypatch):
    rng = np.random.default_rng(0)
    good = workloads._two_particle_op("boson", 3, 2, rng)
    planted = workloads._two_particle_op("fermion", 4, 1, rng)

    def raising():
        raise slaterkit.NumericalFailureError("planted")

    true_rank = states.slater_rank_by_contractions
    calls = {"n": 0}

    def wrong_rank(state, *args, **kwargs):
        calls["n"] += 1
        value = true_rank(state, *args, **kwargs)
        return value + 1 if state.kind == "fermion" else value

    monkeypatch.setattr(states, "slater_rank_by_contractions", wrong_rank)
    latencies, failed, busy_s = worker.run_ops([[planted, raising, good], [good]])
    assert failed == 2
    assert len(latencies) == 2
    assert busy_s >= sum(latencies)
    assert calls["n"] == 3


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, None, 0, None),
        ("a", 1.0, 4.0, 0, 0, None),
        ("b", 3.0, 6.0, 0, 0, None),       # overlaps a (another thread)
        ("a.child", 2.0, 3.0, 1, 0, None),
        ("late", 9.0, 12.0, 0, 0, None),   # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    spans = [
        ("states.multiparticle_rank_one", 0.0, 1.0, None, 0, None),
        ("states.project_reduce", 0.1, 0.2, 0, 0, None),
        ("linalg.epsilon_contract", 0.3, 0.7, 0, 0, {"cold": True}),
        ("linalg.epsilon_contract", 0.8, 0.9, 0, 0, {"cold": False}),
    ]
    values = tracing.layer_metrics([spans], {})
    assert values["states.multiparticle_rank_one.self_s"] == pytest.approx(0.4)
    assert values["linalg.epsilon_contract.calls"] == 2
    assert values["linalg.epsilon_contract.self_s"] == pytest.approx(0.5)
    assert values["linalg.epsilon_contract.cold_s"] == pytest.approx(0.4)
    assert values["states.project_reduce.calls"] == 1


def _canned_worker(mode, workload, seed, seconds, tmp, deadline):
    if mode == "trace":
        metrics = {name: 1.0 for name in tracing.LAYER_METRICS}
        return {"metrics": metrics, "failed": 0, "attempted": 3, "traced_s": 1.1,
                "untraced_s": 1.0, "ops": 1, "spans_file": "x", "environment": {}}, 0.0
    result = {"ready_at": 2.0}
    if mode == "timed":
        result.update(latencies_s=[0.1, 0.2, 0.3], failed=0, attempted=6, busy_s=0.6,
                      peak_rss_mb=50.0, batch_files=4, batch_s=[1.0, 2.0, 3.0],
                      environment={})
    return result, 0.0


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "spawn", _canned_worker)
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()
             if line.startswith("{")]
    assert len(lines) == len(run.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in
                BENCHMARK["per_layer" if trace else "end_to_end"]}
    for report in lines:
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in report["metrics"].items()} == declared


def test_declared_workloads_match_the_harness():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        tail = workloads.SPEC["workloads"][w["name"]]["tail_percentile"]
        assert f"tail p{tail}" in w["why"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
