"""Tests of the benchmark itself, in smoke mode (minimal budgets).

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("presets", "ladder", "verify")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OPTIMIZING = {"presets", "ladder"}
QUALITY = ("evals_per_s", "optimum_hit_rate", "optimality_gap",
           "dominant_fraction_p50", "feasible_fraction_p50")


def smoke(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 2.0):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = smoke(workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            table = {}
            for line in lines[:-1]:
                if not line.startswith(("#", "env ", "digest ", "metric ")):
                    name, _, unit, better, n = line.split()[:5]
                    table[name] = (unit, better, int(n))
            digest = next(line.split()[2] for line in lines if line.startswith("digest "))
            out[workload, trace] = (json.loads(lines[-1]), table, digest)
    return out


def contract(section: str) -> dict:
    return {m["name"]: m for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_metric(runs, workload):
    result, table, _ = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    e2e = contract("end_to_end")
    assert set(result["metrics"]) == set(e2e)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == e2e[name]["unit"]
        assert metric["value"] > 0
    expected = {"setup_s", "wall_ref", "wall_s", "reference_ms", "peak_rss_mb", "error_rate"}
    if workload in OPTIMIZING:
        expected |= set(QUALITY)
    if result["attempted"] >= run.MIN_POOLED_CALLS:
        expected |= {"run_p50_ms", "run_p90_ms"}
    assert set(table) == expected
    for name, (unit, better, n) in table.items():
        assert (unit, better) == run.E2E_METRICS[name]
        assert n >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_and_keeps_records(runs, workload):
    result, table, digest = runs[workload, 1]
    assert result["correct"] is True and result["failed"] == 0
    layers = contract("per_layer")
    assert set(result["metrics"]) == set(layers)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == layers[name]["unit"]
        assert table[name][:2] == (metric["unit"], layers[name]["better"])
    # the traced and untraced runs produced the same records
    assert digest == runs[workload, 0][2]
    # the self times and the remainder add up to the traced wall time
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = smoke("ladder", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_tracer_counts_nested_calls_and_restores_bindings():
    from ossvqa import instances, simulator, vqa

    original = vqa.apply_circuit
    instance = instances.OsspInstance(1, 3, 3)
    source, target = "100010001", "010100001"
    with Tracer(LAYERS) as tracer:
        assert vqa.apply_circuit is not original
        assert simulator.apply_circuit is vqa.apply_circuit
        vqa.compile_reach(instance, source, target)
    assert vqa.apply_circuit is original and simulator.apply_circuit is original
    stats = tracer.stats
    assert stats["vqa.compile_reach"].calls == 1
    assert stats["simulator.apply_circuit"].calls == 1
    # depth 3, two mixers per round, three position blocks per mixer
    assert stats["simulator.apply_swap_rotation"].calls == 3 * 2 * 3
    inner = sum(s.self_s for name, s in stats.items() if name != "vqa.compile_reach")
    assert stats["vqa.compile_reach"].total_s == pytest.approx(
        stats["vqa.compile_reach"].self_s + inner)


def test_baseline_digest_applies_only_under_the_same_environment():
    base = json.loads(run.BASELINE.read_text(encoding="utf-8"))
    expected = base["workloads"]["verify"]["digests"]["0"]
    assert run.baseline_digest("verify", 0, base["env"]) == (expected, run.BASELINE.name)
    other = {**base["env"], "numpy": "0.0"}
    assert run.baseline_digest("verify", 0, other)[0] is None
    assert run.baseline_digest("verify", 10_000, base["env"])[0] is None


def test_reach_gate_rejects_a_wrong_word_or_circuit():
    import dataclasses

    import gate
    from ossvqa import presets, simulator, vqa

    instance, _, _ = presets.resolve_preset("ossp224")
    source, target = "1000010000100001", "0100100000010010"
    plan = vqa.compile_reach(instance, source, target)
    assert gate.check_reach(plan, instance, source, target) == []
    short = dataclasses.replace(plan, word=plan.word[:-1])
    assert len(gate.check_reach(short, instance, source, target)) == 1
    idle = dataclasses.replace(plan, params=simulator.ParameterVector(
        plan.params.beta * 0, plan.params.gamma))
    assert len(gate.check_reach(idle, instance, source, target)) == 1
