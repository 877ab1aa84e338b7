"""Tests of the benchmark itself (tiny sizes; a few seconds each).

Run from the checkout root::

    python3 -m pytest -q segbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from segbench import run as bench  # noqa: E402
from segbench.tracer import Tracer  # noqa: E402
from segbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


def run_cli(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "segbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec() -> None:
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_named_metric(workload: str, trace: int) -> None:
    code, stdout = run_cli(workload, trace)
    assert code == 0, stdout
    result = last_json(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert got["value"] == got["value"], f"{metric['name']} is NaN"
    assert "samples: read=" in stdout
    assert "PROBLEM" not in stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_gives_identical_model_metrics(workload: str) -> None:
    runs = [last_json(run_cli(workload, 0, seed=11)[1])["metrics"] for _ in range(2)]
    model = [{k: v["value"] for k, v in m.items() if k.startswith("model_")} for m in runs]
    assert model[0] and model[0] == model[1]


def traced_pair(workload: str, seed: int = 5, ops: int = 40) -> tuple:
    """One tiny schedule run untraced, then traced on a fresh deployment."""
    spec = WORKLOADS[workload](seed=seed, tiny=True)
    plan = spec.plan(ops)
    base = bench.measure(spec, spec.build(), plan)[0]
    world = spec.build()
    tracer = Tracer()
    tracer.clock = world.clock
    tracer.install()
    try:
        traced = bench.measure(spec, world, plan, tracer)[0]
    finally:
        tracer.uninstall()
    return base, traced, tracer


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_ledger_is_conserved_and_leaves_model_time_alone(workload: str) -> None:
    base, traced, tracer = traced_pair(workload)
    assert [r.model_s for r in traced.records] == [r.model_s for r in base.records]
    assert tracer.requests == len(traced.records) == 40
    # Each root is its op's measured latency, on both clocks ...
    assert tracer.root_errors() == []
    assert sum(model for _, model, _ in tracer.roots) == pytest.approx(
        sum(r.model_s for r in traced.records)
    )
    # ... and the layers' self times plus the residual add up to the roots.
    layers_cpu = sum(tracer.cpu_self_ns.values())
    assert layers_cpu + tracer.residual_cpu_ns == tracer.root_cpu_ns
    layers_model = sum(tracer.model_self_s.values())
    assert layers_model + tracer.residual_model_s == pytest.approx(tracer.root_model_s)
    assert tracer.residual_cpu_ns >= 0 and tracer.residual_cpu_ns < tracer.root_cpu_ns


def test_cluster_read_roots_include_the_stream_drain() -> None:
    _, traced, tracer = traced_pair("cluster_read")
    drained = [r for r in traced.records if r.stream_model_s > 0]
    assert drained, "no GET streamed its content on the base timeline"
    # The drain is on the GET's latency path, so its layers (pae,
    # protected_fs, file_manager) carry it, not the detached work.
    assert tracer.root_errors() == []
    assert tracer.model_self_s["pae"] + tracer.model_self_s["protected_fs"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_root_check_catches_a_root_that_is_not_the_op(workload: str) -> None:
    _, traced, tracer = traced_pair(workload, ops=12)
    record = traced.records[len(traced.records) // 2]
    record.model_s += 1e-6
    assert len(tracer.root_errors()) == 1
    record.model_s -= 1e-6
    record.cpu_ns += 10**12
    assert len(tracer.root_errors()) == 1


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tampered_object_counts_as_a_failure(workload: str) -> None:
    spec = WORKLOADS[workload](seed=2, tiny=True)
    world = spec.build()
    if "server" in world.extra:
        # Every file fits team_share's tiny cache; the host restarts the
        # enclave, which comes back with empty caches and must read the store.
        world.extra["server"].restart_enclave()
    # The host holds the untrusted stores: flip one byte in every stored
    # chunk of file content, as a malicious host could.
    files = tuple(world.expected)
    for backend in world.backends:
        for key in list(backend.keys()):
            if key.split("\x00")[0].endswith(files) or "dedup/obj:" in key:
                blob = bytearray(backend.get(key))
                blob[len(blob) // 2] ^= 0x01
                backend.put(key, bytes(blob))
    outcome = bench.Outcome()
    outcome.count(spec.sweep(world), "sweep")
    assert outcome.failed >= 1
    assert outcome.wrong == 0
    assert not outcome.correct


def test_wrong_bytes_exit_non_zero(monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    from segbench import workloads

    original = workloads._settle

    def lying_store(world, op, data, result, record):
        if op[1] == "get" and result is not None and result[1]:
            body = result[1]
            result = (result[0], body[:-1] + bytes([body[-1] ^ 1]), *result[2:])
        return original(world, op, data, result, record)

    monkeypatch.setattr(workloads, "_settle", lying_store)
    code = bench.main(
        ["--workload", "team_share", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"]
    )
    assert code == 1
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False and result["failed"] > 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "segbench", tmp_path / "segbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run_cli("team_share", 0, cwd=tmp_path)
    assert code != 0
    assert not stdout.strip()
