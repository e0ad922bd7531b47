"""Smoke test of the benchmark itself, at the `tiny` workload size.

    python3 -m pytest bench/test_bench.py

It checks that the command prints every metric BENCHMARK.json names, that a
tampered artifact trips the correctness gate and makes the command fail, and
that the command refuses to run without the polymkl source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

run.pin_blas_threads()

import measure  # noqa: E402

SEED = 7


def run_command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed(trace):
    proc = run_command("--seed", str(SEED), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    printed = {line.split()[0] for line in lines[:-1] if line and not line.startswith("#")}
    names = [name for name, _ in (measure.PER_LAYER if trace else measure.END_TO_END)]
    if not trace:
        names += ["J_avg", "test_mse", "fail_frac"]
    assert set(names) <= printed


def _copy_tampered(paths: dict, stem: Path, which: str, old: str, new: str) -> dict:
    """Copy a repeat's artifacts to `stem`, replacing `old` by `new` once in
    the artifact named `which`."""
    out = {}
    for key, path in paths.items():
        text = Path(path).read_text()
        if key == which:
            assert old in text
            text = text.replace(old, new, 1)
        out[key] = f"{stem}.{Path(path).name.split('.', 1)[1]}"
        Path(out[key]).write_text(text)
    return out


def test_tampered_artifact_trips_the_gate(tmp_path):
    workload = measure.WORKLOADS["tiny"]
    data = measure.prepared_data(workload, SEED)
    _, _, paths = measure.run_repeat(workload, SEED, str(tmp_path / "clean"), trace=False)
    first = measure.read_artifacts(paths)
    assert measure.check_repeat(first, None, None, data) == []
    assert measure.check_repeat(first, first, None, data) == []

    weight = repr(first.weights[0])
    J = repr(first.J_avg)
    record_J = Path(paths["records"]).read_text().splitlines()[2].split(",")[2]
    tampered = {
        "theta weight": ("theta", weight, repr(first.weights[0] * 1.001)),
        "negative weight": ("theta", weight, repr(-first.weights[0])),
        "records J": ("records", record_J, repr(float(record_J) * (1 + 1e-6))),
        "summary J": ("summary", J, repr(first.J_avg * (1 + 1e-6))),
    }
    for case, (which, old, new) in tampered.items():
        stem = tmp_path / case.replace(" ", "_")
        art = measure.read_artifacts(_copy_tampered(paths, stem, which, old, new))
        assert measure.check_repeat(art, first, None, data), case

    wrong = {"J_avg": first.J_avg * (1 + 1e-6), "test_mse": first.test_mse}
    assert measure.check_repeat(first, first, wrong, data)


def test_gate_failure_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(
        measure, "load_reference",
        lambda: {"tiny": {str(SEED): {"J_avg": 1.0, "test_mse": 1.0}}},
    )
    assert measure.measure("tiny", SEED, 0.2, trace=False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = run_command(cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
