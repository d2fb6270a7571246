"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the default test collection: it runs the
benchmark itself, about six minutes on two cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Units of the per-layer timings; every other per-layer metric is a count
#: or a ratio of counts and must repeat exactly under a seed.
TIME_UNITS = ("s", "ms", "us")
#: Calls each workload must never make, and one it must make.
PREDICTED_ZEROS = {
    "table1": ["sampling.draws"],
    "clt-newton": ["sampling.draws", "optimize.sgd.calls"],
    "spectral-sample": ["optimize.sgd.calls", "optimize.newton_raphson.calls",
                        "likelihood.log_likelihood.calls", "likelihood.gradient.calls",
                        "likelihood.hessian.calls"],
    "oracles": ["optimize.sgd.calls"],
}
PREDICTED_NONZERO = {
    "table1": "optimize.sgd.calls",
    "clt-newton": "optimize.newton_raphson.calls",
    "spectral-sample": "sampling.draws",
    "oracles": "numdiff.fd_hessian.calls",
}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_seed_repeats_and_names_are_declared(workload):
    untraced = result_of(run_bench(workload, 5, 0))
    assert untraced["correct"] and untraced["failed"] == 0
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    first, second = (result_of(run_bench(workload, 5, 1)) for _ in range(2))
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for key in ("correct", "attempted", "failed"):
        assert first[key] == second[key] == untraced[key]
    for metric in SPEC["per_layer"]:
        if metric["unit"] not in TIME_UNITS:
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["error_frac"]["value"] == 0
    for name in PREDICTED_ZEROS[workload]:
        assert first["metrics"][name]["value"] == 0, name
    assert first["metrics"][PREDICTED_NONZERO[workload]]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("oracles", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
