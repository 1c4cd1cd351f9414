"""The benchmark's own tests; run them with ``python -m pytest perfbench``."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_passes_and_catches_a_corrupted_output():
    r = _bench("--smoke")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [line for line in r.stdout.splitlines() if line.startswith("smoke ")]
    assert len(lines) == len(workloads.WORKLOADS)
    for line in lines:
        assert "corrupted output caught, fail_ratio 0.333" in line, line
        assert line.endswith("traced run agrees"), line


def test_inputs_depend_on_the_seed_alone():
    for make in workloads.WORKLOADS.values():
        assert make(3, smoke=True).files == make(3, smoke=True).files
        assert make(3, smoke=True).files != make(4, smoke=True).files


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _bench("--workload", "interp", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert r.returncode != 0
    assert r.stdout == ""
