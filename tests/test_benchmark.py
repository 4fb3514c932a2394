"""Smoke test of the benchmark's interface to the program: a traced run of
one workload must finish, pass its checks and report every per-layer
metric that BENCHMARK.json declares."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_clean_run_reports_declared_layers(tmp_path):
    # A copy of perfbench/ next to a link to the sources, so that the run's
    # trace files stay out of the repository's perfbench/out.
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clean",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"], run.stderr
    assert result["failed"] == 0, run.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
