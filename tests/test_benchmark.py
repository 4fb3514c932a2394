"""Smoke tests of the benchmark's interface to the program: traced runs and
an untraced run must finish, pass their checks and report every metric that
BENCHMARK.json declares for their mode."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(tmp_path, workload: str, trace: int) -> dict:
    # A copy of perfbench/ next to a link to the sources, so that the run's
    # trace files stay out of the repository's perfbench/out.
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"], run.stderr
    assert result["failed"] == 0, run.stderr
    return result


def test_traced_clean_run_reports_declared_layers(tmp_path):
    result = run_workload(tmp_path, "clean", 1)
    assert sorted(result["metrics"]) == \
        sorted(m["name"] for m in DECLARED["per_layer"])


def test_untraced_sweep_run_reports_declared_end_to_end(tmp_path):
    # `sweep` tracks two configs over one set-up, so its checks include the
    # completion 0 against completion 1 MOTA comparison.
    result = run_workload(tmp_path, "sweep", 0)
    assert sorted(result["metrics"]) == \
        sorted(m["name"] for m in DECLARED["end_to_end"])


def test_traced_noisy_run_reports_declared_layers(tmp_path):
    # `noisy` is the workload whose frames mean-shift dominates.
    result = run_workload(tmp_path, "noisy", 1)
    assert sorted(result["metrics"]) == \
        sorted(m["name"] for m in DECLARED["per_layer"])
