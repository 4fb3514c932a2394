"""Checks of the repository as a whole: the pytest configuration, and that
the command-line tool reaches every function of the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import canontrack
import reach_probe

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"
SRC = Path(canontrack.__file__).resolve().parent.parent

ONE_FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """Reporting a hypothesis failure imports code that warns on import; the
    run under this repository's pytest settings still runs every test."""
    (tmp_path / "test_one_fails.py").write_text(ONE_FAILING_HYPOTHESIS_TEST)
    r = run_python(["-m", "pytest", "-c", str(PYPROJECT),
                    "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                    "test_one_fails.py"], cwd=tmp_path)
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "1 failed, 1 passed" in r.stdout, r.stdout


def test_cli_reaches_every_function(tmp_path):
    """Code whose only caller is its own test is deleted: every named
    function and method of the package is entered by the CLI commands of
    reach_probe.py."""
    r = run_python([str(TESTS / "reach_probe.py"), str(tmp_path)],
                   cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[-1])
    assert report["exit_codes"] == [0] * len(reach_probe.COMMANDS), r.stderr
    assert report["missed"] == []
