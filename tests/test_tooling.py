"""Checks of the repository as a whole: the pytest configuration, that the
command-line tool reaches every function of the package, that the package
reads every dataclass field it declares and leaves checks out of its
dataclass constructors, and that README's examples run."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import canontrack
import reach_probe
from canontrack.experiment import ExperimentConfig

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields(tree: ast.Module):
    """(class, field) of every field of the module's dataclasses; ClassVar
    annotations are not fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    yield node.name, stmt.target.id


def package_modules() -> dict:
    return {path.name: ast.parse(path.read_text())
            for path in sorted((SRC / "canontrack").glob("*.py"))}


def test_every_dataclass_field_is_read():
    """A value that only tests read is deleted too: every dataclass field
    declared in the package is read as an attribute somewhere in it."""
    modules = package_modules()
    read = {node.attr for tree in modules.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    declared = [(name, cls, field) for name, tree in modules.items()
                for cls, field in dataclass_fields(tree)]
    assert len(declared) > 100
    assert [" ".join(d) for d in declared if d[2] not in read] == []


def test_no_dataclass_constructor_raises():
    """Checks live where input enters the program (`ExperimentConfig.validate`
    and `eval`'s readers) and, for the values the program builds, in
    tests/test_pipeline.py's builder test: a dataclass's `__post_init__` may
    coerce its fields but raises nothing."""
    raising = []
    for name, tree in package_modules().items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for stmt in node.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "__post_init__"
                        and any(isinstance(n, ast.Raise)
                                for n in ast.walk(stmt))):
                    raising.append(f"{name} {node.name}")
    assert raising == []


def functions_calling(tree: ast.Module, names: set):
    """Name of the innermost def ("" at module level) around each call in
    the module of a function or method named in `names`."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) in names:
                    yield owner
            yield from visit(child, owner)
    yield from visit(tree, "")


def test_random_streams_are_keyed_in_one_place():
    """Results depend only on (config, seed), not on processing order: every
    generator of the package is seeded by the scene script's seed
    (`synth.make_random_script`), a sequence's seed
    (`experiment._sequence_seed`) or one frame's stream
    (`pipeline._frame_rng`)."""
    allowed = {("experiment.py", "_sequence_seed"),
               ("pipeline.py", "_frame_rng"),
               ("synth.py", "make_random_script")}
    seeding = {(name, function)
               for name, tree in package_modules().items()
               for function in functions_calling(
                   tree, {"default_rng", "SeedSequence"})}
    assert sorted(seeding - allowed) == []
    assert seeding == allowed


def readme_block(language: str) -> str:
    """The one fenced block of README.md in the given language."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$",
                        (SRC.parent / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_readme_library_example_runs(tmp_path):
    r = run_python(["-c", readme_block("python")], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1.0\n"


def test_readme_config_block_is_a_valid_config():
    block = json.loads(readme_block("json"))
    config = ExperimentConfig.from_dict(block)
    assert {k: config.to_dict()[k] for k in block} == block
