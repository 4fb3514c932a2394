"""Which named functions of canontrack the command-line tool never enters.

Usage: python reach_probe.py WORKDIR

A profiler is set before canontrack is imported, so that calls made at
import count too.  The probe then runs `generate`, `track`, `eval`,
`track --ablation no_correspondence_matching` and `sweep --fractions
0,0.5,1` in this process through `cli.main`, on the small config CONFIG,
writing under WORKDIR.  Its last line of output is a JSON object: the exit
code of each command, and "file:line name" of each function or method
defined in the package's sources (class bodies and lambdas are not
functions here) that no command entered.

Seed 2 is pinned: at this config, seed 1 never merges two tracklets
(`Tracker._merge`) nor meets a cylindrical symmetry in a pose error
(`pose._best_cylindrical_trace`).
"""

import ast
import json
import sys
from pathlib import Path

CONFIG = {
    "seed": 2, "n_sequences": 2, "n_frames": 6, "n_objects": 3,
    "motion": "fast", "image_width": 64, "image_height": 48,
    "noc_noise": 0.01, "occupancy_flip_rate": 0.02,
    "detector_center_jitter": 1.0, "detector_extent_jitter": 0.5,
    "detector_flip_rate": 0.1,
}

# (command line, output subdirectory)
COMMANDS = [
    (["generate"], "generate"),
    (["track"], "track"),
    (["eval"], "track"),
    (["track", "--ablation", "no_correspondence_matching"], "no_corr"),
    (["sweep", "--fractions", "0,0.5,1"], "sweep"),
]


def named_functions(package_dir: Path) -> list:
    """(resolved file, first line, name) of every def in the package; the
    first line is the first decorator's, as in the code object's
    co_firstlineno."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found.append((path.resolve(), first, node.name))
    return found


def main(workdir: Path) -> dict:
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(CONFIG))

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    import canontrack
    from canontrack import cli

    exit_codes = []
    for args, out in COMMANDS:
        try:
            cli.main(args + ["--config", str(config_path),
                             "--output", str(workdir / out)],
                     standalone_mode=False)
            exit_codes.append(0)
        except SystemExit as exc:
            exit_codes.append(exc.code)
    sys.setprofile(None)

    reached = {(Path(c.co_filename).resolve(), c.co_firstlineno)
               for c in entered}
    missed = [f"{path.name}:{line} {name}" for path, line, name
              in named_functions(Path(canontrack.__file__).parent)
              if (path, line) not in reached]
    return {"exit_codes": exit_codes, "missed": missed}


if __name__ == "__main__":
    print(json.dumps(main(Path(sys.argv[1]))))
