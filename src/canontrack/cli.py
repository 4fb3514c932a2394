"""Command-line experiment runner: generate scenes, track, evaluate, sweep."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import experiment

# The config values each --ablation flag sets.
ABLATIONS = {
    "no_completion": {"completion_fraction": 0.0},
    "no_correspondence_matching": {"no_correspondence_matching": True},
}


def _load_config(config_path, seed, ablation, output) -> experiment.ExperimentConfig:
    if config_path:
        cfg = experiment.ExperimentConfig.load(config_path)
    else:
        cfg = experiment.ExperimentConfig()
    if seed is not None:
        cfg.seed = seed
    for a in ablation:
        for name, value in ABLATIONS[a].items():
            setattr(cfg, name, value)
    if output is not None:
        cfg.output_dir = output
    cfg.validate()
    return cfg


def _fail(exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    sys.exit(1)


@click.group()
def main():
    """Canonical-correspondence multi-object tracking experiments."""


_common = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="Experiment config JSON."),
    click.option("--seed", type=int, default=None,
                 help="Override the config seed."),
    click.option("--ablation", multiple=True,
                 type=click.Choice(list(ABLATIONS)), help="Ablation flags."),
    click.option("--output", type=click.Path(), default=None,
                 help="Override the output directory."),
]


def common_options(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


@main.command()
@common_options
def generate(config_path, seed, ablation, output):
    """Write the scene scripts for every sequence of the experiment."""
    try:
        cfg = _load_config(config_path, seed, ablation, output)
        out = Path(cfg.output_dir) / "scripts"
        out.mkdir(parents=True, exist_ok=True)
        for sid in range(cfg.n_sequences):
            script = experiment.make_script(cfg, sid)
            experiment.write_json(out / f"scene_seq{sid:04d}.json",
                                  script.to_dict())
        click.echo(f"wrote {cfg.n_sequences} scene scripts to {out}")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _fail(exc)


@main.command()
@common_options
def track(config_path, seed, ablation, output):
    """Run the full pipeline, writing tracklet and ground-truth dumps,
    scores and the summary."""
    try:
        cfg = _load_config(config_path, seed, ablation, output)
        experiment.run_experiment(cfg)
        click.echo(f"tracked {cfg.n_sequences} sequences into "
                   f"{cfg.output_dir}")
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command("eval")
@common_options
def eval_cmd(config_path, seed, ablation, output):
    """Score tracklet dumps against ground-truth dumps."""
    try:
        cfg = _load_config(config_path, seed, ablation, output)
        out = Path(cfg.output_dir)
        per_sequence = {}
        for sid in range(cfg.n_sequences):
            with open(out / f"tracklets_seq{sid:04d}.json") as f:
                dump = json.load(f)
            with open(out / f"gt_seq{sid:04d}.json") as f:
                gt = json.load(f)
            scores = experiment.score_tracking(dump, gt, cfg)
            scores_path = out / f"scores_seq{sid:04d}.json"
            if scores_path.exists():
                with open(scores_path) as f:
                    stored = json.load(f)
                stored.update(scores)
                scores = stored
            per_sequence[sid] = scores
        summary = experiment.summarize(cfg, per_sequence)
        experiment.write_json(out / "metrics.json", summary, indent=2)
        if all("mean_completion_iou" in s for s in per_sequence.values()):
            experiment.write_csv(out / "metrics.csv", [summary])
        click.echo(json.dumps({"mean_mota": summary["mean_mota"]}))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command()
@common_options
@click.option("--fractions", default="0,0.25,0.5,0.75,1",
              help="Comma-separated completion fractions.")
def sweep(config_path, seed, ablation, output, fractions):
    """Sweep the completion fraction and emit per-sequence CSV rows."""
    try:
        cfg = _load_config(config_path, seed, ablation, output)
        fs = [float(x) for x in fractions.split(",")]
        if "no_completion" in ablation:
            raise ValueError("no_completion cannot be swept: it tracks every "
                             "completion fraction at 0")
        summaries = experiment.sweep_completion(cfg, fs)
        click.echo(json.dumps({
            "fractions": fs,
            "mean_mota": [s["mean_mota"] for s in summaries],
            "mean_completion_iou": [s["mean_completion_iou"]
                                    for s in summaries],
        }))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


if __name__ == "__main__":
    main()
