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

COMMON_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="Experiment config JSON."),
    click.option("--seed", type=int, default=None,
                 help="Override the config seed."),
    click.option("--ablation", multiple=True,
                 type=click.Choice(list(ABLATIONS)), help="Ablation flags."),
    click.option("--output", type=click.Path(), default=None,
                 help="Override the output directory."),
]


@click.group()
def main():
    """Canonical-correspondence multi-object tracking experiments."""


def command(*options, name=None):
    """Register body(cfg, **options) as a subcommand of `main`.

    The subcommand takes the common options, then `options`.  The common
    ones become one validated ExperimentConfig; any exception becomes one
    {"error", "message"} JSON line on stderr and exit code 1.
    """
    def register(body):
        def run(config_path, seed, ablation, output, **kwargs):
            try:
                cfg = (experiment.ExperimentConfig.load(config_path)
                       if config_path else experiment.ExperimentConfig())
                if seed is not None:
                    cfg.seed = seed
                for a in ablation:
                    for field, value in ABLATIONS[a].items():
                        setattr(cfg, field, value)
                if output is not None:
                    cfg.output_dir = output
                cfg.validate()
                body(cfg, **kwargs)
            except Exception as exc:  # noqa: BLE001 - CLI boundary
                sys.stderr.write(json.dumps(
                    {"error": type(exc).__name__, "message": str(exc)}) + "\n")
                sys.exit(1)

        run.__doc__ = body.__doc__
        for opt in reversed(COMMON_OPTIONS + list(options)):
            run = opt(run)
        return main.command(name or body.__name__)(run)
    return register


@command()
def generate(cfg):
    """Write the scene scripts for every sequence of the experiment."""
    out = Path(cfg.output_dir) / "scripts"
    out.mkdir(parents=True, exist_ok=True)
    for sid in range(cfg.n_sequences):
        experiment.write_json(out / f"scene_seq{sid:04d}.json",
                              experiment.make_script(cfg, sid).to_dict())
    click.echo(f"wrote {cfg.n_sequences} scene scripts to {out}")


@command()
def track(cfg):
    """Run the full pipeline, writing tracklet and ground-truth dumps,
    scores and the summary."""
    experiment.run_experiment(cfg)
    click.echo(f"tracked {cfg.n_sequences} sequences into {cfg.output_dir}")


@command(name="eval")
def eval_cmd(cfg):
    """Score tracklet dumps against ground-truth dumps."""
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
    experiment.write_summary(out, summary)
    click.echo(json.dumps({"mean_mota": summary["mean_mota"]}))


@command(click.option("--fractions", default="0,0.25,0.5,0.75,1",
                      help="Comma-separated completion fractions."))
def sweep(cfg, fractions):
    """Sweep the completion fraction and emit per-sequence CSV rows."""
    fs = [float(x) for x in fractions.split(",")]
    if "no_completion" in click.get_current_context().params["ablation"]:
        raise ValueError("no_completion cannot be swept: it tracks every "
                         "completion fraction at 0")
    summaries = experiment.sweep_completion(cfg, fs)
    click.echo(json.dumps({
        "fractions": [s["config"]["completion_fraction"] for s in summaries],
        "mean_mota": [s["mean_mota"] for s in summaries],
        "mean_completion_iou": [s["mean_completion_iou"] for s in summaries],
    }))


if __name__ == "__main__":
    main()
