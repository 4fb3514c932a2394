"""Reference figures: run.py on every workload over several seeds.

    python3 perfbench/reference.py --seeds 1-10 --seconds 10 --traced-seeds 1

Run from the repository root.  Each run is a fresh `run.py` process, run one
after another.  For every workload the script prints each end-to-end metric's
median and its spread (the distance between the first and third quartile as
a share of the median, as `statistics.quantiles(values, n=4)` gives them),
the share of failed operations and the quality outputs.  For each traced
seed it runs untraced, traced, traced and untraced back to back, and prints
the per-layer metrics and the tracing overhead: traced minus untraced
tracking time per frame.  The four runs of a traced seed must give the same
dump digests.  Everything is also written to perfbench/out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, traced: bool) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(traced))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def _median_quality(details: list) -> dict:
    """Per-config median over seeds of every quality output."""
    out = {}
    for frac in details[0]["quality"]:
        rows = [d["quality"][frac] for d in details]
        out[frac] = {k: statistics.median(r[k] for r in rows
                                          if r[k] is not None)
                     for k in rows[0]}
    return out


def _ms_per_frame(detail: dict) -> float:
    return 1e3 / statistics.median(detail["round_fps"])


def _plain_runs(name: str, seeds: list, seconds: int) -> dict:
    details, results = [], []
    for seed in seeds:
        d, r = _run(name, seed, seconds, traced=False)
        details.append(d)
        results.append(r)
        print(f"{name} seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in r["metrics"].items())
            + f", failed {r['failed']}/{r['attempted']}",
            file=sys.stderr, flush=True)
    return {
        "correct": all(r["correct"] for r in results),
        "failed_share": [r["failed"] / r["attempted"] for r in results],
        "metrics": {k: _spread([r["metrics"][k]["value"] for r in results])
                    for k in results[0]["metrics"]},
        "units": {k: v["unit"] for k, v in results[0]["metrics"].items()},
        "quality": _median_quality(details),
        "rounds": [d["rounds"] for d in details],
    }


def _traced_runs(name: str, seeds: list, seconds: int) -> dict:
    """Per seed, untraced, traced, traced, untraced runs back to back, so
    that a drift in machine speed cancels out of the overhead.  The four
    runs of a seed must also give the same dump digests."""
    traced, overhead, digests_agree = [], [], True
    for seed in seeds:
        ms = {False: [], True: []}
        digests = set()
        for on in (False, True, True, False):
            d, r = _run(name, seed, seconds, traced=on)
            ms[on].append(_ms_per_frame(d))
            digests.add(tuple(d["dump_digests"]))
            if on:
                traced.append(r["metrics"])
                tail, samples = d["frame_ms_tail_percentile"], d["frame_samples"]
        digests_agree = digests_agree and len(digests) == 1
        t_ms, p_ms = statistics.fmean(ms[True]), statistics.fmean(ms[False])
        overhead.append({"seed": seed, "traced_ms_per_frame": t_ms,
                         "untraced_ms_per_frame": p_ms,
                         "overhead_ms_per_frame": t_ms - p_ms,
                         "overhead_share": (t_ms - p_ms) / p_ms})
    return {
        "per_layer": {k: statistics.median(t[k]["value"] for t in traced)
                      for k in traced[0]},
        "per_layer_units": {k: v["unit"] for k, v in traced[0].items()},
        "frame_ms_tail_percentile": tail,
        "frame_samples": samples,
        "tracing_overhead": overhead,
        "same_seed_dumps_agree": digests_agree,
    }


def reference(workloads, seeds, seconds, traced_seeds) -> dict:
    report = {"seconds": seconds, "seeds": seeds,
              "traced_seeds": traced_seeds, "workloads": {}}
    for name in workloads:
        w = report["workloads"][name] = {}
        if seeds:
            w.update(_plain_runs(name, seeds, seconds))
        if traced_seeds:
            w.update(_traced_runs(name, traced_seeds, seconds))
    return report


def print_report(report: dict) -> None:
    for name, w in report["workloads"].items():
        print(f"\n## {name}")
        if "metrics" in w:
            print(f"  correct {w['correct']}, failed share "
                  f"{max(w['failed_share'])}, rounds {w['rounds']}")
        for k, m in w.get("metrics", {}).items():
            print(f"  {k:14s} median {m['median']:.4g} {w['units'][k]:9s} "
                  f"q1 {m['q1']:.4g} q3 {m['q3']:.4g} spread {m['spread']:.3f}")
        for frac, q in w.get("quality", {}).items():
            print(f"  quality at completion {frac}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in q.items()))
        if "frame_samples" in w:
            print(f"  frame tail is p{w['frame_ms_tail_percentile']} of "
                  f"{w['frame_samples']} frame samples")
        for k, v in w.get("per_layer", {}).items():
            print(f"  {k:40s} {v:.4g} {w['per_layer_units'][k]}")
        if "same_seed_dumps_agree" in w:
            print(f"  same-seed runs give the same dumps: "
                  f"{w['same_seed_dumps_agree']}")
        for o in w.get("tracing_overhead", []):
            print(f"  tracing overhead seed {o['seed']}: "
                  f"{o['overhead_ms_per_frame']:+.1f} ms/frame "
                  f"({100 * o['overhead_share']:+.1f}%)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--traced-seeds", default="",
                    help="seeds for the traced runs and the overhead, e.g. 1")
    args = ap.parse_args()
    report = reference(args.workloads.split(","),
                       _seeds(args.seeds) if args.seeds else [],
                       args.seconds,
                       _seeds(args.traced_seeds) if args.traced_seeds else [])
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "reference.json", "w") as f:
        json.dump(report, f, indent=1)
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
