#!/usr/bin/env python3
"""mdatrack benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload track-crowd --seed 0 --seconds 30 --trace 0

The run splits the workload's scenes over fresh worker processes
(worker.py), run one after another, and prints every metric named in
BENCHMARK.json by name and unit.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones from a traced run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--tiny`` shrinks every
workload to smoke-test size.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import merge_counter
from workloads import TINY_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                      "NUMEXPR_NUM_THREADS")
# span metrics of the traced run (mean self time per traced window)
SPAN_METRICS = (
    "pipeline.resolve_virtuals.ms", "affinity.generate_hypotheses.ms",
    "affinity.compute_affinity.ms", "affinity.backprop_affinity.ms",
    "solver.power_iteration_forward.ms", "solver.power_iteration_backward.ms",
    "solver.l1_normalize_forward.ms", "solver.l1_normalize_backward.ms",
    "solver.bce_loss.ms", "solver.discretize.ms",
    "pipeline.track_batch.self_ms", "training.train_window.self_ms",
)


def worker_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in PINNED_THREAD_VARS:
        env[var] = "1"
    # numpy asks the kernel for huge pages on large arrays; whether they are
    # granted varies from run to run and moved peak RSS by ~20 MB for
    # identical work
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def run_workers(args, wl, src: Path, results: Path) -> list[dict] | None:
    seeds = wl.scene_seeds(args.seed)
    groups = [seeds[k::wl.workers] for k in range(wl.workers)]
    env = worker_env(src)
    deadline = time.monotonic() + RUN_LIMIT_S
    outputs = []
    for k, group in enumerate(groups):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", wl.name,
               "--scene-seeds", ",".join(str(s) for s in group),
               "--budget", repr(args.seconds / wl.workers),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.trace:
            cmd += ["--trace-out",
                    str(results / f"trace-{wl.name}-seed{args.seed}-worker{k}.jsonl")]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"worker {k} did not finish within {RUN_LIMIT_S} s",
                  file=sys.stderr)
            return None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker {k} exited with code {proc.returncode}",
                  file=sys.stderr)
            return None
        outputs.append(json.loads(lines[-1]))
    return outputs


def pooled_mota(scenes: list[dict]) -> float:
    errors = sum(s["false_positives"] + s["false_negatives"] + s["id_switches"]
                 for s in scenes)
    return 1.0 - errors / sum(s["gt_boxes"] for s in scenes)


def interquartile_mean(values) -> float:
    """Mean of the middle half: drops the lowest and highest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(outputs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Window percentiles pool every window of the run.  Throughput and MOTA
    are per scene, then the interquartile mean over scenes: a scene caught in
    the carried-prediction feedback loop is an outlier, not a shift of the
    run."""
    windows = sorted(w for o in outputs for w in o["window_ms"])
    n = len(windows)
    rank = math.ceil(0.9 * n)
    scenes = [s for o in outputs for s in o["scenes"]]
    values = {
        "setup_s": statistics.median(o["setup_s"] for o in outputs),
        "windows_per_s": interquartile_mean(s["windows_per_s"] for s in scenes),
        "window_ms_p50": statistics.median(windows),
        "window_ms_p90": windows[rank - 1],
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outputs),
        "mota": interquartile_mean(s["mota"] for s in scenes),
    }
    notes = [f"window timings: {n} windows (median over passes of each), "
             f"{n - rank} beyond window_ms_p90",
             f"MOTA pooled over {len(scenes)} scenes: {pooled_mota(scenes):.4f}"]
    if n - rank < 10:
        notes.append("warning: fewer than 10 windows beyond window_ms_p90")
    return values, notes


def per_layer(outputs: list[dict]) -> tuple[dict[str, float], list[str]]:
    traced = sum(o["traced_windows"] for o in outputs)
    layers: dict[str, float] = {}
    counters: dict[str, float] = {}
    for o in outputs:
        for key, value in o["layers_ms"].items():
            layers[key] = layers.get(key, 0.0) + value
        for key, value in o["counters"].items():
            merge_counter(counters, key, value)
    counted = sum(o["counted_windows"] for o in outputs)
    plain = [w for o in outputs for w in o["window_ms"]]
    traced_ms = [w for o in outputs for w in o["traced_window_ms"]]
    scenes = [s for o in outputs for s in o["scenes"]]
    losses = [s["final_loss"] for s in scenes if "final_loss" in s]
    entries = counters.get("tensor_entries", 0.0)
    values = {name: layers.get(name, 0.0) / traced for name in SPAN_METRICS}
    values.update({
        "trace.window_ms": sum(o["traced_root_ms"] for o in outputs) / traced,
        "trace.untraced_windows_per_s": len(plain) / (sum(plain) / 1e3),
        "trace.traced_windows_per_s": len(traced_ms) / (sum(traced_ms) / 1e3),
        "affinity.hypotheses": counters.get("hypotheses", 0.0) / counted,
        "solver.tensor_entries_max": counters.get("tensor_entries_max", 0.0),
        "solver.tensor_bytes_peak": counters.get("tensor_bytes_max", 0.0),
        "solver.nonzero_ratio": (counters.get("tensor_nonzero", 0.0) / entries
                                 if entries else 0.0),
        "solver.min_real_row_mass": counters.get("real_row_mass_min", 0.0),
        "solver.zero_mass_real_rows": counters.get("zero_mass_real_rows", 0.0),
        "solver.skipped_lines": counters.get("skipped_lines", 0.0),
        "pipeline.window_candidates_max": counters.get("window_candidates_max", 0.0),
        "pipeline.births": counters.get("births", 0.0),
        "pipeline.coasts": counters.get("coasts", 0.0),
        "pipeline.exits": counters.get("exits", 0.0),
        "pipeline.skipped_windows": counters.get("skipped_windows", 0.0),
        "training.skipped_windows": counters.get("train_skipped_windows", 0.0),
        "training.final_loss": statistics.fmean(losses) if losses else 0.0,
        "evalio.id_switches": float(sum(s["id_switches"] for s in scenes)),
        "evalio.mota_pooled": pooled_mota(scenes),
        "evalio.generate_scenario.ms": statistics.fmean(
            v for o in outputs for v in o["generate_ms"]),
        "evalio.clear_mot.ms": statistics.fmean(
            s["clear_mot_ms"] for s in scenes),
    })
    notes = [f"traced run: {traced} traced windows; counts from one pass of "
             f"each of {len(scenes)} scenes",
             f"tracing overhead: {values['trace.traced_windows_per_s']:.2f} "
             f"traced vs {values['trace.untraced_windows_per_s']:.2f} untraced "
             "windows/s"]
    absent = sorted({a for o in outputs for a in o["absent"]})
    if absent:
        notes.append(f"absent layer functions (reported as 0): {absent}")
    failures = {k: v for o in outputs for k, v in o["counter_failures"].items()}
    if failures:
        notes.append(f"counters unavailable: {failures}")
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mdatrack" / "__init__.py").is_file():
        print(f"no mdatrack sources under {src}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    results = HERE / "results"
    results.mkdir(exist_ok=True)

    outputs = run_workers(args, wl, src, results)
    if outputs is None:
        return 1
    errors = [e for o in outputs for e in o["errors"]]
    if not any(o["scenes"] for o in outputs):
        print("no scene completed a pass: " + " | ".join(errors), file=sys.stderr)
        return 1
    first = outputs[0]["versions"]
    nproc = len(os.sched_getaffinity(0))
    print(f"nproc {nproc}, python {first['python']}, numpy "
          f"{first['numpy']}, scipy {first['scipy']}, BLAS/OpenMP threads 1")
    print(f"{wl.name}: {wl.scenes} scenes of {wl.targets} targets x "
          f"{wl.frames} frames"
          + (f", {wl.epochs} epochs per pass" if wl.kind == "train" else "")
          + f"; {len(outputs)} workers; rounds "
          f"{[o['rounds'] for o in outputs]}")
    for o in outputs:
        for s in o["scenes"]:
            print("scene " + " ".join(
                f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
                for k, v in s.items()))

    if args.trace:
        values, notes = per_layer(outputs)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(outputs)
        wanted = spec["end_to_end"]
    for note in notes:
        print(note)
    for error in errors:
        print(f"error: {error.strip()}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": all(o["correct"] for o in outputs),
        "attempted": sum(o["attempted"] for o in outputs),
        "failed": sum(o["failed"] for o in outputs),
        "metrics": metrics,
    }
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "versions": first, "nproc": nproc,
                    "notes": notes, "errors": errors,
                    "scenes": [s for o in outputs for s in o["scenes"]]},
                   indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
