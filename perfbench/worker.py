"""Scene worker: measures one group of scenes in a fresh interpreter.

run.py starts it as

    python3 perfbench/worker.py --workload NAME --scene-seeds 0,1 \
        --budget SECONDS --trace 0|1 [--tiny] [--trace-out FILE]

with ``src`` on PYTHONPATH and BLAS/OpenMP pinned to one thread.  It prints
one JSON object as the last line of its standard output.

A pass runs one scene through the program's public entry point
(``pipeline.run_sequence`` or ``training.train_provider``).  Passes repeat
in rounds over the worker's scenes until the budget is spent; every pass of
a scene must give the same output.  The operation function the entry point
calls per window is wrapped to time each window and check its output.  In a
traced run, passes alternate untraced and traced, and traced passes also
wrap the layer functions the operation reaches.
"""

import time

_START = time.perf_counter()  # set-up time counts imports plus scenario generation

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mdatrack  # noqa: E402
from mdatrack import evalio, pipeline, training  # noqa: E402
from mdatrack.affinity import AffinityProviderParams, ConnectionGateConfig  # noqa: E402

from tracer import Tracer, merge_counter  # noqa: E402
from workloads import SCENARIO, TINY_WORKLOADS, WORKLOADS  # noqa: E402

GATE = ConnectionGateConfig()
PARAMS = AffinityProviderParams()
CONFIG = pipeline.PipelineConfig()

OPERATIONS = {
    "track": (pipeline, "track_batch", "pipeline.track_batch"),
    "train": (training, "train_window", "training.train_window"),
}

# (module, name the module calls, span name); the module is the one whose
# global lookup the operation uses, so wrapping there is seen by the program
LAYERS = {
    "track": [
        (pipeline, "resolve_virtuals", "pipeline.resolve_virtuals"),
        (pipeline, "generate_hypotheses", "affinity.generate_hypotheses"),
        (pipeline, "compute_affinity", "affinity.compute_affinity"),
        (pipeline, "power_iteration_forward", "solver.power_iteration_forward"),
        (pipeline, "l1_normalize_forward", "solver.l1_normalize_forward"),
        (pipeline, "discretize", "solver.discretize"),
    ],
    "train": [
        (training, "generate_hypotheses", "affinity.generate_hypotheses"),
        (training, "compute_affinity", "affinity.compute_affinity"),
        (training, "power_iteration_forward", "solver.power_iteration_forward"),
        (training, "l1_normalize_forward", "solver.l1_normalize_forward"),
        (training, "bce_loss", "solver.bce_loss"),
        (training, "l1_normalize_backward", "solver.l1_normalize_backward"),
        (training, "power_iteration_backward", "solver.power_iteration_backward"),
        (training, "backprop_affinity", "affinity.backprop_affinity"),
    ],
}

MAX_REPORTED_ERRORS = 5


# ---------------------------------------------------------------------------
# per-window output checks
# ---------------------------------------------------------------------------

def check_track_window(args, kwargs, state) -> str | None:
    """Every box a track holds on the window's frames is finite and has a
    positive width and height."""
    for track in state.targets:
        for frame in args[1]:
            box = track.boxes.get(frame)
            if box is None:
                continue
            if not all(math.isfinite(v) for v in box):
                return f"track {track.id} frame {frame}: non-finite box {box}"
            if box[2] <= 0.0 or box[3] <= 0.0:
                return f"track {track.id} frame {frame}: non-positive box {box}"
    return None


def check_train_window(args, kwargs, result) -> str | None:
    """The loss is finite and the parameters satisfy the projection."""
    if result is None:                  # degenerate window, counted as skipped
        return None
    params, loss = result
    if not math.isfinite(loss):
        return f"non-finite loss {loss}"
    vec = params.as_vector()
    if not np.all(np.isfinite(vec)):
        return f"non-finite parameters {vec.tolist()}"
    if np.any(vec < 0.0):
        return f"negative weight {vec.tolist()}"
    if params.position_scale < training.POSITION_SCALE_FLOOR:
        return f"position_scale {params.position_scale} below the floor"
    return None


CHECKS = {"track": check_track_window, "train": check_train_window}


# ---------------------------------------------------------------------------
# counters read from the states the program already returns
# ---------------------------------------------------------------------------

def hypotheses_counter(track: bool):
    def count(args, kwargs, hypotheses):
        out = {"hypotheses": len(hypotheses)}
        if track:
            out["window_candidates_max"] = max(args[0].sizes)
        return out
    return count


def power_iteration_counter(virtual: bool):
    """Tensor size and density from the tensor passed in, and the mass of
    each real row of the returned matrices over the real columns.  Rows are
    those with at least one hypothesis into a real column, so a zero mass is
    numerical, not structural; the virtual row and column are excluded."""
    def count(args, kwargs, state):
        tensor = args[0]
        nonzero = tensor != 0.0
        masses = []
        for k, m in enumerate(state.matrices()):
            others = tuple(a for a in range(tensor.ndim) if a != k)
            support = nonzero.any(axis=others).reshape(m.shape)
            if virtual:
                m, support = m[:-1, :-1], support[:-1, :-1]
            masses.append(m.sum(axis=1)[support.any(axis=1)])
        rows = np.concatenate(masses)
        out = {
            "tensor_entries": tensor.size,
            "tensor_nonzero": np.count_nonzero(nonzero),
            "tensor_entries_max": tensor.size,
            "tensor_bytes_max": tensor.nbytes,
            "zero_mass_real_rows": np.count_nonzero(rows == 0.0),
        }
        if rows.size:
            out["real_row_mass_min"] = rows.min()
        return out
    return count


def l1_counter(args, kwargs, state):
    return {"skipped_lines": len(state.skipped_lines)}


def coast_counter(args, kwargs, state):
    last_frame = args[1][-1]
    return {"coasts": sum(1 for t in state.targets
                          if t.status == pipeline.COASTING
                          and last_frame in t.boxes)}


COUNTERS = {
    "track": {
        "affinity.generate_hypotheses": hypotheses_counter(True),
        "solver.power_iteration_forward": power_iteration_counter(True),
        "solver.l1_normalize_forward": l1_counter,
        "pipeline.track_batch": coast_counter,
    },
    "train": {
        "affinity.generate_hypotheses": hypotheses_counter(False),
        "solver.power_iteration_forward": power_iteration_counter(False),
        "solver.l1_normalize_forward": l1_counter,
    },
}


# ---------------------------------------------------------------------------
# the operation wrapper
# ---------------------------------------------------------------------------

class Operation:
    """Times each call of the operation function and checks its output.

    A window that raises or fails its check is counted as failed and its
    reason is kept; an exception is re-raised, so the pass stops.
    """

    def __init__(self, kind: str):
        self.module, self.attr, self.name = OPERATIONS[kind]
        self.fn = getattr(self.module, self.attr)
        self.check = CHECKS[kind]
        self.attempted = 0
        self.failed = 0
        self.skipped = 0          # training windows the program skipped
        self.errors: list[str] = []
        self.times: list[float] = []
        self.last_result = None
        self.tracer: Tracer | None = None

    def install(self) -> None:
        setattr(self.module, self.attr, self)

    def uninstall(self) -> None:
        setattr(self.module, self.attr, self.fn)

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(reason)
        print(f"window failed: {reason}", file=sys.stderr)

    def __call__(self, *args, **kwargs):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.open_window(self.name)
        start = time.perf_counter()
        try:
            result = self.fn(*args, **kwargs)
        except Exception:
            if tracer is not None:
                tracer.close_window()
                tracer.finish_window(None)
            self._fail(traceback.format_exc())
            raise
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close_window()
            tracer.finish_window((self.name, args, kwargs, result))
        self.times.append(elapsed)
        problem = self.check(args, kwargs, result)
        if problem:
            self._fail(problem)
        if result is None:
            self.skipped += 1
        self.last_result = result
        return result


# ---------------------------------------------------------------------------
# passes and scoring
# ---------------------------------------------------------------------------

def track_digest(tracks) -> tuple:
    return tuple((t.id, t.status, tuple(sorted(t.boxes.items())))
                 for t in tracks)


def run_pass(kind: str, scene, epochs: int):
    """One pass over a scene through the public entry point; returns
    (digest used for the repeatability check, program output)."""
    if kind == "track":
        tracks = pipeline.run_sequence(
            scene.detection_frames, GATE, PARAMS, CONFIG,
            pipeline.GroundTruthQuality(scene.gt_tracks))
        return track_digest(tracks), tracks
    params, losses = training.train_provider(
        scene.gt_frames, scene.gt_frame_ids, GATE, PARAMS, epochs=epochs)
    return (tuple(params.as_vector()), tuple(losses)), (params, losses)


def per_window_medians(passes: list[list[float]], errors: list[str]) -> list[float]:
    """Median time in ms of each window over the passes that ran it."""
    lengths = {len(p) for p in passes}
    if len(lengths) != 1:
        errors.append(f"passes ran different window counts {sorted(lengths)}")
    count = min(lengths)
    return [statistics.median(p[j] for p in passes) * 1e3 for j in range(count)]


@dataclass
class SceneRun:
    """Everything the passes over one scene produced."""

    seed: int
    scene: evalio.Scenario
    times: dict[str, list[list[float]]] = field(
        default_factory=lambda: {"plain": [], "traced": []})
    digests: list[tuple] = field(default_factory=list)
    output: object = None               # output of the first pass
    tracers: list[Tracer] = field(default_factory=list)
    last_result: object = None          # last window's result, first traced pass
    skipped: int = 0                    # windows skipped, first traced pass
    aborted: bool = False               # a pass raised; the scene is dropped


def measure(wl, runs: list[SceneRun], op: Operation, budget: float,
            modes: list[str]) -> int:
    """Rounds of passes over every scene until the budget is spent; returns
    the number of rounds.  A pass that raises ends the passes of its scene."""
    rounds = 0
    start = time.perf_counter()
    while any(not run.aborted for run in runs):
        round_start = time.perf_counter()
        for run in runs:
            for mode in modes:
                if run.aborted:
                    break
                tracer = None
                if mode == "traced":
                    tracer = Tracer(COUNTERS[wl.kind])
                    for module, attr, name in LAYERS[wl.kind]:
                        tracer.wrap(module, attr, name)
                op.tracer, op.times, op.skipped = tracer, [], 0
                try:
                    digest, output = run_pass(wl.kind, run.scene, wl.epochs)
                except Exception:       # counted and reported by Operation
                    run.aborted = True
                    continue
                finally:
                    op.tracer = None
                    if tracer is not None:
                        tracer.unwrap()
                run.times[mode].append(op.times)
                run.digests.append(digest)
                if run.output is None:
                    run.output = output
                if tracer is not None:
                    if not run.tracers:
                        run.last_result, run.skipped = op.last_result, op.skipped
                    run.tracers.append(tracer)
        rounds += 1
        now = time.perf_counter()
        if (now - start) + (now - round_start) > budget:
            break
    return rounds


def score_scene(wl, run: SceneRun, errors: list[str]) -> dict:
    """CLEAR MOT of the scene's output (for training, of tracking the scene
    with the trained parameters) plus the loss-curve checks."""
    quality = {}
    tracks = run.output
    if wl.kind == "train":
        params, losses = run.output
        if not all(math.isfinite(v) for v in losses):
            errors.append(f"scene seed {run.seed}: non-finite loss curve")
        elif losses[-1] > losses[0]:
            errors.append(f"scene seed {run.seed}: final loss {losses[-1]} "
                          f"above epoch-0 loss {losses[0]}")
        quality = {"epoch0_loss": losses[0], "final_loss": losses[-1]}
        tracks = pipeline.run_sequence(
            run.scene.detection_frames, GATE, params, CONFIG,
            pipeline.GroundTruthQuality(run.scene.gt_tracks))
    start = time.perf_counter()
    report = evalio.clear_mot(run.scene.gt_tracks,
                              {t.id: t.boxes for t in tracks})
    clear_mot_ms = (time.perf_counter() - start) * 1e3
    if not -math.inf < report.mota <= 1.0:
        errors.append(f"scene seed {run.seed}: MOTA {report.mota}")
    return {
        "seed": run.seed, "windows": len(run.times["plain"][0]),
        "mota": report.mota, "id_switches": report.id_switches,
        "false_positives": report.false_positives,
        "false_negatives": report.false_negatives,
        "gt_boxes": report.total_gt_boxes, **quality,
        "clear_mot_ms": clear_mot_ms,
    }


def add_trace(wl, run: SceneRun, result: dict) -> None:
    """Self times of every traced window; counts from the first traced pass
    (every pass is identical)."""
    for tracer in run.tracers:
        for window in tracer.windows:
            root = window.spans[0]
            result["traced_windows"] += 1
            result["traced_root_ms"] += (root.end - root.start) * 1e3
            for name, secs in tracer.self_times(window).items():
                key = f"{name}.self_ms" if name == root.name else f"{name}.ms"
                result["layers_ms"][key] = (result["layers_ms"].get(key, 0.0)
                                            + secs * 1e3)
    counters = result["counters"]
    first = run.tracers[0]
    for window in first.windows:
        for key, value in window.counters.items():
            merge_counter(counters, key, value)
    result["counted_windows"] += len(first.windows)
    if wl.kind == "track":
        tracks = run.output
        merge_counter(counters, "births", len(tracks))
        merge_counter(counters, "exits", sum(
            1 for t in tracks if t.status == pipeline.EXITED))
        merge_counter(counters, "skipped_windows", run.last_result.skipped_windows)
    else:
        merge_counter(counters, "train_skipped_windows", run.skipped)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scene-seeds", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not Path(mdatrack.__file__).resolve().is_relative_to(src.resolve()):
        print(f"mdatrack was imported from {mdatrack.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    wl = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    runs, generate_ms = [], []
    for seed in (int(s) for s in args.scene_seeds.split(",")):
        start = time.perf_counter()
        runs.append(SceneRun(seed, evalio.generate_scenario(evalio.ScenarioSpec(
            frame_count=wl.frames, target_count=wl.targets, seed=seed,
            **SCENARIO))))
        generate_ms.append((time.perf_counter() - start) * 1e3)
    setup_s = time.perf_counter() - _START

    op = Operation(wl.kind)
    op.install()
    modes = ["plain", "traced"] if args.trace else ["plain"]
    rounds = measure(wl, runs, op, args.budget, modes)
    op.uninstall()

    errors: list[str] = []
    result = {
        "setup_s": setup_s, "rounds": rounds, "generate_ms": generate_ms,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "window_ms": [], "traced_window_ms": [], "scenes": [],
        "layers_ms": {}, "traced_windows": 0, "traced_root_ms": 0.0,
        "counters": {}, "counted_windows": 0,
    }
    for run in runs:
        if run.aborted:
            errors.append(f"scene seed {run.seed}: a window raised; scene dropped")
            continue
        if any(d != run.digests[0] for d in run.digests):
            errors.append(f"scene seed {run.seed}: passes gave different outputs")
        try:
            scene = score_scene(wl, run, errors)
        except Exception:
            errors.append(f"scene seed {run.seed}: scoring raised\n"
                          + traceback.format_exc())
            continue
        window_ms = per_window_medians(run.times["plain"], errors)
        result["window_ms"] += window_ms
        result["scenes"].append(
            {**scene, "windows_per_s": len(window_ms) / (sum(window_ms) / 1e3)})
        if args.trace:
            result["traced_window_ms"] += per_window_medians(
                run.times["traced"], errors)
            add_trace(wl, run, result)

    if args.trace:
        own_total = sum(result["layers_ms"].values())
        if abs(own_total - result["traced_root_ms"]) > 1e-6 * max(
                result["traced_root_ms"], 1.0):
            errors.append(f"self times sum to {own_total} ms, traced windows "
                          f"to {result['traced_root_ms']} ms")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                for run in runs:
                    for p, tracer in enumerate(run.tracers):
                        handle.writelines(
                            json.dumps(tracer.record(w, scene_seed=run.seed,
                                                     traced_pass=p)) + "\n"
                            for w in tracer.windows)
    tracers = [t for run in runs for t in run.tracers]
    result.update({
        "attempted": op.attempted,
        "failed": op.failed,
        "errors": op.errors + errors,
        "correct": op.failed == 0 and not errors,
        "absent": sorted({a for t in tracers for a in t.absent}),
        "counter_failures": {k: v for t in tracers
                             for k, v in t.counter_failures.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
