"""Command-line entry point.

Modes: train (fit provider parameters on ground truth, synthetic or file),
track (run the online tracker), eval (CLEAR MOT metrics between two MOT
files), synth (write a synthetic scenario to disk).  All configuration lives
in a flat ``name = value`` text file plus a handful of flags; every output
is a text file.

Exit codes: 0 success, 1 validation failure, 2 internal-invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import kvtext
from .affinity import (
    AffinityProviderParams,
    ConnectionGateConfig,
    load_params,
    save_params,
)
from .errors import ContractError, InternalInvariantError, TrackingError
from .evalio import (
    MotRecord,
    ScenarioSpec,
    check_track_records,
    clear_mot,
    generate_scenario,
    load_mot,
    load_mot_records,
    records_to_candidates,
    records_to_tracks,
    save_mot_records,
    tracks_to_records,
)
from .pipeline import (
    ConfidenceQuality,
    GroundTruthQuality,
    PipelineConfig,
    run_sequence,
)
from .training import train_provider


@dataclass
class RunConfig:
    """Everything a command needs, merged from defaults, the config file and
    command-line flags."""

    seed: int = 0
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    gate: ConnectionGateConfig = field(default_factory=ConnectionGateConfig)
    provider: AffinityProviderParams = field(default_factory=AffinityProviderParams)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    learning_rate: float = 0.05
    epochs: int = 50


_SCENARIO_KEYS = {
    "frame_count": int, "target_count": int, "noise_sigma": float,
    "miss_probability": float, "false_positive_rate": float,
    "frame_width": float, "frame_height": float,
    "descriptor_length": int, "descriptor_noise": float,
    "velocity_min": float, "velocity_max": float,
    "box_min": float, "box_max": float,
}
_GATE_KEYS = {
    "base_distance_factor": float, "relaxation_factor": float,
    "max_relaxations": int, "size_ratio_low": float, "size_ratio_high": float,
}
_PROVIDER_KEYS = {name: float for name in AffinityProviderParams.FIELD_NAMES}
_PIPELINE_KEYS = {
    "alpha": float, "t_dif": float, "t_exit": float,
    "max_coast_frames": int, "power_iterations": int, "norm_pairs": int,
}
_TRAIN_KEYS = {"learning_rate": float, "epochs": int, "seed": int}


def _fold_bounds(values: dict, keys: tuple[str, str], name: str,
                 default: tuple[float, float]) -> None:
    """Replace the low and high bound keys by the dataclass field ``name``,
    a bound the file leaves out keeping its ``default``."""
    if any(key in values for key in keys):
        values[name] = tuple(values.pop(key, bound)
                             for key, bound in zip(keys, default))


def build_run_config(config_path: str | None, seed: int | None) -> RunConfig:
    raw: dict[str, str] = {}
    if config_path:
        raw = kvtext.load_kv(config_path)

    scen = kvtext.take(raw, _SCENARIO_KEYS)
    _fold_bounds(scen, ("velocity_min", "velocity_max"), "velocity_range",
                 ScenarioSpec.velocity_range)
    _fold_bounds(scen, ("box_min", "box_max"), "box_size_range",
                 ScenarioSpec.box_size_range)
    gate = kvtext.take(raw, _GATE_KEYS)
    _fold_bounds(gate, ("size_ratio_low", "size_ratio_high"),
                 "size_ratio_bounds", ConnectionGateConfig.size_ratio_bounds)
    provider = kvtext.take(raw, _PROVIDER_KEYS)
    pipe = kvtext.take(raw, _PIPELINE_KEYS)
    train = kvtext.take(raw, _TRAIN_KEYS)
    if raw:
        raise ContractError(f"unknown config keys: {sorted(raw)}")
    file_seed = train.pop("seed", RunConfig.seed)
    seed = file_seed if seed is None else seed
    scenario = ScenarioSpec(**scen, seed=seed)

    return RunConfig(
        seed=seed,
        scenario=scenario,
        gate=ConnectionGateConfig(**gate),
        provider=AffinityProviderParams(**provider),
        # the tracker's frame is the scene's
        pipeline=PipelineConfig(frame_width=scenario.frame_width,
                                frame_height=scenario.frame_height, **pipe),
        **train,
    )


def _gt_file_to_training_input(path: str):
    records = load_mot_records(path)
    if not records:
        raise ContractError(f"ground-truth file {path} is empty")
    check_track_records(records)
    return records_to_candidates(records)


def cmd_train(cfg: RunConfig, gt_path: str | None, out_path: str) -> int:
    if gt_path:
        gt_frames, gt_ids = _gt_file_to_training_input(gt_path)
    else:
        scenario = generate_scenario(cfg.scenario)
        gt_frames, gt_ids = scenario.gt_frames, scenario.gt_frame_ids
    params, losses = train_provider(
        gt_frames, gt_ids, cfg.gate, cfg.provider,
        epochs=cfg.epochs, learning_rate=cfg.learning_rate,
        power_iterations=cfg.pipeline.power_iterations,
        norm_pairs=cfg.pipeline.norm_pairs)
    save_params(params, out_path)
    curve_path = Path(out_path).with_suffix(Path(out_path).suffix + ".loss")
    with open(curve_path, "w", encoding="utf-8") as handle:
        for epoch, loss in enumerate(losses):
            handle.write(f"{epoch} {loss!r}\n")
    print(f"trained parameters written to {out_path}")
    print(f"loss curve written to {curve_path}")
    if losses:
        print(f"epoch 0 mean loss {losses[0]:.6f}; "
              f"final mean loss {losses[-1]:.6f}")
    return 0


def cmd_track(cfg: RunConfig, input_path: str | None,
              params_path: str | None, out_path: str) -> int:
    params = load_params(params_path) if params_path else cfg.provider
    if input_path:
        detections = load_mot(input_path,
                              descriptor_length=cfg.scenario.descriptor_length)
        quality = ConfidenceQuality()
    else:
        scenario = generate_scenario(cfg.scenario)
        detections = scenario.detection_frames
        quality = GroundTruthQuality(scenario.gt_tracks)
    tracks = run_sequence(detections, cfg.gate, params, cfg.pipeline, quality)
    records = tracks_to_records({t.id: t.boxes for t in tracks})
    save_mot_records(records, out_path)
    print(f"{len(tracks)} trajectories written to {out_path}")
    return 0


def cmd_eval(gt_path: str, hyp_path: str, out_path: str | None) -> int:
    gt = records_to_tracks(load_mot_records(gt_path))
    hyp = records_to_tracks(load_mot_records(hyp_path))
    report = clear_mot(gt, hyp)
    print(report.summary())
    if out_path:
        kvtext.save_kv({
            "MOTA": report.mota, "MOTP": report.motp,
            "MT": report.mostly_tracked, "ML": report.mostly_lost,
            "FP": report.false_positives, "FN": report.false_negatives,
            "IDS": report.id_switches,
        }, out_path)
    return 0


def cmd_synth(cfg: RunConfig, gt_path: str, out_path: str) -> int:
    scenario = generate_scenario(cfg.scenario)
    save_mot_records(tracks_to_records(scenario.gt_tracks), gt_path)
    detections = []
    for frame, cands in enumerate(scenario.detection_frames):
        for cand in cands:
            left, top, w, h = cand.box
            detections.append(MotRecord(frame + 1, -1, left, top, w, h,
                                        cand.score))
    save_mot_records(detections, out_path)
    print(f"ground truth written to {gt_path}; detections to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdatrack",
        description="trainable multi-object tracking via differentiable "
                    "multi-dimensional assignment")
    parser.add_argument("--mode", required=True,
                        choices=["train", "track", "eval", "synth"])
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--input", help="input MOT file (detections or hypotheses)")
    parser.add_argument("--gt", help="ground-truth MOT file path")
    parser.add_argument("--params", help="trained provider parameter file")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args.config, args.seed)
        if args.mode == "train":
            if not args.out:
                raise ContractError("train mode requires --out")
            return cmd_train(cfg, args.gt, args.out)
        if args.mode == "track":
            if not args.out:
                raise ContractError("track mode requires --out")
            return cmd_track(cfg, args.input, args.params, args.out)
        if args.mode == "eval":
            if not args.gt or not args.input:
                raise ContractError("eval mode requires --gt and --input")
            return cmd_eval(args.gt, args.input, args.out)
        if args.mode == "synth":
            if not args.gt or not args.out:
                raise ContractError("synth mode requires --gt and --out")
            return cmd_synth(cfg, args.gt, args.out)
        raise ContractError(f"unknown mode {args.mode}")
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except (TrackingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
