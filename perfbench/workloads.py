"""Workload table shared by the benchmark runner and its scene workers.

Every workload uses the synthetic scenario with the noise settings in
``SCENARIO`` and the library's default gate, provider and pipeline
parameters.  A run covers ``scenes`` distinct scenes whose scenario seeds
are derived from the run seed, so one seed always gives the same inputs.
README.md records why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

SCENARIO = {"noise_sigma": 1.0, "miss_probability": 0.1,
            "false_positive_rate": 0.2}

# scene worker processes per run; each is a fresh interpreter, so its set-up
# time and peak RSS are one sample of the run's medians
MAX_WORKERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "track": pipeline.run_sequence; "train": training.train_provider
    targets: int
    frames: int
    scenes: int
    epochs: int = 0      # training epochs per pass (train only)

    def scene_seeds(self, run_seed: int) -> list[int]:
        return [run_seed * 1000 + i for i in range(self.scenes)]

    @property
    def workers(self) -> int:
        return min(MAX_WORKERS, self.scenes)


WORKLOADS = {w.name: w for w in (
    Workload("track-crowd", "track", targets=40, frames=8, scenes=24),
    Workload("track-long", "track", targets=10, frames=30, scenes=24),
    Workload("train", "train", targets=3, frames=30, scenes=8, epochs=5),
)}

# the same workloads at smoke-test size (--tiny)
TINY_WORKLOADS = {w.name: w for w in (
    Workload("track-crowd", "track", targets=6, frames=6, scenes=2),
    Workload("track-long", "track", targets=3, frames=12, scenes=2),
    Workload("train", "train", targets=3, frames=6, scenes=2, epochs=2),
)}
