"""Workloads of the sweep benchmark and the shapes each one declares.

Every workload is `configs/desk.cfg` with a few keys overridden and the
benchmark seed substituted for the committed one. The declared values pin
the amount of work: a run whose config or per-row shape differs from them
counts its rows as failed, so a speed-up can never come from fewer samples,
a shorter schedule, a smaller budget or a lower cutoff.

This module imports nothing outside the standard library, so the parent
process can use it without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BASE_CONFIG = "configs/desk.cfg"
# The seed committed in BASE_CONFIG; reference reports exist only for it.
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict           # ExperimentConfig fields replaced in BASE_CONFIG
    declared: dict            # config values the run must keep
    n_max: tuple              # declared cutoff per schedule point

    @property
    def dims(self) -> tuple:
        K = self.declared["K"]
        return tuple(math.comb(K + n, K) for n in self.n_max)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        overrides={},
        declared={"K": 2, "k_max": 2, "T_schedule": [5.0, 10.0, 20.0, 40.0],
                  "mc_samples": 100_000, "trial_subsample": 512,
                  "bl_samples": 4000, "dim_budget": 20000},
        n_max=(28, 53, 102, 197)),
    Workload(
        name="ed-k3",
        overrides={"K": 3, "k_max": 3, "T_schedule": (2.5, 5.0, 7.5, 10.0),
                   "dim_budget": 30000, "trial_subsample": 0,
                   "bl_samples": 0},
        declared={"K": 3, "k_max": 3, "T_schedule": [2.5, 5.0, 7.5, 10.0],
                  "mc_samples": 100_000, "trial_subsample": 0,
                  "bl_samples": 0, "dim_budget": 30000},
        n_max=(15, 28, 41, 53)),
    Workload(
        name="classical-k5",
        overrides={"K": 5, "k_max": 3, "T_schedule": (0.5, 1.0, 1.5),
                   "mc_samples": 1_000_000, "trial_subsample": 0,
                   "bl_samples": 0},
        declared={"K": 5, "k_max": 3, "T_schedule": [0.5, 1.0, 1.5],
                  "mc_samples": 1_000_000, "trial_subsample": 0,
                  "bl_samples": 0, "dim_budget": 20000},
        n_max=(4, 7, 9)),
)}

# Per-point metrics (fock.n_max.<i>, fock.dim.<i>, convergence.row_s.<i>)
# exist for every slot; a workload with a shorter schedule reports 0 there.
SCHEDULE_SLOTS = max(len(w.n_max) for w in WORKLOADS.values())
