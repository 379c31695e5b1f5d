"""Fault diagnosis and self-recovery for a strawberry-harvesting cycle.

The package covers the full loop: positional-error compensation of the
approach, grasp verification while the gripper closes, sliding-window
slip prediction during snap-off, the recovery state machine that ties
the monitors together, and a seeded fault-injection simulator with its
evaluation metrics.
"""

import os

# a second BLAS thread costs CPU and saves no time at the LSTM's GEMM
# sizes; OpenBLAS reads this when numpy first loads, and a set value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ValidationError
from .geometry import (
    CompensationParams,
    compensated_point,
    mean_abs_error,
    needs_compensation,
)
from .grasp import (
    GraspAction,
    GraspClass,
    GraspModel,
    classify_grasp,
    grasp_decision_step,
    train_grasp_classifier,
)
from .lstm import LstmArch, SlipModel, TrainConfig, lstm_train
from .metrics import (
    ConfusionMatrix,
    SuccessTally,
    aggregate_cycle_times,
    confusion_metrics,
    macro_f1,
    success_rates,
)
from .model_io import load_model, save_model
from .fsm import (
    STAGE_TIMING,
    Event,
    HarvestEpisode,
    Outcome,
    Stage,
    Variant,
    run_episode,
)
from .slip_decision import (
    RecoveryAction,
    classify_slip,
    first_action,
    time_stability_step,
)
from .slip_windows import (
    SlipLabel,
    SlipWindows,
    build_windows,
    oversample,
    stratified_split_counts,
)
from .world import EpisodeWorld, ScenarioConfig, gen_slip_trajectory, load_config, simulate_approach

__version__ = "0.1.0"
