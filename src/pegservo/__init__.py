"""Visual-servo peg insertion: simulation, self-supervised training, benchmark."""

__version__ = "0.1.0"

from .errors import PegServoError
from .geometry import (CameraModel, aimed_camera, error_direction,
                       inplane_basis, reconstruct_error, scalar_error)
from .search import SearchPattern, generate_pattern
from .sim import (COMPONENT_STYLES, Episode, TimingModel, WorldConfig,
                  WorldState, new_world, render, render_batch, spiral_insert,
                  spiral_search)
from .perception import (Dataset, MlpModel, OracleModel, RidgeModel,
                         TrainConfig, evaluate, featurize, gradient_check,
                         init_mlp, predict, train)
from .servoing import ServoConfig, servo_config_for, servo_step, visual_servo
from .pipeline import (CollectionConfig, DeploymentGate, collect_dataset,
                       configure, insert, insert_batch, split_by_insertion,
                       train_per_camera)
from .bench import (BenchConfig, BenchReport, emit_report, fit_quadratic_law,
                    run_benchmark)

__all__ = [
    "__version__", "PegServoError",
    "CameraModel", "aimed_camera", "error_direction", "inplane_basis",
    "reconstruct_error", "scalar_error",
    "SearchPattern", "generate_pattern",
    "COMPONENT_STYLES", "Episode", "TimingModel", "WorldConfig", "WorldState",
    "new_world", "render", "render_batch", "spiral_insert", "spiral_search",
    "Dataset", "MlpModel", "OracleModel", "RidgeModel", "TrainConfig",
    "evaluate", "featurize", "gradient_check", "init_mlp", "predict", "train",
    "ServoConfig", "servo_config_for", "servo_step", "visual_servo",
    "CollectionConfig", "DeploymentGate", "collect_dataset", "configure",
    "insert", "insert_batch", "split_by_insertion", "train_per_camera",
    "BenchConfig", "BenchReport", "emit_report", "fit_quadratic_law",
    "run_benchmark",
]
