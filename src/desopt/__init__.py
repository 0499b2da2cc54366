"""Distributed evolution strategies for black-box stochastic optimization,
with budget-matched zeroth-order baselines and a benchmarking harness."""

from .baselines import (
    BaselineConfig,
    CsaState,
    SmoothingConfig,
    csa_init,
    csa_population_size,
    csa_step,
    run_es_csa,
    run_fed_zo_gd,
    run_fed_zo_sgd,
    run_zo_signsgd,
    sign_plus,
    zo_grad_central,
)
from .bench import (
    AggregateCurve,
    MetricRow,
    ProfileCurve,
    RunRecord,
    aggregate_runs,
    compute_profiles,
    read_metrics_csv,
    solved,
    write_metrics_csv,
    write_profiles_csv,
)
from .cli import ExperimentSpec, load_spec, main, run_matrix
from .dataio import (
    LibsvmParseError,
    PartitionPlan,
    SplitSpec,
    SynthKind,
    parse_libsvm,
    partition_uniform,
    split_train_test,
    synth_dataset,
    synth_dataset_with_truth,
    write_libsvm,
)
from .localsolver import (
    LocalConfig,
    NonFiniteObjectiveError,
    WorkerResult,
    run_local_es,
    step_size,
)
from .mutation import MutationKind, MutationModel, RngStream
from .objective import (
    BatchView,
    Dataset,
    LossKind,
    RegularizedObjective,
    classification_error,
)
from .server import (
    BETA_LIMIT,
    DesConfig,
    RoundMetrics,
    ServerState,
    average_displacement,
    des_round,
    momentum_update,
    run_des,
)

__version__ = "0.1.0"
