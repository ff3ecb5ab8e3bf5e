"""Distributed reproduction numbers on epidemic networks.

Simulates networked SIS/SIR spread, computes effective reproduction
numbers at entity, cluster, and network scale, and aggregates them through
a privacy-preserving pipeline (truncated-Gaussian local randomizer,
per-cluster shuffler, cluster aggregator) with closed-form accuracy
analysis.
"""

from .analysis import (
    AccuracyReport,
    ThresholdReport,
    private_moments,
    rmse_sweep,
    threshold_report,
    trichotomy_counts,
)
from .exceptions import (
    CalibrationInfeasibleError,
    ConfigError,
    NumericError,
    ProtocolError,
    RepronetError,
)
from .model import EpidemicState, ModelKind, Trajectory, TransmissionNetwork, derivative, integrate, integrate_blocks
from .privacy import (
    CalibratedMechanism,
    PrivacySpec,
    TruncGaussParams,
    amplified_epsilon,
    bounded_gaussian_randomize,
    calibrate_sigma,
    shuffle,
    trunc_gauss_moments,
    trunc_gauss_sample,
)
from .protocol import LocalAggVector, run_pipeline, step3_preaggregate, step6_assemble
from .reproduction import (
    ClusterRnMatrix,
    LocalRnMatrix,
    MatrixKind,
    Partition,
    build_matrix,
    cern,
    cluster_matrix,
    coarsen,
    lbrn,
    lern,
    local_distributed_ern,
    network_reproduction,
    spectral_radius,
)
from .scenario import Scenario, load_scenario, save_scenario

__version__ = "0.1.0"
