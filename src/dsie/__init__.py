"""Dynamic state and input estimation for microgrids.

Builds dq-frame state-space models from a declarative network
description, runs a joint WLS filter that estimates branch-current
states and bus-voltage/load-current inputs simultaneously, screens bad
data with Mahalanobis residual tests, and executes the multi-area
distributed variant with shared-input exchange and fusion.
"""

from .distributed import (
    AreaEstimator,
    CrossCheckReport,
    LossyTransport,
    ShareMessage,
    Transport,
    cross_check,
    finalize_phase,
    fuse,
    local_phase,
    make_area_estimator,
    run_round,
)
from .estimator import (
    BddConfig,
    BddReport,
    FilterState,
    JointEstimate,
    SnapshotResult,
    TseState,
    detect_bad_data,
    dsie_step,
    estimate_input,
    initial_state,
    initial_tse_state,
    predict,
    tse_step,
    update,
    wls_snapshot,
)
from .linalg import WlsResult, discretize_zoh, mahalanobis, symmetrize_psd, wls_solve
from .model import (
    AreaModel,
    ContinuousModel,
    DiscreteModel,
    RankReport,
    build_continuous,
    build_discrete,
    build_measurement,
    check_joint_rank,
    partition,
)
from .network import (
    Bus,
    Dgu,
    Line,
    Load,
    NetworkTopology,
    SensorChannel,
    SensorPlacement,
    load_network,
)
from .sim import (
    AttackSpec,
    LoadEvent,
    Scenario,
    StealthyAttack,
    TruthTrajectory,
    apply_attacks,
    craft_stealthy_attack,
    generate_measurements,
    load_scenario,
    simulate_truth,
    steady_state,
)

__version__ = "0.1.0"
