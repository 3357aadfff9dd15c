"""Deterministic simulator for gossip averaging and decentralized SGD with
compressed communication."""

from .compression import (
    CompressionSpec,
    Identity,
    Qsgd,
    RandGossip,
    RandK,
    RescaledUnbiased,
    TopK,
    compress_columns,
    omega,
)
from .consensus import (
    ConsensusConfig,
    ConsensusResult,
    DivergenceError,
    Gossip,
    GossipScheme,
    NodeStates,
    run_consensus,
    tracking_stepsize,
)
from .objectives import (
    Dataset,
    LogisticObjective,
    QuadraticObjective,
    Shard,
    parse_libsvm,
    partition,
    serialize_libsvm,
    solve_reference,
)
from .optimize import (
    ExactAveraging,
    OptimizationResult,
    PracticalSchedule,
    SgdConfig,
    TheoreticalSchedule,
    TrackingAveraging,
    run_optimization,
    sgd_round,
    theoretical_stepsize,
)
from .topology import (
    Custom,
    FullyConnected,
    GossipMatrix,
    Ring,
    Torus,
    build_gossip_matrix,
    mixing_contraction,
    spectral_quantities,
)

__version__ = "0.1.0"
