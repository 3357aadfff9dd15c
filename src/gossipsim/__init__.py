"""Deterministic simulator for gossip averaging and decentralized SGD with
compressed communication."""

from .compression import Qsgd
from .consensus import ConsensusConfig, GossipScheme, run_consensus, tracking_stepsize
from .objectives import (
    LogisticObjective,
    QuadraticObjective,
    parse_libsvm,
    partition,
    serialize_libsvm,
    solve_reference,
)
from .optimize import PracticalSchedule, SgdConfig, TheoreticalSchedule, run_optimization
from .topology import Ring, build_gossip_matrix

__version__ = "0.1.0"
