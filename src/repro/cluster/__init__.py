"""Clustered testbed: a load-balanced fleet of aging servers.

The paper predicts the time to crash of a *single* Tomcat+MySQL server and
rejuvenates it before the failure.  Real deployments run fleets of such
servers behind a load balancer, where rejuvenation must be coordinated so
the service never loses all of its capacity at once.  This package scales
the reproduction to that setting:

``repro.cluster.node``
    One server of the fleet: incarnations of the single-server testbed
    simulation plus the ACTIVE / DRAINING / RESTARTING lifecycle and a
    per-incarnation on-line aging monitor.
``repro.cluster.routing`` / ``repro.cluster.balancer``
    Pluggable request routing -- round-robin, least-connections and
    aging-aware routing that sheds traffic away from nodes forecast to
    crash -- behind a load balancer that also accounts for each node's
    share of the emulated-browser workload.
``repro.cluster.coordinator``
    Fleet-level rejuvenation: the do-nothing baseline, uncoordinated
    per-node time-based restarts, and coordinated rolling predictive
    rejuvenation (drain, restart, rejoin, bounded concurrency, minimum
    capacity floor).
``repro.cluster.engine``
    ``FleetEngine``, the front end both tiers share (``run``/``step``/
    ``finish``, the ``mutate_*`` commands, ``fleet_snapshot``, the outcome
    and the end-of-run telemetry), and the exact tier on it that wires all
    of the above together and redistributes the workload on every crash,
    drain and rejoin: the event-driven ``ClusterEngine`` advances the fleet
    between interesting events and reproduces the tick-everything reference
    loop of the test suite bit-for-bit on seeded runs.
``repro.cluster.fluid``
    The approximate second tier on the same front end:
    ``FluidClusterEngine`` settles the whole fleet as numpy arrays
    (mean-field browsers, mask-based lifecycle) for million-user /
    thousand-node scenarios, validated against the exact engine on
    overlapping scales.
``repro.cluster.status``
    Capacity-weighted availability, outage and degraded-capacity
    accounting, per node and for the whole fleet.
"""

from repro.cluster.balancer import LoadBalancer
from repro.cluster.coordinator import (
    ClusterRejuvenationCoordinator,
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.fluid import FluidClusterEngine
from repro.cluster.node import ClusterNode, InjectorFactory, NodeState
from repro.cluster.routing import (
    AgingAwareRouting,
    LeastConnectionsRouting,
    RoundRobinRouting,
    RoutingPolicy,
)
from repro.cluster.status import ClusterOutcome, FleetStatus, NodeOutcome

__all__ = [
    "AgingAwareRouting",
    "ClusterEngine",
    "FluidClusterEngine",
    "ClusterNode",
    "ClusterOutcome",
    "ClusterRejuvenationCoordinator",
    "FleetStatus",
    "InjectorFactory",
    "LeastConnectionsRouting",
    "LoadBalancer",
    "NoClusterRejuvenation",
    "NodeOutcome",
    "NodeState",
    "RollingPredictiveRejuvenation",
    "RoundRobinRouting",
    "RoutingPolicy",
    "UncoordinatedTimeBasedRejuvenation",
]
