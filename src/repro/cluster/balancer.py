"""The fleet's front door: route requests and account for workload shares.

``LoadBalancer`` holds the pluggable
:class:`repro.cluster.routing.RoutingPolicy` the engine asks, request by
request, to pick one of the nodes currently accepting traffic.  It keeps no
counters of its own: served-request accounting lives with the nodes
(``ClusterNode.requests_served``), the one place that counts only requests
that truly completed.  It also converts the policy's relative weights into
an emulated-browser allocation -- the bookkeeping that makes a node's
monitoring samples report the share of the fleet workload it is actually
carrying, which is what the aging predictor sees as the ``workload_ebs``
input variable (Table 2 of the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.cluster.routing import RoundRobinRouting, RoutingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode

__all__ = ["LoadBalancer"]


class LoadBalancer:
    """The fleet's routing policy plus its emulated-browser accounting."""

    def __init__(self, policy: RoutingPolicy | None = None) -> None:
        self.policy = policy if policy is not None else RoundRobinRouting()

    def allocations(self, nodes: Sequence["ClusterNode"], total_ebs: int) -> dict[int, int]:
        """Split ``total_ebs`` emulated browsers across the fleet by weight.

        Accepting nodes share the browsers proportionally to the routing
        policy's weights (largest-remainder rounding keeps the total exact);
        draining and restarting nodes are carrying no new workload and get 0.
        """
        shares = {node.node_id: 0 for node in nodes}
        candidates = [node for node in nodes if node.accepting]
        if not candidates or total_ebs <= 0:
            return shares
        weights = self.policy.weights(candidates)
        total_weight = sum(weights)
        if total_weight <= 0:
            weights = [1.0] * len(candidates)
            total_weight = float(len(candidates))
        quotas = [total_ebs * weight / total_weight for weight in weights]
        floors = [int(quota) for quota in quotas]
        remainder = total_ebs - sum(floors)
        # Hand the leftover browsers to the largest fractional parts.
        by_fraction = sorted(
            range(len(candidates)),
            key=lambda index: (quotas[index] - floors[index], -candidates[index].node_id),
            reverse=True,
        )
        for index in by_fraction[:remainder]:
            floors[index] += 1
        for node, share in zip(candidates, floors):
            shares[node.node_id] = share
        return shares

    def describe(self) -> str:
        return f"LoadBalancer({self.policy.describe()})"
