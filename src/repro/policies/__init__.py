"""Allocation policies: baseline, static disaggregated, dynamic disaggregated."""

from typing import Dict, Type

from ..cluster.cluster import Cluster
from .base import NO_CHANGE, AllocationPolicy, UpdateOutcome
from .baseline import BaselinePolicy
from .dynamic import DynamicDisaggregatedPolicy
from .static import StaticDisaggregatedPolicy

#: Registry keyed by the names used in figures and scenario configs.
POLICIES: Dict[str, Type[AllocationPolicy]] = {
    BaselinePolicy.name: BaselinePolicy,
    StaticDisaggregatedPolicy.name: StaticDisaggregatedPolicy,
    DynamicDisaggregatedPolicy.name: DynamicDisaggregatedPolicy,
}


def make_policy(name: str, cluster: Cluster, **kwargs) -> AllocationPolicy:
    """Instantiate a policy by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    return cls(cluster, **kwargs)


__all__ = [
    "AllocationPolicy",
    "BaselinePolicy",
    "DynamicDisaggregatedPolicy",
    "NO_CHANGE",
    "POLICIES",
    "StaticDisaggregatedPolicy",
    "UpdateOutcome",
    "make_policy",
]
