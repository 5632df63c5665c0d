"""Cluster substrate: nodes, ledgers, disaggregated pool, interconnect."""

from .allocation import JobAllocation
from .cluster import Cluster
from .interconnect import Torus, torus_dimensions
from .memorypool import MOST_FREE, ROUND_ROBIN, STRATEGIES, MemoryPool

__all__ = [
    "Cluster",
    "JobAllocation",
    "MOST_FREE",
    "MemoryPool",
    "ROUND_ROBIN",
    "STRATEGIES",
    "Torus",
    "torus_dimensions",
]
