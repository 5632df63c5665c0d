"""Utilisation timelines sampled during simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.state import ForkState


@dataclass
class UtilizationTimeline:
    """Periodic samples of cluster occupancy."""

    fork_state = ForkState(copies=("times", "cpu", "mem_allocated"))

    times: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    mem_allocated: List[float] = field(default_factory=list)

    def record(self, time: float, cpu: float, mem_allocated: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be appended in time order")
        self.times.append(time)
        self.cpu.append(cpu)
        self.mem_allocated.append(mem_allocated)

    def __len__(self) -> int:
        return len(self.times)

    def mean_cpu(self) -> float:
        return float(np.mean(self.cpu)) if self.cpu else 0.0

    def mean_mem_allocated(self) -> float:
        return float(np.mean(self.mem_allocated)) if self.mem_allocated else 0.0

    def as_arrays(self):
        return (
            np.asarray(self.times),
            np.asarray(self.cpu),
            np.asarray(self.mem_allocated),
        )
