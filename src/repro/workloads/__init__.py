"""Synthetic workload generators from the paper's evaluation (section 8).

* :class:`~repro.workloads.generator.KeyGenerator` -- sequential or random
  keys ("sequential keys ... simulate the time correlated keys, while
  random keys are randomly sampled from a uniform distribution").
* :class:`~repro.workloads.generator.IoTUpdateWorkload` -- the update-rate
  model of section 8.4: each groom cycle updates p% of the previous
  cycle's data, 0.1*p% of the last 50 cycles, and 0.01*p% of the last 100
  cycles.
* :mod:`repro.workloads.queries` -- sequential/random lookup batches and
  range-scan batches.

Everything is seeded and deterministic.
"""

from repro.workloads.generator import (
    IoTUpdateWorkload,
    KeyGenerator,
    KeyMapper,
    KeyMode,
)
from repro.workloads.queries import QueryBatchGenerator

__all__ = [
    "IoTUpdateWorkload",
    "KeyGenerator",
    "KeyMapper",
    "KeyMode",
    "QueryBatchGenerator",
]
