"""Statistics of hook lengths of random cells in random integer partitions.

The library computes, exactly at desk scale and asymptotically at large n,
the law of the hook length of a uniformly random cell of a uniformly random
partition of n, and verifies by simulation that pi * hook / sqrt(6 n)
approaches the distribution with density 6u / (pi^2 (e^u - 1)).
"""

__version__ = "0.1.0"

from .errors import ResourceError, ToleranceError
from .partitions import Cell, Partition, cells, conjugate, hook_length, profile

__all__ = [
    "Cell",
    "Partition",
    "ResourceError",
    "ToleranceError",
    "cells",
    "conjugate",
    "hook_length",
    "profile",
    "__version__",
]
