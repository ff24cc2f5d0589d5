"""Distributed data layouts: ScaLAPACK descriptors, block-cyclic grids,
2.5D replication, and COSTA-style redistribution."""

from .block_cyclic import BlockCyclicLayout, block_key, work_name
from .costa import conversion_words, redistribute, redistribution_volume
from .descriptors import (
    ScaLAPACKDescriptor,
    global_to_local,
    local_to_global,
    numroc,
)
from .grid25d import Replicated25DLayout

__all__ = [
    "BlockCyclicLayout",
    "block_key",
    "work_name",
    "Replicated25DLayout",
    "ScaLAPACKDescriptor",
    "numroc",
    "local_to_global",
    "global_to_local",
    "redistribute",
    "redistribution_volume",
    "conversion_words",
]
