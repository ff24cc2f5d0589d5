"""Distributed data layouts: ScaLAPACK descriptors, block-cyclic grids,
and COSTA-style redistribution."""

from .block_cyclic import BlockCyclicLayout, block_key, work_name
from .costa import conversion_words, redistribute
from .descriptors import (
    ScaLAPACKDescriptor,
    global_to_local,
    local_to_global,
    numroc,
)

__all__ = [
    "BlockCyclicLayout",
    "block_key",
    "work_name",
    "ScaLAPACKDescriptor",
    "numroc",
    "local_to_global",
    "global_to_local",
    "redistribute",
    "conversion_words",
]
