"""ScaLAPACK-compatible array descriptors.

The paper's library is "fully ScaLAPACK-compatible": it accepts matrices
described by the 9-integer ScaLAPACK descriptor (``descinit``) and uses
COSTA to reshuffle them into its native layout.  This module provides that
descriptor as a typed dataclass plus the standard helper computations
(``numroc`` — number of rows or columns of a distributed matrix owned by a
process — and local/global index maps).
"""

from __future__ import annotations

import dataclasses

from ..machine.exceptions import LayoutError

__all__ = ["ScaLAPACKDescriptor", "numroc", "local_to_global", "global_to_local"]


def numroc(n: int, nb: int, iproc: int, isrcproc: int, nprocs: int) -> int:
    """Rows/cols owned by process ``iproc`` (ScaLAPACK TOOLS ``numroc``).

    Parameters mirror the Fortran routine: global extent ``n``, block size
    ``nb``, owning process coordinate ``iproc``, coordinate of the process
    owning the first block ``isrcproc``, and ``nprocs`` processes in the
    relevant grid dimension.
    """
    if n < 0 or nb <= 0 or nprocs <= 0:
        raise LayoutError(f"invalid numroc arguments n={n} nb={nb} p={nprocs}")
    mydist = (nprocs + iproc - isrcproc) % nprocs
    nblocks = n // nb
    result = (nblocks // nprocs) * nb
    extra_blocks = nblocks % nprocs
    if mydist < extra_blocks:
        result += nb
    elif mydist == extra_blocks:
        result += n % nb
    return result


def local_to_global(il: int, nb: int, iproc: int, isrcproc: int,
                    nprocs: int) -> int:
    """Global index of local index ``il`` on process ``iproc`` (``indxl2g``)."""
    if il < 0:
        raise LayoutError(f"negative local index {il}")
    return (nprocs * nb * (il // nb) + il % nb
            + ((nprocs + iproc - isrcproc) % nprocs) * nb)


def global_to_local(ig: int, nb: int, nprocs: int) -> tuple[int, int]:
    """Map global index to ``(owner_coordinate, local_index)`` (``indxg2p`` +
    ``indxg2l`` with zero source process)."""
    if ig < 0:
        raise LayoutError(f"negative global index {ig}")
    block = ig // nb
    owner = block % nprocs
    local = (block // nprocs) * nb + ig % nb
    return owner, local


@dataclasses.dataclass(frozen=True)
class ScaLAPACKDescriptor:
    """The 9-element ScaLAPACK descriptor (DTYPE is fixed to 1 = dense).

    Attributes follow ``descinit``: global extents ``m x n``, block sizes
    ``mb x nb``, source process coordinates, and the process grid shape.
    """

    m: int
    n: int
    mb: int
    nb: int
    rsrc: int = 0
    csrc: int = 0
    prows: int = 1
    pcols: int = 1

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise LayoutError(f"negative extents {self.m}x{self.n}")
        if self.mb <= 0 or self.nb <= 0:
            raise LayoutError(f"non-positive block sizes {self.mb}x{self.nb}")
        if self.prows <= 0 or self.pcols <= 0:
            raise LayoutError(f"invalid grid {self.prows}x{self.pcols}")
        if not (0 <= self.rsrc < self.prows and 0 <= self.csrc < self.pcols):
            raise LayoutError("source process outside grid")
