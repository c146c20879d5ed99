"""One set of reused tile-sized arrays for each Monte Carlo chunk.

The row kernels take their tile-sized temporaries from ``empty`` and fill
them with ``out=``.  Outside a chunk ``empty`` is ``np.empty``.  Inside
``chunk_buffers()``, which ``harness._run_chunk`` holds on its thread for a
chunk of more than one tile, the first tile still gets fresh arrays while
the set notes the bytes each (role, dtype) takes; ``carve`` then cuts one
block into a slot per role, and later tiles, the last shorter tile and the
one-row redraws get views of those slots.  Without them glibc gives a tile's freed temporaries back to
the kernel, and the next tile faults them in again.  One block rather than
an array per role: freed when the chunk ends, it raises glibc's trim
threshold to twice its size, so the next chunk finds it on the heap.

A role's view is dead before the role is taken again, and no view outlives
the kernel call that took it: the kernels return fresh arrays.  The view
``cauchy.draw`` returns is the chunk's tile, which lives until the tile is
estimated.
"""

import contextlib
import math
import threading

import numpy as np

_ALIGN = 64  # bytes; every slot starts on a cache line
_local = threading.local()


class _BufferSet:
    def __init__(self):
        self._need = {}   # (role, dtype) -> bytes the largest take asked for
        self._slots = {}  # (role, dtype) -> 1-d array of dtype in the block
        self._views = {}  # (role, dtype, shape, order) -> view of its slot

    def take(self, role, shape, dtype, order):
        view = self._views.get((role, dtype, shape, order))
        if view is not None:
            return view
        size = math.prod(shape)
        slot = self._slots.get((role, dtype))
        if slot is not None and slot.size >= size:
            view = slot[:size].reshape(shape, order=order)
            self._views[role, dtype, shape, order] = view
            return view
        nbytes = size * np.dtype(dtype).itemsize
        self._need[role, dtype] = max(nbytes, self._need.get((role, dtype), 0))
        return np.empty(shape, dtype, order)

    def carve(self):
        """Give every role taken so far a slot in one new block, if one lacks it."""
        if all(key in self._slots and self._slots[key].nbytes >= nbytes
               for key, nbytes in self._need.items()):
            return
        block = np.empty(sum(map(_aligned, self._need.values())), np.uint8)
        self._slots, self._views, start = {}, {}, 0
        for (role, dtype), nbytes in self._need.items():
            self._slots[role, dtype] = block[start:start + nbytes].view(dtype)
            start += _aligned(nbytes)


def _aligned(nbytes):
    """``nbytes`` rounded up to a multiple of ``_ALIGN``."""
    return -(-nbytes // _ALIGN) * _ALIGN


@contextlib.contextmanager
def chunk_buffers():
    """Serve ``empty`` from one buffer set on this thread until the block exits."""
    outer = getattr(_local, "buffers", None)
    _local.buffers = _BufferSet()
    try:
        yield _local.buffers
    finally:
        _local.buffers = outer


def empty(role, shape, dtype=float, order="C"):
    """An uninitialised array; inside ``chunk_buffers`` a view of ``role``'s slot."""
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        return np.empty(shape, dtype, order)
    return buffers.take(role, shape, dtype, order)
