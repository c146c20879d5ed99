"""One pool of reused tile-sized arrays for each thread.

Only the code a Monte Carlo tile runs takes from it: the row kernels,
``_row_means``, ``_validate_samples``, ``harness._harmonic_rows`` and
``cauchy.draw`` take their temporaries from ``empty`` and fill them with
``out=``.  Outside ``chunk_buffers()`` ``empty`` is ``np.empty``, so
``cauchy.draw`` and single estimates return arrays of their own.  Inside it,
which ``harness._run_chunk`` holds on its thread for every chunk, ``empty``
returns a view of the thread's slot for (role, dtype), a 1-d array that
grows only when a larger tile asks for it.  Nothing is freed between tiles
or chunks, so no tile faults its temporaries in again.  A slot keeps its
thread's largest tile, up to ``max(_TILE_ELEMENTS, n)`` samples of
``harness``, for as long as the thread lives.

A role's view is dead before the role is taken again.  Only ``cauchy.draw``
returns one, the chunk's tile, which lives until the tile is estimated; every
other function returns fresh arrays.
"""

import contextlib
import math
import threading

import numpy as np


class _Pool(threading.local):
    active = False  # inside chunk_buffers() on this thread

    def __init__(self):
        self.slots = {}  # (role, dtype) -> 1-d array of dtype


_pool = _Pool()


@contextlib.contextmanager
def chunk_buffers():
    """Serve ``empty`` from this thread's pool until the block exits."""
    _pool.active = True
    try:
        yield
    finally:
        _pool.active = False


def empty(role, shape, dtype=float, order="C"):
    """An uninitialised array; inside ``chunk_buffers`` a view of ``role``'s slot."""
    if not _pool.active:
        return np.empty(shape, dtype, order)
    size = math.prod(shape)
    slot = _pool.slots.get((role, dtype))
    if slot is None or slot.size < size:
        slot = _pool.slots[role, dtype] = np.empty(size, dtype)
    return slot[:size].reshape(shape, order=order)
