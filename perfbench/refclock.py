"""A fixed numpy kernel that serves as the benchmark's clock of machine speed.

The benchmark runs on shared machines whose speed for one process drifts by
20% and more over tens of seconds, in CPU time as much as in wall time, so
raw seconds from runs minutes apart differ by more than any change worth
catching. ``compress_s`` and ``infer_s`` are therefore given in reference
seconds: a timing divided by the time this kernel takes beside it in the
benchmark process, times ``REF_S``. Each compress process and each forward
is divided by the mean of the kernel's times just before and just after
it. The kernel uses numpy alone, never the program, so a change to the
program moves the ratio while a change of machine speed cancels out. Its
mix follows the program's executor: an im2col built from a sliding window,
a dense GEMM and a Python loop of small per-channel matmuls. The raw
seconds are kept in the full record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Roughly the kernel's median time on the shared 2-vCPU machine the
# baseline was recorded on (one BLAS thread; 0.045 s when it was quiet,
# 0.05 to 0.09 s under load), so that reference seconds read close to
# seconds there.
REF_S = 0.06
LAYERS = 3
# 56x56 maps make an im2col of 14 MB, beyond the caches, as the program's are.
CHANNELS, SIZE = 64, 56

_rng = np.random.default_rng(20181807)
_X = _rng.standard_normal((CHANNELS, SIZE, SIZE))
_W = _rng.standard_normal((CHANNELS * 9, CHANNELS)) / 17  # keeps h near unit scale
_WG = _rng.standard_normal((CHANNELS, 9, 1)) / 300  # one small filter per channel
# Every buffer is allocated once, so that a tick's time does not depend on
# the state the allocator was left in by whatever ran before it.
_PAD = np.zeros((CHANNELS, SIZE + 2, SIZE + 2))
_COLS = np.empty((SIZE, SIZE, CHANNELS, 3, 3))
_COLS_G = np.empty((CHANNELS, SIZE, SIZE, 3, 3))
_DENSE = np.empty((SIZE * SIZE, CHANNELS))
_GROUPED = np.empty((CHANNELS, SIZE * SIZE, 1))


def kernel() -> np.ndarray:
    """``LAYERS`` conv layers, each a dense conv as one GEMM on an im2col
    matrix plus a depthwise conv as a Python loop of one small matmul per
    channel."""
    h = _X
    cols = _COLS.reshape(SIZE * SIZE, -1)
    cols_g = _COLS_G.reshape(CHANNELS, SIZE * SIZE, 9)
    for _ in range(LAYERS):
        _PAD[:, 1:-1, 1:-1] = h
        windows = sliding_window_view(_PAD, (3, 3), axis=(1, 2))
        np.copyto(_COLS, windows.transpose(1, 2, 0, 3, 4))
        np.copyto(_COLS_G, windows)
        np.matmul(cols, _W, out=_DENSE)
        np.maximum(_DENSE, 0, out=_DENSE)
        for c in range(CHANNELS):
            np.matmul(cols_g[c], _WG[c], out=_GROUPED[c])
        np.add(_DENSE, _GROUPED[:, :, 0].T, out=_DENSE)
        h = _DENSE.T.reshape(CHANNELS, SIZE, SIZE)
    return h


def tick() -> float:
    """Time of one kernel call, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def ref_time(reps: int = 3) -> float:
    """Median of ``reps`` kernel calls, in seconds."""
    return statistics.median(tick() for _ in range(reps))
