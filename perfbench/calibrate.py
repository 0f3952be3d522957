"""Host-speed calibration: a fixed numpy kernel timed next to each timed call.

On a shared host the same code runs up to twice as fast in one minute as in
the next (a pure-Python loop measured 32-70 ms per fixed chunk over 40 s).
That drift is shared by every process on the host, so timing a fixed kernel
on either side of each workload call and scaling by it removes most of it.

The kernel mixes the operations nfmusic spends its time in: a complex
exponential and a complex matrix product shaped like the angular scan, a
Hermitian eigendecomposition, and float-to-text formatting like the CSV
writers.  The matrix products are what make it track the host: a kernel
without them left 10.6% spread on the reference sweep instead of about 4%.
So that a program change to the process-wide BLAS thread count cannot move
the kernel, the kernel always runs with its own fixed BLAS thread count and
puts the program's count back afterwards.  It works on one block of columns
at a time, so its few MB of temporaries stay under the workload's own memory
peak.
"""

import ctypes
import os
import time
from pathlib import Path

import numpy as np

# Median kernel time, between timed calls, over 80 runs on the reference host
# (shared 2-CPU x86-64 VM, OpenBLAS 0.3.31).  Scaled times read as ms on that
# host at its usual load; the ratio is what matters.
REFERENCE_MS = 75.0
# OpenBLAS's own default on the host: one thread per CPU the process may use.
BLAS_THREADS = len(os.sched_getaffinity(0))

_BLOCKS = 8
_rng = np.random.default_rng(20240131)
_PHASE = _rng.random((81, 1350))
_BASIS = _rng.standard_normal((81, 77)) + 1j * _rng.standard_normal((81, 77))
_SYM = _rng.standard_normal((200, 200))
_SYM = _SYM + _SYM.T


def _openblas():
    """Setter and getter of the thread count of numpy's bundled OpenBLAS."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter and getter:
                setter.argtypes = [ctypes.c_int]
                return setter, getter
    raise RuntimeError(
        "cannot set the BLAS thread count of the calibration kernel: "
        f"numpy {np.__version__} does not use its bundled OpenBLAS"
    )


_set_threads, blas_threads = _openblas()


def _kernel():
    for b in range(_BLOCKS):
        steering = np.exp(1j * (_PHASE + b))
        proj = _BASIS.conj().T @ steering
        denom = np.sum(proj.real**2 + proj.imag**2, axis=0)
        ",".join(f"{x:.9g}" for x in denom[:375])
    np.linalg.eigh(_SYM)


def kernel_ms():
    """Wall ms of one run of the kernel at ``BLAS_THREADS`` BLAS threads."""
    program_threads = blas_threads()
    _set_threads(BLAS_THREADS)
    try:
        started = time.perf_counter()
        _kernel()
        return (time.perf_counter() - started) * 1e3
    finally:
        _set_threads(program_threads)


def scaled(raw, cal):
    """Scale each ``raw[i]`` to the reference host by the kernel runs on either
    side of it, ``cal[i]`` and ``cal[i + 1]``."""
    return [r * 2.0 * REFERENCE_MS / (a + b) for r, a, b in zip(raw, cal, cal[1:])]
