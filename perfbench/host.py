"""Host facts recorded beside every result to explain noise.

They are metadata only and never scale a metric.  Nothing here sets or
changes the program's threading: the OpenBLAS thread count is read
through ctypes from the library numpy loaded.
"""

from __future__ import annotations

import ctypes
import os
import platform

#: Symbols that report OpenBLAS's thread count, newest naming first.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    import numpy  # noqa: F401  (loads the BLAS numpy was built with)

    with open("/proc/self/maps") as maps:
        return sorted({
            line.split()[-1] for line in maps if "openblas" in line.lower()
        })


def blas_threads() -> int | None:
    """OpenBLAS's current thread count in this process, if it has one."""
    for library in _openblas_libraries():
        handle = ctypes.CDLL(library)
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return function()
    return None


def facts() -> dict:
    """nproc, Python/numpy/OpenBLAS versions and threads, load average."""
    import numpy

    libraries = _openblas_libraries()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": [os.path.basename(path) for path in libraries],
        "blas_threads": blas_threads(),
        "loadavg": os.getloadavg(),
    }
