"""One OpenBLAS thread per process for campaign computation.

numpy and scipy each map their own OpenBLAS copy, and each runs as many
threads as the machine has cores.  A forked worker inherits its
parent's thread count, so ``N`` workers on ``N`` cores ran ``N x N``
BLAS threads and oversubscribed the machine: a ``--jobs 2`` grid ran
slower than a serial one.

The count cannot simply be divided among the workers, because it
changes results: OpenBLAS splits a complex matrix product differently
for each thread count, and the last bits of the product move with the
split.  Workers computing with fewer threads than the serial path would
break the byte-identity of ``--jobs 1`` and ``--jobs N`` (and of
``--workers``) runs.  So every campaign run and every measurement set
computes with one thread, whether inline or in a forked worker;
parallelism comes from the processes.  Serial runs on multi-core
hosts pay for it: on 2 cores a serial 24-member grid took 4.7-5.8 s
instead of 4.0-4.5 s, while its ``--jobs 4`` run went from 7.8-8.6 s to
3.2-3.8 s.

:func:`single_threaded` holds the count in the *parent* for the whole
section, so every child inherits it.  Children must not set it
themselves: OpenBLAS shuts its server threads down at fork, and a
``set_num_threads`` call in the child starts them again (a child that
set one thread itself ran three threads).

The count is process-wide native state, so overlapping sections —
concurrent ``repro serve`` jobs are threads of one process — share it
under one lock, and the last to leave restores the count from before
the first.  Nothing happens at import and nothing where no OpenBLAS is
mapped; the libraries are found through ``/proc/self/maps`` when a
section first opens.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

#: ``(get, set)`` thread-count symbols per OpenBLAS build: numpy's
#: ``libscipy_openblas64_`` (ILP64) first, then scipy's
#: ``libscipy_openblas``.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class _OpenBLAS(NamedTuple):
    """One mapped OpenBLAS copy and its thread-count accessors."""

    path: str
    get: Callable[[], int]
    set: Callable[[int], None]


def _scan() -> list[_OpenBLAS]:
    """Every OpenBLAS copy mapped into this process, numpy's first."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.lower()
            })
    except OSError:  # no procfs: nothing to set
        return []
    found = []
    for get_name, set_name in _SYMBOLS:
        for path in paths:
            library = ctypes.CDLL(path)
            get = getattr(library, get_name, None)
            put = getattr(library, set_name, None)
            if get is None or put is None:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            put.restype = None
            found.append(_OpenBLAS(path, get, put))
            break
    return found


#: The copies found so far.  Reading ``/proc/self/maps`` costs ~1.4 ms,
#: so it is read again only while a copy may still be loaded later
#: (scipy's, on its first import).
_FOUND: list[_OpenBLAS] = []


def _mapped() -> list[_OpenBLAS]:
    global _FOUND
    if len(_FOUND) < len(_SYMBOLS):
        _FOUND = _scan()
    return _FOUND


class _Sections:
    """The open single-thread sections of this process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.depth = 0
        #: The copies set to one thread, with their counts from before
        #: the first open section that found them.
        self.original: list[tuple[_OpenBLAS, int]] = []


_SECTIONS = _Sections()


def _forget_sections() -> None:
    # A forked child starts outside every section (its parent's stay
    # the parent's) and keeps the count it inherited; the lock may
    # have been held by a parent thread that does not exist here.
    global _SECTIONS
    _SECTIONS = _Sections()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_sections)


@contextmanager
def single_threaded() -> Iterator[int | None]:
    """Run the block, and every process it forks, on one BLAS thread.

    Wrap a whole section, not each fork: children inherit the count
    the parent holds when it forks them, and a section opened inside
    such a child makes no native call.  Yields the count now held (1),
    or None when no OpenBLAS is mapped.
    """
    sections = _SECTIONS
    with sections.lock:
        seen = {blas.path for blas, _ in sections.original}
        for blas in _mapped():
            if blas.path not in seen:
                before = blas.get()
                sections.original.append((blas, before))
                if before != 1:
                    # Never where it is one already, as in a forked
                    # child: the call would restart OpenBLAS's threads.
                    blas.set(1)
        sections.depth += 1
        count = 1 if sections.original else None
    try:
        yield count
    finally:
        with sections.lock:
            sections.depth -= 1
            if sections.depth == 0:
                for blas, before in sections.original:
                    if before != 1:
                        blas.set(before)
                sections.original = []
