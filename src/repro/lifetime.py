"""Forked workers die with the thread that forked them.

A supervised campaign worker leads a process group of its own, so the
scheduler can kill it together with the dataset process pool it forks.
That takes it out of the scheduler's group: a signal to the group, such
as a shell's ``kill -9 -PGID`` or a benchmark harness ending a run past
its budget, no longer reaches the workers, and they would run on as
orphans.  Linux's ``PR_SET_PDEATHSIG`` closes the gap: a process that
arms it with ``SIGKILL`` is killed as soon as its parent dies, and a
pool child killed that way takes its own pool children along.

The death signal follows the *thread* that forked the process, not its
whole process: the kernel sends it when that thread exits, even while
the rest of the process lives on.  Every fork site in this package
outlives its children by construction.  The campaign wavefront reaps
(or kills) every worker before :meth:`~repro.campaign.runner.Campaign.
run` returns, and a process pool's ``with`` block shuts its workers
down before the forking code moves on, so no thread, not even a
``repro serve`` job thread, ends while a child it forked is alive.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
from typing import Callable

#: ``PR_SET_PDEATHSIG`` from ``<linux/prctl.h>``.
_PR_SET_PDEATHSIG = 1


def _load_prctl() -> Callable[..., int] | None:
    """libc's ``prctl`` with its C signature declared, or ``None``."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (AttributeError, OSError):
        return None
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl


#: Resolved at import, in the parent: a forked child then calls it
#: without entering the dynamic loader, whose lock another thread of
#: the parent may have held at the fork.
_PRCTL = _load_prctl()


def die_with_parent(parent_pid: int | None = None) -> None:
    """Have the kernel ``SIGKILL`` this process when its parent dies.

    Call it first thing in a forked child.  A parent that died before
    the signal was armed is caught by ``parent_pid``: when given and
    no longer the parent (the child was reparented), the child exits
    at once.  Without ``prctl`` (platforms other than Linux) arming
    is a no-op.
    """
    if _PRCTL is not None:
        _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if parent_pid is not None and os.getppid() != parent_pid:
        os._exit(1)
