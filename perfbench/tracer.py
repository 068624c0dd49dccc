"""In-memory span recorder wrapped around the program's public calls.

The wrappers live in the benchmark, not in the program: each one
replaces a name where its callers look it up and records a
:class:`~perfbench.stats.Span`, returning the wrapped call's value or
re-raising its exception untouched.  A method is replaced on its class;
a module-level function is replaced in its defining module *and* in
every loaded ``repro`` module that imported it by name (``from .io
import load_measurement_set``), so no call site slips past.

Spans stay in memory and are written as one JSON file per process: the
harness and the daemon write theirs when they finish; a forked grid
worker, which leaves through ``os._exit`` without running atexit
handlers, writes its own when its wrapped task returns.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

from .stats import Span

#: Modules whose by-name imports of a wrapped function are replaced too.
PROGRAM_PREFIX = "repro"


class Tracer:
    """Records spans of wrapped calls, per thread, across forks."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.root_pid = os.getpid()
        self.spans: list[Span] = []
        #: Wrappers pass straight through while this is False.
        self.recording = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object, bool]] = []
        # A forked child starts with no spans of its own but keeps the
        # forking thread's stack, so its first span names the parent's
        # open span as its cause.
        os.register_at_fork(after_in_child=self._forget_inherited)

    def _forget_inherited(self) -> None:
        self.spans = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, before=None, after=None,
             dump_in_child=False):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``before(args, kwargs)`` runs first; ``after(state, args,
        kwargs, result)`` returns the span's attributes (counts).
        """
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        state = before(args, kwargs) if before is not None else None
        stack.append(span_id)
        start = time.time()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(name, start, span_id, parent, None, dump_in_child)
            raise
        end = time.time()
        attrs = (
            after(state, args, kwargs, result) if after is not None else None
        )
        self._close(name, start, span_id, parent, attrs, dump_in_child, end)
        return result

    def _close(self, name, start, span_id, parent, attrs, dump_in_child,
               end=None):
        end = time.time() if end is None else end
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append(
            Span(name, start, end, span_id, parent, os.getpid(), attrs)
        )
        if dump_in_child and os.getpid() != self.root_pid:
            self.dump()

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        # A method a class inherits is restored by deleting the wrapper.
        own = not isinstance(owner, type) or attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original, own))

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             dump_in_child: bool = False) -> None:
        """Replace ``owner.attr`` (and its by-name imports) by a wrapper."""
        if isinstance(vars(owner).get(attr), (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}: not a function")
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(
                name, original, args, kwargs, before, after, dump_in_child
            )

        self.replace(owner, attr, traced)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith(PROGRAM_PREFIX):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, alias, traced)

    def wrap_path(self, path: str, name: str, **hooks) -> None:
        """:meth:`wrap` by ``"module:Class.attr"`` or ``"module:func"``."""
        module, qualname = path.split(":")
        owner = importlib.import_module(module)
        *classes, attr = qualname.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        self.wrap(owner, attr, name, **hooks)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first, and stop recording
        (a module imported meanwhile may still hold a wrapper)."""
        self.recording = False
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self) -> Path:
        """Write this process's spans; returns the file written."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"spans-{os.getpid()}-{next(self._ids)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([list(span) for span in self.spans]))
        os.replace(tmp, path)
        return path


def load_spans(directory: str | Path) -> list[Span]:
    """Every span written under ``directory`` by any process.

    A forked worker may write more than once (once per task it ran in
    the same process); each file holds all of that process's spans so
    far, so a span id seen twice is kept once.
    """
    spans = {}
    for path in sorted(Path(directory).glob("spans-*.json")):
        for row in json.loads(path.read_text()):
            span = Span(*row)
            spans[span.span_id] = span
    return list(spans.values())
