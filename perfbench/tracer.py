"""Call tracing for the benchmark, installed from outside the program.

The tracer replaces every public function of every ``normform`` module with
a timing wrapper, in every module namespace that holds the name (so
``experiments.is_prime_certified`` and ``primes.is_prime_certified`` are both
wrapped).  Calls are not kept one span each: count, total and self time are
aggregated per (function, parent) pair, which keeps memory flat under
millions of per-value calls.  Span time is the CPU time of the thread that
runs the span (``time.thread_time``), so a thread that waits for the
interpreter lock or for its pool is not busy; self time is span time minus
the time of the wrapped calls made inside it.

Generator functions are timed across their ``next()`` calls.  Work handed to
a ``ThreadPoolExecutor`` runs on the pool thread as a continuation of the
span that submitted it, so a function's self time is summed over the
threads that do its work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

ROOT = "(root)"


class _Frame:
    __slots__ = ("name", "parent", "start", "child", "is_call")

    def __init__(self, name, parent, is_call):
        self.name = name
        self.parent = parent
        self.is_call = is_call
        self.child = 0.0
        self.start = time.thread_time()


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.root = ROOT
        self.table = None


class Tracer:
    """Per-(function, parent) call counts, self time and outcome counters."""

    def __init__(self):
        self._state = _ThreadState()
        self._lock = threading.Lock()
        self._tables = []  # one {(name, parent): [calls, total_s, self_s]} per thread
        self.counters = Counter()  # outcome counters, updated under _lock

    # -- span bookkeeping ----------------------------------------------------

    def _table(self, st):
        if st.table is None:
            st.table = {}
            with self._lock:
                self._tables.append(st.table)
        return st.table

    def _enter(self, name, is_call=True):
        st = self._state
        parent = st.stack[-1].name if st.stack else st.root
        frame = _Frame(name, parent, is_call)
        st.stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.thread_time() - frame.start
        st = self._state
        st.stack.pop()
        if st.stack:
            st.stack[-1].child += dur
        row = self._table(st).setdefault((frame.name, frame.parent), [0, 0.0, 0.0])
        row[0] += frame.is_call
        row[1] += dur
        row[2] += dur - frame.child

    def count(self, **increments):
        with self._lock:
            self.counters.update(increments)

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name, fn, on_result=None, cpu=False):
        """Timing wrapper for fn.

        on_result(args, result) returns counter increments for the outcome of
        a call; with cpu set, the process CPU time and wall time of each call
        are added to the counters "<name>.cpu_s" and "<name>.wall_s".
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cpu:
                cpu0, wall0 = time.process_time(), time.perf_counter()
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
                if cpu:
                    self.count(**{f"{name}.cpu_s": time.process_time() - cpu0,
                                  f"{name}.wall_s": time.perf_counter() - wall0})
            if on_result is not None:
                self.count(**on_result(args, result))
            return result

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                it = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            yielded = 0
            try:
                while True:
                    frame = self._enter(name, is_call=False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    yielded += 1
                    yield item
            finally:
                it.close()
                self.count(**{f"{name}.yielded": yielded})

        return traced

    def pool_class(self):
        """ThreadPoolExecutor whose tasks continue the submitting thread's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                if not tracer._state.stack:
                    return super().submit(fn, *args, **kwargs)
                outer = tracer._state.stack[-1]

                def task(*a, **kw):
                    wst = tracer._state
                    saved = wst.root
                    wst.root = outer.parent
                    frame = tracer._enter(outer.name, is_call=False)
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._exit(frame)
                        wst.root = saved

                return super().submit(task, *args, **kwargs)

        return TracedPool

    # -- results -------------------------------------------------------------------

    def table(self):
        """{(name, parent): (calls, total_s, self_s)} merged over threads."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for t in tables:
            for key, (calls, total, self_s) in list(t.items()):
                row = out.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def per_function(self):
        """{name: (calls, self_s)} summed over parents."""
        out = {}
        for (name, _parent), (calls, _total, self_s) in self.table().items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + self_s)
        return out


def install(tracer, package, on_result=None, cpu=()):
    """Wrap every public function of every submodule of package, wherever named.

    on_result maps a qualified name such as "primes.is_prime_certified" to an
    outcome counter (see Tracer.wrap); names in cpu also get process CPU time
    recorded.
    """
    on_result = on_result or {}
    prefix = package.__name__ + "."
    modules = [package] + [importlib.import_module(prefix + m.name)
                           for m in pkgutil.iter_modules(package.__path__)]
    wrappers = {}  # id(original) -> wrapper
    for mod in modules[1:]:
        short = mod.__name__[len(prefix):]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            qual = f"{short}.{attr}"
            wrappers[id(obj)] = tracer.wrap(qual, obj, on_result.get(qual), qual in cpu)
    pool = tracer.pool_class()
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif obj is ThreadPoolExecutor:
                setattr(mod, attr, pool)
