"""Spans around the public functions of each circleflow module, from outside.

`Tracer.install` replaces each traced function at every module binding it is
imported under (``circleflow.flow.curvature_state`` as well as
``circleflow.curvature.curvature_state``), so a call is recorded whichever
module makes it, and `Tracer.uninstall` puts the originals back.  SciPy's
``spsolve`` is recorded as called through ``circleflow.flow``.

Spans are kept in memory as tuples (operation, span id, parent id, name,
start ns, end ns); each operation has a root span.  Calls made outside an
operation, or from another thread than the one running it, run untraced.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import scipy.sparse.linalg

# layer -> public functions recorded at every binding
TRACED = {
    "files": ("parse_mesh", "write_mesh"),
    "mesh": ("validate", "enumerate_short_loops"),
    "geometry": ("triangle_lengths", "angles_from_lengths"),
    "curvature": ("curvature_state", "curvature_hessian"),
    "flow": ("run_flow", "newton_solve"),
    "conditions": (
        "check_subset_inequalities",
        "check_loop_conditions",
        "full_report",
        "subset_bound",
    ),
    "layout": ("develop_layout", "render_svg"),
    "cli": ("run",),
}
SPSOLVE = "flow.spsolve"


def _run_flow_count(result):
    trace, _report = result
    return {"flow.accepted_steps": len(trace.samples) - 1}


# exact counters read from return values, keyed by span name
COUNT_HOOKS = {
    "mesh.enumerate_short_loops": lambda r: {"mesh.enumerate_short_loops.loops": len(r)},
    "conditions.check_subset_inequalities": lambda r: {
        "conditions.subsets_checked": r.subsets_checked
    },
    "layout.render_svg": lambda r: {"layout.svg_bytes": len(r.encode())},
    "flow.run_flow": _run_flow_count,
    "flow.newton_solve": lambda r: {"flow.newton_iters": r[1]},
}


class _ModuleView(types.ModuleType):
    """Stand-in for a module binding: one attribute replaced, the rest forwarded."""

    def __init__(self, module, name, value):
        super().__init__(module.__name__)
        self._module = module
        setattr(self, name, value)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._op = None
        self._thread = None
        self._patches = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid, parent, name, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (self._op, sid, parent, name, start, end)

    @contextmanager
    def operation(self, op_id, name):
        """Root span for one benchmark operation; nested calls become its children."""
        self._op, self._thread = op_id, threading.get_ident()
        sid, parent, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, parent, name, start)
            self._op = None

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            sid, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if hook is not None:
                self.counts.update(hook(result))
            return result

        return traced

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function at every circleflow binding of it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "circleflow" or n.startswith("circleflow."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"circleflow.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                traced = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, traced)
        self._install_spsolve(sys.modules.get("circleflow.flow"))

    def _install_spsolve(self, flow_module):
        original = scipy.sparse.linalg.spsolve
        traced = self._wrap(SPSOLVE, original)
        found = False
        for attr, value in list(vars(flow_module).items()):
            if value is original:
                self._set(flow_module, attr, traced)
                found = True
            elif value is scipy.sparse.linalg:
                self._set(flow_module, attr, _ModuleView(value, "spsolve", traced))
                found = True
        if not found:
            self.missing.append(SPSOLVE)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def self_times(self):
        """Per span id: duration minus the time its direct children cover."""
        own = {}
        for _op, sid, parent, _name, start, end in self.spans:
            own[sid] = own.get(sid, 0) + (end - start)
            if parent is not None:
                own[parent] = own.get(parent, 0) - (end - start)
        return own

    def aggregate(self):
        """Per span name: calls, inclusive seconds, self seconds; plus the
        number of curvature evaluations made inside run_flow."""
        own = self.self_times()
        calls = Counter()
        total = defaultdict(int)
        self_ns = defaultdict(int)
        flow_evals = 0
        for _op, sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += own[sid]
            if name == "curvature.curvature_state" and self._inside(parent, "flow.run_flow"):
                flow_evals += 1
        seconds = lambda ns: {k: v / 1e9 for k, v in ns.items()}  # noqa: E731
        return calls, seconds(total), seconds(self_ns), flow_evals

    def _inside(self, sid, name):
        while sid is not None:
            if self.spans[sid][3] == name:
                return True
            sid = self.spans[sid][2]
        return False

    def write(self, path):
        """Spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}))
                fh.write("\n")
