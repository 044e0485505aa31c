"""Span tracer for the benchmark: wraps the public functions of each cubefib
module from outside the package, one module per layer.

Every wrapped call is a frame on a stack. On exit the frame's duration is
added to its parent's child time, so self time (duration minus the time
covered by child frames) is exact without keeping every span. Spans are
kept in memory up to a cap and written out by the caller at the end.

Functions called far too often for a span each get a counting wrapper
only: admissible-set membership and memoised minor expansion leave their
time in the enclosing frame (of the same layer); the per-node interval solve
`QuadraticSolvedLevels.bounds_at` also charges its time to lattice.

`from ... import` binds a function into the importing module at import
time, so each wrapper is installed under every module attribute that holds
the original function object (for example `cubefib.driver.
hyperplane_count_exact` as well as `cubefib.lattice.hyperplane_count_exact`).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("driver", "sieve", "lattice", "nt", "gridcount", "finitefield",
          "localdensity", "fibration")

# wrapped for counts only (no timing, no span)
COUNT_ONLY = {"fibration.minor_det", "sieve.membership"}
# per-node integer helpers of the interval recursion: left unwrapped, their
# time stays in the calling frame
UNWRAPPED = {"nt.count_quadratic_interval", "nt.floor_div", "nt.ceil_div"}
# private helpers that carry a counter the benchmark reports
PRIVATE_WRAPPED = ("driver._solutions_of_definite",)

# gridcount entry points whose evaluated grid size is counted
_GRID_COUNTERS = {
    "gridcount.count_zeros_mod_q", "gridcount.zeros_mod_q",
    "gridcount.count_system_zeros_mod_p", "gridcount.character_sum_counts",
    "gridcount.eval_on_box", "gridcount.eval_mod_on_coords",
}

SPAN_CAP = 100_000


def _grid_points(name, args, kwargs):
    if name == "gridcount.eval_mod_on_coords":
        coords = args[2] if len(args) > 2 else kwargs["coords"]
        return int(coords.shape[1])
    if name == "gridcount.eval_on_box":
        lows = args[1] if len(args) > 1 else kwargs["lows"]
        highs = args[2] if len(args) > 2 else kwargs["highs"]
        total = 1
        for lo, hi in zip(lows, highs):
            total *= max(0, hi - lo + 1)
        return total
    if name == "gridcount.count_system_zeros_mod_p":
        polys, q = args[0], args[1]
        return q ** polys[0].num_vars
    poly, q = args[0], args[1]
    return q ** poly.num_vars


class Tracer:
    """Installs wrappers on the cubefib modules; `uninstall` restores them."""

    def __init__(self):
        self.names: list = []          # function id -> qualified name
        self.layer_of: list = []       # function id -> layer
        self.spans: list = []          # [fid, start, end, parent_span, call_id]
        self.spans_dropped = 0
        self.call_id = -1
        self.stack: list = []          # frames: [fid, start, child_time, span]
        self.active = Counter()        # fid -> frames of it on the stack
        self.calls = Counter()         # fid -> calls
        self.busy = Counter()          # fid -> outermost duration
        self.fn_self = Counter()       # fid -> self time
        self.layer_self = Counter()    # layer -> self time
        self.layer_busy = Counter()    # layer -> duration of outermost frames
        self.counters = Counter()
        self.reject = Counter()
        self._patched: list = []       # (owner, attr, original)
        self._ids: dict = {}
        self._repr_fid = None
        self._gen_fid = None
        self._factor_fid = None

    # -- frames ---------------------------------------------------------

    def _fid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return self._ids[name]

    def _enter(self, fid, span=None):
        if span is None:
            parent = self.stack[-1][3] if self.stack else -1
            if len(self.spans) < SPAN_CAP:
                span = len(self.spans)
                self.spans.append([fid, 0.0, 0.0, parent, self.call_id])
            else:
                span = -1
                self.spans_dropped += 1
        self.active[fid] += 1
        frame = [fid, 0.0, 0.0, span]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        fid, start, child, span = frame
        dur = end - start
        self.stack.pop()
        self.active[fid] -= 1
        layer = self.layer_of[fid]
        self.fn_self[fid] += dur - child
        self.layer_self[layer] += dur - child
        if not self.active[fid]:
            self.busy[fid] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if parent is None or self.layer_of[parent[0]] != layer:
            self.layer_busy[layer] += dur
        if fid == self._factor_fid and parent is not None and parent[0] == self._gen_fid:
            self.counters["nt.factorize.calls"] += 1
            self.counters["nt.factorize.busy_s"] += dur
        if span >= 0:
            rec = self.spans[span]
            if not rec[1]:
                rec[1] = start
            rec[2] = end

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn):
        fid = self._fid(name)
        tracer = self
        layer = self.layer_of[fid]
        grid = name in _GRID_COUNTERS
        hce = name == "lattice.hyperplane_count_exact"
        sols = name == "driver._solutions_of_definite"

        def note_call(args, kwargs):
            """Grid points this call will evaluate if it returns (0 if not a
            gridcount entry from another layer)."""
            tracer.calls[fid] += 1
            if tracer.stack and tracer.layer_of[tracer.stack[-1][0]] == layer:
                return 0
            if not grid:
                return 0
            tracer.counters["gridcount.calls"] += 1
            return _grid_points(name, args, kwargs)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                points = note_call(args, kwargs)
                it = fn(*args, **kwargs)
                span = None
                while True:
                    frame = tracer._enter(fid, span)
                    span = frame[3]
                    try:
                        value = next(it)
                    except StopIteration:
                        tracer._exit(frame)
                        tracer.counters["gridcount.points"] += points
                        return
                    except BaseException:
                        tracer._exit(frame)
                        raise
                    tracer._exit(frame)
                    yield value
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            points = note_call(args, kwargs)
            frame = tracer._enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            # counted only for calls that return: a budget check that raises
            # evaluates nothing
            tracer.counters["gridcount.points"] += points
            if hce:
                tracer.counters["lattice.points"] += result.exact
            elif sols:
                tracer.counters["driver.representation.solutions"] += len(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        fid = self._fid(name)
        counts = self.calls
        if name == "sieve.membership":
            reject = self.reject

            def membership(*args, **kwargs):
                counts[fid] += 1
                res = fn(*args, **kwargs)
                if res.member:
                    reject["admitted"] += 1
                else:
                    reject[_reason_key(res.reason)] += 1
                return res
            membership.__wrapped__ = fn
            return membership

        def wrapper(*args, **kwargs):
            counts[fid] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _bounds_at_wrapper(self, fn):
        """Counts nodes and charges their time to lattice, without a span:
        representation_count_coprime drives the same recursion from driver."""
        tracer = self
        counters = self.counters
        fid = self._fid("lattice.QuadraticSolvedLevels.bounds_at")
        clock = time.perf_counter

        def bounds_at(solver, j, outer):
            t0 = clock()
            res = fn(solver, j, outer)
            dt = clock() - t0
            tracer.fn_self[fid] += dt
            tracer.layer_self["lattice"] += dt
            if tracer.stack:
                tracer.stack[-1][2] += dt
            counters["lattice.nodes"] += 1
            if j == 0:
                counters["lattice.rows"] += 1
                if res[0] and tracer.active[tracer._repr_fid]:
                    counters["driver.representation.root_tests"] += 1
            return res
        bounds_at.__wrapped__ = fn
        return bounds_at

    # -- install --------------------------------------------------------

    def install(self):
        mods = {layer: importlib.import_module(f"cubefib.{layer}") for layer in LAYERS}
        every = [m for k, m in sorted(sys.modules.items())
                 if m is not None and (k == "cubefib" or k.startswith("cubefib."))]
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED or (attr.startswith("_") and name not in PRIVATE_WRAPPED):
                    continue
                if name in COUNT_ONLY:
                    replace[id(obj)] = (obj, self._count_wrapper(name, obj))
                else:
                    replace[id(obj)] = (obj, self._span_wrapper(name, obj))
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cls = mods["lattice"].QuadraticSolvedLevels
        self._patched.append((cls, "bounds_at", cls.bounds_at))
        cls.bounds_at = self._bounds_at_wrapper(cls.bounds_at)
        self._repr_fid = self._fid("driver.representation_count_coprime")
        self._gen_fid = self._fid("sieve.enumerate_admissible")
        self._factor_fid = self._fid("nt.prime_factors")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def fn_busy(self, name):
        return self.busy[self._ids[name]] if name in self._ids else 0.0

    def fn_calls(self, name):
        return self.calls[self._ids[name]] if name in self._ids else 0

    def fn_self_time(self, name):
        return self.fn_self[self._ids[name]] if name in self._ids else 0.0

    def span_dump(self):
        return {"names": list(self.names), "fields": ["fn", "start", "end", "parent", "call"],
                "spans": self.spans, "dropped": self.spans_dropped}


def _reason_key(reason: str) -> str:
    """Rejection bucket for a `MembershipResult.reason` string."""
    if reason == "box":
        return "box"
    if reason.startswith("bad-prime"):
        return "bad_prime"
    if reason.startswith("good prime") or reason.startswith("good-prime"):
        return "good_prime"
    return "other"
