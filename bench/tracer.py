"""Per-layer spans and counters, installed from outside the package.

Each wrapper replaces a public function under every `gppairs` module
attribute that holds it, so callers that imported the name directly are
traced too.  Spans form a stack: a span's self time is its duration minus
the durations of the spans it caused.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer name) for plain functions
FUNCTIONS = (
    ("gppairs.exact", "floor_q", "exact.floor_q"),
    ("gppairs.exact", "floor_scaled_sqrt2", "exact.floor_scaled_sqrt2"),
    ("gppairs.engine", "generate", "engine.generate"),
    ("gppairs.engine", "exact_step", "engine.exact_step"),
    ("gppairs.engine", "digits_of_target", "engine.digits_of_target"),
    ("gppairs.engine", "first_bad_digit", "engine.first_bad_digit"),
    ("gppairs.engine", "multiple_sqrt2_digit", "engine.multiple_sqrt2_digit"),
    ("gppairs.reals", "certified_floor", "reals.certified_floor"),
    ("gppairs.reals", "const_sqrt2", "reals.const_sqrt2"),
    ("gppairs.reals", "const_pi", "reals.const_pi"),
    ("gppairs.reals", "const_e", "reals.const_e"),
    ("gppairs.discovery", "sweep", "discovery.sweep"),
    ("gppairs.discovery", "value_at", "discovery.value_at"),
    ("gppairs.discovery", "bisect_jump", "discovery.bisect_jump"),
    ("gppairs.discovery", "lll_reduce", "discovery.lll_reduce"),
    ("gppairs.discovery", "identify_halfint_sqrt2", "discovery.identify_halfint_sqrt2"),
    ("gppairs.discovery", "min_poly_deg2", "discovery.min_poly_deg2"),
    ("gppairs.cli", "main", "cli.main"),
)
QSQRT2_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "sign")

# Reported per-layer metrics: name -> unit.
METRICS = {
    "exact.floor_q.calls": "count", "exact.floor_q.self_s": "s",
    "exact.floor_scaled_sqrt2.calls": "count", "exact.floor_scaled_sqrt2.self_s": "s",
    "exact.qsqrt2_arith.calls": "count", "exact.qsqrt2_arith.self_s": "s",
    "engine.generate.self_s": "s",
    "engine.exact_step.calls": "count", "engine.exact_step.self_s": "s",
    "engine.v_max_bits": "bits",
    "engine.digits_of_target.calls": "count", "engine.digits_of_target.self_s": "s",
    "engine.first_bad_digit.self_s": "s",
    "engine.multiple_sqrt2_digit.calls": "count", "engine.multiple_sqrt2_digit.self_s": "s",
    "reals.certified_floor.calls": "count", "reals.certified_floor.self_s": "s",
    "reals.certified_floor.attempts": "count",
    "reals.certified_floor.first_try_ratio": "ratio",
    "reals.refine.calls": "count", "reals.refine.misses": "count",
    "reals.refine.hit_ratio": "ratio", "reals.refine.final_bits": "bits",
    "reals.const_pi.calls": "count", "reals.const_pi.self_s": "s",
    "reals.const_e.calls": "count", "reals.const_e.self_s": "s",
    "discovery.sweep.calls": "count", "discovery.sweep.self_s": "s",
    "discovery.sweep.cells": "count",
    "discovery.value_at.calls": "count", "discovery.bisect_jump.self_s": "s",
    "discovery.lll_reduce.calls": "count", "discovery.lll_reduce.self_s": "s",
    "discovery.identify_halfint_sqrt2.self_s": "s",
    "discovery.min_poly_deg2.self_s": "s",
    "cli.main.self_s": "s", "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}
# taken by the benchmark around the traced run, not by the wrappers
MEASURED_OUTSIDE = ("cli.import_s", "trace.overhead_ratio")


class Tracer:
    """Span stack plus counters.  Frames are [name, start, child_s, attempts]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.attempts = 0        # const_sqrt2 calls made by certified_floor
        self.first_try = 0       # certified_floor calls decided at start_bits
        self.v_max_bits = 0
        self.refine_misses = 0
        self.final_bits = 0
        self.cells = 0
        self._last_refine: dict = {}
        self._undo: list = []

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(result, frame, args)` runs on return."""
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(result, frame, args)
            return result
        return wrapper

    # --- counters taken at the layer boundaries ---------------------------

    def _after_step(self, result, frame, args):
        self.v_max_bits = max(self.v_max_bits, result.bit_length())

    def _after_certified_floor(self, result, frame, args):
        self._after_step(result, frame, args)
        self.first_try += frame[3] == 1

    def _after_sqrt2(self, result, frame, args):
        # the span is already popped: the top of the stack is the caller
        if self.stack and self.stack[-1][0] == "reals.certified_floor":
            self.stack[-1][3] += 1
            self.attempts += 1

    def _after_refine(self, result, frame, args):
        real = args[0]
        if self._last_refine.get(id(real)) is not result:
            self.refine_misses += 1
        self._last_refine[id(real)] = result
        self.final_bits = max(self.final_bits, result.bits)

    def _after_sweep(self, result, frame, args):
        self.cells += len(result)

    # --- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function wherever a gppairs module binds it."""
        after = {
            "engine.exact_step": self._after_step,
            "reals.certified_floor": self._after_certified_floor,
            "reals.const_sqrt2": self._after_sqrt2,
            "discovery.sweep": self._after_sweep,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gppairs" or n.startswith("gppairs.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:  # absent in this version of the package
                continue
            wrapper = self.wrap(name, original, after.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapper)
        methods = [(sys.modules["gppairs.exact"].QSqrt2, attr, "exact.qsqrt2_arith", None)
                   for attr in QSQRT2_ARITH]
        methods.append((sys.modules["gppairs.reals"].RefinableReal, "refine",
                        "reals.refine", self._after_refine))
        for cls, attr, name, after_call in methods:
            if hasattr(cls, attr):
                self._replace(cls, attr, self.wrap(name, getattr(cls, attr), after_call))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Every per-layer metric this tracer measures itself."""
        c, s = self.calls, self.self_s
        floors = c["reals.certified_floor"]
        refines = c["reals.refine"]
        values = {
            "engine.v_max_bits": self.v_max_bits,
            "reals.certified_floor.attempts": self.attempts,
            "reals.certified_floor.first_try_ratio": self.first_try / floors if floors else 1.0,
            "reals.refine.calls": refines,
            "reals.refine.misses": self.refine_misses,
            "reals.refine.hit_ratio": 1 - self.refine_misses / refines if refines else 1.0,
            "reals.refine.final_bits": self.final_bits,
            "discovery.sweep.cells": self.cells,
        }
        for name in METRICS:
            if name not in values and name not in MEASURED_OUTSIDE:
                layer, kind = name.rsplit(".", 1)
                values[name] = c[layer] if kind == "calls" else s[layer]
        return values
