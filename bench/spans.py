"""Spans and counts recorded from outside the program.

Each public function in LAYERS is replaced, wherever a module of the
program binds it, by a wrapper that records a span (name, start, end,
parent) while a recorder is on.  When the recorder is off the wrapper
only forwards the call.  Spans are kept in memory and written out at the
end of the run.

The counting run is separate from every timed run: a profile hook counts
Fraction arithmetic calls against the innermost open span, and calls of
TruncPoly's multiplication, so its cost touches no timing.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import json
import sys
import time

# (module, attribute) of every function that gets a span; the span and
# its metrics are named "<module>.<attribute>".
LAYERS = [
    ("racks", "validate_rack"),
    ("linalg", "kernel_basis"),
    ("linalg", "image_basis"),
    ("linalg", "sum_and_intersection_dims"),
    ("linalg", "rank"),
    ("linalg", "solve"),
    ("truncpoly", "PolyMat.compose"),
    ("truncpoly", "PolyMat.inverse"),
    ("truncpoly", "PolyMat.tensor"),
    ("yangbaxter", "check_ybe"),
    ("yangbaxter", "braid_rep"),
    ("cohomology", "coboundary_matrix"),
    ("cohomology", "entropic_basis"),
    ("cohomology", "is_entropic"),
    ("cohomology", "classify_h2"),
    ("deformations", "assemble"),
    ("deformations", "normalize_to_entropic"),
    ("cli", "main"),
]
SPAN_NAMES = [f"{m}.{a}" for m, a in LAYERS]

# spans whose Fraction arithmetic is counted, and the counted method
FRACTION_OPS = ["linalg.kernel_basis", "linalg.solve",
                "yangbaxter.check_ybe", "truncpoly.PolyMat.compose"]
MUL_CALLS = ("truncpoly", "TruncPoly.__mul__")

_F = fractions.Fraction
_ARITH = {getattr(_F, k).__code__ for k in
          ("_add", "_sub", "_mul", "_div", "_floordiv", "_mod", "_divmod",
           "__neg__", "__pos__", "__abs__", "__pow__", "__rpow__")}


class Recorder:
    def __init__(self):
        self.on = False
        self.spans: list = []   # [name index, start, end, parent index]
        self.stack: list = []   # open span indices
        self.counting = False
        self.count_stack: list = []  # open span name indices, counting run
        self.fraction_ops = [0] * (len(SPAN_NAMES) + 1)  # last: outside
        self.mul_calls = 0

    def _wrap(self, idx, orig):
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if rec.counting:
                rec.count_stack.append(idx)
                try:
                    return orig(*args, **kwargs)
                finally:
                    rec.count_stack.pop()
            if not rec.on:
                return orig(*args, **kwargs)
            i = len(rec.spans)
            rec.spans.append([idx, time.perf_counter(), 0.0,
                              rec.stack[-1] if rec.stack else -1])
            rec.stack.append(i)
            try:
                return orig(*args, **kwargs)
            finally:
                rec.stack.pop()
                rec.spans[i][2] = time.perf_counter()
        return wrapper

    def install(self):
        """Wrap every function in LAYERS that the program still has."""
        mods = [m for name, m in list(sys.modules.items())
                if name == "ybrack" or name.startswith("ybrack.")]
        for idx, (mod_name, attr) in enumerate(LAYERS):
            owner = importlib.import_module("ybrack." + mod_name)
            *path, last = attr.split(".")
            for p in path:
                owner = getattr(owner, p, None)
            orig = getattr(owner, last, None) if owner is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(idx, orig)
            if path:
                setattr(owner, last, wrapper)
                continue
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)

    # -- results of a traced round -----------------------------------------

    def self_times(self, first: int) -> list[float]:
        """Self time per span name over spans[first:]: duration minus the
        durations of direct children."""
        out = [0.0] * len(SPAN_NAMES)
        for idx, start, end, parent in self.spans[first:]:
            d = end - start
            out[idx] += d
            if parent >= first:
                out[self.spans[parent][0]] -= d
        return out

    def top_level_time(self, first: int) -> float:
        return sum(e - s for _, s, e, p in self.spans[first:] if p < first)

    def dump(self, fh):
        json.dump({"names": SPAN_NAMES, "spans": self.spans}, fh)

    # -- the counting run ---------------------------------------------------

    def count(self, fn):
        """Run fn under the counting hook."""
        mul_code = None
        owner = importlib.import_module("ybrack." + MUL_CALLS[0])
        for p in MUL_CALLS[1].split("."):
            owner = getattr(owner, p, None)
        if owner is not None:
            mul_code = getattr(owner, "__code__", None)
        arith, ops, stack = _ARITH, self.fraction_ops, self.count_stack

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code in arith:
                    ops[stack[-1] if stack else -1] += 1
                elif code is mul_code:
                    self.mul_calls += 1

        self.counting = True
        sys.setprofile(hook)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            self.counting = False
