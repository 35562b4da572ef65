"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` in
every ``diskflow`` module namespace that binds them, so calls between
modules are seen too.  Each wrapper opens a span; a span's self time is
its duration minus the time covered by its child spans.  ``compile_expr``
is wrapped the same way: the callables it returns count one f-evaluation
per lane (the size of the argument) and charge it to the innermost open
span, so a batch evaluator reports the same work as the scalar one.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# module -> public functions that get a span
LAYERS = {
    "expr": ("boundary_limit", "validate_generator"),
    "flow": ("integrate", "convergence_profile", "backward_extendability"),
    "abel": ("abel_h", "invert_h", "abel_flow", "linearize",
             "planar_domain_stats", "bloch_norm", "visser_ostrovskii"),
    "classify": ("classify",),
    "conjugate": ("bfid_report", "inner_conjugator", "outer_conjugator",
                  "find_boundary_null_points", "corner_opening"),
    "jsonio": ("trajectory_csv",),
}

# (span, statistic) pairs reported as per-layer metrics, besides the
# totals added in ``Tracer.metrics``
REPORTED = (
    ("expr.boundary_limit", "self_s"),
    ("expr.validate_generator", "self_s"),
    ("flow.integrate", "calls"),
    ("flow.integrate", "self_s"),
    ("flow.integrate", "f_evals"),
    ("flow.integrate", "steps"),
    ("flow.integrate", "step_yield"),
    ("flow.integrate", "failed"),
    ("flow.convergence_profile", "self_s"),
    ("flow.backward_extendability", "self_s"),
    ("abel.abel_h", "calls"),
    ("abel.abel_h", "self_s"),
    ("abel.abel_h", "f_evals"),
    ("abel.abel_h", "failed"),
    ("abel.invert_h", "calls"),
    ("abel.invert_h", "self_s"),
    ("abel.invert_h", "f_evals"),
    ("abel.invert_h", "failed"),
    ("abel.invert_h", "max_s"),
    ("abel.abel_flow", "calls"),
    ("abel.abel_flow", "failed"),
    ("abel.planar_domain_stats", "calls"),
    ("abel.planar_domain_stats", "self_s"),
    ("abel.planar_domain_stats", "f_evals"),
    ("abel.bloch_norm", "self_s"),
    ("abel.visser_ostrovskii", "self_s"),
    ("abel.linearize", "self_s"),
    ("classify.classify", "self_s"),
    ("conjugate.bfid_report", "calls"),
    ("conjugate.inner_conjugator", "self_s"),
    ("conjugate.inner_conjugator", "failed"),
    ("conjugate.outer_conjugator", "self_s"),
    ("conjugate.find_boundary_null_points", "self_s"),
    ("conjugate.corner_opening", "self_s"),
    ("jsonio.trajectory_csv", "self_s"),
)

UNITS = {"calls": "count", "f_evals": "count", "steps": "count",
         "failed": "count", "self_s": "s", "max_s": "s",
         "step_yield": "ratio"}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                          "f_evals": 0, "failed": 0,
                                          "max_s": 0.0, "steps": 0})
        self.f_evals = 0
        self._stack = []  # [name, child_seconds]
        self._saved = []  # (module, attribute, original)
        self.active = True

    # --- spans ----------------------------------------------------------

    def _span(self, name, fn):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            failed = False
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                failed = True
                out = getattr(exc, "trajectory", None)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                entry = stats[name]
                entry["calls"] += 1
                entry["self_s"] += duration - frame[1]
                entry["failed"] += failed
                entry["max_s"] = max(entry["max_s"], duration)
                samples = getattr(out, "samples", None)
                if samples is not None and name == "flow.integrate":
                    entry["steps"] += len(samples) - 1
                if stack:
                    stack[-1][1] += duration
            return out

        return wrapper

    def _counting_compile(self, compile_expr):
        stats, stack = self.stats, self._stack

        def compile_counted(node):
            call = compile_expr(node)

            def counted(z):
                if self.active:
                    lanes = getattr(z, "size", 1)
                    self.f_evals += lanes
                    if stack:
                        stats[stack[-1][0]]["f_evals"] += lanes
                return call(z)

            counted.source = call.source
            return counted

        return compile_counted

    # --- installation ---------------------------------------------------

    def install(self):
        """Wrap the layer functions and compile_expr everywhere they are bound."""
        from diskflow import expr

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "diskflow"
                                         or key.startswith("diskflow."))]
        replacements = {expr.compile_expr: self._counting_compile(expr.compile_expr)}
        for short, names in LAYERS.items():
            module = sys.modules[f"diskflow.{short}"]
            for name in names:
                original = getattr(module, name)
                replacements[original] = self._span(f"{short}.{name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapped = replacements.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapped is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside this block are neither spanned nor counted."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- report ---------------------------------------------------------

    def metrics(self) -> dict:
        out = {"expr.f_evals": {"value": self.f_evals, "unit": "count"}}
        for span, stat in REPORTED:
            entry = self.stats[span]
            if stat == "step_yield":
                evals = entry["f_evals"]
                value = 6.0 * entry["steps"] / evals if evals else 0.0
            else:
                value = entry[stat]
            out[f"{span}.{stat}"] = {"value": value, "unit": UNITS[stat]}
        return out

    def counts(self) -> dict:
        """The machine-independent part: calls, f-evals, steps, failures."""
        out = {"expr.f_evals": self.f_evals}
        for span, entry in sorted(self.stats.items()):
            for stat in ("calls", "f_evals", "steps", "failed"):
                out[f"{span}.{stat}"] = entry[stat]
        return out
