"""Tracing for the benchmark's traced run.

The tracer replaces public names of the fracbesov modules, at the module
attributes the program actually looks them up through, with wrappers that
record one span per call: name, start, end, parent span and operation id.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time covered by its child spans.

Counters are taken from outside the program: from the arguments the
wrappers see and by wrapping the callable handed to ``molecule_check``.
The counting work runs inside ``trace.count`` spans, so it is subtracted
from the self time of the span that encloses it.

``install`` patches, ``restore`` puts every original back; the untraced
passes of a run measure the unmodified program.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from fracbesov import battle_lemarie as bl
from fracbesov import frac_wavelets as fw
from fracbesov import splines as sp

COUNT_SPAN = "trace.count"


def _frac_bspline_count(tracer, args, kwargs):
    spec = args[0]
    x = args[1] if len(args) > 1 else kwargs["x"]
    y = np.atleast_1d(np.asarray(x, dtype=float)).ravel() - spec.shift_k
    if spec.variant == "anticausal":
        y = -y
    name = "splines.frac_bspline"
    tracer.add(name + ".points", y.size)
    if spec.variant != "symmetric":
        # nonzero terms of the locally finite series: floor(y) + 1 per y > 0
        tracer.add(name + ".series_terms", float(np.sum(np.floor(y[y > 0.0]) + 1.0)))
    tracer.add(name + ".distinct_fracs", np.unique(np.mod(y, 1.0)).size)


def _points_count(key, pos):
    def count(tracer, args, kwargs):
        x = args[pos] if len(args) > pos else kwargs["x"]
        tracer.add(key, np.size(x))

    return count


def _panel_rule_count(tracer, args, kwargs):
    breaks = args[0] if args else kwargs["breaks"]
    npts = args[1] if len(args) > 1 else kwargs.get("npts", 16)
    tracer.add("quadrature.panel_rule.nodes", (np.size(breaks) - 1) * npts)


def targets():
    """(module, attribute, span name, counter) for every patched name."""
    return [
        (fw, "frac_bspline", "splines.frac_bspline", _frac_bspline_count),
        (sp, "bspline_natural", "splines.bspline_natural",
         _points_count("splines.bspline_natural.points", 1)),
        (bl, "bspline_natural", "splines.bspline_natural",
         _points_count("splines.bspline_natural.points", 1)),
        (bl, "bspline_derivative", "splines.bspline_derivative", None),
        (fw, "beta_star_integer_samples", "splines.beta_star_integer_samples", None),
        (fw, "gbinom_row", "specfun.gbinom_row", None),
        (fw, "panel_rule", "quadrature.panel_rule", _panel_rule_count),
        (fw, "bl_system", "battle_lemarie.bl_system", None),
        (bl, "bl_system", "battle_lemarie.bl_system", None),
        (fw, "wavelet_localized", "battle_lemarie.wavelet_localized", None),
        (fw, "scaling_localized", "battle_lemarie.scaling_localized", None),
        (fw, "wavelet_filter", "frac_wavelets.wavelet_filter", None),
        (fw, "psi_frac", "frac_wavelets.psi_frac",
         _points_count("frac_wavelets.psi_frac.points", 2)),
        (fw, "Psi_combined", "frac_wavelets.Psi_combined", None),
        (fw, "calibrate_constants", "frac_wavelets.calibrate_constants", None),
        (fw, "molecule_check", "frac_wavelets.molecule_check", None),
    ]


class Tracer:
    """In-memory span recorder; records only while ``op`` is set."""

    def __init__(self):
        self.op = None
        self.spans: list[tuple] = []
        # (op, span name) -> [calls, self seconds]
        self.stats: dict[tuple, list] = {}
        # (op, counter name) -> value
        self.counts: dict[tuple, float] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name):
        t1 = time.perf_counter()
        sid, parent, child_s, t0 = frame
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
        self.spans.append((self.op, sid, parent, name, t0, t1))
        st = self.stats.setdefault((self.op, name), [0, 0.0])
        st[0] += 1
        st[1] += dur - child_s

    def call(self, name, fn, *args, **kwargs):
        frame = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, name)

    def add(self, key, value):
        k = (self.op, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def maximum(self, key, value):
        k = (self.op, key)
        self.counts[k] = max(self.counts.get(k, value), value)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if counter is not None:
                self.call(COUNT_SPAN, counter, self, args, kwargs)
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_molecule_check(self, fn, name):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if self.op is None:
                return fn(f, *args, **kwargs)
            seen = []

            def record(x):
                xs = np.asarray(x, dtype=float).ravel()
                seen.append(xs.copy())
                self.add(name + ".fn_points", xs.size)

            def counted(x):
                self.call(COUNT_SPAN, record, x)
                return self.call(name + ".fn", f, x)

            rep = self.call(name, fn, counted, *args, **kwargs)
            self.call(COUNT_SPAN, self._after_molecule_check, name, seen, rep)
            return rep

        return wrapper

    def _after_molecule_check(self, name, seen, rep):
        if seen:
            self.add(name + ".distinct_points", np.unique(np.concatenate(seen)).size)
        for cond, entry in rep.conditions.items():
            if cond.startswith("M4"):
                self.maximum(name + ".max_m4_ratio", entry["ratio"])

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, counter in targets():
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            if attr == "molecule_check":
                wrapped = self._wrap_molecule_check(orig, name)
            else:
                wrapped = self._wrap(orig, name, counter)
            setattr(module, attr, wrapped)

    def restore(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def phase(self, op) -> tuple[dict, dict]:
        """({span name: (calls, self_s)}, {counter: value}) for one op id."""
        stats = {name: tuple(v) for (o, name), v in self.stats.items() if o == op}
        counts = {key: v for (o, key), v in self.counts.items() if o == op}
        return stats, counts

    def write(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["op", "id", "parent", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
