"""Span tracing for the benchmark's traced run, installed from outside `src/`.

The tracer replaces chosen wittram functions and methods with wrappers that
record one span per call: a name, a start, an end and the index of the span
that was open when the call began.  Spans stay in parallel lists in memory
and are written out once, when the run ends.  Some wrappers only count calls
(object constructions), because a span per construction would cost more than
the work it measures.

Nothing here imports wittram: the targets are resolved from modules the
caller has already imported, so the benchmark can time that import.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# The "small" shape of a series product: either window below 64 terms, or a
# product below 1024 terms.  _int_conv in wittram.series keeps exactly these
# sizes on its direct (quadratic) path; larger products may take the FFT.
SMALL_WINDOW = 64
SMALL_OUTPUT = 1024


def _mul_label(args):
    a, b = args[0], args[1]
    la = len(a.coeffs)
    lb = len(b.coeffs) if hasattr(b, "coeffs") else 1
    if min(la, lb) < SMALL_WINDOW or la + lb - 1 < SMALL_OUTPUT:
        return "series.mul_small"
    return "series.mul_large"


def _eval_terms(args):
    return len(args[0])


def _batch_terms(args):
    return len(args[0]) * args[1].shape[1]


class Tracer:
    """In-memory span recorder with installable wrappers."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counts = Counter()
        self._stack = [-1]
        self._patches = []

    # ---------- wrappers ----------

    def span(self, name, fn, label=None, tally=None):
        """Wrap fn so each call records a span.

        label(args) may rename the span per call; tally(args) adds to the
        count named after the span (for work counts beyond the call count).
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(label(args) if label else name)
            parents.append(stack[-1])
            ends.append(0.0)
            if tally:
                counts[name] += tally(args)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call only increments the count `name`."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def region(self, name):
        """Record a span around the benchmark's own code."""
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[i] = perf_counter()
            self._stack.pop()

    # ---------- installation ----------

    def install(self, modules):
        """Wrap the traced targets wherever the given modules bind them.

        A module that did `from .series import compose` holds its own
        reference, so every module's namespace is searched for the target
        object, not only the module that defines it; class attributes are
        searched the same way, which catches aliases such as __rmul__.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__: m for m in modules}
        series, coeff = mods["wittram.series"], mods["wittram.coeff"]
        tls = series.TruncatedLaurentSeries
        targets = [
            (tls.__mul__, self.span("series.mul", tls.__mul__, label=_mul_label)),
            (tls.inv, self.span("series.inv", tls.inv)),
            (tls.agrees_with, self.span("series.agrees_with", tls.agrees_with)),
            (tls.__init__, self.counter("series.objects", tls.__init__)),
            (coeff._Element.__init__, self.counter("coeff.elements", coeff._Element.__init__)),
        ]
        for qual, fn_name, tally in [
            ("series.compose", "compose", None),
            ("series.nth_root", "nth_root", None),
            ("tower.analyze", "analyze_tower", None),
            ("tower.build", "build_tower", None),
            ("tower.extend_stage", "extend_stage", None),
            ("tower.filtration", "ramification_filtration", None),
            ("tower.conjugate", "galois_conjugate", None),
            ("tower.invariants", "tower_invariants", None),
            ("intpoly.p_eval", "p_eval", _eval_terms),
            ("intpoly.eval_batch", "p_eval_batch_mod", _batch_terms),
            ("witt.table_build", "_extend_family", None),
            ("witt.batch_op", "witt_batch_op", None),
            ("witt.ghost_batch", "ghost_batch", None),
            ("localsym.vanishing_test", "modulus_vanishing_test", None),
            ("localsym.residue_vector", "residue_vector", None),
            ("localsym.ghost_series", "ghost_series", None),
            ("conductor.theorem", "theorem_conductor", None),
            ("conductor.oracle", "section_degree_oracle", None),
        ]:
            home = mods["wittram." + qual.split(".")[0]]
            fn = getattr(home, fn_name)
            targets.append((fn, self.span(qual, fn, tally=tally)))

        for original, wrapper in targets:
            for mod in modules:
                self._patch_namespace(mod, original, wrapper)
                for obj in list(vars(mod).values()):
                    if isinstance(obj, type) and obj.__module__.startswith("wittram"):
                        self._patch_namespace(obj, original, wrapper)

    def _patch_namespace(self, owner, original, wrapper):
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ---------- derived figures ----------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Span duration minus the time its direct children cover.

        Calls nest (one thread, strict call order), so children of a span
        are disjoint intervals inside it and their durations simply add."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def outer_time(self, name):
        """Time inside spans called `name`, counting nested repeats once."""
        dur = self.durations()
        names, parents = self.names, self.parents
        total = 0.0
        for i, n in enumerate(names):
            if n != name:
                continue
            parent = parents[i]
            while parent >= 0 and names[parent] != name:
                parent = parents[parent]
            if parent < 0:
                total += dur[i]
        return total

    def calls(self, name):
        return sum(1 for n in self.names if n == name)

    def write(self, path):
        """Write every span as one gzip-compressed JSON document."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        doc = {
            "names": table,
            "name": [index[n] for n in self.names],
            "parent": self.parents,
            "start": self.starts,
            "end": self.ends,
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def wittram_modules():
    """Every loaded wittram module, in a fixed order."""
    return [sys.modules[name] for name in sorted(sys.modules) if name == "wittram" or name.startswith("wittram.")]
