"""Span tracing of the toolkit from outside, by wrapping module attributes.

``Tracer.install_spans`` replaces the functions listed in ``SPANS`` with
timing wrappers and ``Tracer.restore`` puts the originals back.  Each span
records its name, start, end, parent span and item id; spans stay in
memory until the run ends.  ``Tracer.install_counters`` wraps ``COUNTERS``
with a bare call counter instead: they run thousands of times per item,
and a span each would swamp the time being measured.

An attribute that a later change removes is reported in ``absent`` and
its metrics read 0; it is not an error.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import reference

ROOT = "item"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _ascent_note(args, kwargs, result):
    # (number of phase variables, value reached, converged flag)
    return len(_arg(args, kwargs, 1, "variables")), float(result[1]), bool(result[2])


def _polish_note(args, kwargs, result):
    return float(result[1])


def _grid_note(args, kwargs, result):
    terms = _arg(args, kwargs, 0, "terms")
    k = len(_arg(args, kwargs, 1, "variables"))
    return _arg(args, kwargs, 3, "grid_per_var") ** k * len(terms)


def _mul_note(args, kwargs, result):
    return len(args[0].coeffs) * len(args[1].coeffs), len(result.coeffs)


def _invert_note(args, kwargs, result):
    # The closure is computed after the run; keep a reference to the input.
    return args[0]


# (span name, module, dotted attribute path, annotation).  The same span
# name may appear twice when a module re-exports a function by name.
SPANS = [
    ("bohr._line_max_on_circle", "bohr", "_line_max_on_circle", None),
    ("bohr._coordinate_ascent", "bohr", "_coordinate_ascent", _ascent_note),
    ("bohr._polish", "bohr", "_polish", _polish_note),
    ("bohr.torus_sup", "bohr", "torus_sup", None),
    ("bohr.torus_sup", "analysis", "torus_sup", None),
    ("bohr._grid_values", "bohr", "_grid_values", _grid_note),
    ("bohr.bohr_lift", "bohr", "bohr_lift", None),
    ("bohr.bohr_lift", "analysis", "bohr_lift", None),
    ("series.mul", "series", "TruncatedDirichletSeries.mul", _mul_note),
    ("series.mul", "series", "TruncatedDirichletSeries.__mul__", _mul_note),
    ("series.invert", "series", "TruncatedDirichletSeries.invert", _invert_note),
    ("series.TruncatedDirichletSeries.load", "series", "TruncatedDirichletSeries.load", None),
    ("group.project_invariant", "group", "project_invariant", None),
    ("group.is_invariant", "group", "is_invariant", None),
    ("group.act", "group", "act", None),
    ("group.integer_orbit", "group", "integer_orbit", None),
    ("primes.PrimeTable", "primes", "PrimeTable.__init__", None),
    ("analysis.line_sup", "analysis", "line_sup", None),
    ("analysis.perron_recover", "analysis", "perron_recover", None),
    ("analysis.seminorm_Pr", "analysis", "seminorm_Pr", None),
    ("analysis.sigma_u_plus_estimate", "analysis", "sigma_u_plus_estimate", None),
    ("cli.main", "cli", "main", None),
]

COUNTERS = [
    ("scalars.ExactComplex.mul", "scalars", "ExactComplex.__mul__"),
    ("scalars.ExactComplex.mul", "scalars", "ExactComplex.__rmul__"),
    ("scalars.ExactComplex.add", "scalars", "ExactComplex.__add__"),
    ("scalars.ExactComplex.add", "scalars", "ExactComplex.__radd__"),
    ("primes.PrimeTable.factor", "primes", "PrimeTable.factor"),
]

START_SLOTS = 7  # torus_sup's grid start plus its six default restarts


def _resolve(modules, module, path):
    """(owner, attribute name, raw attribute) or None when absent."""
    owner = modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Spans are lists [name, start, end, parent, item, note]."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = None
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def _patch(self, module, path, make):
        found = _resolve(self.modules, module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return
        owner, attr, raw = found
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install_spans(self):
        for name, module, path, note in SPANS:
            self._patch(module, path, lambda fn, name=name, note=note: self._span_wrapper(name, fn, note))

    def install_counters(self):
        for name, module, path in COUNTERS:
            self._patch(module, path, lambda fn, name=name: self._count_wrapper(name, fn))

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name, fn, note):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    # -- items ------------------------------------------------------------

    def run_item(self, item_id, fn):
        """Run fn() under a root span for one item."""
        self.item = item_id
        span = [ROOT, 0.0, 0.0, -1, item_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn()
        finally:
            span[2] = perf_counter()
            self.stack.pop()
            self.item = None

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, items: int, count_items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced item unless the unit says otherwise."""
        children: dict[int, list[int]] = {}
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children.setdefault(parent, []).append(i)
                self_s[self.spans[parent][0]] -= end - start

        out: dict[str, tuple[float, str]] = {}
        for name, _, _, _ in SPANS:
            out[f"{name}.calls"] = (calls[name] / items, "count/item")
            out[f"{name}.self_s"] = (self_s[name] / items, "s/item")

        def named(i, name):
            return [j for j in children.get(i, []) if self.spans[j][0] == name]

        cycles = []
        converged = []
        gains = []
        winners = [0] * START_SLOTS
        for i, span in enumerate(self.spans):
            if span[0] == "bohr._coordinate_ascent":
                k, _, conv = span[5]
                cycles.append(len(named(i, "bohr._line_max_on_circle")) / max(k, 1))
                converged.append(conv)
            elif span[0] == "bohr.torus_sup":
                values = []
                for j in children.get(i, []):
                    child = self.spans[j]
                    if child[0] == "bohr._coordinate_ascent":
                        values.append(child[5][1])
                    elif child[0] == "bohr._polish" and values:
                        # The optimizer keeps the polished point when v2 >= v.
                        gains.append(child[5] > values[-1])
                        values[-1] = max(values[-1], child[5])
                if values:
                    best = max(range(len(values)), key=lambda j: (values[j], -j))
                    winners[min(best, START_SLOTS - 1)] += 1

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        out["bohr._coordinate_ascent.cycles"] = (mean(cycles), "count/call")
        out["bohr._coordinate_ascent.converged_ratio"] = (mean(converged), "ratio")
        out["bohr._polish.gain_ratio"] = (mean(gains), "ratio")
        total = sum(winners)
        for j, won in enumerate(winners):
            out[f"bohr.torus_sup.winning_start.{j}"] = (won / total if total else 0.0, "ratio")

        notes = {"bohr._grid_values": [], "series.mul": [], "series.invert": []}
        for span in self.spans:
            if span[0] in notes:
                notes[span[0]].append(span[5])
        out["bohr._grid_values.points"] = (mean(notes["bohr._grid_values"]), "count/call")
        out["series.mul.pairs"] = (mean([p for p, _ in notes["series.mul"]]), "count/call")
        out["series.mul.out_terms"] = (mean([t for _, t in notes["series.mul"]]), "count/call")
        closures = [reference.closure_size(s.coeffs, s.window) for s in notes["series.invert"]]
        out["series.invert.closure"] = (mean(closures), "count/call")

        for name in sorted({name for name, _, _ in COUNTERS}):
            out[f"{name}.calls"] = (self.counts[name] / max(count_items, 1), "count/item")
        return out

    def dump_spans(self) -> list[list]:
        """Spans as JSON-ready rows; notes that hold objects are dropped."""
        return [
            [name, start, end, parent, item, note if isinstance(note, (int, float, tuple)) else None]
            for name, start, end, parent, item, note in self.spans
        ]
