"""In-memory span tracer for the benchmark's traced run.

``install`` rebinds the layer functions named in ``SPANS`` in every
``ultradyn`` module namespace that holds them (and the methods on their
classes), so calls made between layers are traced too.  ``uninstall`` puts
the originals back.  Nothing under ``src/`` is edited.

A span is ``[name_id, start, end, parent_index, request, tag]``; spans stay
in memory until the run ends.  Field arithmetic is only counted, because a
span around one ``PadicNumber`` addition costs more than the addition.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name); "Class.method" attributes patch the class.
SPANS = [
    ("polyalg", "charpoly", "polyalg.charpoly"),
    ("polyalg", "newton_polygon", "polyalg.newton_polygon"),
    ("polyalg", "slope_factorization", "polyalg.slope_factorization"),
    ("polyalg", "row_reduce", "polyalg.row_reduce"),
    ("polyalg", "kernel_basis", "polyalg.kernel_basis"),
    ("polyalg", "mat_inverse", "polyalg.mat_inverse"),
    ("polyalg", "invariant_unit_lattice", "polyalg.invariant_unit_lattice"),
    ("spectral", "spectral_data", "spectral.spectral_data"),
    ("spectral", "_rational_factors", "spectral.rational_factors"),
    ("spectral", "spectrum_abs", "spectral.spectrum_abs"),
    ("spectral", "splitting_at", "spectral.splitting_at"),
    ("spectral", "adapted_norm", "spectral.adapted_norm"),
    ("spectral", "AdaptedNorm.transform", "spectral.AdaptedNorm.transform"),
    ("spectral", "AdaptedNorm.norm_exp", "spectral.AdaptedNorm.norm_exp"),
    ("spectral", "operator_norm", "spectral.operator_norm"),
    ("spectral", "nonhyperbolicity_witness", "spectral.nonhyperbolicity_witness"),
    ("dynamics", "classify_fixed_point", "dynamics.classify_fixed_point"),
    ("dynamics", "remainder_lipschitz", "dynamics.remainder_lipschitz"),
    ("dynamics", "linearization_radius", "dynamics.linearization_radius"),
    ("dynamics", "invariant_ball", "dynamics.invariant_ball"),
    ("dynamics", "stable_membership", "dynamics.stable_membership"),
    ("dynamics", "orbit", "dynamics.orbit"),
    ("dynamics", "conjugate", "dynamics.conjugate"),
    ("dynamics", "PolyMap.__call__", "dynamics.PolyMap.__call__"),
    ("manifolds", "graph_series", "manifolds.graph_series"),
    ("manifolds", "residual", "manifolds.residual"),
    ("manifolds", "formal_inverse", "manifolds.formal_inverse"),
]

# counted arithmetic: (class, counter key)
COUNTED = [("PadicNumber", "field.padic.ops"), ("ExtElement", "field.ext.ops")]
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "__pow__")

MODULES = ("field", "polyalg", "spectral", "dynamics", "manifolds", "cli")
GRAPH_ORDERS = range(4, 9)


def _graph_order(args, kwargs):
    order = kwargs.get("order", args[3] if len(args) > 3 else 6)
    return order if isinstance(order, int) else None


TAGS = {"manifolds.graph_series": _graph_order}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {key: [0] for _, key in COUNTED}
        self.request = -1
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, self.request,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @staticmethod
    def counted(cell, fn):
        @functools.wraps(fn)
        def counting(*args):
            cell[0] += 1
            return fn(*args)

        return counting

    # -- installation ----------------------------------------------------

    def install(self):
        if not self._patches:
            self._patches = list(self._build())
        for owner, key, new, _ in self._patches:
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, _, old in reversed(self._patches):
            setattr(owner, key, old)

    def _build(self):
        """Yield (namespace, attribute, traced, original) for every patch."""
        mods = {m: importlib.import_module(f"ultradyn.{m}") for m in MODULES}
        namespaces = [importlib.import_module("ultradyn")] + list(mods.values())
        for modname, attr, name in SPANS:
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[meth]
                yield cls, meth, self.wrap(name, orig), orig
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        yield ns, key, traced, orig
        field = mods["field"]
        for cls_name, key in COUNTED:
            cls = getattr(field, cls_name)
            for d in DUNDERS:
                if d in vars(cls):
                    orig = vars(cls)[d]
                    yield cls, d, self.counted(self.counts[key], orig), orig

    # -- reporting -------------------------------------------------------

    def summary(self):
        """{name: [calls, self_seconds]} plus graph-series time per order."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in self.names}
        by_order = {k: 0.0 for k in GRAPH_ORDERS}
        for i, (nid, start, end, _, _, tag) in enumerate(self.spans):
            agg = out[self.names[nid]]
            agg[0] += 1
            agg[1] += (end - start) - child[i]
            if tag in by_order:
                by_order[tag] += end - start
        counts = {key: cell[0] for key, cell in self.counts.items()}
        return out, by_order, counts

    def dump(self, path):
        """Write every span (and the counters) as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "fields": ["name", "start", "end", "parent", "request", "tag"],
                       "counts": {k: c[0] for k, c in self.counts.items()}}, fh)


def merge(summaries):
    """Add up several ``Tracer.summary()`` results (e.g. from CLI children)."""
    out, by_order, counts = {}, {k: 0.0 for k in GRAPH_ORDERS}, {}
    for s_out, s_order, s_counts in summaries:
        for name, (calls, self_s) in s_out.items():
            agg = out.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        for k, v in s_order.items():
            by_order[int(k)] += v
        for k, v in s_counts.items():
            counts[k] = counts.get(k, 0) + v
    return out, by_order, counts
