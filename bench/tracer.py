"""Span tracer for fqdist, applied from outside the package.

Run as a script, it is a drop-in for ``python -m fqdist.cli``:

    python bench/tracer.py SPANS.npz verify --p 7 --d 3 ...

It wraps the public functions of the measured modules in every
``fqdist`` namespace that binds them, runs ``fqdist.cli.main`` on the
remaining arguments, and writes the spans and call counters to SPANS.npz
when the command ends.  Nothing under ``src/`` is modified.

Each wrapped function belongs to a *group*, named like the metric it
feeds (``pairs.cone_lift``).  A call opens a span unless the innermost
open span is of the same group, in which case its time stays in that
span: ``distance_set`` calling ``pairwise_norms`` is one distance-set
span, while ``kernels_for`` calling ``build_kernels`` is one kernel span.
Public functions not named in GROUPS fall into ``<layer>.other``.
``characters`` and ``setfiles`` are not wrapped: their time lands in the
self time of whichever layer called them.
"""

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("field", "geometry", "pairs", "spectral", "bounds", "generators")

GROUPS = {
    "field.make_field": ("make_field",),
    "field.pair_tables": ("FieldCtx.pair_tables",),
    "geometry.norm_table": ("norm_table", "cone_norm_table"),
    "geometry.pointset": ("PointSet.__init__",),
    "geometry.distance_set": ("distance_set", "pinned_distance_set",
                              "pairwise_norms", "pairwise_diff_packed"),
    "pairs.count_pairs": ("count_pairs",),
    "pairs.cone_lift": ("cone_lift_check",),
    "pairs.predict": ("predict_from_spectrum",),
    "pairs.direct_identity": ("sq_zr_fourier_residual",),
    "spectral.build_kernels": ("build_kernels", "kernels_for"),
    "spectral.dft": ("dft_indicator", "masses_numeric"),
    "spectral.formula": ("sphere0_fourier_formula", "cone_fourier_formula"),
    "spectral.counting_lemma": ("verify_counting_lemma",),
    "spectral.masses": ("spectral_masses_exact",),
    "spectral.zero_mass": ("zero_mass_bounds_check",),
    "bounds.check_all": ("check_all",),
    "generators.search": ("exhaustive_square_distance_max",
                          "greedy_square_distance_search"),
    "generators.generate": ("generate", "product_lift"),
}


def _kernel_dots(ctx, d):
    volume = ctx.q ** d
    return (volume - 1) // (ctx.q - 1) * volume


# work done per call, computed from the arguments or, for the search,
# read from its public result; keyed by qualified function name
WORK = {
    "count_pairs": lambda args, result: len(args[0]) ** 2,
    "cone_lift_check": lambda args, result: (len(args[0]) * args[0].ctx.q) ** 2,
    "build_kernels": lambda args, result: _kernel_dots(*args[:2]),
    "dft_indicator": lambda args, result: (args[0].ctx.q ** args[0].d
                                           * len(args[0])),
    "distance_set": lambda args, result: len(args[0]) ** 2,
    "PointSet.__init__": lambda args, result: len(args[0]),
    "exhaustive_square_distance_max": lambda args, result: result.nodes,
}


class Tracer:
    """Keeps spans in memory as (group, parent, start, end) rows and
    per-function call and work counters."""

    def __init__(self):
        self.groups = []
        self._group_ids = {}
        self.spans = []
        self.stack = []          # (span index, group id, qualified name)
        self.calls = {}
        self.work = {}
        self.main_window = (0.0, 0.0)   # start and end of fqdist.cli.main

    def _group_id(self, group):
        gid = self._group_ids.get(group)
        if gid is None:
            gid = self._group_ids[group] = len(self.groups)
            self.groups.append(group)
        return gid

    def wrap(self, qualname, group, fn):
        gid = self._group_id(group)
        work = WORK.get(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, totals = self.calls, self.work
        calls.setdefault(qualname, 0)
        if work is not None:
            totals.setdefault(qualname, 0)

        def traced(*args, **kwargs):
            calls[qualname] += 1
            if stack and stack[-1][1] == gid:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                stack.append((idx, gid, qualname))
                parent = stack[-2][0] if len(stack) > 1 else -1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (gid, parent, start, end)
            if work is not None:
                totals[qualname] += work(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def save(self, path):
        spans = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        meta = {"groups": self.groups, "calls": self.calls,
                "work": self.work, "main_window": self.main_window}
        np.savez(path, spans=spans, meta=np.array(json.dumps(meta)))


def _group_of(layer, qualname):
    for group, members in GROUPS.items():
        if qualname in members:
            return group
    return f"{layer}.other"


def install(tracer):
    """Wrap every public function of the measured layers, in every
    fqdist namespace that binds it, plus PointSet construction and the
    FieldCtx.pair_tables property."""
    import importlib
    import fqdist
    import fqdist.cli  # noqa: F401  (binds names that must be patched)

    modules = {layer: importlib.import_module(f"fqdist.{layer}")
               for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            replaced[id(obj)] = tracer.wrap(name, _group_of(layer, name), obj)

    namespaces = [m for name, m in list(sys.modules.items())
                  if name == "fqdist" or name.startswith("fqdist.")]
    for mod in namespaces:
        for name, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)

    geometry, field = modules["geometry"], modules["field"]
    geometry.PointSet.__init__ = tracer.wrap(
        "PointSet.__init__", "geometry.pointset", geometry.PointSet.__init__)
    getter = field.FieldCtx.pair_tables.fget
    field.FieldCtx.pair_tables = property(tracer.wrap(
        "FieldCtx.pair_tables", "field.pair_tables", getter))


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import fqdist.cli
    start = time.perf_counter()
    try:
        code = fqdist.cli.main(cli_args)
    finally:
        tracer.main_window = (start, time.perf_counter())
        tracer.save(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
