"""Per-layer metrics from the spans that tracer.py writes.

A span's self time is its duration minus the durations of its direct
child spans; a group's self time is the sum over its spans, and a
layer's is the sum over its groups.  ``cli.self_s`` is the traced wall
time, measured by the parent around the whole process, minus the time
covered by top-level layer spans.  It splits into ``cli.main_self_s``,
the time inside ``fqdist.cli.main`` outside every layer span (task
building, tallies, JSON emission, and any unwrapped code), and
``cli.startup_s``, the time outside ``main`` (interpreter start-up,
imports, installing the tracer, writing the spans, exit).
"""

import json

import numpy as np

from tracer import LAYERS

# (metric, unit); the per-layer metrics BENCHMARK.json lists, in order
PER_LAYER = [
    ("pairs.cone_lift_s", "s"), ("pairs.cone_lift_calls", "count"),
    ("pairs.cone_lift_pairs", "count"),
    ("pairs.count_pairs_s", "s"), ("pairs.count_pairs_calls", "count"),
    ("pairs.pairs_enumerated", "count"),
    ("pairs.count_pairs_per_set", "count"),
    ("pairs.predict_s", "s"), ("pairs.direct_identity_s", "s"),
    ("spectral.build_kernels_s", "s"), ("spectral.kernel_builds", "count"),
    ("spectral.kernel_memo_hits", "count"),
    ("spectral.kernel_dots", "count"),
    ("spectral.dft_s", "s"), ("spectral.dft_calls", "count"),
    ("spectral.dft_terms", "count"),
    ("spectral.formula_s", "s"), ("spectral.formula_calls", "count"),
    ("spectral.counting_lemma_s", "s"),
    ("spectral.masses_s", "s"), ("spectral.masses_per_set", "count"),
    ("spectral.zero_mass_s", "s"),
    ("field.make_field_s", "s"), ("field.pair_tables_s", "s"),
    ("geometry.norm_table_s", "s"), ("geometry.pointset_s", "s"),
    ("geometry.points_built", "count"),
    ("geometry.distance_set_s", "s"), ("geometry.distance_pairs", "count"),
    ("bounds.check_all_s", "s"), ("bounds.check_all_calls", "count"),
    ("generators.search_s", "s"), ("generators.search_nodes", "count"),
    ("generators.nodes_per_s", "1/s"), ("generators.generate_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("cli.self_s", "s"), ("cli.main_self_s", "s"), ("cli.startup_s", "s"),
    ("cli.startup_probe_s", "s"), ("cli.traced_wall_s", "s"),
    ("cli.trace_overhead_s", "s"),
]

# metric suffix "_s" of these groups is the group's self time
TIMED_GROUPS = [name[:-2] for name, unit in PER_LAYER
                if unit == "s" and not name.endswith(".self_s")
                and not name.startswith("cli.")]

ACCOUNTING_TOLERANCE = 0.05
MAIN_SELF_SHARE = 0.05    # most of the command's time is in layer spans


class Trace:
    """Spans and counters summed over the commands of one traced run."""

    def __init__(self):
        self.group_self = {}
        self.calls = {}
        self.work = {}
        self.top_level = 0.0
        self.main = 0.0
        self.wall = 0.0
        self.startup_probe = 0.0
        self.min_span_self = 0.0
        self.spans_outside_main = 0

    def add(self, npz_path, wall, startup_probe):
        """One traced command: its spans file, the wall time of its
        process, and the wall time of a start-up probe for it."""
        with np.load(npz_path) as data:
            spans = data["spans"]
            meta = json.loads(str(data["meta"]))
        self.wall += wall
        self.startup_probe += startup_probe
        main_start, main_end = meta["main_window"]
        self.main += main_end - main_start
        self.spans_outside_main += int(np.count_nonzero(
            (spans[:, 2] < main_start) | (spans[:, 3] > main_end)))
        gid = spans[:, 0].astype(np.int64)
        parent = spans[:, 1].astype(np.int64)
        dur = spans[:, 3] - spans[:, 2]
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(spans))
        span_self = dur - children
        if len(spans):
            self.min_span_self = min(self.min_span_self,
                                     float(span_self.min()))
        own = np.bincount(gid, weights=span_self,
                          minlength=len(meta["groups"]))
        for group, seconds in zip(meta["groups"], own):
            self.group_self[group] = self.group_self.get(group, 0.0) + seconds
        self.top_level += float(dur[~nested].sum())
        for key, src in (("calls", meta["calls"]), ("work", meta["work"])):
            dst = getattr(self, key)
            for name, value in src.items():
                dst[name] = dst.get(name, 0) + value

    def layer_self(self, layer):
        return sum(v for g, v in self.group_self.items()
                   if g.startswith(layer + "."))

    def metrics(self, sets):
        calls = self.calls.get
        work = self.work.get
        m = {f"{g}_s": self.group_self.get(g, 0.0) for g in TIMED_GROUPS}
        nodes = work("exhaustive_square_distance_max", 0)
        search_s = m["generators.search_s"]
        m.update({
            "pairs.cone_lift_calls": calls("cone_lift_check", 0),
            "pairs.cone_lift_pairs": work("cone_lift_check", 0),
            "pairs.count_pairs_calls": calls("count_pairs", 0),
            "pairs.pairs_enumerated": work("count_pairs", 0),
            "pairs.count_pairs_per_set": calls("count_pairs", 0) / sets,
            "spectral.kernel_builds": calls("build_kernels", 0),
            "spectral.kernel_memo_hits": (calls("kernels_for", 0)
                                          - calls("build_kernels", 0)),
            "spectral.kernel_dots": work("build_kernels", 0),
            "spectral.dft_calls": calls("dft_indicator", 0),
            "spectral.dft_terms": work("dft_indicator", 0),
            "spectral.formula_calls": (calls("sphere0_fourier_formula", 0)
                                       + calls("cone_fourier_formula", 0)),
            "spectral.masses_per_set": (calls("spectral_masses_exact", 0)
                                        / sets),
            "geometry.points_built": work("PointSet.__init__", 0),
            "geometry.distance_pairs": work("distance_set", 0),
            "bounds.check_all_calls": calls("check_all", 0),
            "generators.search_nodes": nodes,
            "generators.nodes_per_s": nodes / search_s if search_s else 0.0,
            "cli.self_s": self.wall - self.top_level,
            "cli.main_self_s": self.main - self.top_level,
            "cli.startup_s": self.wall - self.main,
            "cli.startup_probe_s": self.startup_probe,
            "cli.traced_wall_s": self.wall,
        })
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self(layer)
        return m


def check_trace(trace, m, work):
    """Problems with a traced run: spans that do not nest inside their
    parents or inside fqdist.cli.main, time in main that no layer span
    covers, self times and start-up that do not add up to the wall time,
    or counted work that disagrees with the reports."""
    problems = []
    if trace.min_span_self < -1e-6:
        problems.append(f"a span's children outlast it by "
                        f"{-trace.min_span_self:.6f} s")
    if trace.spans_outside_main:
        problems.append(f"{trace.spans_outside_main} spans lie outside "
                        f"fqdist.cli.main")
    if m["cli.main_self_s"] > MAIN_SELF_SHARE * m["cli.traced_wall_s"]:
        problems.append(f"cli.main_self_s {m['cli.main_self_s']:.4f} s is "
                        f"over {MAIN_SELF_SHARE:.0%} of the traced wall: "
                        f"time inside main escapes the layer spans")
    # the start-up probe is a separate process, so this sum can miss the
    # wall: by time the process spends outside main beyond a bare start-up
    accounted = (sum(m[f"{layer}.self_s"] for layer in LAYERS)
                 + m["cli.main_self_s"] + m["cli.startup_probe_s"])
    wall = m["cli.traced_wall_s"]
    if abs(accounted - wall) > ACCOUNTING_TOLERANCE * wall:
        problems.append(f"layer self times, cli.main_self_s and the "
                        f"start-up probe sum to {accounted:.4f} s, traced "
                        f"wall is {wall:.4f} s")
    if "sum_n2" in work:
        expected = m["pairs.count_pairs_per_set"] * work["sum_n2"]
        if abs(m["pairs.pairs_enumerated"] - expected) > 1e-9 * expected:
            problems.append(f"pairs_enumerated {m['pairs.pairs_enumerated']}"
                            f" != count_pairs_per_set x sum n^2 = {expected}")
    if "search_nodes" in work:
        if m["generators.search_nodes"] != work["search_nodes"]:
            problems.append(f"traced search_nodes "
                            f"{m['generators.search_nodes']} != reported "
                            f"nodes {work['search_nodes']}")
        if m["geometry.distance_pairs"] != work["coverage_pairs"]:
            problems.append(f"traced distance_pairs "
                            f"{m['geometry.distance_pairs']} != coverage "
                            f"sum n^2 {work['coverage_pairs']}")
    return problems
