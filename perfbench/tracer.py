"""Layer spans for lyagate, recorded from outside the package.

While `Tracer.installed()` is active, each public function in TARGETS is
replaced on its module (or class) by a wrapper that records one span per
call: id, parent id, name, start, end, and work counts taken from the
arguments or the result. Callers inside lyagate reach every target through
an attribute lookup at call time (`CellComplex.locate` calls the module
function `partition.locate`, `level_crossing_points` imports
`model.sample_level_set` when it runs, `check_sound` calls
`sm.simulate_closed_loop`), so no file of the package changes. Spans stay in
memory and are written once, when the run ends.
"""

import contextlib
import functools
import importlib
import json
import time

# (module, attribute, span name). The first part of a span name is its layer.
TARGETS = (
    ("lyagate.cli", "SystemSpec.load", "cli.spec_load"),
    ("lyagate.model", "validate_levels", "model.validate_levels"),
    ("lyagate.model", "admissibility_map", "model.admissibility"),
    ("lyagate.model", "sample_level_set", "model.sample_level_set"),
    ("lyagate.model", "critical_points", "model.critical_points"),
    ("lyagate.partition", "build_slices", "partition.build_slices"),
    ("lyagate.partition", "build_cells", "partition.build_cells"),
    ("lyagate.partition", "locate", "partition.locate"),
    ("lyagate.partition", "CellComplex.uniform_point_in",
     "partition.uniform_point_in"),
    ("lyagate.bounds", "compute_bounds", "bounds.compute"),
    ("lyagate.bounds", "extremal_lie_derivative", "bounds.extremal"),
    ("lyagate.tga", "build_tga", "tga.build"),
    ("lyagate.tga", "run_feasible", "tga.replay"),
    ("lyagate.game", "synthesize_reach", "game.synthesize"),
    ("lyagate.game", "synthesize_safety", "game.synthesize"),
    ("lyagate.game", "restrict", "game.restrict"),
    ("lyagate.game", "reach_locations", "game.reach"),
    ("lyagate.sim", "simulate_closed_loop", "sim.simulate"),
    ("lyagate.sim", "default_step", "sim.default_step"),
    ("lyagate.conformance", "check_sound", "conformance.check_sound"),
)

LAYERS = ("cli", "model", "partition", "bounds", "tga", "game", "sim",
          "conformance")
# Violation kinds tga.run_feasible reports; anything else counts as "other".
VIOLATION_KINDS = ("missing-edge", "guard", "invariant", "negative-clock",
                   "time-order")
OP = "bench.op"
SETUP = "bench.setup"


def _sim_counts(args, kwargs, trace):
    return {"steps": len(trace.trajectory.times) - 1,
            "events": len(trace.events),
            "exits": int(trace.trajectory.exited)}


def _replay_counts(args, kwargs, report):
    seq = args[1] if len(args) > 1 else kwargs["timed_sequence"]
    return {"steps": len(seq), "infeasible": int(not report.feasible)}


def _check_counts(args, kwargs, report):
    counts = {"traces": report.traces}
    for v in report.violations:
        kind = v["violation"].get("kind")
        key = "violations." + (kind if kind in VIOLATION_KINDS else "other")
        counts[key] = counts.get(key, 0) + 1
    return counts


COUNTERS = {
    "sim.simulate": _sim_counts,
    "tga.replay": _replay_counts,
    "conformance.check_sound": _check_counts,
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, id, parent, name, start, end, counts=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (set-up or one operation)."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            result = ok = None
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = count(args, kwargs, result) if ok and count else None
                self.spans.append(Span(sid, parent, name, start, end, counts))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target by its traced wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name in TARGETS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[leaf]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                saved.append((owner, leaf, raw))
                setattr(owner, leaf, new)
            yield self
        finally:
            for owner, leaf, raw in reversed(saved):
                setattr(owner, leaf, raw)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end,
                                     s.counts]) + "\n")


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(s.start, s.end,
                                              children.get(s.id, ()))
            for s in spans}


def roots(spans):
    """Span id -> the span at the top of its parent chain."""
    by_id = {s.id: s for s in spans}
    out = {}

    def top(s):
        if s.id not in out:
            out[s.id] = s if s.parent is None else top(by_id[s.parent])
        return out[s.id]

    for s in spans:
        top(s)
    return out


def _per_layer_totals(spans, selfs):
    total, calls, self_by_layer, counts = {}, {}, {}, {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        layer = s.name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + selfs[s.id]
        for k, v in (s.counts or {}).items():
            key = s.name + "." + k
            counts[key] = counts.get(key, 0) + v
    return total, calls, self_by_layer, counts


def layer_metrics(spans):
    """Per-layer metrics of a traced run.

    Names without a `setup.` prefix are per traced operation: the spans
    under `bench.op` roots, divided by their number (`trace.ops`).
    `setup.*` and `cli.spec_load_s` describe the one set-up pass under
    `bench.setup`. The caller adds `cli.import_s`, `expr.*` and
    `trace.overhead_ratio`.
    """
    selfs = self_times(spans)
    top = roots(spans)
    ops = [s for s in spans if s.name == OP and s.parent is None]
    if not ops:
        raise ValueError("no traced operations")
    n = len(ops)
    in_ops = [s for s in spans if top[s.id].name == OP]
    in_setup = [s for s in spans if top[s.id].name == SETUP]
    total, calls, self_by_layer, counts = _per_layer_totals(in_ops, selfs)

    by_id = {s.id: s for s in spans}
    sampled_locates = sum(
        1 for s in in_ops if s.name == "partition.locate"
        and by_id[s.parent].name == "partition.uniform_point_in")
    samples = calls.get("partition.uniform_point_in", 0)
    steps = counts.get("sim.simulate.steps", 0)

    m = {
        "sim.simulate_s": total.get("sim.simulate", 0.0) / n,
        "sim.steps": steps / n,
        "sim.events": counts.get("sim.simulate.events", 0) / n,
        "sim.exits": counts.get("sim.simulate.exits", 0) / n,
        "sim.us_per_step": (1e6 * total.get("sim.simulate", 0.0) / steps
                            if steps else 0.0),
        "partition.locate_calls": calls.get("partition.locate", 0) / n,
        "partition.locate_s": total.get("partition.locate", 0.0) / n,
        "partition.sample_accept_ratio": (samples / sampled_locates
                                          if sampled_locates else 0.0),
        "partition.build_cells_s": total.get("partition.build_cells", 0.0) / n,
        "model.validate_levels_s": total.get("model.validate_levels", 0.0) / n,
        "model.admissibility_s": total.get("model.admissibility", 0.0) / n,
        "model.sample_level_set_calls":
            calls.get("model.sample_level_set", 0) / n,
        "model.sample_level_set_s":
            total.get("model.sample_level_set", 0.0) / n,
        "bounds.compute_s": total.get("bounds.compute", 0.0) / n,
        "bounds.extremal_calls": calls.get("bounds.extremal", 0) / n,
        "tga.build_s": total.get("tga.build", 0.0) / n,
        "tga.replay_calls": calls.get("tga.replay", 0) / n,
        "tga.replay_steps": counts.get("tga.replay.steps", 0) / n,
        "tga.replay_s": total.get("tga.replay", 0.0) / n,
        "tga.infeasible": counts.get("tga.replay.infeasible", 0) / n,
        "game.synthesize_s": total.get("game.synthesize", 0.0) / n,
        "game.restrict_s": total.get("game.restrict", 0.0) / n,
        "game.reach_s": total.get("game.reach", 0.0) / n,
        "conformance.traces":
            counts.get("conformance.check_sound.traces", 0) / n,
    }
    for kind in VIOLATION_KINDS + ("other",):
        m["conformance.violations." + kind] = counts.get(
            "conformance.check_sound.violations." + kind, 0) / n
    for layer in LAYERS:
        m[layer + ".self_s"] = self_by_layer.get(layer, 0.0) / n
    m["bench.self_s"] = self_by_layer.get("bench", 0.0) / n

    s_total, _, s_self, _ = _per_layer_totals(in_setup, selfs)
    m["cli.spec_load_s"] = s_total.get("cli.spec_load", 0.0)
    for layer in ("model", "partition", "bounds", "tga", "game"):
        m["setup." + layer + ".self_s"] = s_self.get(layer, 0.0)
    m["trace.ops"] = n
    m["trace.spans_per_op"] = len(in_ops) / n
    return m
