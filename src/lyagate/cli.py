"""Command-line pipeline: validate -> abstract -> synthesize -> simulate -> check.

One JSON file describes the system: dimensions, box, dynamics, named control
laws, partitioning functions with level stacks, grid settings, and the seed
every randomized step derives from. Artifacts are JSON (sorted keys), CSV
for time series, and DOT for the automaton graph, so identical spec + seed
reproduce byte-identical outputs.

Exit codes: 0 success, 1 validation failure, 2 soundness violation,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import traceback

import numpy as np

from . import bounds as bd
from . import conformance as cf
from . import expr as ex
from . import game as gm
from . import model as md
from . import partition as pt
from . import sim as sm
from . import tga as ta
from .errors import LyagateError, SpecFileError

# ---------------------------------------------------------------------------
# Spec file
# ---------------------------------------------------------------------------

def _checked_step(value, where):
    if not (math.isfinite(value) and value > 0):
        raise SpecFileError("%s must be finite and positive, got %r"
                            % (where, value))
    return value


class SystemSpec:
    """Parsed and validated system description."""

    def __init__(self, raw, path="<spec>"):
        self.path = path
        try:
            self.n = int(raw["state_dim"])
            self.m = int(raw["input_dim"])
            dom = raw["domain"]
            self.box = md.Box(tuple(dom["lower"]), tuple(dom["upper"]))
            dyn = list(raw["dynamics"])
            if len(dyn) != self.n:
                raise SpecFileError("dynamics must list %d expressions" % self.n)
            self.f = tuple(ex.parse_expression(s, self.n, self.m) for s in dyn)
            self.system = md.ControlSystem(n=self.n, m=self.m, domain=self.box,
                                           f=self.f)
            self.controls = []
            for name in sorted(raw["controls"]):
                comps = raw["controls"][name]
                if len(comps) != self.m:
                    raise SpecFileError(
                        "control '%s' must list %d expressions" % (name, self.m))
                self.controls.append(md.ControlLaw(
                    name=name,
                    components=tuple(ex.parse_expression(s, self.n, 0)
                                     for s in comps)))
            self.families = []
            for i, part in enumerate(raw["partitions"], start=1):
                self.families.append(md.PartitioningFamily(
                    index=i,
                    phi=ex.parse_expression(part["phi"], self.n, 0),
                    levels=tuple(part["levels"])))
            if not self.families:
                raise SpecFileError("at least one partitioning function required")
            grid = raw.get("grid", {})
            self.grid = int(grid.get("points_per_dim", 64))
            self.adm_grid = int(grid.get("admissibility", 128))
            self.seed = int(raw.get("seed", 0))
            self.step = grid.get("step", None)
            if self.step is not None:
                self.step = _checked_step(float(self.step), "grid.step")
        except SpecFileError:
            raise
        except LyagateError:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise SpecFileError("invalid system spec %s: %s" % (path, err))

    @staticmethod
    def load(path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise SpecFileError("cannot read %s: %s" % (path, err))
        return SystemSpec(raw, path=path)

    def default_step(self):
        """The spec's grid.step, else ``sim.default_step``'s rule."""
        if self.step is not None:
            return self.step
        return sm.default_step(self.system, self.controls, self.families)


class Pipeline:
    """Derived artifacts, built lazily and deterministically from the spec."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self._slices = None
        self._signs = None
        self._complex = None
        self._bounds = None
        self._tga = {}

    def slices(self):
        if self._slices is None:
            self._slices = {
                fam.index: pt.build_slices(fam, self.spec.box, grid=self.spec.grid)
                for fam in self.spec.families}
        return self._slices

    def signs(self):
        if self._signs is None:
            self._signs = md.admissibility_map(
                self.spec.system, self.spec.controls, self.spec.families,
                grid=self.spec.adm_grid)
        return self._signs

    def complex(self):
        if self._complex is None:
            self._complex = pt.build_cells(
                self.spec.families, self.spec.box, grid=self.spec.grid)
        return self._complex

    def bounds(self):
        if self._bounds is None:
            self._bounds = bd.compute_bounds(
                self.spec.system, self.spec.controls, self.spec.families,
                self.slices(), grid=self.spec.grid)
        return self._bounds

    def automaton(self, mode="cells"):
        if mode not in self._tga:
            self._tga[mode] = ta.build_tga(
                self.spec.system, self.complex(), self.spec.controls,
                self.bounds(), self.signs(), mode=mode)
        return self._tga[mode]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _write_json(path, obj):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _point(text, n):
    """A state 'v1,v2,...' with exactly ``n`` numeric coordinates."""
    try:
        point = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise SpecFileError("point '%s' is not a list of numbers" % text)
    if len(point) != n:
        raise SpecFileError("point '%s' has %d coordinates, the system has %d"
                            % (text, len(point), n))
    return point


def _resolve_cells(tokens, complex, n):
    """Cell selectors: a bbox label like '[-1,1]', or '@x1,x2' for a point."""
    ids = []
    labels = {c.label.replace(" ", ""): c.id for c in complex.cells}
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok.startswith("@"):
            ids.append(complex.cell_at(_point(tok[1:], n)))
            continue
        key = tok.replace(" ", "")
        if key in labels:
            ids.append(labels[key])
            continue
        if key in {c.id for c in complex.cells}:
            ids.append(key)
            continue
        raise SpecFileError(
            "unknown cell '%s'; known labels: %s"
            % (tok, sorted(labels)))
    return ids


def _start_cells(args, spec, complex):
    """The cells named by --from, else every cell."""
    if not args.from_cells:
        return complex.cell_ids()
    cells = _resolve_cells(args.from_cells.split(";"), complex, spec.n)
    if not cells:
        raise SpecFileError("--from '%s' selects no cell" % args.from_cells)
    return cells


def _step(args, spec):
    if args.step is not None:
        return _checked_step(args.step, "--step")
    return spec.default_step()


def _load_strategy(arg, complex):
    if arg.startswith("const:"):
        name = arg[len("const:"):]
        return {c.id: name for c in complex.cells}
    try:
        with open(arg) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SpecFileError("cannot read strategy %s: %s" % (arg, err))
    return dict(data["strategy"] if "strategy" in data else data)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    spec = SystemSpec.load(args.spec)
    report = {"spec": os.path.basename(args.spec), "families": [], "controls": {}}
    for fam in spec.families:
        lv = md.validate_levels(fam, spec.box, grid=spec.adm_grid)
        report["families"].append(lv.to_dict())
        pt.build_slices(fam, spec.box, grid=spec.grid)
    signs = md.admissibility_map(
        spec.system, spec.controls, spec.families, grid=spec.adm_grid)
    for g in spec.controls:
        report["controls"][g.name] = {
            "family_%d" % fam.index: {} for fam in spec.families}
    for (f, h, c), s in signs.items():
        report["controls"][c]["family_%d" % f][str(h)] = "+" if s > 0 else "-"
    _write_json(os.path.join(args.out, "validation.json"), report)
    print("validation ok: %d families, %d controls"
          % (len(spec.families), len(spec.controls)))
    return 0


def cmd_abstract(args):
    spec = SystemSpec.load(args.spec)
    pipe = Pipeline(spec)
    mode = "extended-cells" if args.mode == "extended" else "cells"
    auto = pipe.automaton(mode)
    _write_json(os.path.join(args.out, "bounds.json"), pipe.bounds().to_dict())
    _write_json(os.path.join(args.out, "complex.json"), pipe.complex().to_dict())
    _write_json(os.path.join(args.out, "automaton.json"), auto.to_dict())
    n_loc = len(auto.non_sink_locations())
    print("abstraction: %d non-sink locations, %d transitions, %d clock pairs"
          % (n_loc, len(auto.transitions), auto.k))
    return 0


def cmd_synthesize(args):
    spec = SystemSpec.load(args.spec)
    pipe = Pipeline(spec)
    auto = pipe.automaton("cells")
    complex = pipe.complex()
    if args.reach is None and args.avoid is None:
        raise SpecFileError("synthesize needs --reach or --avoid")
    if args.reach is not None:
        goal = _resolve_cells(args.reach.split(";"), complex, spec.n)
        result = gm.synthesize_reach(auto, goal)
    else:
        avoid = (_resolve_cells(args.avoid.split(";"), complex, spec.n)
                 if args.avoid else [])
        result = gm.synthesize_safety(auto, avoid)
    _write_json(os.path.join(args.out, "strategy.json"),
                {"strategy": dict(sorted(result.strategy.items()))})
    _write_json(os.path.join(args.out, "synthesis.json"), result.to_dict())
    print("synthesis: %s, realizable=%s, winning=%d/%d cells"
          % (result.objective, result.realizable, len(result.winning),
             len(complex.cells)))
    return 0


def cmd_simulate(args):
    spec = SystemSpec.load(args.spec)
    pipe = Pipeline(spec)
    complex = pipe.complex()
    strategy = _load_strategy(args.strategy, complex)
    step = _step(args, spec)
    rng = np.random.default_rng([spec.seed, 1])
    starts = []
    if args.x0:
        starts.append(_point(args.x0, spec.n))
    else:
        cells = _start_cells(args, spec, complex)
        for i in range(args.samples):
            starts.append(complex.uniform_point_in(cells[i % len(cells)], rng))
    index = []
    for i, x0 in enumerate(starts):
        trace = sm.simulate_closed_loop(
            spec.system, strategy, complex, x0, args.horizon, step,
            controls=spec.controls)
        path = os.path.join(args.out, "trace_%03d.csv" % i)
        os.makedirs(args.out, exist_ok=True)
        trace.write_csv(path)
        index.append({
            "trace": os.path.basename(path), "x0": list(x0),
            "events": len(trace.events),
            "final_cell": trace.visits[-1][0],
            "exited": trace.trajectory.exited,
            "step_error": trace.step_error})
    _write_json(os.path.join(args.out, "traces.json"),
                {"horizon": args.horizon, "step": step, "runs": index})
    print("simulated %d trajectories (step %g)" % (len(starts), step))
    return 0


def cmd_check_sound(args):
    spec = SystemSpec.load(args.spec)
    pipe = Pipeline(spec)
    auto = pipe.automaton("cells")
    complex = pipe.complex()
    strategy = _load_strategy(args.strategy, complex)
    cells = _start_cells(args, spec, complex)
    step = _step(args, spec)
    report = cf.check_sound(
        spec.system, auto, strategy, cells, samples=args.samples,
        horizon=args.horizon, step=step, seed=spec.seed,
        controls=spec.controls)
    _write_json(os.path.join(args.out, "soundness.json"), report.to_dict())
    print("soundness: %d traces, %d violations, completeness %.2f, "
          "step %g, max step error %.3g"
          % (report.traces, len(report.violations), report.completeness,
             step, report.max_step_error))
    if report.max_step_error > cf.STEP_ERROR_BUDGET:
        print("warning: max step error %.3g exceeds the budget %g; "
              "give a smaller --step" % (report.max_step_error,
                                         cf.STEP_ERROR_BUDGET),
              file=_sys.stderr)
    return 0 if report.passed else 2


def cmd_export(args):
    spec = SystemSpec.load(args.spec)
    pipe = Pipeline(spec)
    mode = "extended-cells" if args.mode == "extended" else "cells"
    auto = pipe.automaton(mode)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "automaton.dot")
    with open(path, "w") as fh:
        fh.write(auto.to_dot())
    print("wrote %s" % path)
    return 0


_STEP_HELP = ("RK4 step (default: the spec's grid.step, else 1%% of the fastest "
             "band traversal |gap / L_g phi| seen on a 32-point grid)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="lyagate",
        description="Abstract control systems into timed game automata via "
                    "Lyapunov level-set partitioning, synthesize switching "
                    "strategies, and validate the abstraction against "
                    "simulated trajectories.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("spec", help="system spec JSON file")
        sp.add_argument("--out", default="out", help="artifact directory")

    sp = sub.add_parser("validate", help="level regularity + admissibility checks")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("abstract", help="build bounds table and automaton JSON")
    common(sp)
    sp.add_argument("--mode", choices=["cells", "extended"], default="cells")
    sp.set_defaults(func=cmd_abstract)

    sp = sub.add_parser("synthesize", help="cell-constant strategy synthesis")
    common(sp)
    sp.add_argument("--reach", help="goal cells, ';'-separated labels or @points")
    sp.add_argument("--avoid", help="cells to avoid (safety objective)")
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("simulate", help="closed-loop trajectories to CSV")
    common(sp)
    sp.add_argument("--strategy", required=True,
                    help="strategy JSON, or const:<control>")
    sp.add_argument("--x0", help="start state 'v1,v2,...'")
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--from", dest="from_cells", help="start cells")
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--step", type=float, help=_STEP_HELP)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("check-sound", help="embed simulated traces into the automaton")
    common(sp)
    sp.add_argument("--strategy", required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--from", dest="from_cells", help="initial cells")
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--step", type=float, help=_STEP_HELP)
    sp.set_defaults(func=cmd_check_sound)

    sp = sub.add_parser("export", help="DOT graph of the automaton")
    common(sp)
    sp.add_argument("--mode", choices=["cells", "extended"], default="cells")
    sp.set_defaults(func=cmd_export)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LyagateError as err:
        print("error: %s" % err, file=_sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    _sys.exit(main())
