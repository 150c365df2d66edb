"""The benchmark's workloads, built on the shipped demo specs.

Each workload has a `setup(seed)` that does what a fresh `lyagate` process
does before its first operation, an `op(seed, i)` that is timed, and a
`check(result)` that is not. Inputs come from the workload seed only: the
start states of every `check_sound` batch and the goal of every synthesis.
"""

import json
import os

import numpy as np

from lyagate import cli
from lyagate import conformance as cf
from lyagate import game as gm
from lyagate import model as md

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = os.path.join(ROOT, "demos", "specs")

EX1D_LABELS = {"[-3,-1]", "[-1,1]", "[1,3]"}
EX1D_WINDOW = (4.0 / 9.0, 4.0)     # outer-slice (t_lo, t_hi), both controls
WINDOW_TOL = 0.002


class Outcome:
    """What one operation attempted, how much of it failed, and why."""

    def __init__(self, attempted, failed=0, kinds=None, problems=()):
        self.attempted = attempted
        self.failed = failed
        self.kinds = dict(kinds or {})
        self.problems = list(problems)


def _goal_cell(complex, goal):
    """A cell id from a bbox label such as '[-1,1]' or a point tuple."""
    if isinstance(goal, tuple):
        return complex.cell_at(goal)
    return {c.label: c.id for c in complex.cells}[goal]


class Embed:
    """`check_sound` batches with a reach strategy synthesized at set-up."""

    unit = "traces"

    def __init__(self, name, spec, goal, horizon, batch, require_sound):
        self.name = name
        self.spec_path = os.path.join(SPECS, spec)
        self.goal = goal
        self.horizon = horizon
        self.batch = batch
        self.require_sound = require_sound

    def setup(self, seed):
        self.spec = cli.SystemSpec.load(self.spec_path)
        pipe = cli.Pipeline(self.spec)
        self.auto = pipe.automaton("cells")
        self.complex = pipe.complex()
        result = gm.synthesize_reach(
            self.auto, [_goal_cell(self.complex, self.goal)])
        self.strategy = result.strategy
        gm.restrict(self.auto, self.strategy)   # setup_s includes restrict
        self.step = self.spec.default_step()
        self.cells = self.complex.cell_ids()
        problems = []
        if not result.realizable:
            problems.append("%s: reach strategy not realizable" % self.name)
        if self.name == "ex1d-embed":
            problems += _check_example1d(pipe)
        return problems

    def op(self, seed, i):
        return cf.check_sound(
            self.spec.system, self.auto, self.strategy, self.cells,
            samples=self.batch, horizon=self.horizon, step=self.step,
            seed=[seed, i], controls=self.spec.controls)

    def check(self, report):
        kinds = {}
        for v in report.violations:
            kind = v["violation"].get("kind", "unknown")
            kinds[kind] = kinds.get(kind, 0) + 1
        problems = []
        if report.traces != self.batch:
            problems.append("%s: batch of %d returned %d traces"
                            % (self.name, self.batch, report.traces))
        if self.require_sound and report.violations:
            problems.append("%s: %d soundness violations %s"
                            % (self.name, len(report.violations), kinds))
        return Outcome(self.batch, len(report.violations), kinds, problems)


def _check_example1d(pipe):
    problems = []
    labels = [c.label for c in pipe.complex().cells]
    if len(labels) != 3 or set(labels) != EX1D_LABELS:
        problems.append("example1d cells %s, expected %s"
                        % (labels, sorted(EX1D_LABELS)))
    lo_ref, hi_ref = EX1D_WINDOW
    for g in pipe.spec.controls:
        tb = pipe.bounds().timing(1, 2, g.name)
        if (abs(tb.t_lo - lo_ref) > WINDOW_TOL * lo_ref
                or abs(tb.t_hi - hi_ref) > WINDOW_TOL * hi_ref):
            problems.append("example1d outer window under %s is (%g, %g), "
                            "expected (4/9, 4) within 0.2%%"
                            % (g.name, tb.t_lo, tb.t_hi))
    return problems


class Abstract:
    """Spec to automaton and strategies, with a fresh Pipeline every time."""

    unit = "builds"
    batch = 1

    def __init__(self, name, spec, horizon):
        self.name = name
        self.spec_path = os.path.join(SPECS, spec)
        self.horizon = horizon

    def _build(self, rng):
        spec = cli.SystemSpec.load(self.spec_path)
        for fam in spec.families:
            md.validate_levels(fam, spec.box, grid=spec.adm_grid)
        pipe = cli.Pipeline(spec)
        auto = pipe.automaton("cells")
        extended = pipe.automaton("extended-cells")
        cells = pipe.complex().cell_ids()
        goal, avoid = rng.choice(len(cells), size=2, replace=False)
        reach = gm.synthesize_reach(auto, [cells[goal]])
        safety = gm.synthesize_safety(auto, [cells[avoid]])
        restricted = gm.restrict(auto, reach.strategy)
        e0 = [restricted.location_name(c, reach.strategy[c]) for c in cells]
        reached = gm.reach_locations(restricted, e0, self.horizon)
        return auto, extended, reach, safety, reached

    def setup(self, seed):
        auto, extended, _, _, _ = self._build(np.random.default_rng(seed))
        self.reference = (_digest(auto), _digest(extended))
        if len(auto.cells()) != 12:
            return ["%s: %d cells, expected 12" % (self.name, len(auto.cells()))]
        return []

    def op(self, seed, i):
        return self._build(np.random.default_rng([seed, i]))

    def check(self, result):
        auto, extended, reach, safety, reached = result
        problems = []
        if (_digest(auto), _digest(extended)) != self.reference:
            problems.append("%s: automaton differs from the first build"
                            % self.name)
        cells = set(auto.cells())
        if set(reach.strategy) != cells or set(safety.strategy) != cells:
            problems.append("%s: strategy is not total" % self.name)
        if not reached.locations():
            problems.append("%s: nothing reachable" % self.name)
        return Outcome(1, 0, {}, problems)


def _digest(auto):
    return json.dumps(auto.to_dict(), sort_keys=True)


# Batch sizes are multiples of the cell count (3 and 12), so every batch
# starts the same number of traces in each cell.
WORKLOADS = {
    "ex1d-embed": lambda: Embed("ex1d-embed", "example1d.json", "[-1,1]",
                                horizon=10.0, batch=3, require_sound=True),
    "nav-embed": lambda: Embed("nav-embed", "phase_plane.json", (0.5, 0.0),
                               horizon=6.0, batch=24, require_sound=False),
    "nav-abstract": lambda: Abstract("nav-abstract", "phase_plane.json",
                                     horizon=6.0),
}
