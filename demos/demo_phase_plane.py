"""Navigation-style scenario on the double integrator dx1 = x2, dx2 = u.

Two quadratic level stacks ring the phase plane (the second refines the
first with its own clock pair). The goal is the inner ring of the first
stack, the obstacle is the outer ring of the second, and two braking laws
with different damping compete on speed. Synthesis picks a per-cell control;
the certified product: every start in the initial ring reaches the goal ring
without touching the obstacle ring, within the reported time bound.

Run:  python3 demos/demo_phase_plane.py
Writes trace CSVs, the strategy JSON and the automaton DOT graph under
demos/out/, which is generated and git-ignored.
"""

import json
import os

import numpy as np

import lyagate as lg
from lyagate import conformance as cf
from lyagate import expr as ex
from lyagate import game as gm

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

box = lg.Box((-3.0, -3.0), (3.0, 3.0))
sys = lg.ControlSystem(n=2, m=1, domain=box,
                       f=(ex.parse_expression("x2", 2, 1),
                          ex.parse_expression("u1", 2, 1)))
brake = lg.ControlLaw("brake", (ex.parse_expression("-x1 - 2*x2", 2, 0),))
firm = lg.ControlLaw("firm", (ex.parse_expression("-2*x1 - 3*x2", 2, 0),))
controls = [brake, firm]
fam1 = lg.PartitioningFamily(
    index=1, phi=ex.parse_expression("1.5*x1^2 + x1*x2 + 0.5*x2^2", 2, 0),
    levels=(0.0, 1.0, 2.5, 5.0, 9.0, 27.5))
fam2 = lg.PartitioningFamily(
    index=2, phi=ex.parse_expression("3*x1^2 + 2*x1*x2 + x2^2", 2, 0),
    levels=(0.0, 1.0, 7.0, 20.0, 56.0))
families = [fam1, fam2]

print("validating families and controls...")
for fam in families:
    lg.validate_levels(fam, box)
equilibria = {g.name: lg.critical_points(sys, g) for g in controls}
signs = lg.admissibility_map(sys, controls, families, grid=96,
                             equilibria=equilibria)

print("building cells, bounds, and the automaton...")
slices = {f.index: lg.build_slices(f, box, grid=96) for f in families}
complex = lg.build_cells(families, box, grid=96)
bounds = lg.compute_bounds(sys, controls, families, slices, grid=96,
                           equilibria=equilibria)
auto = lg.build_tga(sys, complex, controls, bounds, signs)

goal = [c.id for c in complex.cells if c.y[0] == 2]
obstacle = [c.id for c in complex.cells if c.y[1] == 4]
initial = [c.id for c in complex.cells if c.y == (4, 3)]
print("cells: %d   goal: %s   obstacle: %s   initial: %s"
      % (len(complex.cells), goal, obstacle, initial))

print("\nsynthesizing a reach strategy toward the goal ring...")
res = gm.synthesize_reach(auto, goal)
print("initial cells winning:", all(c in res.winning for c in initial))
print("per-cell controls:", res.strategy)
print("worst-case arrival from the initial ring: %.3f"
      % max(res.bounds[c] for c in initial))

restricted = gm.restrict(auto, res.strategy)
reach = gm.reach_locations(
    restricted, [auto.location_name(c, res.strategy[c]) for c in initial], 50.0)
hot = {auto.location_name(c, g.name) for c in obstacle for g in controls}
print("obstacle locations reachable under the strategy:",
      sorted(reach.locations() & hot) or "none")

print("\nsimulating 40 seeded starts from the initial ring...")
rng = np.random.default_rng(1)
reached = 0
for i in range(40):
    x0 = complex.uniform_point_in(initial[i % len(initial)], rng)
    trace = lg.simulate_closed_loop(sys, res.strategy, complex, x0, 6.0, 2e-3,
                                    controls=controls)
    visited = [cell for cell, _, _ in trace.visits]
    if any(c in goal for c in visited):
        reached += 1
    if i < 5:
        trace.write_csv(os.path.join(OUT, "nav_trace_%02d.csv" % i))
    dz = cf.check_dwell(trace, bounds, signs, complex)
    assert not dz.violations
print("reached the goal ring: %d/40, dwell checks clean" % reached)

with open(os.path.join(OUT, "nav_strategy.json"), "w") as fh:
    json.dump({"strategy": dict(sorted(res.strategy.items()))}, fh,
              indent=2, sort_keys=True)
with open(os.path.join(OUT, "nav_automaton.dot"), "w") as fh:
    fh.write(auto.to_dot())
print("artifacts in %s: nav_trace_00..04.csv, nav_strategy.json, "
      "nav_automaton.dot" % OUT)
