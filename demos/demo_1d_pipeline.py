"""The whole pipeline on the scalar system dx = -x + u, told start to finish.

The state space [-3, 3] is carved by the level function phi = x^2 with levels
(0, 1, 9) into three cells [-3,-1], [-1,1], [1,3]. Two feedback laws are in
play: u = 0 decays toward the origin, u = 2x blows outward. The abstraction
turns each (cell, control) pair into a timed-automaton location whose clocks
bound how long a trajectory can dwell in a slice; synthesis then picks one
control per cell, and the conformance layer replays simulated trajectories
through the automaton to certify the abstraction is sound.

Run:  python3 demos/demo_1d_pipeline.py
"""

import math

import lyagate as lg
from lyagate import conformance as cf
from lyagate import expr as ex
from lyagate import game as gm

# -- model ------------------------------------------------------------------
box = lg.Box((-3.0,), (3.0,))
sys = lg.ControlSystem(n=1, m=1, domain=box,
                       f=(ex.parse_expression("-x1 + u1", 1, 1),))
g0 = lg.ControlLaw("g0", (ex.parse_expression("0", 1, 0),))
g2x = lg.ControlLaw("g2x", (ex.parse_expression("2*x1", 1, 0),))
controls = [g0, g2x]
fam = lg.PartitioningFamily(index=1, phi=ex.parse_expression("x1^2", 1, 0),
                            levels=(0.0, 1.0, 9.0))

print("== validation ==")
report = lg.validate_levels(fam, box)
print("levels regular, min |grad phi| per level:", report.min_grad)
signs, _ = lg.admissibility_map(sys, controls, [fam])
print("slice-wise signs of phidot:", signs)

# The paper's third control u = 1.5 is NOT admissible: phidot = 2x(1.5 - x)
# changes sign inside the inner slice. The toolkit refuses it loudly.
try:
    lg.check_admissibility(sys, lg.ControlLaw("g15", (ex.parse_expression("1.5", 1, 0),)), fam)
except lg.errors.AdmissibilityError as err:
    print("g = 1.5 rejected:", err)

print("\n== partition ==")
slices = {1: lg.build_slices(fam, box)}
complex = lg.build_cells([fam], box, grid=64)
for c in complex.cells:
    print("cell %-6s label %-8s rep %s" % (c.id, c.label, c.rep_point))

print("\n== dwell bounds (Theorem-style windows) ==")
bounds = lg.compute_bounds(sys, controls, [fam], slices)
for key, tb in sorted(bounds.timings.items()):
    print("family %d slice %d control %-4s: t_lo=%.4f t_hi=%s"
          % (key[0], key[1], key[2], tb.t_lo,
             "inf" if tb.t_hi == math.inf else "%.4f" % tb.t_hi))

print("\n== automaton ==")
auto = lg.build_tga(sys, complex, controls, bounds, signs)
print("%d non-sink locations, %d transitions"
      % (len(auto.non_sink_locations()), len(auto.transitions)))
for t in sorted(auto.transitions, key=lambda t: (t.source, t.target, t.kind)):
    if t.kind == "u":
        print("  %s -> %s  guard c2 >= %.3f" % (t.source, t.target, t.guard[0][1]))

print("\n== synthesis ==")
mid = complex.cell_at((0.0,))
res = gm.synthesize_reach(auto, [mid])
print("reach the inner cell: realizable =", res.realizable)
print("strategy:", res.strategy, " worst-case arrival:",
      {c: round(b, 3) for c, b in res.bounds.items()})

print("\n== simulation and soundness ==")
trace = lg.simulate_closed_loop(sys, res.strategy, complex, (2.5,), 6.0, 1e-3,
                                controls=controls)
print("x0 = 2.5 crosses into the inner cell at t = %.6f (ln 2.5 = %.6f)"
      % (trace.events[0].time, math.log(2.5)))
rep = cf.check_sound(sys, auto, res.strategy, complex.cell_ids(),
                     samples=100, horizon=10.0, step=2e-3, seed=0,
                     controls=controls)
print("embedding check: %d traces, %d violations, completeness %.2f"
      % (rep.traces, len(rep.violations), rep.completeness))

# Negative control: corrupt one guard and the checker must complain.
bad = bounds.with_override(1, 2, "g0", t_lo=2.0)
auto_bad = lg.build_tga(sys, complex, controls, bad, signs)
rep_bad = cf.check_sound(sys, auto_bad, res.strategy, complex.cell_ids(),
                         samples=50, horizon=10.0, step=2e-3, seed=0,
                         controls=controls)
print("with a corrupted guard the checker reports %d violations"
      % len(rep_bad.violations))
