"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria cover the 1-D pipeline ground truths, timing-bound accuracy, dwell
containment, envelope bracketing, the trace-embedding soundness check with
its negative control, synthesis ground truths, update-map algebra, and the
phase-plane navigation scenario.
"""

import math
import time

import numpy as np
import pytest

import lyagate as lg
from lyagate import conformance as cf
from lyagate import expr as ex
from lyagate import game as gm
from lyagate import tga as ta

from conftest import Example1D, PhasePlane


def _report(n, text):
    print("\nACCEPTANCE %d PASS - %s" % (n, text))


def test_acceptance_1_one_dimensional_pipeline():
    """Cells exactly {[-3,-1], [-1,1], [1,3]} at grids 64 and 128, under 1 s."""
    t0 = time.perf_counter()
    targets = {"[-3,-1]": (-3.0, -1.0), "[-1,1]": (-1.0, 1.0),
               "[1,3]": (1.0, 3.0)}
    box = lg.Box((-3.0,), (3.0,))
    fam = lg.PartitioningFamily(index=1, phi=ex.parse_expression("x1^2", 1, 0),
                                levels=(0.0, 1.0, 9.0))
    for grid in (64, 128):
        slices = lg.build_slices(fam, box, grid=grid)
        assert [(s.lo, s.hi) for s in slices] == [(0.0, 1.0), (1.0, 9.0)]
        cx = lg.build_cells([fam], box, grid=grid)
        assert len(cx.cells) == 3
        got = {c.label: c.bbox for c in cx.cells}
        assert set(got) == set(targets)
        for label, (lo, hi) in targets.items():
            assert got[label][0][0] == pytest.approx(lo, abs=1e-6)
            assert got[label][1][0] == pytest.approx(hi, abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "1-D cells exact at grids 64 and 128 in %.2f s" % elapsed)


def test_acceptance_2_timing_bounds(ex1d):
    """(t_lo, t_hi) of the outer slice equals (4/9, 4) within 0.2%, per control."""
    for control in ("g0", "g2x"):
        tb = ex1d.bounds.timing(1, 2, control)
        assert abs(tb.t_lo - 4.0 / 9.0) <= 0.002 * (4.0 / 9.0)
        assert abs(tb.t_hi - 4.0) <= 0.002 * 4.0
    _report(2, "outer-slice bounds match (4/9, 4) within 0.2% for both controls")


def test_acceptance_3_dwell_containment(ex1d):
    """1000 seeded trajectories; every completed traversal obeys its window."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    h = 1e-3
    eps = cf.epsilon_t(h)
    cells = ex1d.complex.cell_ids()
    combos = [(c, g.name) for c in cells for g in ex1d.controls]
    per_combo = int(np.ceil(1000 / len(combos)))
    total, completed, violations = 0, 0, 0
    for cell, control in combos:
        kappa = {c: control for c in cells}
        for _ in range(per_combo):
            if total >= 1000 + len(combos):
                break
            x0 = ex1d.complex.uniform_point_in(cell, rng)
            trace = lg.simulate_closed_loop(
                ex1d.sys, kappa, ex1d.complex, x0, 5.0, h,
                controls=ex1d.controls)
            total += 1
            rep = cf.check_dwell(trace, ex1d.bounds, ex1d.signs, ex1d.complex,
                                 eps=eps)
            completed += rep.traversals
            violations += len(rep.violations)
    elapsed = time.perf_counter() - t0
    assert total >= 1000
    assert completed >= 100, "not enough completed traversals to be meaningful"
    assert violations == 0
    assert elapsed < 30.0
    _report(3, "%d trajectories, %d completed traversals all inside their "
               "windows in %.1f s" % (total, completed, elapsed))


def test_acceptance_4_sandwich(ex1d):
    """100 seeded random-switching runs: envelopes bracket, tangent at entry."""
    rng = np.random.default_rng(77)
    names = [g.name for g in ex1d.controls]

    def random_control(cell_id, n_events, _rng):
        return names[int(rng.integers(len(names)))]

    runs, worst_tangency = 0, 0.0
    while runs < 100:
        x0 = float(rng.uniform(-2.9, 2.9))
        try:
            trace = lg.simulate_closed_loop(
                ex1d.sys, random_control, ex1d.complex, (x0,), 5.0, 1e-3,
                controls=ex1d.controls)
        except lg.errors.ChatteringError:
            continue
        rep = cf.check_sandwich(trace, ex1d.fam, ex1d.bounds, ex1d.signs,
                                ex1d.complex, tol=1e-6)
        assert rep.passed, rep.violations[:2]
        worst_tangency = max(worst_tangency, rep.start_tangency)
        runs += 1
    assert worst_tangency < 1e-9
    _report(4, "100 piecewise-control runs bracketed within 1e-6, entry "
               "tangency %.1e" % worst_tangency)


def test_acceptance_5_soundness_embedding(ex1d):
    """500-sample embedding check per strategy; corrupted guard is caught."""
    cells = ex1d.complex.cell_ids()
    for control in ("g0", "g2x"):
        kappa = {c: control for c in cells}
        rep = cf.check_sound(ex1d.sys, ex1d.tga, kappa, cells, samples=500,
                             horizon=10.0, step=2e-3, seed=5,
                             controls=ex1d.controls)
        assert rep.traces == 500
        assert rep.passed, rep.violations[:1]

    bad = ex1d.bounds.with_override(1, 2, "g0", t_lo=2.0)
    auto_bad = lg.build_tga(ex1d.sys, ex1d.complex, ex1d.controls, bad,
                            ex1d.signs)
    kappa = {c: "g0" for c in cells}
    rep_bad = cf.check_sound(ex1d.sys, auto_bad, kappa,
                             [ex1d.right, ex1d.left], samples=50,
                             horizon=10.0, step=2e-3, seed=6,
                             controls=ex1d.controls)
    assert len(rep_bad.violations) >= 1
    _report(5, "2 x 500 traces embed with zero violations; corrupted t_lo "
               "detected %d times" % len(rep_bad.violations))


def test_acceptance_6_synthesis_ground_truths(ex1d):
    """Reach/safety answers match the hand-computed attractors."""
    reach_mid = gm.synthesize_reach(ex1d.tga, [ex1d.mid])
    assert reach_mid.realizable
    assert reach_mid.strategy[ex1d.left] == "g0"
    assert reach_mid.strategy[ex1d.right] == "g0"
    assert abs(reach_mid.bounds[ex1d.right] - 4.0) <= 0.02

    reach_right = gm.synthesize_reach(ex1d.tga, [ex1d.right])
    assert not reach_right.realizable
    assert ex1d.mid not in reach_right.winning

    safe = gm.synthesize_safety(ex1d.tga, [])
    assert safe.realizable
    assert set(safe.strategy.values()) == {"g0"}
    _report(6, "reach [-1,1] bound ~4 via g0; reach [1,3] unrealizable; "
               "avoid-sink realizable")


def test_acceptance_7_update_map_properties():
    """Equal-bounds same-sign map is the identity; opposite map saturates at 0."""
    b = lg.TimingBounds(1, 2, "g", t_lo=4.0 / 9.0, t_hi=4.0, delta_a=8.0)
    same = ta.switch_update(b, b, same_sign=True)
    u_same = ta.UpdateMap.of({1: same})
    rng = np.random.default_rng(9)
    for _ in range(1000):
        v = ((float(rng.uniform(0, 4)), float(rng.uniform(0, 4))),)
        assert ta.apply_update(v, u_same) == v
    opp = ta.switch_update(b, b, same_sign=False)
    out = ta.apply_update(((0.0, 0.0),), ta.UpdateMap.of({1: opp}))
    assert out == ((4.0, 4.0 / 9.0),)
    _report(7, "equal-bounds same-sign map is the exact identity on 1000 "
               "valuations; opposite-sign map at 0 yields (t_hi', t_lo')")


def test_acceptance_8_phase_plane_navigation():
    """Double-integrator rings: 200/200 seeded starts reach the goal band,
    never touching the obstacle band, with dwell checks green, in < 2 min."""
    t0 = time.perf_counter()
    nav = PhasePlane()
    res = gm.synthesize_reach(nav.tga, nav.goal)
    assert all(c in res.winning for c in nav.initial)

    restricted = gm.restrict(nav.tga, res.strategy)
    e0 = [nav.tga.location_name(c, res.strategy[c]) for c in nav.initial]
    reach = gm.reach_locations(restricted, e0, 50.0)
    forbidden = {nav.tga.location_name(c, g.name)
                 for c in nav.obstacle for g in nav.controls} | {"sink"}
    assert not (reach.locations() & forbidden)

    rng = np.random.default_rng(4242)
    h = 2e-3
    eps = cf.epsilon_t(h)
    reached, obstacle_hits, dwell_violations = 0, 0, 0
    for i in range(200):
        x0 = nav.complex.uniform_point_in(nav.initial[i % len(nav.initial)], rng)
        trace = lg.simulate_closed_loop(nav.sys, res.strategy, nav.complex,
                                        x0, 6.0, h, controls=nav.controls)
        visited = [cell for cell, _, _ in trace.visits]
        goal_at = next((j for j, c in enumerate(visited) if c in nav.goal), None)
        if goal_at is not None:
            reached += 1
            if any(c in nav.obstacle for c in visited[:goal_at + 1]):
                obstacle_hits += 1
        rep = cf.check_dwell(trace, nav.bounds, nav.signs, nav.complex, eps=eps)
        dwell_violations += len(rep.violations)
    elapsed = time.perf_counter() - t0
    assert reached == 200
    assert obstacle_hits == 0
    assert dwell_violations == 0
    assert elapsed < 120.0
    _report(8, "200/200 starts reach the goal ring, zero obstacle entries, "
               "dwell checks clean, %.1f s total" % elapsed)
