"""Strategy synthesis, restriction, and interval reachability."""

import math

import pytest

import lyagate as lg
from lyagate import game as gm

REL = 0.005


class TestSafety:
    def test_avoid_sink_realizable(self, ex1d):
        res = gm.synthesize_safety(ex1d.tga, [])
        assert res.realizable
        assert set(res.strategy.values()) == {"g0"}
        assert res.winning == {ex1d.mid, ex1d.left, ex1d.right}

    def test_avoid_mid_unrealizable(self, ex1d):
        res = gm.synthesize_safety(ex1d.tga, [ex1d.mid])
        assert not res.realizable
        assert res.winning == set()

    def test_monotone_in_avoid_set(self, ex1d):
        small = gm.synthesize_safety(ex1d.tga, []).winning
        grown = gm.synthesize_safety(ex1d.tga, [ex1d.left]).winning
        assert grown <= small


class TestReach:
    def test_reach_mid(self, ex1d):
        res = gm.synthesize_reach(ex1d.tga, [ex1d.mid])
        assert res.realizable
        assert set(res.strategy[c] for c in (ex1d.left, ex1d.right)) == {"g0"}
        assert res.bounds[ex1d.right] == pytest.approx(4.0, rel=REL)
        assert res.bounds[ex1d.left] == pytest.approx(4.0, rel=REL)
        assert res.bounds[ex1d.mid] == 0.0

    def test_reach_right_unrealizable(self, ex1d):
        res = gm.synthesize_reach(ex1d.tga, [ex1d.right])
        assert not res.realizable
        assert ex1d.mid not in res.winning
        assert res.winning == {ex1d.right}

    def test_goal_everything(self, ex1d):
        allc = ex1d.tga.cells()
        res = gm.synthesize_reach(ex1d.tga, allc)
        assert res.realizable
        assert all(res.bounds[c] == 0.0 for c in allc)

    def test_winning_bounds_finite(self, ex1d):
        res = gm.synthesize_reach(ex1d.tga, [ex1d.mid])
        assert all(math.isfinite(res.bounds[c]) for c in res.winning)

    def test_reach_bound_sound_in_simulation(self, ex1d):
        """100 closed-loop runs arrive in the goal no later than the bound."""
        import numpy as np
        from lyagate.conformance import epsilon_t
        from lyagate.sim import simulate_closed_loop
        res = gm.synthesize_reach(ex1d.tga, [ex1d.mid])
        rng = np.random.default_rng(31)
        h = 1e-3
        for i in range(100):
            cell = [ex1d.left, ex1d.right][i % 2]
            x0 = ex1d.complex.uniform_point_in(cell, rng)
            tr = simulate_closed_loop(ex1d.sys, res.strategy, ex1d.complex,
                                      x0, res.bounds[cell] + 1.0, h,
                                      controls=ex1d.controls)
            arrivals = [e.time for e in tr.events if e.new_cell == ex1d.mid]
            assert arrivals
            assert arrivals[0] <= res.bounds[cell] + epsilon_t(tr.step_error)


class TestRestrict:
    def test_constant_strategy_projection(self, ex1d):
        kappa = {c: "g0" for c in ex1d.tga.cells()}
        r = gm.restrict(ex1d.tga, kappa)
        assert len(r.locations) == len(ex1d.tga.cells()) + 1
        assert all(t.kind == "u" for t in r.transitions)
        assert len(r.transitions) == 2

    def test_mixed_strategy_collapses_switch(self, ex1d):
        kappa = {ex1d.mid: "g2x", ex1d.left: "g0", ex1d.right: "g0"}
        r = gm.restrict(ex1d.tga, kappa)
        assert len(r.locations) == 4
        out_mid = [t for t in r.transitions
                   if t.source == "(%s,g2x)" % ex1d.mid]
        assert len(out_mid) == 2
        # entries into the mid cell switch g0 -> g2x: opposite signs, so the
        # composed update jumps the crossed pair to the target bounds, with
        # c1 at 0 because the slice has no finite t_hi
        into_mid = [t for t in r.transitions
                    if t.target == "(%s,g2x)" % ex1d.mid]
        assert into_mid
        for t in into_mid:
            fu = dict(t.update.entries)[1]
            assert fu.beta == ((0.0, 0.0), (0.0, 0.0))
            assert fu.alpha[0] == 0.0               # no invariant on that slice
            assert fu.alpha[1] == pytest.approx(0.5, rel=REL)

    def test_empty_strategy_rejected(self, ex1d):
        from lyagate.errors import StrategyError
        with pytest.raises(StrategyError):
            gm.restrict(ex1d.tga, {})

    def test_restrict_empty_automaton(self, ex1d):
        from lyagate.tga import TimedGameAutomaton
        empty = TimedGameAutomaton(
            mode="cells", k=1, locations={}, initial=(), invariants={},
            transitions=[], bounds=ex1d.bounds, signs=ex1d.signs,
            complex=ex1d.complex)
        r = gm.restrict(empty, {})
        assert r.transitions == []
        assert list(r.locations) == ["sink"]


class TestReachLocations:
    def test_single_path_windows(self, ex1d):
        kappa = {c: "g0" for c in ex1d.tga.cells()}
        r = gm.restrict(ex1d.tga, kappa)
        res = gm.reach_locations(r, ["(%s,g0)" % ex1d.right], 10.0)
        right = res.items["(%s,g0)" % ex1d.right]
        mid = res.items["(%s,g0)" % ex1d.mid]
        assert right.occupancy[0] == 0.0
        assert right.occupancy[1] == pytest.approx(4.0, rel=REL)
        assert mid.occupancy[0] == pytest.approx(4.0 / 9.0, rel=REL)
        assert mid.occupancy[1] == 10.0

    def test_short_horizon_prunes(self, ex1d):
        kappa = {c: "g0" for c in ex1d.tga.cells()}
        r = gm.restrict(ex1d.tga, kappa)
        res = gm.reach_locations(r, ["(%s,g0)" % ex1d.right], 0.1)
        assert set(res.items) == {"(%s,g0)" % ex1d.right}
        assert res.items["(%s,g0)" % ex1d.right].occupancy == (0.0, 0.1)

    def test_goal_at_time_zero(self, ex1d):
        kappa = {c: "g0" for c in ex1d.tga.cells()}
        r = gm.restrict(ex1d.tga, kappa)
        name = "(%s,g0)" % ex1d.mid
        res = gm.reach_locations(r, [name], 5.0)
        assert name in res.items
        assert res.items[name].entry[0] == 0.0


class TestNav2DGame:
    def test_initial_cells_win_reach(self, nav2d):
        res = gm.synthesize_reach(nav2d.tga, nav2d.goal)
        assert all(c in res.winning for c in nav2d.initial)
        assert all(res.bounds[c] < 4.0 for c in nav2d.initial)

    def test_obstacle_not_reachable_under_strategy(self, nav2d):
        res = gm.synthesize_reach(nav2d.tga, nav2d.goal)
        restricted = gm.restrict(nav2d.tga, res.strategy)
        e0 = [nav2d.tga.location_name(c, res.strategy[c]) for c in nav2d.initial]
        reach = gm.reach_locations(restricted, e0, 50.0)
        bad = {nav2d.tga.location_name(c, g.name)
               for c in nav2d.obstacle for g in nav2d.controls}
        assert not (reach.locations() & bad)
        assert "sink" not in reach.locations()

    def test_safety_avoid_obstacle(self, nav2d):
        res = gm.synthesize_safety(nav2d.tga, nav2d.obstacle)
        assert all(c in res.winning for c in nav2d.initial)
