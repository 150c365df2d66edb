"""Integration, event localization, and hybrid-trace extraction."""

import math
import os
import re

import numpy as np
import pytest

import lyagate as lg
from lyagate import cli
from lyagate import conformance as cf
from lyagate import expr as ex
from lyagate import sim as sm
from lyagate.errors import (
    ChatteringError, EvalDomainError, LyagateError, ModelError,
    NonFiniteStateError, StrategyError,
)


class TestIntegrate:
    """One control everywhere: the closed loop's closed-form flow."""

    def test_decay_closed_form(self, ex1d):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (3.0,),
                                     math.log(3.0), 1e-4,
                                     controls=ex1d.controls)
        assert tr.trajectory.times[-1] == pytest.approx(math.log(3.0))
        assert tr.trajectory.states[-1][0] == pytest.approx(1.0, abs=1e-8)

    def test_growth_closed_form(self, ex1d):
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (1.0,),
                                     math.log(3.0), 1e-4,
                                     controls=ex1d.controls)
        assert tr.trajectory.times[-1] == pytest.approx(math.log(3.0))
        assert tr.trajectory.states[-1][0] == pytest.approx(3.0, abs=1e-8)

    def test_zero_field_constant(self, ex1d):
        sysz = lg.ControlSystem(n=1, m=1, domain=ex1d.box,
                                f=(ex.parse_expression("0*x1 + 0*u1", 1, 1),))
        g = lg.ControlLaw("z", (ex.parse_expression("0", 1, 0),))
        kappa = {c: "z" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(sysz, kappa, ex1d.complex, (0.3,),
                                     1.0, 1e-3, controls=[g])
        assert tr.events == []
        assert tr.trajectory.times[-1] == pytest.approx(1.0)
        assert np.all(tr.trajectory.states[:, 0] == 0.3)

    def test_domain_exit_stops(self, ex1d):
        # x = 2 e^t reaches the box face x1 = 3 at t = ln 1.5
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (2.0,),
                                     10.0, 1e-3, controls=ex1d.controls)
        assert tr.trajectory.exited
        assert tr.events[-1].new_cell == "sink"
        assert tr.trajectory.times[-1] == pytest.approx(math.log(1.5),
                                                        abs=1e-8)

    def test_times_strictly_increasing(self, ex1d):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (2.0,),
                                     1.0, 1e-3, controls=ex1d.controls)
        assert tr.events
        assert np.all(np.diff(tr.trajectory.times) > 0)


class TestClosedLoop:
    def test_single_event_g0(self, ex1d):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (2.5,),
                                     10.0, 1e-3, controls=ex1d.controls)
        assert len(tr.events) == 1
        e = tr.events[0]
        assert e.time == pytest.approx(math.log(2.5), abs=1e-8)
        assert ex1d.complex.cell(e.old_cell).label == "[1,3]"
        assert ex1d.complex.cell(e.new_cell).label == "[-1,1]"

    def test_equilibrium_no_events(self, ex1d):
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (0.0,),
                                     5.0, 1e-3, controls=ex1d.controls)
        assert tr.events == []

    def test_growth_to_sink(self, ex1d):
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (0.5,),
                                     10.0, 1e-3, controls=ex1d.controls)
        assert len(tr.events) == 2
        assert tr.events[0].time == pytest.approx(math.log(2.0), abs=1e-8)
        assert tr.events[1].time == pytest.approx(math.log(6.0), abs=1e-8)
        assert tr.events[1].new_cell == "sink"
        assert tr.trajectory.exited

    def test_event_on_level_surface(self, ex1d):
        """phi at every recorded level event sits on the crossed level."""
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        phi = ex.compile_scalar(ex1d.fam.phi)
        for x0 in (2.9, -2.2, 1.4):
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (x0,),
                                         8.0, 1e-3, controls=ex1d.controls)
            for e in tr.events:
                if e.kind == "level":
                    assert phi(e.state) == pytest.approx(e.level, abs=1e-8)

    def test_trace_cells_follow_adjacency(self, nav2d):
        import lyagate.game as gm
        res = gm.synthesize_reach(nav2d.tga, nav2d.goal)
        rng = np.random.default_rng(0)
        x0 = nav2d.complex.uniform_point_in(nav2d.initial[0], rng)
        tr = lg.simulate_closed_loop(nav2d.sys, res.strategy, nav2d.complex,
                                     x0, 6.0, 2e-3, controls=nav2d.controls)
        pairs = {(a.a, a.b) for a in nav2d.complex.adjacency}
        pairs |= {(b, a) for a, b in pairs}
        prev = tr.visits[0][0]
        for e in tr.events:
            if e.new_cell == "sink":
                break
            assert (e.old_cell, e.new_cell) in pairs
            assert e.old_cell == prev
            prev = e.new_cell

    def test_event_time_convergence_order(self, ex1d):
        """Halving the step changes event times at fourth order (>= 3.5)."""
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}

        def event_time(h):
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (2.7,),
                                         3.0, h, controls=ex1d.controls)
            return tr.events[0].time

        t1, t2, t4 = event_time(2e-2), event_time(1e-2), event_time(5e-3)
        e12 = abs(t1 - t2)
        e24 = abs(t2 - t4)
        order = math.log2(e12 / e24)
        assert order >= 3.5

    def test_chattering_guard(self, ex1d):
        # adversarial switcher: always pick the control that pushes back
        def flip(cell_id, n_events):
            lbl = ex1d.complex.cell(cell_id).label
            return "g2x" if lbl == "[-1,1]" else "g0"

        with pytest.raises(ChatteringError):
            lg.simulate_closed_loop(ex1d.sys, flip, ex1d.complex, (1.5,),
                                    20.0, 1e-3, controls=ex1d.controls)

    def test_unknown_control_rejected(self, ex1d):
        kappa = {c: "nope" for c in ex1d.complex.cell_ids()}
        with pytest.raises(StrategyError):
            lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (0.5,),
                                    1.0, 1e-3, controls=ex1d.controls)

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf])
    def test_bad_step_rejected(self, ex1d, h):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        with pytest.raises(LyagateError, match="step must be finite"):
            lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (2.0,),
                                    1.0, h, controls=ex1d.controls)


class TestFusedStep:
    def test_samples_are_textbook_rk4_steps(self, nav2d, textbook_rk4):
        """Every sample not at an event is one textbook RK4 step from the
        sample before it, bit for bit, under the control of that stay."""
        import lyagate.game as gm
        res = gm.synthesize_reach(nav2d.tga, nav2d.goal)
        horizon, h = 6.0, 2e-3
        x0 = nav2d.complex.uniform_point_in(
            nav2d.initial[0], np.random.default_rng(3))
        tr = lg.simulate_closed_loop(nav2d.sys, res.strategy, nav2d.complex,
                                     x0, horizon, h, controls=nav2d.controls)
        assert tr.events
        fields = {g.name: ex.compile_field(nav2d.sys.closed_loop(g))
                  for g in nav2d.controls}
        event_times = {e.time for e in tr.events}
        times, states = tr.trajectory.times, tr.trajectory.states
        controls = [ctrl for _, ctrl in tr.sample_locations()]
        checked = 0
        for i in range(1, len(times)):
            if times[i] in event_times:
                continue
            t = float(times[i - 1])
            step = min(h, horizon - t)
            prev = tuple(float(v) for v in states[i - 1])
            ref = textbook_rk4(fields[controls[i]], prev, step)
            assert tuple(float(v) for v in states[i]) == ref
            assert float(times[i]) == t + step
            checked += 1
        assert checked > 1000

    def test_non_finite_state_in_event_free_loop(self, ex1d):
        # the first step stays finite only up to its second stage
        sysinf = lg.ControlSystem(
            n=1, m=1, domain=ex1d.box,
            f=(ex.parse_expression("x1*x1*1e200 + u1", 1, 1),))
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        with pytest.raises(NonFiniteStateError,
                           match="non-finite state at t=0.001"):
            lg.simulate_closed_loop(sysinf, kappa, ex1d.complex, (2.0,),
                                    1.0, 1e-3, controls=ex1d.controls)

    @pytest.mark.parametrize("dynamics,x0,error", [
        ("-x1^9 + u1", 2.5, NonFiniteStateError),    # OverflowError
        ("1/(x1 - 2) + u1", 2.0, EvalDomainError),   # ZeroDivisionError
        ("sqrt(x1) + u1", -1.0, EvalDomainError),    # math domain error
    ])
    def test_float_errors_become_lyagate_errors(self, ex1d, dynamics, x0,
                                                error):
        message = {
            "-x1^9 + u1": "state overflows in the step to t=1",
            "1/(x1 - 2) + u1": "division by zero at x=(2), u=()",
            "sqrt(x1) + u1": "math domain error at x=(-1), u=()",
        }[dynamics]
        sysx = lg.ControlSystem(n=1, m=1, domain=ex1d.box,
                                f=(ex.parse_expression(dynamics, 1, 1),))
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            lg.simulate_closed_loop(sysx, kappa, ex1d.complex, (x0,),
                                    5.0, 1.0, controls=ex1d.controls)

    @pytest.mark.parametrize("dynamics,x0,error,message", [
        # x1 moves 1.5, 1.75, 2.0 in steps of 0.25: the second step fails
        ("1 + 1e-300/(x1 - 2) + u1", 1.5, EvalDomainError,
         "division by zero at x=(1.75), u=()"),
        ("1 + 1e-300 * (1e40 * (x1 - 1.75 + abs(x1 - 1.75)))^9 + u1", 1.5,
         NonFiniteStateError, "state overflows in the step to t=0.5"),
        # the stay that fails opens at the crossing of level 1
        ("1 + sqrt(1.75 - x1) + u1", 1.0, EvalDomainError,
         "math domain error at x=(1.43041), u=()"),
    ])
    def test_float_error_at_a_later_step(self, ex1d, dynamics, x0, error,
                                         message):
        """The stay kernel maps the error where it is raised, so it names
        the step that failed, not the stay's first."""
        sysx = lg.ControlSystem(n=1, m=1, domain=ex1d.box,
                                f=(ex.parse_expression(dynamics, 1, 1),))
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            lg.simulate_closed_loop(sysx, kappa, ex1d.complex, (x0,),
                                    5.0, 0.25, controls=ex1d.controls)


def check_visits(tr):
    """The visits are the run the simulator took: one per location entered,
    opened by the sample of the crossing that entered it; a sink event's
    sample is the last sample of the last visit."""
    times = tr.trajectory.times
    starts = [start for _, _, start in tr.visits]
    assert starts[0] == 0
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert starts[-1] < len(times)
    crossings = [e for e in tr.events if e.new_cell != "sink"]
    assert len(tr.visits) == len(crossings) + 1
    for e, before, (cell, _, start) in zip(crossings, tr.visits, tr.visits[1:]):
        assert (e.old_cell, e.new_cell) == (before[0], cell)
        assert times[start] == e.time
        assert tuple(tr.trajectory.states[start]) == e.state
    samples = tr.sample_locations()
    assert len(samples) == len(times)
    assert samples[-1] == tr.visits[-1][:2]
    if tr.trajectory.exited:
        sink = tr.events[-1]
        assert (sink.new_cell, sink.old_cell) == ("sink", tr.visits[-1][0])
        assert times[-1] == sink.time
        assert starts[-1] < len(times) - 1


def _recorded_trajectory(tr, sys, complex, controls, x0, horizon, h,
                         reference_stay):
    """The samples a recording loop over `conftest._reference_stay` takes:
    each visit's stay runs from the sample that opened it (the start or the
    trace's event sample) under the visit's control, bands and the
    simulator's box, appending every accepted step; the event sample that
    ends the visit follows."""
    fields = {g.name: sys.closed_loop(g) for g in controls}
    phis = tuple(fam.phi for fam in complex.families)
    box = tuple((lo - 1e-12, hi + 1e-12)
                for lo, hi in zip(sys.domain.lower, sys.domain.upper))
    openings = [(0.0, tuple(x0))] + [(e.time, e.state) for e in tr.events]
    times, coords = [], []
    for k, (t, x) in enumerate(openings):
        times.append(t)
        coords.extend(x)
        if k < len(tr.visits):
            cell, ctrl, _ = tr.visits[k]
            y = complex.cell(cell).y
            bands = [fam.band(y[i]) for i, fam in enumerate(complex.families)]
            reference_stay(fields[ctrl], phis, x, t, horizon - 1e-15,
                           horizon, h, box, bands, times, coords)
    return times, coords


def demo_reach(name, goal):
    """(spec, automaton, complex, reach strategy) of a shipped demo spec;
    ``goal`` is a cell label or a point."""
    import lyagate.game as gm
    spec = cli.SystemSpec.load(os.path.join(
        os.path.dirname(__file__), "..", "demos", "specs", name + ".json"))
    pipe = cli.Pipeline(spec)
    auto = pipe.automaton("cells")
    complex = pipe.complex()
    goal_cell = (complex.cell_at(goal) if isinstance(goal, tuple) else
                 {c.label: c.id for c in complex.cells}[goal])
    return spec, auto, complex, gm.synthesize_reach(auto, [goal_cell]).strategy


DEMO_REACH = [("example1d", "[-1,1]", 10.0), ("phase_plane", (0.5, 0.0), 6.0)]


class TestReplayedTrajectory:
    """The trace keeps no samples; reading its trajectory replays them."""

    @staticmethod
    def check(tr, sys, complex, controls, x0, horizon, h, reference_stay):
        times, coords = _recorded_trajectory(tr, sys, complex, controls, x0,
                                             horizon, h, reference_stay)
        traj = tr.trajectory
        assert [v.hex() for v in traj.times.tolist()] == [
            v.hex() for v in times]
        assert [v.hex() for v in traj.states.ravel().tolist()] == [
            v.hex() for v in coords]

    def test_phase_plane_matches_recording_loop(self, nav2d, reference_stay):
        import lyagate.game as gm
        res = gm.synthesize_reach(nav2d.tga, nav2d.goal)
        rng = np.random.default_rng(5)
        kinds = set()
        starts = [nav2d.complex.uniform_point_in(cell, rng)
                  for cell in nav2d.complex.cell_ids()[::2]]
        runs = [(res.strategy, x0) for x0 in starts]
        # x1 leaves through the box edge under brake
        runs.append(({c: "brake" for c in nav2d.complex.cell_ids()},
                     (2.9, 2.0)))
        for strategy, x0 in runs:
            tr = lg.simulate_closed_loop(nav2d.sys, strategy, nav2d.complex,
                                         x0, 6.0, 2e-3,
                                         controls=nav2d.controls)
            kinds.update(e.kind for e in tr.events)
            self.check(tr, nav2d.sys, nav2d.complex, nav2d.controls, x0, 6.0,
                       2e-3, reference_stay)
        assert kinds == {"level", "domain"}

    def test_example1d_to_the_horizon(self, ex1d, reference_stay):
        h = lg.default_step(ex1d.sys, ex1d.controls, ex1d.families)
        for ctrl, x0 in (("g0", 2.0), ("g0", -0.5), ("g2x", 0.0)):
            kappa = {c: ctrl for c in ex1d.complex.cell_ids()}
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (x0,),
                                         10.0, h, controls=ex1d.controls)
            assert not tr.exited
            self.check(tr, ex1d.sys, ex1d.complex, ex1d.controls, (x0,),
                       10.0, h, reference_stay)

    @pytest.mark.parametrize("name,goal", [
        ("example1d", "[-1,1]"), ("phase_plane", (0.5, 0.0))])
    def test_check_sound_replays_no_stay(self, monkeypatch, name, goal):
        """A `check_sound` batch reads each trace's run and step error only,
        so it never builds samples: it calls no walker. Reading one trace's
        trajectory afterwards calls the walker once per visit."""
        replays = []
        real = ex.compile_walk

        def counting_walk(field_exprs):
            walk = real(field_exprs)

            def counting(*args):
                replays.append(args)
                return walk(*args)
            return counting

        monkeypatch.setattr(sm.ex, "compile_walk", counting_walk)
        spec, auto, complex, strategy = demo_reach(name, goal)
        report = cf.check_sound(spec.system, auto, strategy,
                                complex.cell_ids(), samples=6, horizon=3.0,
                                step=spec.default_step(), seed=1,
                                controls=spec.controls)
        assert report.traces == 6
        assert replays == []
        tr = sm.simulate_closed_loop(spec.system, strategy, complex,
                                     complex.uniform_point_in(
                                         complex.cell_ids()[0],
                                         np.random.default_rng(1)),
                                     3.0, spec.default_step(),
                                     controls=spec.controls)
        assert len(tr.trajectory) > 1
        assert len(replays) == len(tr.visits)


def _past(value, thr, sign, y):
    """A crossed value is past its threshold above it (+1), or when it is
    not above it (-1)."""
    v = value(y)
    return v > thr if sign > 0 else not v > thr


class TestEventLocator:
    """One safeguarded Illinois search per step locates each event, and
    takes the run the per-value bisection took."""

    @staticmethod
    def batch(name, goal, horizon, samples=96, seed=33):
        spec, _, complex, strategy = demo_reach(name, goal)
        cells = complex.cell_ids()
        rng = np.random.default_rng(seed)
        starts = [complex.uniform_point_in(cells[i % len(cells)], rng)
                  for i in range(samples)]
        return [lg.simulate_closed_loop(spec.system, strategy, complex, x0,
                                        horizon, spec.default_step(),
                                        controls=spec.controls)
                for x0 in starts]

    @pytest.mark.parametrize("name,goal,horizon", DEMO_REACH)
    def test_same_runs_as_reference_bisection(self, name, goal, horizon,
                                              monkeypatch,
                                              reference_locate_event):
        """96 seeded starts: the same location sequences, and events of the
        same kind, family, level and cells, each within EVENT_TIME_TOL of
        the bisection's time (measured worst 7e-11)."""
        traces = self.batch(name, goal, horizon)
        monkeypatch.setattr(sm, "_locate_event", reference_locate_event)
        refs = self.batch(name, goal, horizon)
        events, kinds = 0, set()
        for tr, ref in zip(traces, refs):
            assert [s[:2] for s in tr.location_sequence()] == [
                s[:2] for s in ref.location_sequence()]
            assert len(tr.events) == len(ref.events)
            for e, r in zip(tr.events, ref.events):
                assert (e.kind, e.family, e.level, e.old_cell, e.new_cell) == (
                    r.kind, r.family, r.level, r.old_cell, r.new_cell)
                assert abs(e.time - r.time) < sm.EVENT_TIME_TOL
                events += 1
                kinds.add(e.kind)
        assert events >= len(traces) // 2
        # phase_plane's batch leaves the box: faces are located too
        assert kinds == ({"level", "domain"} if name == "phase_plane"
                         else {"level"})

    @pytest.mark.parametrize("name,goal,horizon", DEMO_REACH)
    def test_bracket_contract(self, name, goal, horizon, monkeypatch):
        """Every located event: tau in (0, step], the state at tau is the
        RK4 step of that length, and the event's value is the first crossed
        value past there; no crossed value is past at the bracket's start,
        which lies within EVENT_TIME_TOL of tau, unless the event is
        immediate."""
        calls = []
        real = sm._locate_event

        def recording(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(sm, "_locate_event", recording)
        self.batch(name, goal, horizon, samples=48)
        assert calls
        for (step_fn, x, t, step, xn, crossed), (k, lo, tau, x_tau) in calls:
            assert 0.0 < tau <= step
            assert x_tau == step_fn(x, tau)
            assert [_past(*c[:3], x_tau) for c in crossed].index(True) == k
            at_x = [_past(*c[:3], x) for c in crossed]
            if any(at_x):
                assert (lo, tau) == (0.0, min(sm.EVENT_TIME_TOL, step))
                assert at_x.index(True) == k
                continue
            assert 0.0 <= lo < tau and tau - lo < sm.EVENT_TIME_TOL
            at_lo = step_fn(x, lo) if lo > 0.0 else x
            assert not any(_past(*c[:3], at_lo) for c in crossed)

    def test_rk4_calls_per_event_nav_embed(self, monkeypatch):
        """A nav-embed batch takes at most 10 RK4 steps outside the stay
        kernel per event: the locator's probes, the step-doubling halves of
        each event and trace end, and the neighbour probes (about 7.9; the
        per-value bisection took about 32)."""
        spec, auto, complex, strategy = demo_reach("phase_plane", (0.5, 0.0))
        h = spec.default_step()
        steps, traces = [], []
        real_step, real_sim = ex.compile_step, sm.simulate_closed_loop

        def counting_step(field_exprs):
            step = real_step(field_exprs)

            def counting(x, h):
                steps.append(h)
                return step(x, h)
            return counting

        def recording(*args, **kwargs):
            traces.append(real_sim(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(sm.ex, "compile_step", counting_step)
        monkeypatch.setattr(sm, "simulate_closed_loop", recording)
        cf.check_sound(spec.system, auto, strategy, complex.cell_ids(),
                       samples=48, horizon=6.0, step=h, seed=[41, 0],
                       controls=spec.controls)
        events = sum(len(tr.events) for tr in traces)
        assert len(traces) == 48 and events >= 3 * len(traces)
        assert len(steps) <= 10 * events

    def test_step_longer_than_the_tolerance_resolves(self):
        """x1 moves at 1e-7 from -1 across the level 0 at t = 1e7 within one
        step of 2e7, where floats lie 1.86e-9 apart: the search ends at
        adjacent floats, one past the level."""
        box = lg.Box((-3.0,), (3.0,))
        sysd = lg.ControlSystem(n=1, m=1, domain=box, f=(
            ex.parse_expression("1e-7 + 0*x1 + u1", 1, 1),))
        g = lg.ControlLaw("z", (ex.parse_expression("0", 1, 0),))
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("x1", 1, 0),
            levels=(-3.0, 0.0, 3.0))
        cx = lg.build_cells([fam], box, grid=64, stability_check=False)
        tr = lg.simulate_closed_loop(sysd, {c: "z" for c in cx.cell_ids()},
                                     cx, (-1.0,), 2e7, 2e7, controls=[g])
        e = tr.events[0]
        assert (e.kind, e.level) == ("level", 0.0)
        assert 1e7 < e.time <= 1e7 + 2 * math.ulp(1e7)

    @pytest.mark.parametrize("step", [None, 1e-3])
    def test_level_on_a_face_wins_the_tie(self, ex1d, step):
        """On example1d the top level phi = 9 is the box face |x1| = 3.
        Under g2x, 20 starts in each outer band leave through that level
        into the sink, never by a domain exit: the level is past first,
        1e-12 before the face's slack, and ``check_dwell`` counts a
        traversal only when a level of its family closes the stay."""
        h = step or lg.default_step(ex1d.sys, ex1d.controls, ex1d.families)
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        rng = np.random.default_rng(9)
        for cell in (ex1d.left, ex1d.right):
            for _ in range(20):
                x0 = ex1d.complex.uniform_point_in(cell, rng)
                tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex,
                                             x0, 10.0, h,
                                             controls=ex1d.controls)
                e = tr.events[-1]
                assert (e.kind, e.family, e.level, e.new_cell) == (
                    "level", 1, 9.0, "sink")


class TestNanPhiStrip:
    """phi is x1^2 at every grid point and nan on a strip around x1 = 4/3
    narrower than the grid spacing. A step that lands in the strip leaves
    the stay kernel without a crossing; the simulator takes that step
    itself and calls the kernel again, so the first visit spans three
    kernel calls, and its walker must take the same steps in one call."""

    PHI = ("x1^2 + 0*(1e200*(abs(0.03 - abs(x1 - 1.3333333333333333))"
           " + (0.03 - abs(x1 - 1.3333333333333333))))^2")
    STEP = 0.0188514

    @pytest.fixture(scope="class")
    def strip(self, ex1d):
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression(self.PHI, 1, 0),
            levels=(0.0, 1.0, 9.0))
        controls = [ex1d.g0]
        eq = {"g0": ex1d.equilibria["g0"]}
        with np.errstate(over="ignore", invalid="ignore"):
            complex = lg.build_cells([fam], ex1d.box, grid=64)
            signs = lg.admissibility_map(ex1d.sys, controls, [fam], grid=128,
                                         equilibria=eq)
            bounds = lg.compute_bounds(
                ex1d.sys, controls, [fam],
                {1: lg.build_slices(fam, ex1d.box, grid=64)}, grid=64,
                equilibria=eq)
            auto = lg.build_tga(ex1d.sys, complex, controls, bounds, signs,
                                mode="cells")
        kappa = {c: "g0" for c in complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, complex, (2.5,), 10.0,
                                     self.STEP, controls=controls)
        return fam, complex, auto, kappa, tr

    def test_samples_are_textbook_rk4_steps(self, ex1d, strip, textbook_rk4):
        fam, _, _, _, tr = strip
        phi = ex.compile_scalar(fam.phi)
        field = ex.compile_field(ex1d.sys.closed_loop(ex1d.g0))
        event_times = {e.time for e in tr.events}
        times = tr.trajectory.times.tolist()
        states = tr.trajectory.states[:, 0].tolist()
        # the two samples in the strip lie inside the first visit
        assert [i for i, x in enumerate(states) if math.isnan(phi((x,)))] == [
            33, 34]
        checked = 0
        for i in range(1, len(times)):
            if times[i] in event_times:
                continue
            step = min(self.STEP, 10.0 - times[i - 1])
            assert (states[i],) == textbook_rk4(field, (states[i - 1],), step)
            assert times[i] == times[i - 1] + step
            checked += 1
        assert checked == len(times) - 1 - len(tr.events)

    def test_visits_and_events(self, strip):
        _, _, _, _, tr = strip
        assert tr.visits == [("c2-1", "g0", 0), ("c1-0", "g0", 49)]
        assert tr.stay_steps == [48, 482]
        assert not tr.exited
        [e] = tr.events
        assert (e.family, e.level, e.old_cell, e.new_cell, e.kind) == (
            1, 1.0, "c2-1", "c1-0", "level")
        assert (e.time.hex(), e.state[0].hex()) == (
            "0x1.d5240f1662f0cp-1", "0x1.fffffffffe008p-1")

    def test_check_sound_embeds_the_trace(self, ex1d, strip, monkeypatch):
        _, complex, auto, kappa, tr = strip
        monkeypatch.setattr(complex, "uniform_point_in",
                            lambda cell, rng: (2.5,))
        report = cf.check_sound(ex1d.sys, auto, kappa, ["c2-1"], samples=1,
                                horizon=10.0, step=self.STEP,
                                controls=[ex1d.g0])
        assert report.traces == 1
        assert report.violations == []


class TestTrajectoryShape:
    """The trajectory is replayed from the trace's visits; it must hold one
    float64 row of n coordinates per sample, however it ends, and its visits
    must cover every sample."""

    @staticmethod
    def check(tr, x0, n, ending):
        traj = tr.trajectory
        assert traj.times.dtype == np.float64
        assert traj.times.shape == (len(traj),)
        assert traj.states.dtype == np.float64
        assert traj.states.shape == (len(traj), n)
        check_visits(tr)
        assert tuple(traj.states[0]) == tuple(x0)
        last = tr.events[-1] if tr.events else None
        if ending is None:
            assert not traj.exited
        else:
            assert traj.exited
            assert (last.kind, last.new_cell) == (ending, "sink")
            assert traj.times[-1] == last.time
            assert tuple(traj.states[-1]) == last.state

    @pytest.mark.parametrize("ctrl,x0,ending", [
        ("g0", 2.0, None),          # horizon end after one level event
        ("g2x", 0.5, "level"),      # level 9 has no cell beyond it
    ])
    def test_one_dimensional(self, ex1d, ctrl, x0, ending):
        kappa = {c: ctrl for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (x0,),
                                     10.0, 1e-3, controls=ex1d.controls)
        self.check(tr, (x0,), 1, ending)

    def test_one_dimensional_domain_exit(self, ex1d):
        # level 16 lies outside the box, so x1 = 3 is left as a domain exit
        fam = lg.PartitioningFamily(index=1, phi=ex1d.fam.phi,
                                    levels=(0.0, 1.0, 16.0))
        complex = lg.build_cells([fam], ex1d.box, grid=64)
        kappa = {c: "g2x" for c in complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, complex, (0.5,),
                                     10.0, 1e-3, controls=ex1d.controls)
        self.check(tr, (0.5,), 1, "domain")

    @pytest.mark.parametrize("x0,ending", [
        ((0.5, 0.5), None),         # horizon end after one level event
        ((2.9, 2.0), "domain"),     # x1 leaves through the box edge
    ])
    def test_two_dimensional(self, nav2d, x0, ending):
        kappa = {c: "brake" for c in nav2d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(nav2d.sys, kappa, nav2d.complex, x0,
                                     3.0, 1e-3, controls=nav2d.controls)
        self.check(tr, x0, 2, ending)


class TestTraceArtifacts:
    def test_csv_export(self, ex1d, tmp_path):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (2.0,),
                                     2.0, 1e-3, controls=ex1d.controls)
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,cell,control"
        assert len(lines) == len(tr.trajectory) + 1

    def test_location_sequence(self, ex1d):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (2.0,),
                                     3.0, 1e-3, controls=ex1d.controls)
        seq = tr.location_sequence()
        assert seq[0] == (ex1d.right, "g0", 0.0)
        assert seq[1][:2] == (ex1d.mid, "g0")
        assert seq[1][2] == tr.events[0].time
        assert len(seq) == 2

    def test_location_sequence_under_callable_strategy(self, nav2d):
        """The location sequence reports the controls a callable strategy
        chose, which cannot be looked up by cell afterwards."""
        chosen = []

        def alternate(cell, n_events):
            ctrl = "firm" if n_events % 2 else "brake"
            chosen.append((cell, ctrl))
            return ctrl

        tr = lg.simulate_closed_loop(nav2d.sys, alternate, nav2d.complex,
                                     (2.0, 1.0), 6.0, 2e-3,
                                     controls=nav2d.controls)
        check_visits(tr)
        seq = tr.location_sequence()
        assert len(chosen) >= 3
        assert [(cell, ctrl) for cell, ctrl, _ in seq] == chosen
        assert [t for _, _, t in seq[1:]] == [e.time for e in tr.events]
        assert {ctrl for _, ctrl, _ in seq} == {"brake", "firm"}

    def test_location_sequence_ends_in_sink(self, ex1d):
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (0.5,),
                                     10.0, 1e-3, controls=ex1d.controls)
        check_visits(tr)
        seq = tr.location_sequence()
        assert [c for c, _, _ in seq] == [ex1d.mid, ex1d.right, "sink"]
        assert seq[-1] == ("sink", None, tr.events[-1].time)

    def test_default_step(self, ex1d):
        h = lg.default_step(ex1d.sys, ex1d.controls, ex1d.families)
        # the cap: band [1, 9] has gap 8, and |L_g phi| = 2 x^2 under both
        # controls peaks at 18 on the grid point x = +-3; the measured error
        # shrinks a quarter of that traversal to 0.0188514
        assert h < 0.25 * 8.0 / 18.0
        assert h == pytest.approx(0.0188514, rel=1e-5)

    def test_default_step_phase_plane(self, nav2d):
        h = lg.default_step(nav2d.sys, nav2d.controls, nav2d.families)
        assert h == pytest.approx(9.1944e-3, rel=1e-4)
        # the spec has no step of its own: the rule is the default
        spec = cli.SystemSpec.load(os.path.join(
            os.path.dirname(__file__), "..", "demos", "specs",
            "phase_plane.json"))
        assert spec.default_step() == h

    def test_default_step_skips_a_probe_outside_the_phi_domain(self, ex1d):
        """Under g2x, one step from the probe x = -3 leaves the domain of
        sqrt(x1 + 3.05); the probe is skipped instead of raising."""
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("sqrt(x1 + 3.05)", 1, 0),
            levels=(0.0, 1.0, 2.5))
        h = lg.default_step(ex1d.sys, ex1d.controls, [fam])
        assert 0.0 < h < 0.25

    def test_default_step_raises_any_other_fault_in_phi(self, ex1d,
                                                       monkeypatch):
        """Only a float domain error skips a probe: any other fault in
        evaluating phi raises instead of dropping probes from rho."""
        def broken(expr):
            def phi(x):
                raise ValueError("not a domain error")
            return phi

        monkeypatch.setattr(ex, "compile_scalar", broken)
        with pytest.raises(ValueError, match="not a domain error"):
            lg.default_step(ex1d.sys, ex1d.controls, ex1d.families)

    def test_default_step_needs_motion_across_a_band(self, ex1d):
        sysz = lg.ControlSystem(n=1, m=1, domain=ex1d.box,
                                f=(ex.parse_expression("0*x1 + u1", 1, 1),))
        with pytest.raises(ModelError, match="give the step with --step"):
            lg.default_step(sysz, [ex1d.g0], ex1d.families)


class TestStepError:
    """A band 0.02 wide in phi between wide ones. The default step comes
    from the wide bands (no grid point of the rule lies in the thin one),
    so one step can cross the whole thin band; event localization must
    still find both crossings, in order and at the closed-form times."""

    @pytest.fixture(scope="class")
    def thin(self, ex1d):
        fam = lg.PartitioningFamily(index=1, phi=ex1d.fam.phi,
                                    levels=(0.0, 1.0, 1.02, 9.0))
        # the thin band holds cells only on a fine grid
        complex = lg.build_cells([fam], ex1d.box, grid=512)
        kappa = {c: "g0" for c in complex.cell_ids()}
        h = lg.default_step(ex1d.sys, ex1d.controls, [fam])
        return complex, kappa, h

    def test_default_step_event_times_example1d(self, ex1d):
        """At 1% of the fastest band traversal (4/900) the event times are
        closed-form to 1e-9; ``TestDefaultStepRule`` holds the default
        step's event times to its contract."""
        h = 0.01 * 8.0 / 18.0
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        for x0 in np.linspace(1.05, 2.99, 40):
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (x0,),
                                         10.0, h, controls=ex1d.controls)
            assert tr.events[0].time == pytest.approx(math.log(x0), abs=1e-9)
            assert tr.step_error <= sm.STEP_ERROR_BUDGET

    def test_default_step_keeps_thin_band_crossings(self, ex1d, thin):
        complex, kappa, h = thin
        # the cap is a quarter of the wide band [1.02, 9]'s traversal
        assert h < 0.25 * 7.98 / 18.0
        assert h == pytest.approx(0.0188516, rel=1e-5)
        starts = np.linspace(1.05, 2.99, 10)
        for x0 in np.concatenate([starts, -starts]):
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, complex, (x0,),
                                         10.0, h, controls=ex1d.controls)
            assert [e.level for e in tr.events] == [1.02, 1.0]
            assert tr.events[0].time < tr.events[1].time
            for e in tr.events:
                exact = math.log(x0 * x0 / e.level) / 2.0
                assert abs(e.time - exact) <= cf.epsilon_t(tr.step_error)
            assert 0.0 < tr.step_error <= sm.STEP_ERROR_BUDGET

    def test_hundredfold_step_exceeds_budget(self, ex1d, thin):
        complex, kappa, h = thin
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, complex, (2.5,),
                                     10.0, 100.0 * h, controls=ex1d.controls)
        assert tr.step_error > sm.STEP_ERROR_BUDGET


class TestDefaultStepRule:
    """The default step is read from the measured error. On both demos,
    under their reach strategies and at the benchmark horizons, it must
    take the same run as a fine step and keep ``step_error`` within a
    tenth of the budget (the rule's contract for runs up to
    ``STEP_HORIZON``)."""

    def test_event_times_example1d(self, ex1d):
        """Runs of 10 time units at the default step: the closed-form event
        times, and the error estimate, stay within a tenth of the budget
        (measured worst event-time error 1.19e-9)."""
        h = lg.default_step(ex1d.sys, ex1d.controls, ex1d.families)
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        for x0 in np.linspace(1.05, 2.99, 40):
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (x0,),
                                         10.0, h, controls=ex1d.controls)
            assert tr.events[0].time == pytest.approx(
                math.log(x0), abs=sm.STEP_ERROR_BUDGET / 10.0)
            assert tr.step_error <= sm.STEP_ERROR_BUDGET / 10.0

    @pytest.mark.parametrize("name,goal,horizon", DEMO_REACH)
    def test_same_run_as_a_fine_step(self, name, goal, horizon):
        """24 seeded starts: the same cells and controls as at step 1e-4,
        and event times within the trace's own replay tolerance."""
        spec, _, complex, strategy = demo_reach(name, goal)
        h = spec.default_step()
        cells = complex.cell_ids()
        rng = np.random.default_rng(26)
        for i in range(24):
            x0 = complex.uniform_point_in(cells[i % len(cells)], rng)
            tr, ref = (lg.simulate_closed_loop(spec.system, strategy, complex,
                                               x0, horizon, step,
                                               controls=spec.controls)
                       for step in (h, 1e-4))
            seq, ref_seq = tr.location_sequence(), ref.location_sequence()
            assert [s[:2] for s in seq] == [s[:2] for s in ref_seq]
            eps = cf.epsilon_t(tr.step_error)
            for (_, _, t), (_, _, t_ref) in zip(seq, ref_seq):
                assert abs(t - t_ref) <= eps

    @pytest.mark.parametrize("name,goal,horizon", DEMO_REACH)
    def test_check_sound_batch_within_a_tenth_of_the_budget(
            self, name, goal, horizon):
        spec, auto, complex, strategy = demo_reach(name, goal)
        report = cf.check_sound(spec.system, auto, strategy,
                                complex.cell_ids(), samples=48,
                                horizon=horizon, step=spec.default_step(),
                                seed=3, controls=spec.controls)
        assert report.traces == 48
        assert 0.0 < report.max_step_error <= sm.STEP_ERROR_BUDGET / 10.0
