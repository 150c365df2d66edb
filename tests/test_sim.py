"""Integration, event localization, and hybrid-trace extraction."""

import math
import os

import numpy as np
import pytest

import lyagate as lg
from lyagate import cli
from lyagate import conformance as cf
from lyagate import expr as ex
from lyagate.errors import (
    ChatteringError, EvalDomainError, LyagateError, ModelError,
    NonFiniteStateError, StrategyError,
)


class TestIntegrate:
    def test_decay_closed_form(self, ex1d):
        tr = lg.integrate(ex1d.sys, ex1d.g0, (3.0,), math.log(3.0), 1e-4)
        assert tr.states[-1][0] == pytest.approx(1.0, abs=1e-8)

    def test_growth_closed_form(self, ex1d):
        tr = lg.integrate(ex1d.sys, ex1d.g2x, (1.0,), math.log(3.0), 1e-4)
        assert tr.states[-1][0] == pytest.approx(3.0, abs=1e-8)

    def test_zero_field_constant(self):
        box = lg.Box((-1.0,), (1.0,))
        sysz = lg.ControlSystem(n=1, m=1, domain=box,
                                f=(ex.parse_expression("0*x1 + 0*u1", 1, 1),))
        g = lg.ControlLaw("z", (ex.parse_expression("0", 1, 0),))
        tr = lg.integrate(sysz, g, (0.3,), 1.0, 1e-3)
        assert np.all(tr.states[:, 0] == 0.3)

    def test_domain_exit_stops(self, ex1d):
        tr = lg.integrate(ex1d.sys, ex1d.g2x, (2.0,), 10.0, 1e-3)
        assert tr.exited
        assert tr.times[-1] < 10.0

    def test_times_strictly_increasing(self, ex1d):
        tr = lg.integrate(ex1d.sys, ex1d.g0, (2.0,), 1.0, 1e-3)
        assert np.all(np.diff(tr.times) > 0)


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
        def flip(cell_id, n_events, rng):
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
        sysx = lg.ControlSystem(n=1, m=1, domain=ex1d.box,
                                f=(ex.parse_expression(dynamics, 1, 1),))
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        with pytest.raises(error):
            lg.simulate_closed_loop(sysx, kappa, ex1d.complex, (x0,),
                                    5.0, 1.0, controls=ex1d.controls)
        with pytest.raises(error):
            lg.integrate(sysx, ex1d.g0, (x0,), 5.0, 1.0)


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


class TestTrajectoryShape:
    """States are stored flat while simulating; the trajectory must still
    hold one float64 row of n coordinates per sample, however it ends, and
    its visits must cover every sample."""

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

        def alternate(cell, n_events, rng):
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
        # fastest traversal: band [1, 9] has gap 8, and |L_g phi| = 2 x^2
        # under both controls peaks at 18 on the grid point x = +-3
        assert h == pytest.approx(0.01 * 8.0 / 18.0, rel=1e-12)

    def test_default_step_phase_plane(self, nav2d):
        h = lg.default_step(nav2d.sys, nav2d.controls, nav2d.families)
        assert h == pytest.approx(1.3441e-3, rel=1e-4)
        # the spec's grid.step wins over the rule
        spec = cli.SystemSpec.load(os.path.join(
            os.path.dirname(__file__), "..", "demos", "specs",
            "phase_plane.json"))
        assert spec.default_step() == 0.002

    def test_default_step_needs_motion_across_a_band(self, ex1d):
        sysz = lg.ControlSystem(n=1, m=1, domain=ex1d.box,
                                f=(ex.parse_expression("0*x1 + u1", 1, 1),))
        with pytest.raises(ModelError, match="give the step explicitly"):
            lg.default_step(sysz, [ex1d.g0], ex1d.families)


class TestStepError:
    """A band 0.02 wide in phi between wide ones. The default step comes
    from the wide bands (no grid point of the rule lies in the thin one),
    so about two steps cross the thin band; event localization must still
    find both crossings, in order and at the closed-form times."""

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
        h = lg.default_step(ex1d.sys, ex1d.controls, ex1d.families)
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        for x0 in np.linspace(1.05, 2.99, 40):
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (x0,),
                                         10.0, h, controls=ex1d.controls)
            assert tr.events[0].time == pytest.approx(math.log(x0), abs=1e-9)
            assert tr.step_error <= cf.STEP_ERROR_BUDGET

    def test_default_step_keeps_thin_band_crossings(self, ex1d, thin):
        complex, kappa, h = thin
        assert h == pytest.approx(0.01 * 7.98 / 18.0, rel=1e-12)
        starts = np.linspace(1.05, 2.99, 10)
        for x0 in np.concatenate([starts, -starts]):
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, complex, (x0,),
                                         10.0, h, controls=ex1d.controls)
            assert [e.level for e in tr.events] == [1.02, 1.0]
            assert tr.events[0].time < tr.events[1].time
            for e in tr.events:
                exact = math.log(x0 * x0 / e.level) / 2.0
                assert abs(e.time - exact) <= cf.epsilon_t(h)
            assert 0.0 < tr.step_error <= cf.STEP_ERROR_BUDGET

    def test_hundredfold_step_exceeds_budget(self, ex1d, thin):
        complex, kappa, h = thin
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, complex, (2.5,),
                                     10.0, 100.0 * h, controls=ex1d.controls)
        assert tr.step_error > cf.STEP_ERROR_BUDGET
