"""Sandwich envelopes, dwell windows, and the trace-embedding soundness check."""

import math

import numpy as np
import pytest

import lyagate as lg
from lyagate import conformance as cf
from lyagate import expr as ex
from lyagate import game as gm


def _g0_trace(ex1d, x0=3.0, horizon=4.0, h=5e-4):
    kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
    return kappa, lg.simulate_closed_loop(
        ex1d.sys, kappa, ex1d.complex, (x0,), horizon, h,
        controls=ex1d.controls)


class TestSandwich:
    def test_single_segment_brackets(self, ex1d):
        """Entry at phi = 9 under g0: -18t <= phi(t) - 9 <= -2t on the stay."""
        _, tr = _g0_trace(ex1d, 3.0 * (1 - 1e-12))
        rep = cf.check_sandwich(tr, ex1d.fam, ex1d.bounds, ex1d.signs,
                                ex1d.complex)
        assert rep.passed
        assert rep.stays >= 2
        assert rep.start_tangency < 1e-9

    def test_explicit_envelope_values(self, ex1d):
        _, tr = _g0_trace(ex1d, 3.0 * (1 - 1e-12))
        phi = ex.compile_scalar(ex1d.fam.phi)
        t_exit = tr.events[0].time
        times = tr.trajectory.times
        inside = (times > 0) & (times < t_exit)
        inf_r, sup_r = ex1d.bounds.rates(1, 2, "g0")
        for i in np.flatnonzero(inside)[::50]:
            t = float(times[i])
            dphi = phi(tr.trajectory.states[i]) - 9.0
            assert -sup_r * t - 1e-6 <= dphi <= -inf_r * t + 1e-6

    def test_corrupted_rates_detected(self, ex1d):
        """sup forced down to 1 makes the lower envelope too shallow."""
        _, tr = _g0_trace(ex1d, 3.0 * (1 - 1e-12))
        bad = lg.BoundsTable()
        bad.timings = dict(ex1d.bounds.timings)
        bad.extremals = dict(ex1d.bounds.extremals)
        e = bad.extremals[(1, 2, "g0")]
        bad.extremals[(1, 2, "g0")] = lg.ExtremalDerivatives(
            family=1, slice_index=2, control="g0",
            inf_abs=0.5, sup_abs=1.0, argmin=e.argmin, argmax=e.argmax)
        rep = cf.check_sandwich(tr, ex1d.fam, bad, ex1d.signs, ex1d.complex)
        assert not rep.passed
        assert min(v["t"] for v in rep.violations) < 0.2

    def test_piecewise_controls_bracket(self, ex1d):
        """Random admissible switching at every entry keeps the bracketing."""
        rng = np.random.default_rng(17)

        def random_control(cell_id, n_events, _rng):
            return "g0" if rng.random() < 0.5 else "g2x"

        for k in range(10):
            x0 = float(rng.uniform(-2.8, 2.8))
            try:
                tr = lg.simulate_closed_loop(
                    ex1d.sys, random_control, ex1d.complex, (x0,), 5.0, 1e-3,
                    controls=ex1d.controls)
            except lg.errors.ChatteringError:
                continue
            rep = cf.check_sandwich(tr, ex1d.fam, ex1d.bounds, ex1d.signs,
                                    ex1d.complex)
            assert rep.passed, rep.violations[:2]
            assert rep.start_tangency < 1e-9

    def test_multi_family_mixed_controls(self, nav2d):
        res = gm.synthesize_reach(nav2d.tga, nav2d.goal)
        assert len(set(res.strategy.values())) > 1   # a real switching strategy
        rng = np.random.default_rng(23)
        x0 = nav2d.complex.uniform_point_in(nav2d.initial[1], rng)
        tr = lg.simulate_closed_loop(nav2d.sys, res.strategy, nav2d.complex,
                                     x0, 6.0, 1e-3, controls=nav2d.controls)
        assert len({c for c, _, _ in tr.segments()}) > 1
        for fam in nav2d.families:
            rep = cf.check_sandwich(tr, fam, nav2d.bounds, nav2d.signs,
                                    nav2d.complex)
            assert rep.passed, rep.violations[:2]


class TestDwell:
    def test_full_traversal_inside_window(self, ex1d):
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (0.5,),
                                     10.0, 5e-4, controls=ex1d.controls)
        rep = cf.check_dwell(tr, ex1d.bounds, ex1d.signs, ex1d.complex)
        assert rep.passed
        assert rep.traversals >= 1
        fam, band, control, dwell = rep.dwells[0]
        assert dwell == pytest.approx(math.log(3.0), abs=1e-6)

    def test_no_exit_no_obligation(self, ex1d):
        _, tr = _g0_trace(ex1d, 0.5)
        rep = cf.check_dwell(tr, ex1d.bounds, ex1d.signs, ex1d.complex)
        assert rep.passed
        assert rep.traversals == 0

    def test_corrupted_guard_flagged(self, ex1d):
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex, (0.5,),
                                     10.0, 5e-4, controls=ex1d.controls)
        bad = ex1d.bounds.with_override(1, 2, "g2x", t_lo=2.0)
        rep = cf.check_dwell(tr, bad, ex1d.signs, ex1d.complex)
        assert not rep.passed


class TestCheckSound:
    def test_zero_violations_g0(self, ex1d):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        rep = cf.check_sound(ex1d.sys, ex1d.tga, kappa,
                             ex1d.complex.cell_ids(), samples=60, horizon=10.0,
                             step=2e-3, seed=1, controls=ex1d.controls)
        assert rep.passed
        assert rep.traces == 60
        assert rep.completeness == 1.0

    def test_zero_violations_g2x(self, ex1d):
        kappa = {c: "g2x" for c in ex1d.complex.cell_ids()}
        rep = cf.check_sound(ex1d.sys, ex1d.tga, kappa,
                             ex1d.complex.cell_ids(), samples=60, horizon=10.0,
                             step=2e-3, seed=2, controls=ex1d.controls)
        assert rep.passed

    def test_corrupted_bound_detected(self, ex1d):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        bad = ex1d.bounds.with_override(1, 2, "g0", t_lo=2.0)
        auto = lg.build_tga(ex1d.sys, ex1d.complex, ex1d.controls, bad,
                            ex1d.signs)
        rep = cf.check_sound(ex1d.sys, auto, kappa, [ex1d.right, ex1d.left],
                             samples=30, horizon=10.0, step=2e-3, seed=3,
                             controls=ex1d.controls)
        assert not rep.passed
        assert rep.guard_violations >= 1

    def test_zero_samples_vacuous(self, ex1d):
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        rep = cf.check_sound(ex1d.sys, ex1d.tga, kappa,
                             ex1d.complex.cell_ids(), samples=0, horizon=1.0,
                             step=2e-3, controls=ex1d.controls)
        assert rep.passed
        assert rep.traces == 0


def _random_linear_system(rng, dim):
    """Random stable linear field with a matching quadratic level function."""
    from scipy.linalg import solve_lyapunov
    if dim == 1:
        a = -float(rng.uniform(0.5, 2.0))
        A = np.array([[a]])
    else:
        while True:
            A = rng.uniform(-1.5, 1.5, size=(2, 2))
            A = A - (np.max(np.real(np.linalg.eigvals(A))) + 0.7) * np.eye(2)
            if np.max(np.real(np.linalg.eigvals(A))) < -0.3:
                break
    P = solve_lyapunov(A.T, -np.eye(dim))
    box = lg.Box((-2.0,) * dim, (2.0,) * dim)

    def fmt(v):
        return repr(float(v))

    terms = []
    for i in range(dim):
        row = " + ".join("%s*x%d" % (fmt(A[i, j]), j + 1) for j in range(dim))
        terms.append("%s + 0*u1" % row)
    sysr = lg.ControlSystem(
        n=dim, m=1, domain=box,
        f=tuple(ex.parse_expression(t, dim, 1) for t in terms))
    g = lg.ControlLaw("hold", (ex.parse_expression("0", dim, 0),))

    quad = []
    for i in range(dim):
        for j in range(dim):
            quad.append("%s*x%d*x%d" % (fmt(P[i, j]), i + 1, j + 1))
    phi = ex.parse_expression(" + ".join(quad), dim, 0)
    phi_v = ex.compile_vector(phi)
    vmax = float(phi_v(box.grid(32)).max())
    lv1 = float(rng.uniform(0.15, 0.4)) * vmax
    fam = lg.PartitioningFamily(index=1, phi=phi,
                                levels=(0.0, lv1, vmax * 1.0001))
    return sysr, g, fam


@pytest.mark.parametrize("seed,dim", [(s, d) for s in range(5) for d in (1, 2)])
def test_random_systems_sound(seed, dim):
    """Ten randomized stable fields with quadratic stacks embed cleanly."""
    rng = np.random.default_rng(100 + seed)
    sysr, g, fam = _random_linear_system(rng, dim)
    slices = {1: lg.build_slices(fam, sysr.domain, grid=64)}
    signs = lg.admissibility_map(sysr, [g], [fam], grid=64)
    cx = lg.build_cells([fam], sysr.domain, grid=64)
    tbl = lg.compute_bounds(sysr, [g], [fam], slices, grid=64)
    auto = lg.build_tga(sysr, cx, [g], tbl, signs)
    kappa = {c: "hold" for c in cx.cell_ids()}
    rep = cf.check_sound(sysr, auto, kappa, cx.cell_ids(), samples=50,
                         horizon=6.0, step=2e-3, seed=seed, controls=[g])
    assert rep.passed, rep.violations[:1]
