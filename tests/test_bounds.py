"""Extremal Lie-derivative magnitudes and dwell-time windows."""

import math

import numpy as np
import pytest

import lyagate as lg
from lyagate import expr as ex
from lyagate.bounds import ROUND_OUT
from lyagate.errors import EmptySliceError

REL = 0.002   # analytic values hold within 0.2% after outward rounding


class TestExtremal:
    def test_outer_slice_g0(self, ex1d):
        """|−2x²| on 1 ≤ x² ≤ 9 has extrema 2 and 18 at the band edges."""
        e = ex1d.bounds.extremals[(1, 2, "g0")]
        assert e.inf_abs == pytest.approx(2.0, rel=REL)
        assert e.sup_abs == pytest.approx(18.0, rel=REL)
        assert e.inf_abs <= 2.0 <= e.sup_abs

    def test_inner_slice_g0_clamped(self, ex1d):
        e = ex1d.bounds.extremals[(1, 1, "g0")]
        assert e.inf_abs == 0.0
        assert e.sup_abs == pytest.approx(2.0, rel=REL)

    def test_outer_slice_g2x(self, ex1d):
        e = ex1d.bounds.extremals[(1, 2, "g2x")]
        assert e.inf_abs == pytest.approx(2.0, rel=REL)
        assert e.sup_abs == pytest.approx(18.0, rel=REL)

    def test_empty_slice(self, ex1d):
        fam = lg.PartitioningFamily(index=1, phi=ex1d.fam.phi,
                                    levels=(100.0, 200.0))
        slc = lg.Slice(family=1, index=1, lo=100.0, hi=200.0)
        with pytest.raises(EmptySliceError):
            lg.extremal_lie_derivative(slc, ex1d.g0, fam, ex1d.sys,
                                       equilibria=ex1d.equilibria["g0"])

    def test_extrema_bracket_random_samples(self, ex1d):
        """10^4 random slice points stay within [inf - 1e-9, sup + 1e-9]."""
        rng = np.random.default_rng(5)
        for (fam_i, h, gname), e in ex1d.bounds.extremals.items():
            g = {g.name: g for g in ex1d.controls}[gname]
            ld = ex.compile_vector(lg.lie_derivative(ex1d.sys, g, ex1d.fam))
            lo, hi = ex1d.fam.band(h)
            pts = []
            while len(pts) < 10_000:
                cand = rng.uniform(-3, 3, size=(40_000, 1))
                phiv = cand[:, 0] ** 2
                keep = (phiv >= lo) & (phiv <= hi)
                pts.extend(cand[keep][: 10_000 - len(pts)])
            vals = np.abs(ld(np.array(pts)))
            assert vals.min() >= e.inf_abs - 1e-9
            assert vals.max() <= e.sup_abs + 1e-9


class TestTimingBounds:
    def test_outer_slice_window(self, ex1d):
        tb = ex1d.bounds.timing(1, 2, "g0")
        assert tb.t_lo == pytest.approx(4.0 / 9.0, rel=REL)
        assert tb.t_hi == pytest.approx(4.0, rel=REL)

    def test_inner_slice_no_invariant(self, ex1d):
        tb = ex1d.bounds.timing(1, 1, "g0")
        assert tb.t_lo == pytest.approx(0.5, rel=REL)
        assert tb.t_hi == math.inf

    def test_degenerate_band(self):
        e = lg.ExtremalDerivatives(family=1, slice_index=1, control="g",
                                   inf_abs=1.0, sup_abs=2.0,
                                   argmin=(0.0,), argmax=(1.0,))
        tb = lg.timing_bounds(e, 0.0)
        assert tb.t_lo == 0.0 and tb.t_hi == 0.0

    def test_rounding_is_outward(self, ex1d):
        """t_lo never exceeds the analytic ratio; t_hi never undershoots it."""
        tb = ex1d.bounds.timing(1, 2, "g0")
        assert tb.t_lo <= 8.0 / 18.0
        assert tb.t_hi >= 8.0 / 2.0

    def test_json_round_trip_keys(self, ex1d):
        d = ex1d.bounds.to_dict()
        assert "f1.s2.g0" in d
        assert d["f1.s1.g0"]["t_hi"] == "inf"


def crossing_time(trace, family, level):
    """Time of the trace's first crossing of ``level`` of ``family``."""
    times = [e.time for e in trace.events
             if (e.family, e.level) == (family, level)]
    assert times, "trajectory never left the band"
    return times[0]


class TestDwellContainment:
    def test_boundary_to_boundary_traversals(self, ex1d):
        """Trajectories entered at one boundary exit the band inside the window."""
        from lyagate.conformance import epsilon_t
        h = 5e-4
        rng = np.random.default_rng(11)
        kappa = {c: "g0" for c in ex1d.complex.cell_ids()}
        checked = 0
        for _ in range(100):
            # enter the outer band at phi = 9 under g0: dwell until phi = 1
            x0 = 3.0 if rng.random() < 0.5 else -3.0
            tr = lg.simulate_closed_loop(ex1d.sys, kappa, ex1d.complex,
                                         (x0 * (1 - 1e-12),), 4.0, h,
                                         controls=ex1d.controls)
            t_exit = crossing_time(tr, 1, 1.0)
            # x(t) = x0 e^-t reaches phi = 1 at t = ln |x0|
            assert t_exit == pytest.approx(math.log(3.0), abs=1e-9)
            tb = ex1d.bounds.timing(1, 2, "g0")
            eps = epsilon_t(tr.step_error)
            assert tb.t_lo - eps <= t_exit <= tb.t_hi + eps
            checked += 1
        assert checked == 100

    def test_2d_traversal_windows(self, nav2d):
        """Entry states on phi1 = 9, simulate to phi1 = 5, per control."""
        from lyagate.conformance import epsilon_t
        from lyagate.model import sample_level_set
        h = 1e-3
        entries, = sample_level_set(nav2d.fam1, [9.0], nav2d.box, grid=48)
        inward = [p for p in entries if nav2d.box.contains(p, tol=-1e-6)]
        assert len(inward) >= 20
        for g in nav2d.controls:
            tb = nav2d.bounds.timing(1, 4, g.name)
            kappa = {c: g.name for c in nav2d.complex.cell_ids()}
            for p in inward[:20]:
                tr = lg.simulate_closed_loop(nav2d.sys, kappa, nav2d.complex,
                                             p, 3.0, h, controls=nav2d.controls)
                t_exit = crossing_time(tr, 1, 5.0)
                eps = epsilon_t(tr.step_error)
                assert tb.t_lo - eps <= t_exit <= tb.t_hi + eps
