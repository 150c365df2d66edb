"""Lie derivatives, admissibility, level validation, critical points."""

import math

import numpy as np
import pytest

import lyagate as lg
from lyagate import expr as ex
from lyagate.errors import AdmissibilityError, DegenerateLevelError, ModelError


def _phidot_dense(coef, xs):
    """Oracle: phidot = 2*x*(c - x) for dx = -x + c with phi = x^2."""
    return 2.0 * xs * (coef - xs)


class TestLieDerivative:
    @pytest.mark.parametrize("g_text,expected", [
        ("0", lambda x: -2.0 * x * x),
        ("2*x1", lambda x: 2.0 * x * x),
        ("1.5", lambda x: 2.0 * x * (1.5 - x)),
    ])
    def test_1d_closed_forms(self, ex1d, g_text, expected):
        g = lg.ControlLaw("g", (ex.parse_expression(g_text, 1, 0),))
        ld = lg.lie_derivative(ex1d.sys, g, ex1d.fam)
        fn = ld.function()
        for x in np.linspace(-3, 3, 41):
            assert fn((x,)) == pytest.approx(expected(x), abs=1e-12)

    def test_no_inputs_left(self, ex1d):
        ld = lg.lie_derivative(ex1d.sys, ex1d.g2x, ex1d.fam)
        assert not any(v.startswith("u") for v in ex.variables(ld.expression))

    def test_matches_flow_derivative(self, ex1d):
        """d/dt phi(x(t)) along short RK4 arcs vs the symbolic value."""
        from lyagate.sim import integrate
        rng = np.random.default_rng(3)
        ld = lg.lie_derivative(ex1d.sys, ex1d.g0, ex1d.fam).function()
        phi = ex.compile_scalar(ex1d.fam.phi)
        for _ in range(50):
            x0 = float(rng.uniform(-2.9, 2.9))
            tr = integrate(ex1d.sys, ex1d.g0, (x0,), 2e-4, 1e-4)
            fd = (phi(tr.states[2]) - phi(tr.states[0])) / (2e-4)
            assert ld(tr.states[1]) == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestAdmissibility:
    def test_signs_1d(self, ex1d):
        t0 = lg.check_admissibility(ex1d.sys, ex1d.g0, ex1d.fam)
        assert t0.signs == {1: -1, 2: -1}
        t2 = lg.check_admissibility(ex1d.sys, ex1d.g2x, ex1d.fam)
        assert t2.signs == {1: 1, 2: 1}

    def test_g15_violation(self, ex1d):
        g = lg.ControlLaw("g15", (ex.parse_expression("1.5", 1, 0),))
        with pytest.raises(AdmissibilityError) as err:
            lg.check_admissibility(ex1d.sys, g, ex1d.fam)
        e = err.value
        assert e.slice_index == 1
        # opposite-sign witnesses, values matching the oracle formula
        assert e.value_a * e.value_b < 0
        for pt, val in ((e.witness_a, e.value_a), (e.witness_b, e.value_b)):
            assert val == pytest.approx(_phidot_dense(1.5, pt[0]), abs=1e-9)

    def test_oracle_dense_scan(self, ex1d):
        """Dense sign scan at step 1e-3 agrees with the recorded signs."""
        xs = np.arange(-3, 3, 1e-3)
        for g, coef in ((ex1d.g0, 0.0), (ex1d.g2x, None)):
            vals = (2 * xs * (-xs) if coef == 0.0 else 2 * xs * xs)
            for h, (lo, hi) in ((1, (0, 1)), (2, (1, 9))):
                band = (xs ** 2 >= lo) & (xs ** 2 <= hi) & (np.abs(xs) > 1e-2)
                sgn = ex1d.signs[(1, h, g.name)]
                assert np.all(np.sign(vals[band]) == sgn)

    def test_recorded_sign_on_random_points(self, ex1d):
        rng = np.random.default_rng(7)
        for (fam_i, h, gname), sgn in ex1d.signs.items():
            g = {g.name: g for g in ex1d.controls}[gname]
            ld = lg.lie_derivative(ex1d.sys, g, ex1d.fam).vector_function()
            lo, hi = ex1d.fam.band(h)
            pts = []
            while len(pts) < 1000:
                cand = rng.uniform(-3, 3, size=(4000, 1))
                phiv = cand[:, 0] ** 2
                keep = (phiv >= lo) & (phiv <= hi) & (np.abs(cand[:, 0]) > 1e-2)
                pts.extend(cand[keep][: 1000 - len(pts)])
            vals = ld(np.array(pts))
            assert np.all(np.sign(vals) == sgn)


class TestValidateLevels:
    def test_regular_levels(self, ex1d):
        rep = lg.validate_levels(ex1d.fam, ex1d.box)
        assert rep.floor_exempt
        assert rep.min_grad[1.0] == pytest.approx(2.0, abs=1e-6)
        assert rep.min_grad[9.0] == pytest.approx(6.0, abs=1e-6)

    def test_degenerate_level_zero(self, ex1d):
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("x1^2", 1, 0),
            levels=(-1.0, 0.0, 9.0))
        with pytest.raises(DegenerateLevelError) as err:
            lg.validate_levels(fam, ex1d.box)
        assert err.value.level == 0.0
        assert abs(err.value.point[0]) < 1e-6

    def test_circle_level(self):
        box = lg.Box((-3.0, -3.0), (3.0, 3.0))
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("x1^2 + x2^2", 2, 0),
            levels=(0.0, 4.0))
        rep = lg.validate_levels(fam, box)
        assert rep.min_grad[4.0] == pytest.approx(4.0, abs=1e-6)


class TestCriticalPoints:
    def test_origin_1d(self, ex1d):
        pts = lg.critical_points(ex1d.sys, ex1d.g0)
        assert len(pts) == 1
        assert pts[0][0] == pytest.approx(0.0, abs=1e-9)

    def test_shifted_equilibrium(self, ex1d):
        g = lg.ControlLaw("g15", (ex.parse_expression("1.5", 1, 0),))
        pts = lg.critical_points(ex1d.sys, g)
        assert len(pts) == 1
        assert pts[0][0] == pytest.approx(1.5, abs=1e-8)

    def test_2d_origin(self, nav2d):
        for g in nav2d.controls:
            pts = lg.critical_points(nav2d.sys, g, grid=32)
            assert len(pts) == 1
            assert np.linalg.norm(pts[0]) < 1e-8


class TestModelValidation:
    def test_control_with_input_rejected(self):
        with pytest.raises(ModelError):
            lg.ControlLaw("bad", (ex.parse_expression("u1", 2, 1),))

    def test_levels_must_increase(self):
        with pytest.raises(ModelError):
            lg.PartitioningFamily(
                index=1, phi=ex.parse_expression("x1^2", 1, 0),
                levels=(0.0, 1.0, 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            lg.ControlSystem(n=2, m=1, domain=lg.Box((-1.0,), (1.0,)),
                             f=(ex.parse_expression("x1", 2, 1),
                                ex.parse_expression("u1", 2, 1)))
