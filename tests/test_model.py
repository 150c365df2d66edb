"""Lie derivatives, admissibility, level validation, critical points."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lyagate as lg
from lyagate import cli
from lyagate import expr as ex
from lyagate import model as md
from lyagate.errors import AdmissibilityError, DegenerateLevelError, ModelError

from conftest import PENDULUM_SPEC, QUARTIC_SPEC, _random_linear_system

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "specs")


# x1 + x2^2: a constant first gradient component, and parabolas that leave
# the box, so rows are clipped
PARABOLA = lg.PartitioningFamily(
    index=1, phi=ex.parse_expression("x1 + x2^2", 2, 0),
    levels=(-3.0, -1.0, 2.0, 5.0, 12.0))
LEVEL_CASES = (["ex1d", "nav2d", "pendulum", "quartic", "parabola"]
               + ["random-%dd-%d" % (dim, seed)
                  for dim in (1, 2) for seed in range(5)])


def _level_case(request, name):
    """(families, box) of a level-polish case: a fixture scenario, one of
    the two non-quadratic specs, the parabola, or a random linear system
    ("random-<dim>d-<seed>", built as `test_random_systems_sound` builds
    it)."""
    if name in ("ex1d", "nav2d"):
        sc = request.getfixturevalue(name)
        return sc.families, sc.box
    if name == "parabola":
        return [PARABOLA], lg.Box((-3.0, -3.0), (3.0, 3.0))
    if name.startswith("random-"):
        _, dim, seed = name.split("-")
        sysr, _, fam = _random_linear_system(
            np.random.default_rng(100 + int(seed)), int(dim[0]))
        return [fam], sysr.domain
    spec = cli.SystemSpec({"pendulum": PENDULUM_SPEC,
                           "quartic": QUARTIC_SPEC}[name])
    return spec.families, spec.box


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
        fn = ex.compile_scalar(lg.lie_derivative(ex1d.sys, g, ex1d.fam))
        for x in np.linspace(-3, 3, 41):
            assert fn((x,)) == pytest.approx(expected(x), abs=1e-12)

    def test_no_inputs_left(self, ex1d):
        ld = lg.lie_derivative(ex1d.sys, ex1d.g2x, ex1d.fam)
        assert not any(v.startswith("u") for v in ex.variables(ld))

    def test_matches_flow_derivative(self, ex1d):
        """d/dt phi(x(t)) along short RK4 arcs vs the symbolic value."""
        rng = np.random.default_rng(3)
        ld = ex.compile_scalar(lg.lie_derivative(ex1d.sys, ex1d.g0, ex1d.fam))
        phi = ex.compile_scalar(ex1d.fam.phi)
        step = ex.compile_step(ex1d.sys.closed_loop(ex1d.g0))
        for _ in range(50):
            x0 = (float(rng.uniform(-2.9, 2.9)),)
            x1 = step(x0, 1e-4)
            x2 = step(x1, 1e-4)
            fd = (phi(x2) - phi(x0)) / (2e-4)
            assert ld(x1) == pytest.approx(fd, rel=1e-5, abs=1e-8)


# phase_plane with a second family, x1^2 + x2^2, that neither control keeps
# strictly monotone: under brake its Lie derivative is -4 x2^2, zero on the
# x1 axis (which the odd admissibility grid holds), and under firm it takes
# both signs
TWO_FAMILY_INADMISSIBLE = {
    "state_dim": 2, "input_dim": 1,
    "domain": {"lower": [-3.0, -3.0], "upper": [3.0, 3.0]},
    "dynamics": ["x2", "u1"],
    "controls": {"brake": ["-x1 - 2*x2"], "firm": ["-2*x1 - 3*x2"]},
    "partitions": [
        {"phi": "1.5*x1^2 + x1*x2 + 0.5*x2^2",
         "levels": [0.0, 1.0, 2.5, 5.0, 9.0, 27.5]},
        {"phi": "x1^2 + x2^2", "levels": [0.0, 2.0, 18.5]}],
    "grid": {"points_per_dim": 96, "admissibility": 97},
}


def _witness_bits(err):
    return (err.family, err.slice_index,
            [v.hex() for v in err.witness_a], err.value_a.hex(),
            [v.hex() for v in err.witness_b], err.value_b.hex())


@pytest.mark.parametrize("name", ["example1d_with_g15", "two-family"])
def test_admissibility_witnesses_match_reference(
        name, reference_check_admissibility):
    """`admissibility_map` raises on the first failing (family, control,
    slice) of the reference's order, with the reference's family, slice,
    witness points and values bit for bit; `check_admissibility` raises the
    same for that control. example1d_with_g15 fails with mixed signs on
    its only family, the two-family spec with an exact zero on its
    second."""
    spec = (cli.SystemSpec(TWO_FAMILY_INADMISSIBLE) if name == "two-family"
            else cli.SystemSpec.load(os.path.join(SPEC_DIR, name + ".json")))
    sysr, grid = spec.system, spec.adm_grid
    equilibria = {g.name: lg.critical_points(sysr, g) for g in spec.controls}
    first = None
    for fam in spec.families:
        for g in spec.controls:
            try:
                reference_check_admissibility(sysr, g, fam, grid,
                                              equilibria[g.name])
            except AdmissibilityError as err:
                first = first or (fam, g, err)
    fam, g, want = first
    assert (fam.index, g.name) == {"example1d_with_g15": (1, "g15"),
                                   "two-family": (2, "brake")}[name]
    with pytest.raises(AdmissibilityError) as err:
        lg.admissibility_map(sysr, spec.controls, spec.families, grid=grid,
                             equilibria=equilibria)
    assert _witness_bits(err.value) == _witness_bits(want)
    with pytest.raises(AdmissibilityError) as err:
        lg.check_admissibility(sysr, g, fam, grid=grid,
                               equilibria=equilibria[g.name])
    assert _witness_bits(err.value) == _witness_bits(want)


class TestAdmissibility:
    def test_signs_1d(self, ex1d):
        t0 = lg.check_admissibility(ex1d.sys, ex1d.g0, ex1d.fam,
                                    equilibria=ex1d.equilibria["g0"])
        assert t0 == {1: -1, 2: -1}
        t2 = lg.check_admissibility(ex1d.sys, ex1d.g2x, ex1d.fam,
                                    equilibria=ex1d.equilibria["g2x"])
        assert t2 == {1: 1, 2: 1}

    def test_g15_violation(self, ex1d):
        g = lg.ControlLaw("g15", (ex.parse_expression("1.5", 1, 0),))
        with pytest.raises(AdmissibilityError) as err:
            lg.check_admissibility(ex1d.sys, g, ex1d.fam,
                                   equilibria=lg.critical_points(ex1d.sys, g))
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
            ld = ex.compile_vector(lg.lie_derivative(ex1d.sys, g, ex1d.fam))
            lo, hi = ex1d.fam.band(h)
            pts = []
            while len(pts) < 1000:
                cand = rng.uniform(-3, 3, size=(4000, 1))
                phiv = cand[:, 0] ** 2
                keep = (phiv >= lo) & (phiv <= hi) & (np.abs(cand[:, 0]) > 1e-2)
                pts.extend(cand[keep][: 1000 - len(pts)])
            vals = ld(np.array(pts))
            assert np.all(np.sign(vals) == sgn)


    def test_map_is_the_per_control_checks(self, nav2d, monkeypatch):
        """The map reads the equilibria it is given and searches none."""
        monkeypatch.setattr(md, "critical_points", None)
        signs = lg.admissibility_map(nav2d.sys, nav2d.controls,
                                     nav2d.families, grid=48,
                                     equilibria=nav2d.equilibria)
        assert signs == {(f.index, h, g.name): s
                         for f in nav2d.families for g in nav2d.controls
                         for h, s in lg.check_admissibility(
                             nav2d.sys, g, f, grid=48,
                             equilibria=nav2d.equilibria[g.name]).items()}


_LEVELS = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6,
                   unique=True).map(sorted).filter(
    lambda lv: all(b > a for a, b in zip(lv, lv[1:])))


@given(levels=_LEVELS,
       offsets=st.lists(st.floats(-3e-9, 3e-9), min_size=1, max_size=8))
def test_band_mask_contains_the_rules_it_replaced(levels, offsets):
    """``band_mask`` holds every value that the closed band without
    tolerance, or widened by 1e-12 * max(1, |lo|, |hi|), holds, for values
    on, just inside and just outside every level of a random stack."""
    fam = lg.PartitioningFamily(index=1, phi=ex.parse_expression("x1", 1, 0),
                                levels=tuple(levels))
    vals = [a + r * max(1.0, abs(a)) for a in levels for r in offsets + [0.0]]
    vals += [math.nextafter(a, d) for a in levels for d in (-math.inf, math.inf)]
    vals = np.array(vals)
    for h in range(1, fam.band_count + 1):
        lo, hi = fam.band(h)
        got = fam.band_mask(h, vals)
        exact = (vals >= lo) & (vals <= hi)
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        narrow = (vals >= lo - tol) & (vals <= hi + tol)
        assert not (exact & ~got).any()
        assert not (narrow & ~got).any()
        assert exact.any() and got[np.isin(vals, (lo, hi))].all()


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


    @pytest.mark.parametrize("grid", [64, 96])
    @pytest.mark.parametrize("scenario", LEVEL_CASES)
    def test_level_points_match_reference(self, request, scenario, grid,
                                          reference_level_points):
        """One call polishes every level of a family, a repeated one too,
        and each level's block is what the reference gives that level
        alone, bit for bit: rows that stop at a fixed point end where the
        full loop ends, and no row sees another level's rows. The cases
        cover sin and cos, ``^3`` and ``^4``, a constant gradient component
        and rows clipped to the box."""
        families, box = _level_case(request, scenario)
        for fam in families:
            levels = list(fam.levels) + [fam.levels[1]]
            for limit, tol in ((512, 1e-7), (256, 1e-9)):
                got = md._level_points(fam, levels, box, grid, limit, tol)
                assert len(got) == len(levels)
                for level, block in zip(levels, got):
                    want = reference_level_points(fam, level, box, grid,
                                                  limit, tol)
                    assert block.shape == want.shape
                    assert block.tobytes() == want.tobytes()
                if scenario == "nav2d":
                    # 27.5 and 56 lie above phi's maximum (27 and 54) on X
                    assert len(got[-2]) == 0 and len(got[1]) > 0

    def test_compile_polish_is_memoized(self, nav2d):
        assert (ex.compile_polish(nav2d.fam1.phi, 2)
                is ex.compile_polish(nav2d.fam1.phi, 2))

    def test_samples_count_distinct_points(self, ex1d):
        """x1^2 = 1 and = 9 hold two points each in [-3, 3]; the polish
        reaches each from several grid points."""
        rep = lg.validate_levels(ex1d.fam, ex1d.box)
        assert rep.samples == {1.0: 2, 9.0: 2}

    @pytest.mark.parametrize("scenario", ["ex1d", "nav2d"])
    def test_distinct_rows_counts_as_unique(self, request, scenario):
        """The sort-and-compare count equals ``len(np.unique(a, axis=0))``
        on every polished level block validate_levels counts, and on rows
        that differ only in the sign of a zero or repeat out of order."""
        sc = request.getfixturevalue(scenario)
        blocks = [np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, -3.0], [0.0, 1.0],
                            [2.0, -3.0], [2.0, 5.0]])]
        for fam in sc.families:
            blocks += md._level_points(fam, fam.levels, sc.box, 128,
                                       limit=512, tol=1e-7)
        counted = 0
        for a in blocks:
            if len(a):
                assert md._distinct_rows(a) == len(np.unique(a, axis=0))
                counted += 1
        assert counted >= 3


def test_level_polish_runs_once_per_family(monkeypatch):
    """Building both automata on a fresh phase_plane Pipeline samples each
    family's asked levels in one `model.sample_level_set` call, and
    `validate_levels` polishes all of a family's levels in one
    `_level_points` call."""
    import lyagate.cli as cli

    calls = []

    def counting(name, real):
        def wrapper(fam, levels, *args, **kwargs):
            calls.append((name, fam.index, len(levels)))
            return real(fam, levels, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(md, "sample_level_set",
                        counting("sample", md.sample_level_set))
    monkeypatch.setattr(md, "_level_points",
                        counting("polish", md._level_points))
    spec = cli.SystemSpec.load(os.path.join(SPEC_DIR, "phase_plane.json"))
    pipe = cli.Pipeline(spec)
    for mode in ("cells", "extended-cells"):
        pipe.automaton(mode)
    sampled = [c for c in calls if c[0] == "sample"]
    assert [fam for _, fam, _ in sampled] == [1, 2]
    assert all(count > 1 for _, _, count in sampled)
    del calls[:]
    for fam in spec.families:
        md.validate_levels(fam, spec.box, grid=spec.adm_grid)
    # both floors sit at phi's minimum, so every level above them is checked
    assert calls == [("polish", f.index, len(f.levels) - 1)
                     for f in spec.families]


@pytest.mark.parametrize("name,first", [("phase_plane", 12), ("example1d", 3)])
def test_each_derivative_is_derived_once(monkeypatch, name, first):
    """Validating every family and building both automata differentiates
    each partial dphi/dx_j once (the Lie derivatives are built from the
    memoized gradient) plus each control's critical-point Jacobian, which is
    memoized on the closed-loop field; the default step and a second fresh
    Pipeline add nothing. Before the memos these counts were 84 and 84 on
    phase_plane, 16 and 16 on example1d, and the default step added 2;
    before the Jacobian memo a second Pipeline added 8 and 2."""
    import lyagate.cli as cli

    calls = []
    real = ex.differentiate

    def counting(e, var):
        calls.append(var)
        return real(e, var)

    monkeypatch.setattr(ex, "differentiate", counting)
    md.gradient.cache_clear()
    md._lie_derivative.cache_clear()
    md._jacobian.cache_clear()
    spec = cli.SystemSpec.load(os.path.join(SPEC_DIR, name + ".json"))

    def build():
        pipe = cli.Pipeline(spec)
        for fam in spec.families:
            md.validate_levels(fam, spec.box, grid=spec.adm_grid)
        for mode in ("cells", "extended-cells"):
            pipe.automaton(mode)

    build()
    jacobians = len(spec.controls) * spec.n ** 2
    assert len(calls) == first == len(spec.families) * spec.n + jacobians
    spec.default_step()
    assert len(calls) == first
    build()
    assert len(calls) == first


def test_closed_loop_is_substituted_once(monkeypatch, nav2d):
    """The closed-loop field is memoized on (f, control components): a
    simulated trace substitutes nothing once each control's field exists."""
    calls = []
    real = ex.substitute

    def counting(e, mapping):
        calls.append(e)
        return real(e, mapping)

    fields = [nav2d.sys.closed_loop(g) for g in nav2d.controls]
    monkeypatch.setattr(ex, "substitute", counting)
    assert [nav2d.sys.closed_loop(g) for g in nav2d.controls] == fields
    kappa = {c: "brake" for c in nav2d.complex.cell_ids()}
    lg.simulate_closed_loop(nav2d.sys, kappa, nav2d.complex, (0.5, 0.5), 1.0,
                            2e-3, controls=nav2d.controls)
    assert calls == []
    md._closed_loop.cache_clear()
    nav2d.sys.closed_loop(nav2d.brake)
    assert len(calls) == nav2d.n


class TestBox:
    def test_grid_is_built_once_and_read_only(self):
        box = lg.Box((-1.0, 0.0), (1.0, 2.0))
        pts = box.grid(5)
        assert box.grid(5) is pts
        assert box.grid(6) is not pts and len(box.grid(6)) == 36
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 7.0
        assert pts[0].tolist() == [-1.0, 0.0]
        # equal boxes stay equal, and each keeps its own grids
        other = lg.Box((-1.0, 0.0), (1.0, 2.0))
        assert other == box and hash(other) == hash(box)
        assert other.grid(5) is not pts
        assert other.grid(5).tobytes() == pts.tobytes()


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
