"""Automaton construction, clock algebra, and run replay."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lyagate as lg
from lyagate import cli
from lyagate import tga as ta
from lyagate import expr as ex
from lyagate.errors import (
    FacetSignConflictError, NegativeClockError, UnboundedRatioError,
)

REL = 0.005


def loc(ex1d, cell_attr, control):
    return "(%s,%s)" % (getattr(ex1d, cell_attr), control)


class TestBuild:
    def test_location_count(self, ex1d):
        assert len(ex1d.tga.non_sink_locations()) == 6
        assert ex1d.tga.k == 1

    def test_invariants(self, ex1d):
        inv = ex1d.tga.invariant_of(loc(ex1d, "right", "g0"))
        assert len(inv) == 1
        assert inv[0][0] == 1
        assert inv[0][1] == pytest.approx(4.0, rel=REL)
        assert ex1d.tga.invariant_of(loc(ex1d, "mid", "g0")) == ()

    def test_downward_crossing(self, ex1d):
        ts = [t for t in ex1d.tga.transitions
              if t.source == loc(ex1d, "right", "g0") and t.kind == "u"]
        assert len(ts) == 1
        t = ts[0]
        assert t.target == loc(ex1d, "mid", "g0")
        assert t.guard[0][0] == 1
        assert t.guard[0][1] == pytest.approx(4.0 / 9.0, rel=REL)
        assert dict(t.update.entries)[1] == ta.RESET

    def test_mid_cell_up_has_two_targets(self, ex1d):
        ts = [t.target for t in ex1d.tga.transitions
              if t.source == loc(ex1d, "mid", "g2x") and t.kind == "u"]
        assert sorted(ts) == sorted([loc(ex1d, "left", "g2x"),
                                     loc(ex1d, "right", "g2x")])

    def test_sink_edges_only_for_outward_g2x(self, ex1d):
        sinks = [t.source for t in ex1d.tga.transitions if t.target == "sink"]
        assert sorted(sinks) == sorted([loc(ex1d, "left", "g2x"),
                                        loc(ex1d, "right", "g2x")])

    def test_mid_cell_has_no_exit_under_g0(self, ex1d):
        ts = [t for t in ex1d.tga.transitions
              if t.source == loc(ex1d, "mid", "g0") and t.kind == "u"]
        assert ts == []

    def test_unbounded_slice_keeps_its_switches(self, ex1d):
        """The mid slice has no finite dwell bound under either control, and
        it still gets both switches: c1 maps to 0 and, the signs being
        opposite, c2 maps to the target's t_lo."""
        assert sum(t.kind == "c" for t in ex1d.tga.transitions) == 6
        h = ex1d.complex.cell(ex1d.mid).y[0]
        for g, g2 in (("g0", "g2x"), ("g2x", "g0")):
            ts = [t for t in ex1d.tga.transitions
                  if t.source == loc(ex1d, "mid", g) and t.kind == "c"]
            assert [t.target for t in ts] == [loc(ex1d, "mid", g2)]
            t_lo2 = ex1d.bounds.timing(1, h, g2).t_lo
            assert dict(ts[0].update.entries)[1] == ta.FamilyUpdate(
                alpha=(0.0, t_lo2), beta=((0.0, 0.0), (0.0, 0.0)))

    def test_crossing_family_matches_band_change(self, ex1d, nav2d):
        for auto in (ex1d.tga, nav2d.tga):
            cx = auto.complex
            for t in auto.transitions:
                if t.kind != "u":
                    continue
                src = auto.locations[t.source]
                dst = auto.locations[t.target]
                if dst.is_sink:
                    continue
                ya = cx.cell(src.cell).y
                yb = cx.cell(dst.cell).y
                fams = [cx.families[i].index
                        for i in range(len(ya)) if ya[i] != yb[i]]
                assert fams == [t.family]

    def test_extended_mode_locations(self, ex1d):
        auto = lg.build_tga(ex1d.sys, ex1d.complex, ex1d.controls,
                            ex1d.bounds, ex1d.signs, mode="extended-cells")
        names = {l.cell for l in auto.non_sink_locations()}
        assert names == {"e1", "e2"}
        assert len(auto.non_sink_locations()) == 4


class TestFacetSignConflict:
    def test_facet_lie_derivative_changes_sign(self):
        """phi = x1 with dx1 = x2: L_g phi = x2 takes both signs on the
        facet x1 = 0, so no crossing direction can be given to it."""
        box = lg.Box((-1.0, -1.0), (1.0, 1.0))
        sys2 = lg.ControlSystem(n=2, m=1, domain=box,
                                f=(ex.parse_expression("x2", 2, 1),
                                   ex.parse_expression("u1", 2, 1)))
        g = lg.ControlLaw("g", (ex.parse_expression("0", 2, 0),))
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("x1", 2, 0),
            levels=(-1.0, 0.0, 1.0))
        complex = lg.build_cells([fam], box, grid=17)
        bounds = lg.compute_bounds(
            sys2, [g], [fam], {1: lg.build_slices(fam, box, grid=17)},
            grid=17, equilibria={"g": lg.critical_points(sys2, g)})
        signs = {(1, 1, "g"): 1, (1, 2, "g"): 1}
        with pytest.raises(FacetSignConflictError) as err:
            lg.build_tga(sys2, complex, [g], bounds, signs)
        assert (err.value.family, err.value.control) == (1, "g")
        assert min(err.value.values) < 0.0 < max(err.value.values)

    def test_extended_zone_pair_checks_every_member_pair(self):
        """Band 2 of phi1 = x1^2 has a left and a right component, so the
        extended zones e2.1 and e2.2 meet on x2 = 0 through two cell pairs of
        32 facet points each. L_g phi2 = 0.75 - x1 is positive on the left
        pair and changes sign at x1 = 0.75 on the right one: both modes must
        refuse the crossing."""
        box = lg.Box((-1.0, -1.0), (1.0, 1.0))
        sys2 = lg.ControlSystem(n=2, m=1, domain=box,
                                f=(ex.parse_expression("x1 + u1", 2, 1),
                                   ex.parse_expression("0.75 - x1", 2, 1)))
        g = lg.ControlLaw("g", (ex.parse_expression("0", 2, 0),))
        fams = [lg.PartitioningFamily(
                    index=1, phi=ex.parse_expression("x1^2", 2, 0),
                    levels=(0.0, 0.25, 1.0)),
                lg.PartitioningFamily(
                    index=2, phi=ex.parse_expression("x2", 2, 0),
                    levels=(-1.0, 0.0, 1.0))]
        complex = lg.build_cells(fams, box, grid=129)
        pairs = [a for a in complex.adjacency if a.family == 2]
        assert [len(a.facet_points) for a in pairs] == [32, 32, 32]
        bounds = lg.compute_bounds(
            sys2, [g], fams,
            {f.index: lg.build_slices(f, box, grid=129) for f in fams},
            grid=129, equilibria={"g": lg.critical_points(sys2, g)})
        signs = {(f, h, "g"): 1 for f in (1, 2) for h in (1, 2)}
        for mode, zones in (("cells", {"c2.1-1", "c2.2-1"}),
                            ("extended-cells", {"e2.1", "e2.2"})):
            with pytest.raises(FacetSignConflictError) as err:
                lg.build_tga(sys2, complex, [g], bounds, signs, mode=mode)
            assert {err.value.cell_a, err.value.cell_b} == zones, mode
            assert err.value.family == 2
            assert min(err.value.values) < 0.0 < max(err.value.values)

    def test_sign_table_contradicts_facet(self, ex1d):
        """Every facet sample of level 1 says g0 moves phi down, and the
        sign table says up for the outer slice that such a crossing leaves."""
        signs = dict(ex1d.signs)
        signs[(1, 2, "g0")] = 1
        with pytest.raises(FacetSignConflictError) as err:
            lg.build_tga(ex1d.sys, ex1d.complex, ex1d.controls, ex1d.bounds,
                         signs)
        assert (err.value.family, err.value.control) == (1, "g0")
        assert {err.value.cell_a, err.value.cell_b} in (
            {ex1d.mid, ex1d.left}, {ex1d.mid, ex1d.right})
        assert all(v < 0.0 for v in err.value.values)


class TestValuations:
    def test_delay(self):
        assert ta.delay(((0.0, 0.0),), 1.5) == ((1.5, 1.5),)
        assert ta.delay(((1.0, 2.0),), 0.0) == ((1.0, 2.0),)
        assert ta.delay(((0.4, 0.1),), 0.6) == ((1.0, 0.7),)

    def test_delay_additivity(self):
        # dyadic delays make float addition exact, so equality is exact
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = tuple((rng.integers(0, 256) / 64.0, rng.integers(0, 256) / 64.0)
                      for _ in range(2))
            s = rng.integers(0, 256) / 64.0
            t = rng.integers(0, 256) / 64.0
            assert ta.delay(v, s + t) == ta.delay(ta.delay(v, s), t)

    def test_reset(self):
        u = ta.UpdateMap.of({1: ta.RESET})
        assert ta.apply_update(((3.0, 1.0),), u) == ((0.0, 0.0),)

    def test_reset_idempotent(self):
        u = ta.UpdateMap.of({1: ta.RESET})
        v = ((2.0, 5.0),)
        assert ta.apply_update(ta.apply_update(v, u), u) == ((0.0, 0.0),)

    def test_affine(self):
        fu = ta.FamilyUpdate(alpha=(1.0, 1.0), beta=((1.0, 0.0), (0.0, 1.0)))
        u = ta.UpdateMap.of({1: fu})
        assert ta.apply_update(((2.0, 3.0),), u) == ((3.0, 4.0),)

    def test_negative_clock_rejected(self):
        fu = ta.FamilyUpdate(alpha=(-1.0, 0.0), beta=((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(NegativeClockError):
            ta.apply_update(((0.0, 0.0),), ta.UpdateMap.of({1: fu}))

    def test_untouched_family_kept(self):
        u = ta.UpdateMap.of({2: ta.RESET})
        v = ((1.0, 2.0), (3.0, 4.0))
        assert ta.apply_update(v, u) == ((1.0, 2.0), (0.0, 0.0))


class TestSwitchUpdate:
    def tb(self, t_lo, t_hi):
        return lg.TimingBounds(1, 2, "g", t_lo=t_lo, t_hi=t_hi, delta_a=8.0)

    def test_equal_same_sign_is_identity(self):
        b = self.tb(4.0 / 9.0, 4.0)
        fu = ta.switch_update(b, b, same_sign=True)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            v = ((float(rng.uniform(0, 4)), float(rng.uniform(0, 4))),)
            assert ta.apply_update(v, ta.UpdateMap.of({1: fu})) == v

    def test_opposite_sign_values(self):
        b = self.tb(4.0 / 9.0, 4.0)
        fu = ta.switch_update(b, b, same_sign=False)
        out = ta.apply_update(((0.2, 0.2),), ta.UpdateMap.of({1: fu}))
        assert out[0][0] == pytest.approx(4.0 - 9.0 * 0.2)
        assert out[0][1] == pytest.approx(4.0 / 9.0 - 0.2 / 9.0)

    def test_opposite_sign_at_zero_saturates(self):
        b = self.tb(4.0 / 9.0, 4.0)
        fu = ta.switch_update(b, b, same_sign=False)
        out = ta.apply_update(((0.0, 0.0),), ta.UpdateMap.of({1: fu}))
        assert out == ((4.0, 4.0 / 9.0),)

    def test_opposite_sign_involution(self):
        b = self.tb(4.0 / 9.0, 4.0)
        fu = ta.switch_update(b, b, same_sign=False)
        u = ta.UpdateMap.of({1: fu})
        once = ta.apply_update(((0.0, 0.0),), u)
        twice = ta.apply_update(once, u)
        assert twice == ((0.0, 0.0),)

    def test_same_sign_scaling(self):
        src = self.tb(4.0 / 9.0, 4.0)
        dst = self.tb(2.0 / 9.0, 2.0)
        fu = ta.switch_update(src, dst, same_sign=True)
        out = ta.apply_update(((1.0, 0.2),), ta.UpdateMap.of({1: fu}))
        assert out[0][0] == pytest.approx(0.5)
        assert out[0][1] == pytest.approx(0.1)

    def test_unbounded_divisor_rejected(self):
        """Only t_lo divides in the total map: a t_lo that is not finite and
        positive has no map, while an infinite t_hi gets the limit map."""
        good = self.tb(0.5, 4.0)
        for t_lo in (0.0, -1.0, math.inf, math.nan):
            bad = self.tb(t_lo, math.inf)
            for same in (True, False):
                with pytest.raises(UnboundedRatioError):
                    ta.switch_update(bad, good, same_sign=same)
                with pytest.raises(UnboundedRatioError):
                    ta.switch_update(good, bad, same_sign=same)
        unbounded = self.tb(0.5, math.inf)
        zero = (0.0, 0.0)
        scale_c2 = ta.FamilyUpdate(alpha=zero, beta=(zero, (0.0, 1.0)))
        assert ta.switch_update(unbounded, good, same_sign=True) == scale_c2
        assert ta.switch_update(good, unbounded, same_sign=True) == scale_c2
        assert ta.switch_update(unbounded, good, same_sign=False) == \
            ta.FamilyUpdate(alpha=(0.0, 0.5), beta=(zero, zero))
        assert ta.switch_update(good, unbounded, same_sign=False) == \
            ta.FamilyUpdate(alpha=(0.0, 0.5), beta=(zero, (-0.5 / 4.0, 0.0)))


_T_LO = st.floats(0.01, 100.0)
_HI_RATIO = st.one_of(st.just(math.inf), st.floats(1.0, 100.0))
_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(t_lo=_T_LO, hi_ratio=_HI_RATIO, t_lo2=_T_LO, hi_ratio2=_HI_RATIO,
       same=st.booleans(), p=_UNIT, u1=_UNIT, u2=_UNIT,
       free_c1=st.floats(0.0, 1e6))
def test_total_switch_map_is_sound(t_lo, hi_ratio, t_lo2, hi_ratio2, same, p,
                                   u1, u2, free_c1):
    """A pair at phi progress p, D(p) = {c1 in [0, p t_hi], c2 in [p t_lo,
    t_lo]} (any c1 >= 0 when t_hi is infinite), maps into the target's D(p)
    under the same sign and into its D(1 - p) under the opposite sign."""
    t_hi, t_hi2 = t_lo * hi_ratio, t_lo2 * hi_ratio2
    fu = ta.switch_update(
        lg.TimingBounds(1, 1, "g", t_lo=t_lo, t_hi=t_hi, delta_a=1.0),
        lg.TimingBounds(1, 1, "g2", t_lo=t_lo2, t_hi=t_hi2, delta_a=1.0),
        same_sign=same)
    c1 = u1 * p * t_hi if math.isfinite(t_hi) else free_c1
    c2 = p * t_lo + u2 * (1.0 - p) * t_lo
    d1, d2 = fu.apply((c1, c2))
    q = p if same else 1.0 - p
    tol = 1e-12 * (t_lo2 + (t_hi2 if math.isfinite(t_hi2) else 0.0))
    assert d1 >= -tol
    if math.isfinite(t_hi2):
        assert d1 <= q * t_hi2 + tol
    assert q * t_lo2 - tol <= d2 <= t_lo2 + tol


_COEF = st.floats(-10.0, 10.0)
_FAMILY_UPDATE = st.builds(
    lambda a, b: ta.FamilyUpdate(alpha=a, beta=(b[:2], b[2:])),
    st.tuples(_COEF, _COEF), st.tuples(_COEF, _COEF, _COEF, _COEF))
_UPDATE_MAP = st.dictionaries(st.integers(1, 3), _FAMILY_UPDATE).map(
    ta.UpdateMap.of)


@settings(max_examples=300, deadline=None)
@given(first=_UPDATE_MAP, then=_UPDATE_MAP,
       v=st.tuples(*[st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0))] * 3))
def test_compose_applies_in_order(first, then, v):
    """compose(first, then) applied to v equals then applied to first(v)."""
    got = ta._apply_raw(v, ta.compose(first, then))
    want = ta._apply_raw(ta._apply_raw(v, first), then)
    for pair_got, pair_want in zip(got, want):
        assert pair_got == pytest.approx(pair_want, rel=1e-12, abs=1e-9)


class TestEnabled:
    """Which edges fire, asked through ``run_feasible``, the automaton's one
    firing rule: a step taken at once from a given start valuation."""

    def test_guard_gates_uncontrollable(self, ex1d):
        name = loc(ex1d, "right", "g0")
        crossing = [(name, 0.0), (loc(ex1d, "mid", "g0"), 0.0)]
        fired = ta.run_feasible(ex1d.tga, crossing,
                                initial_valuation=((0.5, 0.5),))
        assert fired.feasible
        # c2 = 0.1 is below the crossing's guard c2 >= t_lo = 4/9
        refused = ta.run_feasible(ex1d.tga, crossing,
                                  initial_valuation=((0.1, 0.1),))
        assert not refused.feasible
        assert [v["kind"] for v in refused.violations] == ["guard"]
        switch = [(name, 0.0), (loc(ex1d, "right", "g2x"), 0.0)]
        assert ta.run_feasible(ex1d.tga, switch,
                               initial_valuation=((0.1, 0.1),)).feasible

    def test_sink_absorbing(self, ex1d):
        assert ex1d.tga.outgoing("sink") == []
        for cell in ("left", "mid", "right"):
            rep = ta.run_feasible(ex1d.tga, [("sink", 0.0),
                                             (loc(ex1d, cell, "g0"), 1.0)])
            assert [v["kind"] for v in rep.violations] == ["missing-edge"]


class TestRunFeasible:
    def test_full_traversal_feasible(self, ex1d):
        seq = [(loc(ex1d, "right", "g0"), 0.0),
               (loc(ex1d, "mid", "g0"), math.log(3.0))]
        rep = ta.run_feasible(ex1d.tga, seq)
        assert rep.feasible

    def test_early_exit_violates_guard(self, ex1d):
        seq = [(loc(ex1d, "right", "g0"), 0.0), (loc(ex1d, "mid", "g0"), 0.1)]
        rep = ta.run_feasible(ex1d.tga, seq)
        assert not rep.feasible
        assert rep.first_violation()["kind"] == "guard"

    def test_late_exit_violates_invariant(self, ex1d):
        seq = [(loc(ex1d, "right", "g0"), 0.0), (loc(ex1d, "mid", "g0"), 5.0)]
        rep = ta.run_feasible(ex1d.tga, seq)
        assert not rep.feasible
        assert rep.first_violation()["kind"] == "invariant"

    def test_missing_edge_reported(self, ex1d):
        seq = [(loc(ex1d, "mid", "g0"), 0.0), (loc(ex1d, "right", "g0"), 1.0)]
        rep = ta.run_feasible(ex1d.tga, seq)
        assert not rep.feasible
        assert rep.first_violation()["kind"] == "missing-edge"

    def test_final_dwell_checked(self, ex1d):
        seq = [(loc(ex1d, "right", "g0"), 0.0)]
        ok = ta.run_feasible(ex1d.tga, seq, final_dwell=1.0)
        assert ok.feasible
        bad = ta.run_feasible(ex1d.tga, seq, final_dwell=10.0)
        assert not bad.feasible

    def test_long_switching_run(self, ex1d):
        """3000 alternating switches in the outer cell, deeper than the
        default recursion limit. Dwelling t_lo/t_hi as long under g2x as
        under g0 keeps every flipped clock pair nonnegative."""
        tb = ex1d.bounds.timing(1, 2, "g0")
        dwell = {"g0": 1e-4, "g2x": 1e-4 * tb.t_lo / tb.t_hi}
        seq, t = [], 0.0
        for i in range(3000):
            control = ("g0", "g2x")[i % 2]
            seq.append((loc(ex1d, "right", control), t))
            t += dwell[control]
        rep = ta.run_feasible(ex1d.tga, seq)
        assert rep.feasible
        assert rep.steps == 3000


class TestExports:
    def test_dot_styles(self, ex1d):
        dot = ex1d.tga.to_dot()
        assert "style=dashed" in dot     # uncontrollable
        assert "style=solid" in dot      # controllable
        assert '"sink"' in dot

    def test_json_inf_encoding(self, ex1d):
        d = ex1d.tga.to_dict()
        assert d["clock_pairs"] == 1
        mids = [l for l in d["locations"] if l["name"] == loc(ex1d, "mid", "g0")]
        assert mids[0]["invariant"] == []

    def test_prop2_structural(self, ex1d):
        """Extended automaton has {extended cells} x K_U locations and its
        reachable cell projection contains the cell-mode automaton's."""
        import lyagate.game as gm
        auto_ex = lg.build_tga(ex1d.sys, ex1d.complex, ex1d.controls,
                               ex1d.bounds, ex1d.signs, mode="extended-cells")
        ys = {tuple(c.y) for c in ex1d.complex.cells}
        assert len(auto_ex.non_sink_locations()) == len(ys) * len(ex1d.controls)

        kappa = {c: "g0" for c in ex1d.tga.cells()}
        kex = {z: "g0" for z in auto_ex.cells()}
        r_cell = gm.reach_locations(
            gm.restrict(ex1d.tga, kappa),
            ["(%s,g0)" % ex1d.right], 10.0)
        r_ext = gm.reach_locations(
            gm.restrict(auto_ex, kex), ["(e2,g0)"], 10.0)

        def project(name):
            cell = name[1:name.index(",")]
            if cell == "sink":
                return name
            y = ex1d.complex.cell(cell).y
            return "(e%s,%s)" % (".".join(map(str, y)), name[name.index(",") + 1:-1])

        projected = {project(n) for n in r_cell.locations()}
        assert projected <= r_ext.locations()


SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "specs")


@pytest.mark.parametrize("spec", ["example1d", "phase_plane"])
def test_demo_automata_transitions(spec):
    """The (source, target, action, kind) set of both shipped automata in
    both modes, sink edges included, is pinned in DEMO_TRANSITIONS."""
    pipe = cli.Pipeline(cli.SystemSpec.load(
        os.path.join(SPEC_DIR, spec + ".json")))
    want = {}
    for header, *lines in (block.split("\n") for block in
                           DEMO_TRANSITIONS.strip().split("\n\n")):
        want[tuple(header.split())] = {tuple(line.split()) for line in lines}
    for mode in ("cells", "extended-cells"):
        got = {(t.source, t.target, t.action, t.kind)
               for t in pipe.automaton(mode).transitions}
        assert got == want[spec, mode], mode


# one block per (spec, mode): "source target action kind" per transition
DEMO_TRANSITIONS = """
example1d cells
(c1-0,g0) (c1-0,g2x) c:g2x c
(c1-0,g2x) (c1-0,g0) c:g0 c
(c1-0,g2x) (c2-0,g2x) u1 u
(c1-0,g2x) (c2-1,g2x) u1 u
(c2-0,g0) (c1-0,g0) u1 u
(c2-0,g0) (c2-0,g2x) c:g2x c
(c2-0,g2x) (c2-0,g0) c:g0 c
(c2-0,g2x) sink u1 u
(c2-1,g0) (c1-0,g0) u1 u
(c2-1,g0) (c2-1,g2x) c:g2x c
(c2-1,g2x) (c2-1,g0) c:g0 c
(c2-1,g2x) sink u1 u

example1d extended-cells
(e1,g0) (e1,g2x) c:g2x c
(e1,g2x) (e1,g0) c:g0 c
(e1,g2x) (e2,g2x) u1 u
(e2,g0) (e1,g0) u1 u
(e2,g0) (e2,g2x) c:g2x c
(e2,g2x) (e2,g0) c:g0 c
(e2,g2x) sink u1 u

phase_plane cells
(c1.1-0,brake) (c1.1-0,firm) c:firm c
(c1.1-0,firm) (c1.1-0,brake) c:brake c
(c1.2-0,brake) (c1.1-0,brake) u2 u
(c1.2-0,brake) (c1.2-0,firm) c:firm c
(c1.2-0,firm) (c1.1-0,firm) u2 u
(c1.2-0,firm) (c1.2-0,brake) c:brake c
(c2.2-0,brake) (c1.2-0,brake) u1 u
(c2.2-0,brake) (c2.2-0,firm) c:firm c
(c2.2-0,firm) (c1.2-0,firm) u1 u
(c2.2-0,firm) (c2.2-0,brake) c:brake c
(c3.2-0,brake) (c2.2-0,brake) u1 u
(c3.2-0,brake) (c3.2-0,firm) c:firm c
(c3.2-0,firm) (c2.2-0,firm) u1 u
(c3.2-0,firm) (c3.2-0,brake) c:brake c
(c3.3-0,brake) (c3.2-0,brake) u2 u
(c3.3-0,brake) (c3.3-0,firm) c:firm c
(c3.3-0,firm) (c3.2-0,firm) u2 u
(c3.3-0,firm) (c3.3-0,brake) c:brake c
(c3.3-1,brake) (c3.2-0,brake) u2 u
(c3.3-1,brake) (c3.3-1,firm) c:firm c
(c3.3-1,firm) (c3.2-0,firm) u2 u
(c3.3-1,firm) (c3.3-1,brake) c:brake c
(c4.3-0,brake) (c3.3-0,brake) u1 u
(c4.3-0,brake) (c4.3-0,firm) c:firm c
(c4.3-0,firm) (c3.3-0,firm) u1 u
(c4.3-0,firm) (c4.3-0,brake) c:brake c
(c4.3-1,brake) (c3.3-1,brake) u1 u
(c4.3-1,brake) (c4.3-1,firm) c:firm c
(c4.3-1,firm) (c3.3-1,firm) u1 u
(c4.3-1,firm) (c4.3-1,brake) c:brake c
(c5.3-0,brake) (c4.3-0,brake) u1 u
(c5.3-0,brake) (c5.3-0,firm) c:firm c
(c5.3-0,firm) (c4.3-0,firm) u1 u
(c5.3-0,firm) (c5.3-0,brake) c:brake c
(c5.3-1,brake) (c4.3-1,brake) u1 u
(c5.3-1,brake) (c5.3-1,firm) c:firm c
(c5.3-1,firm) (c4.3-1,firm) u1 u
(c5.3-1,firm) (c5.3-1,brake) c:brake c
(c5.4-0,brake) (c5.3-0,brake) u2 u
(c5.4-0,brake) (c5.4-0,firm) c:firm c
(c5.4-0,firm) (c5.3-0,firm) u2 u
(c5.4-0,firm) (c5.4-0,brake) c:brake c
(c5.4-1,brake) (c5.3-1,brake) u2 u
(c5.4-1,brake) (c5.4-1,firm) c:firm c
(c5.4-1,firm) (c5.3-1,firm) u2 u
(c5.4-1,firm) (c5.4-1,brake) c:brake c

phase_plane extended-cells
(e1.1,brake) (e1.1,firm) c:firm c
(e1.1,firm) (e1.1,brake) c:brake c
(e1.2,brake) (e1.1,brake) u2 u
(e1.2,brake) (e1.2,firm) c:firm c
(e1.2,firm) (e1.1,firm) u2 u
(e1.2,firm) (e1.2,brake) c:brake c
(e2.2,brake) (e1.2,brake) u1 u
(e2.2,brake) (e2.2,firm) c:firm c
(e2.2,firm) (e1.2,firm) u1 u
(e2.2,firm) (e2.2,brake) c:brake c
(e3.2,brake) (e2.2,brake) u1 u
(e3.2,brake) (e3.2,firm) c:firm c
(e3.2,firm) (e2.2,firm) u1 u
(e3.2,firm) (e3.2,brake) c:brake c
(e3.3,brake) (e3.2,brake) u2 u
(e3.3,brake) (e3.3,firm) c:firm c
(e3.3,firm) (e3.2,firm) u2 u
(e3.3,firm) (e3.3,brake) c:brake c
(e4.3,brake) (e3.3,brake) u1 u
(e4.3,brake) (e4.3,firm) c:firm c
(e4.3,firm) (e3.3,firm) u1 u
(e4.3,firm) (e4.3,brake) c:brake c
(e5.3,brake) (e4.3,brake) u1 u
(e5.3,brake) (e5.3,firm) c:firm c
(e5.3,firm) (e4.3,firm) u1 u
(e5.3,firm) (e5.3,brake) c:brake c
(e5.4,brake) (e5.3,brake) u2 u
(e5.4,brake) (e5.4,firm) c:firm c
(e5.4,firm) (e5.3,firm) u2 u
(e5.4,firm) (e5.4,brake) c:brake c
"""


@pytest.fixture(scope="module")
def built_automata():
    """(label, automaton): both demos in both modes, and the 34 automata
    that restrict each demo's cells-mode automaton to a strategy: every
    constant strategy, and the reach and the safety strategy of every
    single goal or avoid cell (8 on example1d, 26 on phase_plane)."""
    import lyagate.game as gm
    autos = []
    for spec in ("example1d", "phase_plane"):
        pipe = cli.Pipeline(cli.SystemSpec.load(
            os.path.join(SPEC_DIR, spec + ".json")))
        autos += [("%s %s" % (spec, mode), pipe.automaton(mode))
                  for mode in ("cells", "extended-cells")]
        auto = pipe.automaton("cells")
        cells = auto.cells()
        strategies = [("const:" + g, {c: g for c in cells})
                      for g in auto.controls()]
        for c in cells:
            strategies.append(("reach:" + c,
                               gm.synthesize_reach(auto, [c]).strategy))
            strategies.append(("safety:" + c,
                               gm.synthesize_safety(auto, [c]).strategy))
        autos += [("%s %s" % (spec, label), gm.restrict(auto, strategy))
                  for label, strategy in strategies]
    return autos


def test_one_transition_per_pair_outside_sink(built_automata):
    """`run_feasible` never backtracks, which is exact only while no two
    transitions share a (source, target) pair unless the target is sink."""
    assert len(built_automata) == 4 + 34
    for label, auto in built_automata:
        pairs = [(t.source, t.target) for t in auto.transitions
                 if t.target != "sink"]
        assert len(pairs) == len(set(pairs)), label


def _with_parallel_sink_edges(auto):
    """``auto`` with a second sink edge before each sink edge, whose guard
    asks three times as much of c2 and whose update keeps the clocks: a run
    into sink may meet two candidates, of which the first can fail where
    the second fires, and the final valuation shows which one fired."""
    transitions = []
    for t in auto.transitions:
        if t.target == "sink":
            transitions.append(ta.Transition(
                source=t.source, target="sink", action=t.action, kind="u",
                guard=tuple((fam, 3.0 * thr) for fam, thr in t.guard),
                update=ta.UpdateMap.of({}), family=t.family))
        transitions.append(t)
    return ta.TimedGameAutomaton(
        mode=auto.mode, k=auto.k, locations=auto.locations,
        initial=auto.initial, invariants=auto.invariants,
        transitions=transitions, bounds=auto.bounds, signs=auto.signs,
        complex=auto.complex)


@st.composite
def _timed_run(draw, auto):
    """A timed location sequence through ``auto``: each step mostly follows
    an outgoing transition (one in ten jumps to any location, which may be
    a missing edge), its entry time moves by a delay that may be negative,
    and sink ends it. Also an initial valuation (or None), a final dwell and
    a tolerance."""
    names = sorted(auto.locations)
    name = draw(st.sampled_from([n for n in names if n != "sink"]))
    t = draw(st.floats(0.0, 5.0))
    seq = [(name, t)]
    for _ in range(draw(st.integers(0, 6))):
        targets = sorted({tr.target for tr in auto.outgoing(name)})
        if draw(st.integers(0, 9)) == 0 or not targets:
            targets = names
        name = draw(st.sampled_from(targets))
        t += draw(st.floats(-0.5, 6.0))
        seq.append((name, t))
        if name == "sink":
            break
    clock = st.floats(0.0, 6.0)
    v0 = draw(st.none() | st.tuples(*[st.tuples(clock, clock)] * auto.k))
    final_dwell = draw(st.sampled_from([0.0, 0.5, 3.0, 20.0]))
    tol = draw(st.sampled_from([ta.GUARD_TOL, 1e-6, 0.5]))
    return seq, dict(initial_valuation=v0, final_dwell=final_dwell, tol=tol)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_forward_pass_matches_search(built_automata, reference_run_feasible,
                                     ex1d, data):
    """On the built automata, and on example1d's with doubled sink edges,
    the forward pass reports what the depth-first search it replaced
    reports: feasibility, every violation in order, steps and the final
    valuation."""
    auto = data.draw(st.sampled_from([a for _, a in built_automata])
                     | st.just(_with_parallel_sink_edges(ex1d.tga)))
    seq, kwargs = data.draw(_timed_run(auto))
    got = ta.run_feasible(auto, seq, **kwargs)
    want = reference_run_feasible(auto, seq, **kwargs)
    assert (got.feasible, got.violations, got.steps, got.final_valuation) == (
        want.feasible, want.violations, want.steps, want.final_valuation)


def test_first_sink_edge_that_fires(ex1d, reference_run_feasible):
    """With two sink edges from one location, a run into sink goes on with
    the first that fires, logging the guard of any before it, as the search
    did."""
    auto = _with_parallel_sink_edges(ex1d.tga)
    name = loc(ex1d, "right", "g2x")
    first, second = [t for t in auto.outgoing(name) if t.target == "sink"]
    thr = second.guard[0][1]
    for dwell, fired in ((0.5 * thr, None), (2.0 * thr, second),
                         (4.0 * thr, first)):
        seq = [(name, 0.0), ("sink", dwell)]
        got = ta.run_feasible(auto, seq)
        want = reference_run_feasible(auto, seq)
        assert (got.feasible, got.violations, got.final_valuation) == (
            want.feasible, want.violations, want.final_valuation)
        if fired is None:
            assert [v["kind"] for v in got.violations] == ["guard", "guard"]
        else:
            assert got.final_valuation == ta.apply_update(
                ta.delay(ta.zero_valuation(1), dwell), fired.update)
