"""Slices, cells, adjacency, and point location."""

import numpy as np
import pytest

import lyagate as lg
from lyagate import expr as ex
from lyagate import model as md
from lyagate import partition as pt
from lyagate.errors import CoverageError, LyagateError, OutOfDomainError


class TestBuildSlices:
    def test_1d_two_slices(self, ex1d):
        slices = lg.build_slices(ex1d.fam, ex1d.box)
        assert [(s.index, s.lo, s.hi) for s in slices] == [(1, 0.0, 1.0), (2, 1.0, 9.0)]

    def test_coverage_error(self, ex1d):
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("x1^2", 1, 0), levels=(0.0, 1.0, 4.0))
        with pytest.raises(CoverageError) as err:
            lg.build_slices(fam, ex1d.box)
        assert err.value.value > 4.0

    def test_circle_two_slices(self):
        box = lg.Box((-2.0, -2.0), (2.0, 2.0))
        fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("x1^2 + x2^2", 2, 0),
            levels=(0.0, 1.0, 9.0))
        slices = lg.build_slices(fam, box, grid=64)
        assert len(slices) == 2


class TestBuildCells:
    def test_1d_three_cells(self, ex1d):
        labels = sorted(c.label for c in ex1d.complex.cells)
        assert labels == ["[-1,1]", "[-3,-1]", "[1,3]"]

    def test_outer_band_has_two_components(self, ex1d):
        outer = [c for c in ex1d.complex.cells if c.y == (2,)]
        assert len(outer) == 2

    def test_adjacency_single_family_single_step(self, ex1d):
        for adj in ex1d.complex.adjacency:
            ya = ex1d.complex.cell(adj.a).y
            yb = ex1d.complex.cell(adj.b).y
            diff = [(i, abs(a - b)) for i, (a, b) in enumerate(zip(ya, yb)) if a != b]
            assert len(diff) == 1 and diff[0][1] == 1

    def test_adjacency_facet_points_on_level(self, ex1d):
        for adj in ex1d.complex.adjacency:
            assert adj.facet_points
            for p in adj.facet_points:
                assert p[0] ** 2 == pytest.approx(adj.level, abs=1e-9)

    def test_partition_covers_grid(self, ex1d):
        assert np.all(ex1d.complex._cell_index_flat >= 0)

    def test_component_stability_on_doubling(self, ex1d):
        finer = lg.build_cells(ex1d.families, ex1d.box, grid=128)
        assert len(finer.cells) == len(ex1d.complex.cells)

    def test_interior_points_per_adjacent_cell(self, ex1d):
        # transversal adjacency comes with nonempty sampled interiors
        for adj in ex1d.complex.adjacency:
            for cid in (adj.a, adj.b):
                assert ex1d.complex.cell(cid).npoints >= 1

    def test_rep_point_is_interior(self, ex1d):
        for c in ex1d.complex.cells:
            res = ex1d.complex.locate(c.rep_point)
            assert res.primary == c.id
            assert not res.boundary_families


class TestLocate:
    @pytest.mark.parametrize("x,label", [
        (0.5, "[-1,1]"), (2.0, "[1,3]"), (-2.0, "[-3,-1]")])
    def test_band_lookup(self, ex1d, x, label):
        res = ex1d.complex.locate((x,))
        assert ex1d.complex.cell(res.primary).label == label

    def test_boundary_tag(self, ex1d):
        res = ex1d.complex.locate((1.0,))
        labels = {ex1d.complex.cell(c).label for c in res.cells}
        assert labels == {"[-1,1]", "[1,3]"}
        assert res.boundary_families == (1,)

    def test_out_of_domain(self, ex1d):
        with pytest.raises(OutOfDomainError):
            ex1d.complex.locate((3.5,))

    def test_rep_points_locate_home_nav2d(self, nav2d):
        # the second components share their band tuple with the first ones,
        # so grid distances decide between them
        cells = nav2d.complex.cells
        assert {"c3.3-1", "c4.3-1", "c5.3-1", "c5.4-1"} <= {c.id for c in cells}
        for c in cells:
            res = nav2d.complex.locate(c.rep_point)
            assert res.primary == c.id
            assert not res.boundary_families

    def test_facet_point_returns_both_sides_nav2d(self, nav2d):
        for adj in nav2d.complex.adjacency:
            res = nav2d.complex.locate(adj.facet_points[0])
            assert {adj.a, adj.b} <= set(res.cells)
            assert adj.family in res.boundary_families


    def test_non_finite_phi_raises(self):
        # phi is x1^2 below x1 = 2.9 and NaN (inf * 0) from there on
        phi = ex.parse_expression(
            "x1^2 + (sign(x1 - 2.9) + 1)*1e308*1e308*0", 1, 0)
        fam = lg.PartitioningFamily(index=1, phi=phi, levels=(0.0, 1.0, 9.0))
        box = lg.Box((-3.0,), (3.0,))
        with np.errstate(over="ignore", invalid="ignore"):
            cx = lg.build_cells([fam], box, grid=64)
        assert cx.cell(cx.locate((2.0,)).primary).y == (2,)
        with pytest.raises(OutOfDomainError):
            cx.locate((2.95,))


def _probe_points(complex):
    """5000 seeded random points, every rep and facet point, and polished
    points on every level, plus points just inside and outside the box."""
    rng = np.random.default_rng(7)
    pts = [tuple(x) for x in complex.box.sample(rng, 5000)]
    pts += [c.rep_point for c in complex.cells]
    pts += [p for adj in complex.adjacency for p in adj.facet_points]
    for fam in complex.families:
        for level in fam.levels:
            pts += md.sample_level_set(fam, level, complex.box,
                                       grid=min(complex.grid, 64))
    lo, hi = np.array(complex.box.lower), np.array(complex.box.upper)
    pts += [tuple(lo), tuple(hi), tuple(lo - 1e-13), tuple(hi + 1e-11)]
    return pts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OutOfDomainError as err:
        return type(err)


class TestLocateReference:
    """locate() and the facet bisection give exactly what the reference
    implementations in conftest.py give."""

    @pytest.mark.parametrize("eps_face", [1e-9, 1e-7])
    @pytest.mark.parametrize("scenario", ["ex1d", "nav2d"])
    def test_locate_matches_reference(self, request, scenario, eps_face,
                                      reference_locate):
        cx = request.getfixturevalue(scenario).complex

        def fast(x):
            res = cx.locate(x, eps_face=eps_face)
            return res.primary, res.cells, res.boundary_families

        shared = 0
        for x in _probe_points(cx):
            got = _outcome(fast, x)
            assert got == _outcome(reference_locate, x, cx, eps_face)
            shared += isinstance(got, tuple) and len(got[1]) > 1
        assert shared > 0      # the distance comparison ran

    @pytest.mark.parametrize("scenario", ["ex1d", "nav2d"])
    def test_facet_points_match_reference_bisection(
            self, request, scenario, monkeypatch, reference_bisect_crossing):
        sc = request.getfixturevalue(scenario)
        calls = []
        real = pt._bisect_crossing

        def recording(p, q, phi_fn, level, iters=60):
            out = real(p, q, phi_fn, level, iters)
            calls.append((p, q, phi_fn, level, out))
            return out

        monkeypatch.setattr(pt, "_bisect_crossing", recording)
        cx = lg.build_cells(sc.families, sc.box, grid=sc.complex.grid,
                            stability_check=False)
        assert [c[-1] for c in calls] == [
            p for adj in cx.adjacency for p in adj.facet_points]
        for p, q, phi_fn, level, out in calls:
            ref = reference_bisect_crossing(p, q, phi_fn, level)
            assert [v.hex() for v in out] == [v.hex() for v in ref]


class TestSampling:
    def test_exhausted_tries_raise_package_error(self, ex1d):
        rng = np.random.default_rng(0)
        with pytest.raises(LyagateError):
            ex1d.complex.uniform_point_in(ex1d.mid, rng, max_tries=0)


class TestLevelTouch:
    def test_floor_not_crossable(self, ex1d):
        assert not ex1d.complex.cell_touches_level(ex1d.mid, 1, 0.0)

    def test_top_crossable(self, ex1d):
        assert ex1d.complex.cell_touches_level(ex1d.right, 1, 9.0)

    def test_interior_band_does_not_touch_far_level(self, nav2d):
        goal = nav2d.goal[0]
        assert not nav2d.complex.cell_touches_level(goal, 2, 1.0)


class TestNav2D:
    def test_cells_are_rings_and_ring_halves(self, nav2d):
        counts = {}
        for c in nav2d.complex.cells:
            counts[c.y] = counts.get(c.y, 0) + 1
        assert counts[(1, 1)] == 1 and counts[(2, 2)] == 1
        assert counts[(4, 3)] == 2   # clipped by the box into two halves

    def test_stability(self, nav2d):
        finer = lg.build_cells(nav2d.families, nav2d.box, grid=191,
                               stability_check=False)
        c1 = sorted((c.y, c.z) for c in nav2d.complex.cells)
        c2 = sorted((c.y, c.z) for c in finer.cells)
        assert c1 == c2

    def test_serialization_shape(self, nav2d):
        d = nav2d.complex.to_dict()
        assert {c["id"] for c in d["cells"]} == {c.id for c in nav2d.complex.cells}
        assert all(a["a"] != a["b"] for a in d["adjacency"])
