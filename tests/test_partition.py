"""Slices, cells, adjacency, and point location."""

import math
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lyagate as lg
from lyagate import cli
from lyagate import expr as ex
from lyagate import model as md
from lyagate import partition as pt
from lyagate.errors import (
    CoverageError, EmptySliceError, LyagateError, ModelError,
    OutOfDomainError, ResolutionError,
)

from conftest import (
    PENDULUM_SPEC, QUARTIC_SPEC, _random_linear_system,
    _reference_uniform_point_in,
)

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "demos", "specs")


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

    def test_cell_enumeration_memory_follows_the_grid(self):
        """Four families of 40 levels make 41**4 possible band codes, but a
        16 x 16 grid holds at most 256 of them. Enumerating the cells takes
        memory of the grid, not of the code space: a histogram over the
        codes would allocate about 20 MB here, np.unique about 0.5 MB."""
        box = lg.Box((-1.0, -1.0), (1.0, 1.0))
        fams = [lg.PartitioningFamily(
                    i + 1, ex.parse_expression("x1 + %g * x2" % (0.1 * i), 2, 0),
                    tuple(np.linspace(-1.6, 1.6, 40)))
                for i in range(4)]
        lg.build_cells(fams, box, grid=16, stability_check=False)  # compiles
        tracemalloc.start()
        try:
            cx = lg.build_cells(fams, box, grid=16, stability_check=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cx.cells) > 100
        assert peak < 4e6

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
        for sampled in md.sample_level_set(fam, fam.levels, complex.box,
                                           grid=min(complex.grid, 64)):
            pts += sampled
    lo, hi = np.array(complex.box.lower), np.array(complex.box.upper)
    pts += [tuple(lo), tuple(hi), tuple(lo - 1e-13), tuple(hi + 1e-11)]
    return pts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OutOfDomainError as err:
        return type(err)


@pytest.fixture(scope="module")
def corners():
    """Two crossing families, one with a band thinner than the grid step, so
    that many grid edges change two bands at once and are skipped."""
    box = lg.Box((-3.0, -3.0), (3.0, 3.0))
    fams = [lg.PartitioningFamily(1, ex.parse_expression("x1 + x2", 2, 0),
                                  (-6.0, 0.0, 0.05, 6.0)),
            lg.PartitioningFamily(2, ex.parse_expression("x1 - 0.5*x2", 2, 0),
                                  (-4.5, 0.3, 4.5))]
    cx = lg.build_cells(fams, box, grid=32, stability_check=False)
    assert cx.diagnostics["skipped_corner_edges"] > 0 and cx.adjacency
    return types.SimpleNamespace(complex=cx)


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

    @pytest.mark.parametrize("scenario", ["ex1d", "nav2d", "corners"])
    def test_edge_scan_matches_reference(self, request, scenario,
                                         reference_level_edges):
        cx = request.getfixturevalue(scenario).complex
        shape = (cx.grid,) * cx.box.dim
        cell_index = cx._cell_index_flat.reshape(shape)
        ys = [c.y for c in cx.cells]
        ref, ref_skipped = reference_level_edges(cell_index, ys)
        edges, skipped = pt._level_edges(cell_index, np.array(ys))
        got = {}
        for lo, hi in edges.tolist():
            a, b = cx._cell_index_flat[lo], cx._cell_index_flat[hi]
            got.setdefault((min(a, b), max(a, b)), []).append(
                (np.unravel_index(lo, shape), np.unravel_index(hi, shape)))
        assert got == ref           # the same edges per pair, in scan order
        assert skipped == ref_skipped == cx.diagnostics["skipped_corner_edges"]
        assert [(adj.a, adj.b, adj.edge_count) for adj in cx.adjacency] == [
            (cx.cells[a].id, cx.cells[b].id, len(e))
            for (a, b), e in sorted(ref.items())]

    @pytest.mark.parametrize("scenario", ["ex1d", "nav2d", "corners"])
    def test_facet_points_match_reference_bisection(
            self, request, scenario, reference_level_edges,
            reference_bisect_crossing):
        """Each adjacency's facet points are the reference bisections of its
        evenly picked reference edges, bit for bit."""
        cx = request.getfixturevalue(scenario).complex
        cell_index = cx._cell_index_flat.reshape((cx.grid,) * cx.box.dim)
        ref, _ = reference_level_edges(cell_index, [c.y for c in cx.cells])
        axes = cx.box.axes(cx.grid)
        phis = {f.index: ex.compile_scalar(f.phi) for f in cx.families}
        checked = 0
        for adj, ((a, b), edges) in zip(cx.adjacency, sorted(ref.items())):
            assert (adj.a, adj.b) == (cx.cells[a].id, cx.cells[b].id)
            sel = np.linspace(0, len(edges) - 1, dtype=int,
                              num=min(pt.MAX_FACET_POINTS, len(edges)))
            assert len(adj.facet_points) == len(sel)
            for si, got in zip(sel, adj.facet_points):
                p, q = ([float(axes[i][c]) for i, c in enumerate(end)]
                        for end in edges[si])
                want = reference_bisect_crossing(p, q, phis[adj.family],
                                                 adj.level)
                assert [v.hex() for v in got] == [v.hex() for v in want]
                checked += 1
        assert checked == sum(len(a.facet_points) for a in cx.adjacency) > 0


BISECT_SPECS = {"pendulum": PENDULUM_SPEC, "quartic": QUARTIC_SPEC}


@pytest.mark.parametrize("name", ["example1d", "phase_plane", "pendulum",
                                  "quartic"])
def test_bisect_kernel_matches_reference(name, monkeypatch,
                                         reference_bisect_crossings):
    """Every family's batch of facet edges that `build_cells` bisects gives
    the generated `expr.compile_bisect` kernel's points bit for bit as the
    array loop it replaced (`conftest._reference_bisect_crossings`)."""
    raw = BISECT_SPECS.get(name)
    spec = (cli.SystemSpec(raw) if raw is not None else
            cli.SystemSpec.load(os.path.join(SPEC_DIR, name + ".json")))
    batches = []
    compile_bisect = ex.compile_bisect

    def recording(phi, n):
        kernel = compile_bisect(phi, n)

        def bisect(p, q, levels):
            found = kernel(p, q, levels)
            batches.append((phi, p, q, levels, found))
            return found
        return bisect

    monkeypatch.setattr(ex, "compile_bisect", recording)
    lg.build_cells(spec.families, spec.box, grid=spec.grid,
                   stability_check=False)
    assert [phi for phi, *_ in batches] == [f.phi for f in spec.families]
    for phi, p, q, levels, found in batches:
        want = reference_bisect_crossings(p, q, ex.compile_vector(phi),
                                          levels)
        assert found.shape == want.shape == p.shape
        assert found.tobytes() == want.tobytes()


def test_compile_bisect_is_memoized(nav2d):
    assert (ex.compile_bisect(nav2d.fam1.phi, 2)
            is ex.compile_bisect(nav2d.fam1.phi, 2))


def _draw(draw, cell, seed, max_tries):
    """What one draw returns (its point's bits, or its error) and where it
    leaves a generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    try:
        got = [v.hex() for v in draw(cell, rng, max_tries=max_tries)]
    except LyagateError as err:
        got = (type(err), str(err))
    return got, rng.bit_generator.state


class TestSampling:
    def test_exhausted_tries_raise_package_error(self, ex1d):
        rng = np.random.default_rng(0)
        with pytest.raises(LyagateError):
            ex1d.complex.uniform_point_in(ex1d.mid, rng, max_tries=0)

    @settings(max_examples=80, deadline=None)
    @given(scenario=st.sampled_from(["ex1d", "nav2d", "corners"]),
           seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 11),
           max_tries=st.sampled_from([0, 1, 2, 3, 17, 18, 40, 4096]))
    def test_draw_matches_reference(self, ex1d, nav2d, corners, scenario,
                                    seed, pick, max_tries):
        """The block draw returns the one-at-a-time loop's point, bit for
        bit, or its error, and leaves the generator where the loop does."""
        cx = {"ex1d": ex1d, "nav2d": nav2d, "corners": corners}[
            scenario].complex
        cell = cx.cell_ids()[pick % len(cx.cells)]
        assert _draw(cx.uniform_point_in, cell, seed, max_tries) == _draw(
            lambda *a, **kw: _reference_uniform_point_in(cx, *a, **kw),
            cell, seed, max_tries)

    def test_block_draw_honours_max_tries(self, nav2d):
        """On c5.3-0 (about 7% of its box candidates accepted), a seed whose
        first 20 candidates are all refused raises after exactly 20
        ``random(2)`` draws, across two blocks; no try draws nothing."""
        cx, cell, k = nav2d.complex, "c5.3-0", 20

        def refused(seed):
            try:
                _reference_uniform_point_in(
                    cx, cell, np.random.default_rng(seed), max_tries=k)
            except EmptySliceError:
                return True
            return False

        seed = next(s for s in range(200) if refused(s))
        rng = np.random.default_rng(seed)
        with pytest.raises(EmptySliceError):
            cx.uniform_point_in(cell, rng, max_tries=k)
        want = np.random.default_rng(seed)
        for _ in range(k):
            want.random(2)
        assert rng.bit_generator.state == want.bit_generator.state

        rng = np.random.default_rng(seed)
        with pytest.raises(EmptySliceError):
            cx.uniform_point_in(cell, rng, max_tries=0)
        assert (rng.bit_generator.state
                == np.random.default_rng(seed).bit_generator.state)


class TestLevelTouch:
    def test_floor_not_crossable(self, ex1d):
        assert not ex1d.complex.cell_touches_level(ex1d.mid, 1, 0.0)

    def test_top_crossable(self, ex1d):
        assert ex1d.complex.cell_touches_level(ex1d.right, 1, 9.0)

    def test_interior_band_does_not_touch_far_level(self, nav2d):
        goal = nav2d.goal[0]
        assert not nav2d.complex.cell_touches_level(goal, 2, 1.0)

    @pytest.mark.parametrize("scenario", ["ex1d", "nav2d", "corners"])
    def test_touch_is_any_crossing_point(self, request, scenario):
        """Every (cell, family, level) answer equals a scan of all the
        level's crossing points, each side on a fresh complex."""
        cx = request.getfixturevalue(scenario).complex

        def fresh():
            return lg.build_cells(cx.families, cx.box, grid=cx.grid,
                                  stability_check=False)

        touching, scanned = fresh(), fresh()
        answers = []
        for fam in cx.families:
            for level in fam.levels:
                points = scanned.level_crossing_points(fam.index, level)
                for c in cx.cells:
                    want = any(c.id in cells for _, cells, _ in points)
                    got = touching.cell_touches_level(c.id, fam.index, level)
                    assert got == want, (c.id, fam.index, level)
                    answers.append(got)
        assert any(answers) and not all(answers)

    def test_unknown_family_is_named(self, ex1d):
        for query in (lambda: ex1d.complex.cell_touches_level(ex1d.mid, 7, 1.0),
                      lambda: ex1d.complex.level_crossing_points(7, 1.0)):
            with pytest.raises(ModelError,
                               match=r"no partitioning family with index 7"):
                query()


@pytest.fixture(scope="module")
def clipped():
    """Two crossing linear families whose stacks end inside the box, so that
    locate's clip to the first and last band decides points beyond them."""
    box = lg.Box((-3.0, -3.0), (3.0, 3.0))
    fams = [lg.PartitioningFamily(1, ex.parse_expression("x1 + x2", 2, 0),
                                  (-4.0, 0.0, 0.05, 4.0)),
            lg.PartitioningFamily(2, ex.parse_expression("x1 - 0.5*x2", 2, 0),
                                  (-3.0, 0.3, 3.0))]
    return lg.build_cells(fams, box, grid=32, stability_check=False)


# offsets from a level: on it, inside and around the 1e-7 boundary tag
# (relative to max(1, |level|)), and far enough to leave the stack's ends
_offsets = st.one_of(
    st.just(0.0), st.floats(-3e-7, 3e-7), st.floats(-1.0, 1.0),
    st.sampled_from([s * k * 1e-7 for s in (-1, 1)
                     for k in (0.999999, 1.0, 1.000001, 4.0)]))


def _assert_indexed(cx, x):
    """locate(x, 1e-7) puts x only in cells whose band tuple lists it."""
    try:
        cells = cx.locate(x, eps_face=pt.LEVEL_EPS_FACE).cells
    except OutOfDomainError:
        return
    rows = cx._rows_by_y([x])
    for cid in cells:
        assert rows.get(cx.cell(cid).y) == [0], (x, cid)


class TestTouchIndex:
    """The band-tuple index of level samples never omits a row that
    locate() puts in a cell of that band tuple."""

    @pytest.mark.parametrize("scenario", ["ex1d", "nav2d", "corners"])
    def test_index_matches_reference(self, request, scenario,
                                     reference_rows_by_y):
        """The array index lists the same rows under the same band tuples
        as the scalar per-point loop, on random, rep, facet, level and
        box-edge points."""
        cx = request.getfixturevalue(scenario).complex
        points = _probe_points(cx)
        assert cx._rows_by_y(points) == reference_rows_by_y(cx, points)
        assert cx._rows_by_y([]) == {}

    def test_non_finite_rows_listed_nowhere(self, reference_rows_by_y):
        phi = ex.parse_expression(
            "x1^2 + (sign(x1 - 2.9) + 1)*1e308*1e308*0", 1, 0)
        fam = lg.PartitioningFamily(index=1, phi=phi, levels=(0.0, 1.0, 9.0))
        with np.errstate(over="ignore", invalid="ignore"):
            cx = lg.build_cells([fam], lg.Box((-3.0,), (3.0,)), grid=64)
            points = [(-1.0,), (2.95,), (1.0,), (3.0,)]
            want = reference_rows_by_y(cx, points)
        assert cx._rows_by_y(points) == want == {(1,): [0, 2], (2,): [0, 2]}

    @settings(max_examples=300, deadline=None)
    @given(i=st.integers(0, 3), j=st.integers(0, 2), di=_offsets,
           dj=_offsets, free=st.floats(-4.5, 4.5), both=st.booleans())
    def test_clipped_stacks(self, clipped, i, j, di, dj, free, both):
        """Near one level or near two levels at once, and beyond a_0 or
        a_k of either stack."""
        f1, f2 = clipped.families
        v1 = f1.levels[i] + di
        v2 = f2.levels[j] + dj if both else free
        x2 = (v1 - v2) / 1.5            # x1 + x2 = v1, x1 - 0.5*x2 = v2
        _assert_indexed(clipped, (v1 - x2, x2))

    @settings(max_examples=200, deadline=None)
    @given(level=st.sampled_from([1.0, 2.5, 5.0, 9.0, 27.5]),
           theta=st.floats(0.0, 6.3), rel=_offsets)
    def test_nav2d_rings(self, nav2d, level, theta, rel):
        """Near a level of family 1 (family 2's phi is twice family 1's)."""
        u = (math.cos(theta), math.sin(theta))
        phi_u = 1.5 * u[0] ** 2 + u[0] * u[1] + 0.5 * u[1] ** 2
        r = math.sqrt(level / phi_u) * (1.0 + rel)
        _assert_indexed(nav2d.complex, (r * u[0], r * u[1]))

    @settings(max_examples=100, deadline=None)
    @given(x=st.one_of(st.floats(-1e-6, 1e-6),
                       st.sampled_from([-3.0, -1.0, 1.0, 3.0])),
           dx=_offsets)
    def test_ex1d_levels_and_floor(self, ex1d, nav2d, x, dx):
        """Near the levels of x1^2, its floor, and the common floor of both
        nav2d families at the origin."""
        _assert_indexed(ex1d.complex, (x + dx,))
        _assert_indexed(nav2d.complex, (1e-3 * x, 1e-3 * dx))


# a band thinner than the step of a 64-point grid over [-3, 3]
_BETWEEN = lg.PartitioningFamily(index=1, phi=ex.parse_expression("x1", 1, 0),
                                 levels=(-3.0, -0.01, 0.01, 3.0))


class TestResolution:
    def test_band_between_coarse_points_refused(self, ex1d):
        """The band (-0.01, 0.01] holds no point of the 64-point grid (its
        nearest points are +-3/63) but holds the doubled grid's point 0."""
        fam = _BETWEEN
        with pytest.raises(ResolutionError, match="between grid 64 and 127") as err:
            lg.build_cells([fam], ex1d.box, grid=64)
        assert str(err.value).endswith(
            "band tuple(s) (2,): raise grid.points_per_dim above 64")
        coarse = lg.build_cells([fam], ex1d.box, grid=64,
                                stability_check=False)
        assert [c.y for c in coarse.cells] == [(1,), (3,)]

    def test_two_family_message(self):
        """Both count dicts print in band-tuple order (not in the order of
        the mixed-radix band keys, which sorts by the last family first),
        with the band tuples only the doubled grid holds in their place."""
        box = lg.Box((-3.0, -3.0), (3.0, 3.0))
        fams = [lg.PartitioningFamily(1, ex.parse_expression("x1", 2, 0),
                                      (-3.0, -0.01, 0.01, 3.0)),
                lg.PartitioningFamily(2, ex.parse_expression("x2", 2, 0),
                                      (-3.0, 0.5, 3.0))]
        with pytest.raises(ResolutionError) as err:
            lg.build_cells(fams, box, grid=64)
        assert str(err.value) == (
            "component counts changed between grid 64 and 127: "
            "{(1, 1): 1, (1, 2): 1, (3, 1): 1, (3, 2): 1} vs "
            "{(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1, (3, 1): 1, "
            "(3, 2): 1}; the grid does not resolve band tuple(s) (2, 1), "
            "(2, 2): raise grid.points_per_dim above 64")


# complexes whose doubled-grid counts and cell boxes are compared with the
# references in conftest.py: the shared scenarios, the thin band at 64
# points, random linear systems, and a phi that is NaN on part of the grid
REFERENCE_CASES = (["ex1d", "nav2d", "corners", "between"]
                   + ["random-%dd-%d" % (dim, seed)
                      for dim in (1, 2) for seed in range(5)])


def _reference_case(request, name):
    """The complex of one of REFERENCE_CASES or "non-finite", built without
    the stability check."""
    if name in ("ex1d", "nav2d", "corners"):
        return request.getfixturevalue(name).complex
    if name == "between":
        return lg.build_cells([_BETWEEN], lg.Box((-3.0,), (3.0,)), grid=64,
                              stability_check=False)
    if name == "non-finite":
        # phi is x1^2 below x1 = 2.9 and NaN (inf * 0) from there on
        phi = ex.parse_expression(
            "x1^2 + (sign(x1 - 2.9) + 1)*1e308*1e308*0", 1, 0)
        fam = lg.PartitioningFamily(index=1, phi=phi, levels=(0.0, 1.0, 9.0))
        return lg.build_cells([fam], lg.Box((-3.0,), (3.0,)), grid=64,
                              stability_check=False)
    _, dim, seed = name.split("-")
    sysr, _, fam = _random_linear_system(np.random.default_rng(int(seed)),
                                         int(dim[0]))
    return lg.build_cells([fam], sysr.domain, grid=64, stability_check=False)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_component_counts_match_reference(request, name,
                                          reference_component_counts):
    """The count-only doubled-grid pass gives the reference's counts with
    the same keys in the same order, from the coarse complex's band
    tuples; "between" needs a band tuple the coarse grid lacks."""
    cx = _reference_case(request, name)
    coarse = {}
    for c in cx.cells:
        coarse[c.y] = coarse.get(c.y, 0) + 1
    fine = 2 * cx.grid - 1
    got = pt._component_counts(cx.families, cx.box, fine, list(coarse))
    want = reference_component_counts(cx.families, cx.box, fine)
    assert list(got.items()) == list(want.items())
    if name == "between":
        assert list(got) == [(1,), (2,), (3,)] != list(coarse)


@pytest.mark.parametrize("name", REFERENCE_CASES + ["non-finite"])
def test_cell_boxes_match_reference(request, name, reference_cell_boxes):
    """Every cell's representative point and bounding box are the per-cell
    loop's bit for bit, a NaN band margin included."""
    with np.errstate(over="ignore", invalid="ignore"):
        cx = _reference_case(request, name)
        want = reference_cell_boxes(cx)

    def bits(point):
        return [float(v).hex() for v in point]

    assert len(want) == len(cx.cells)
    for c, (rep, (lo, hi)) in zip(cx.cells, want):
        assert bits(c.rep_point) == bits(rep), c.id
        assert (bits(c.bbox[0]), bits(c.bbox[1])) == (bits(lo), bits(hi)), c.id
    if name == "non-finite":
        # the right cell's margins are NaN beyond x1 = 2.9, and the first
        # NaN is its representative
        assert [c.rep_point[0] > 2.9 for c in cx.cells] == [False, False, True]


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
