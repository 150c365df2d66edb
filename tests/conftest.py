"""Shared fixtures: the 1-D toy system and the phase-plane navigation scenario."""

import itertools
import math
from math import isfinite
from operator import itemgetter

import numpy as np
import pytest
from scipy import ndimage

import lyagate as lg
from lyagate import expr as ex
from lyagate import model as md
from lyagate import partition as pt
from lyagate import tga as ta
from lyagate.errors import (
    AdmissibilityError, EmptySliceError, NonFiniteStateError, OutOfDomainError,
    raise_float_error,
)


class Example1D:
    """dx = -x + u on [-3, 3], phi = x^2, levels (0, 1, 9), controls {0, 2x}."""

    def __init__(self, grid=64):
        self.n, self.m = 1, 1
        self.box = lg.Box((-3.0,), (3.0,))
        self.sys = lg.ControlSystem(
            n=1, m=1, domain=self.box,
            f=(ex.parse_expression("-x1 + u1", 1, 1),))
        self.g0 = lg.ControlLaw("g0", (ex.parse_expression("0", 1, 0),))
        self.g2x = lg.ControlLaw("g2x", (ex.parse_expression("2*x1", 1, 0),))
        self.controls = [self.g0, self.g2x]
        self.fam = lg.PartitioningFamily(
            index=1, phi=ex.parse_expression("x1^2", 1, 0),
            levels=(0.0, 1.0, 9.0))
        self.families = [self.fam]
        self.slices = {1: lg.build_slices(self.fam, self.box, grid=grid)}
        self.equilibria = {g.name: lg.critical_points(self.sys, g)
                           for g in self.controls}
        self.signs = lg.admissibility_map(
            self.sys, self.controls, self.families, grid=128,
            equilibria=self.equilibria)
        self.complex = lg.build_cells(self.families, self.box, grid=grid)
        self.bounds = lg.compute_bounds(
            self.sys, self.controls, self.families, self.slices, grid=grid,
            equilibria=self.equilibria)
        self.tga = lg.build_tga(self.sys, self.complex, self.controls,
                                self.bounds, self.signs, mode="cells")
        by_label = {c.label: c.id for c in self.complex.cells}
        self.mid = by_label["[-1,1]"]
        self.left = by_label["[-3,-1]"]
        self.right = by_label["[1,3]"]


class PhasePlane:
    """Double integrator dx1 = x2, dx2 = u1 on [-3,3]^2 with two quadratic
    level stacks (the second refines the first), two braking controls, a goal
    ring, and an outer obstacle ring."""

    def __init__(self, grid=96):
        self.n, self.m = 2, 1
        self.box = lg.Box((-3.0, -3.0), (3.0, 3.0))
        self.sys = lg.ControlSystem(
            n=2, m=1, domain=self.box,
            f=(ex.parse_expression("x2", 2, 1),
               ex.parse_expression("u1", 2, 1)))
        self.brake = lg.ControlLaw(
            "brake", (ex.parse_expression("-x1 - 2*x2", 2, 0),))
        self.firm = lg.ControlLaw(
            "firm", (ex.parse_expression("-2*x1 - 3*x2", 2, 0),))
        self.controls = [self.brake, self.firm]
        self.fam1 = lg.PartitioningFamily(
            index=1,
            phi=ex.parse_expression("1.5*x1^2 + x1*x2 + 0.5*x2^2", 2, 0),
            levels=(0.0, 1.0, 2.5, 5.0, 9.0, 27.5))
        self.fam2 = lg.PartitioningFamily(
            index=2,
            phi=ex.parse_expression("3*x1^2 + 2*x1*x2 + x2^2", 2, 0),
            levels=(0.0, 1.0, 7.0, 20.0, 56.0))
        self.families = [self.fam1, self.fam2]
        self.slices = {f.index: lg.build_slices(f, self.box, grid=grid)
                       for f in self.families}
        self.equilibria = {g.name: lg.critical_points(self.sys, g)
                           for g in self.controls}
        self.signs = lg.admissibility_map(
            self.sys, self.controls, self.families, grid=grid,
            equilibria=self.equilibria)
        self.complex = lg.build_cells(self.families, self.box, grid=grid)
        self.bounds = lg.compute_bounds(
            self.sys, self.controls, self.families, self.slices, grid=grid,
            equilibria=self.equilibria)
        self.tga = lg.build_tga(self.sys, self.complex, self.controls,
                                self.bounds, self.signs, mode="cells")
        self.goal = [c.id for c in self.complex.cells if c.y[0] == 2]
        self.obstacle = [c.id for c in self.complex.cells if c.y[1] == 4]
        self.initial = [c.id for c in self.complex.cells if c.y == (4, 3)]


@pytest.fixture(scope="session")
def ex1d():
    return Example1D()


@pytest.fixture(scope="session")
def nav2d():
    return PhasePlane()


def _textbook_rk4(f, x, h):
    """Classic RK4 over a compiled field, the reference for the fused step."""
    k1 = f(x)
    x2 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k1))
    k2 = f(x2)
    x3 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k2))
    k3 = f(x3)
    x4 = tuple(xi + h * ki for xi, ki in zip(x, k3))
    k4 = f(x4)
    s = h / 6.0
    return tuple(xi + s * (a + 2.0 * b + 2.0 * c + d)
                 for xi, a, b, c, d in zip(x, k1, k2, k3, k4))


@pytest.fixture(scope="session")
def textbook_rk4():
    return _textbook_rk4


def _reference_stay(field_exprs, phi_exprs, x, t, t_stop, horizon, hmax,
                    box, bands, times, coords):
    """The event-free loop of `sim.simulate_closed_loop` as it was before
    `expr.compile_stay` generated it, the reference for that kernel: textbook
    RK4 steps over `compile_field`, a finiteness check on every coordinate,
    the `compile_scalar` phis against their bands, then `itemgetter` box
    checks. A float error of the field goes through
    `errors.raise_float_error`, as the kernel's does. Takes the kernel's
    arguments and returns what it returns."""
    field = ex.compile_field(field_exprs)
    checks = [(ex.compile_scalar(e), *band)
              for e, band in zip(phi_exprs, bands)]
    checks += [(itemgetter(d), *box[d]) for d in range(len(x))]
    step = hmax
    while t < t_stop:
        step = horizon - t
        if step > hmax:
            step = hmax
        try:
            xn = _textbook_rk4(field, x, step)
        except (OverflowError, ZeroDivisionError, ValueError) as err:
            raise_float_error(err, x, t, step)
        for v in xn:
            if not isfinite(v):
                raise NonFiniteStateError(
                    "non-finite state at t=%g" % (t + step))
        for value_of, lo, hi in checks:
            if not lo <= value_of(xn) <= hi:
                return t, x, xn, step
        t += step
        x = xn
        times.append(t)
        coords.extend(x)
    return t, x, None, step


@pytest.fixture(scope="session")
def reference_stay():
    return _reference_stay


def _reference_bisect_event(fun, step, f0):
    """First zero of fun on (0, step], to within sim.EVENT_TIME_TOL; fun(step)
    has the opposite sign of f0. The simulator's event bisection as first
    written."""
    s0 = f0 > 0
    if (fun(step) > 0) == s0:
        # already past the edge at the start of the step: immediate event
        return min(1e-10, step)
    lo, hi = 0.0, step
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (fun(mid) > 0) == s0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return hi


def _reference_locate_event(step_fn, x, t, step, xn, crossed):
    """The event code as first written, in the interface of
    `sim._locate_event`: each crossed value bisected on its own to its level
    or face (``_reference_bisect_event``), the earliest time winning and
    ties going to the first, and the step taken again to that time. Its
    ``lo`` is None: the bisections keep no common bracket."""
    from lyagate import sim as sm
    best = None
    for k, (value, _, _, _, level) in enumerate(crossed):
        tau = _reference_bisect_event(
            lambda s: value(sm._advance(step_fn, x, s, t)) - level,
            step, value(x) - level)
        if best is None or tau < best[0]:
            best = (tau, k)
    tau = max(best[0], 1e-15)
    return best[1], None, tau, sm._advance(step_fn, x, tau, t)


@pytest.fixture(scope="session")
def reference_locate_event():
    return _reference_locate_event


def _reference_uniform_point_in(complex, cell_id, rng, max_tries=4096):
    """`CellComplex.uniform_point_in` as first written: one candidate per
    ``rng.random(d)`` call, each located."""
    lo, hi = complex.cell(cell_id).bbox
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    for _ in range(max_tries):
        x = lo + rng.random(len(lo)) * (hi - lo)
        res = complex.locate(tuple(x))
        if res.primary == cell_id and not res.boundary_families:
            return tuple(float(v) for v in x)
    raise EmptySliceError("could not sample an interior point of %s" % cell_id)


def _reference_locate(x, complex, eps_face=1e-9):
    """Point location as first written, the reference for `partition.locate`:
    np.searchsorted bands and, per band tuple, the cell whose grid points
    (a boolean mask over the whole grid) have the smallest np.linalg.norm."""
    if not complex.box.contains(x, tol=1e-12):
        raise OutOfDomainError("point %s outside the domain box" % (tuple(x),))
    band_options = []
    boundary_families = []
    for fam in complex.families:
        v = ex.compile_scalar(fam.phi)(tuple(x))
        h = int(np.clip(np.searchsorted(fam.levels, v, side="left"),
                        1, fam.band_count))
        options = {h}
        for j, a in enumerate(fam.levels):
            if abs(v - a) <= eps_face * max(1.0, abs(a)):
                if 1 <= j <= fam.band_count:
                    options.add(j)
                if 1 <= j + 1 <= fam.band_count:
                    options.add(j + 1)
                if len(options) > 1:
                    boundary_families.append(fam.index)
                break
        band_options.append(sorted(options))

    xa = np.asarray(x, dtype=float)
    candidates = []
    for combo in itertools.product(*band_options):
        best = None
        for i, c in enumerate(complex.cells):
            if c.y != combo:
                continue
            cpts = complex._points[complex._cell_index_flat == i]
            dist = float(np.min(np.linalg.norm(cpts - xa, axis=1)))
            if best is None or dist < best[0]:
                best = (dist, c.id)
        if best is not None:
            candidates.append(best)
    if not candidates:
        raise OutOfDomainError("no cell found for point %s" % (tuple(x),))
    candidates.sort()
    return (candidates[0][1], tuple(sorted(cid for _, cid in candidates)),
            tuple(sorted(set(boundary_families))))


def _reference_bisect_crossing(p, q, phi_fn, level, iters=60):
    """Level crossing on [p, q] over numpy 2-vectors, the reference for the
    facet bisection (`expr.compile_bisect`): the full 60 halvings, phi
    compiled by `expr.compile_scalar`."""
    p = np.array(p, dtype=float)
    q = np.array(q, dtype=float)
    stat_lo = phi_fn(tuple(p)) - level
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        x = p + mid * (q - p)
        fm = phi_fn(tuple(x)) - level
        if (fm > 0) == (stat_lo > 0):
            lo = mid
            stat_lo = fm
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return tuple(float(v) for v in p + t * (q - p))


_REF_BISECT_ITERS = 60


def _reference_bisect_crossings(p, q, phi_v, levels):
    """`partition._bisect_crossings` before `expr.compile_bisect` generated
    it, the reference for that kernel: one bisection loop over whole (k, n)
    arrays of phi compiled by `expr.compile_vector`, each row stopping once
    its midpoint rounds to ``lo`` or ``hi``. Unlike the scalar
    `_reference_bisect_crossing` it rounds powers as numpy does, so it can
    judge a phi with ``^3``."""
    d = q - p
    stat_lo = phi_v(p) - levels
    lo = np.zeros(len(p))
    hi = np.ones(len(p))
    rows = np.arange(len(p))
    for _ in range(_REF_BISECT_ITERS):
        mid = 0.5 * (lo[rows] + hi[rows])
        moving = (mid != lo[rows]) & (mid != hi[rows])
        rows, mid = rows[moving], mid[moving]
        if not len(rows):
            break
        fm = phi_v(p[rows] + mid[:, None] * d[rows]) - levels[rows]
        same = (fm > 0) == (stat_lo[rows] > 0)
        lo[rows[same]] = mid[same]
        stat_lo[rows[same]] = fm[same]
        hi[rows[~same]] = mid[~same]
    t = 0.5 * (lo + hi)
    return p + t[:, None] * d


def _reference_level_edges(cell_index, ys):
    """The per-edge Python scan of `partition.build_cells` as first written,
    the reference for `partition._level_edges`. ``ys`` holds each cell's band
    tuple. Returns, per cell pair (smaller index first), its edges as
    (lower end, upper end) grid coordinates in scan order, and the number of
    skipped corner edges."""
    grid = cell_index.shape[0]
    raw_edges = {}
    skipped = 0
    for d in range(cell_index.ndim):
        idx_a = cell_index.take(range(grid - 1), axis=d)
        idx_b = cell_index.take(range(1, grid), axis=d)
        diff = idx_a != idx_b
        for ai, bi, coord in zip(idx_a[diff], idx_b[diff], np.argwhere(diff)):
            ya, yb = ys[ai], ys[bi]
            deltas = [(i, yb[i] - ya[i]) for i in range(len(ya))
                      if ya[i] != yb[i]]
            if len(deltas) != 1 or abs(deltas[0][1]) != 1:
                skipped += 1
                continue
            coord_b = coord.copy()
            coord_b[d] += 1
            raw_edges.setdefault((min(ai, bi), max(ai, bi)), []).append(
                (tuple(coord.tolist()), tuple(coord_b.tolist())))
    return raw_edges, skipped


def _reference_level_points(fam, level, box, grid, limit, tol):
    """`model._level_points` before rows stopped at a fixed point, its
    reference: every row takes Gauss-Newton steps until its residual
    vanishes or its gradient degenerates, or for 40 steps."""
    phi_v = ex.compile_vector(fam.phi)
    grad_vs = [ex.compile_vector(e) for e in md.gradient(fam.phi, box.dim)]
    pts = box.grid(grid)
    vals = phi_v(pts)
    span = float(vals.max() - vals.min())
    near = np.abs(vals - level)
    cand = np.flatnonzero(near <= 4.0 * span / grid + 1e-12)
    cand = cand[np.argsort(near[cand], kind="stable")][:limit]
    x = pts[cand]
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    scale = max(1.0, abs(level))
    rows = np.arange(len(x))
    for _ in range(40):
        if not len(rows):
            break
        xr = x[rows]
        r = phi_v(xr) - level
        grad = np.stack([gv(xr) for gv in grad_vs], axis=1)
        g2 = (grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
        go = (np.abs(r) >= 1e-14 * scale) & (g2 >= 1e-30)
        rows = rows[go]
        x[rows] = np.clip(xr[go] - r[go, None] * grad[go] / g2[go, None],
                          lo, hi)
    return x[np.abs(phi_v(x) - level) <= tol * scale]


def _reference_rows_by_y(complex, points):
    """`CellComplex._rows_by_y` before it worked on whole columns, its
    reference: per point, the product of the per-family `_band_options`
    of scalar phi at LEVEL_EPS_FACE, kept where the band tuple has cells;
    a point where some phi is not finite is listed nowhere."""
    from lyagate.partition import LEVEL_EPS_FACE, _band_options

    rows = {}
    for row, p in enumerate(points):
        options = []
        for _, phi, levels, band_count in complex._family_lookup:
            v = phi(tuple(p))
            if not isfinite(v):
                break
            options.append(_band_options(v, levels, band_count,
                                         LEVEL_EPS_FACE))
        else:
            for y in itertools.product(*options):
                if y in complex._cells_by_y:
                    rows.setdefault(y, []).append(row)
    return rows


@pytest.fixture(scope="session")
def reference_rows_by_y():
    return _reference_rows_by_y


def _reference_component_counts(families, box, grid):
    """The doubled-grid pass of `partition.build_cells` before it only
    counted components, the reference for `partition._component_counts`:
    every band key the grid holds (``np.unique``), its band tuple from its
    first point, one ``flatnonzero`` per component, the components sorted
    by band tuple and first grid index, then counted in that order."""
    n = box.dim
    shape = (grid,) * n
    pts = box.grid(grid)
    labels = [pt._band_labels(fam.levels,
                              ex.compile_vector(fam.phi)(pts)).reshape(shape)
              for fam in families]
    key = np.zeros(shape, dtype=np.int64)
    mult = 1
    for lab, fam in zip(labels, families):
        key += lab.astype(np.int64) * mult
        mult *= fam.band_count + 2
    structure = ndimage.generate_binary_structure(n, 1)
    cells_meta = []
    for k in np.unique(key):
        mask = key == k
        first = int(np.argmax(mask.ravel()))
        y = tuple(int(lab.ravel()[first]) for lab in labels)
        comp, ncomp = ndimage.label(mask, structure=structure)
        for z in range(1, ncomp + 1):
            cells_meta.append((y, np.flatnonzero((comp == z).ravel())))
    cells_meta.sort(key=lambda item: (item[0], int(item[1][0])))
    counts = {}
    for y, _ in cells_meta:
        counts[y] = counts.get(y, 0) + 1
    return counts


@pytest.fixture(scope="session")
def reference_component_counts():
    return _reference_component_counts


def _reference_cell_boxes(complex):
    """The per-cell loop of `partition.build_cells` before
    `partition._cell_boxes`, its reference: per cell, its grid points by a
    mask over the whole grid, the band margin of each, ``np.argmax`` for
    the representative, and the bounding box of its grid points stacked
    with the facet points of its adjacencies. Returns (rep_point, bbox)
    per cell."""
    pts = complex._points
    phi_vals = [ex.compile_vector(f.phi)(pts) for f in complex.families]
    extra_pts = {}
    for adj in complex.adjacency:
        for cid in (adj.a, adj.b):
            extra_pts.setdefault(cid, []).extend(adj.facet_points)
    out = []
    for i, c in enumerate(complex.cells):
        flat_idx = np.flatnonzero(complex._cell_index_flat == i)
        cpts = pts[flat_idx]
        margin = np.full(len(cpts), np.inf)
        for pos, (fam, vals) in enumerate(zip(complex.families, phi_vals)):
            lo, hi = fam.band(c.y[pos])
            v = vals[flat_idx]
            margin = np.minimum(margin, np.minimum(v - lo, hi - v))
        rep = tuple(float(v) for v in cpts[int(np.argmax(margin))])
        allpts = cpts
        if c.id in extra_pts:
            allpts = np.vstack([cpts, np.array(extra_pts[c.id])])
        bbox = (tuple(float(v) for v in allpts.min(axis=0)),
                tuple(float(v) for v in allpts.max(axis=0)))
        out.append((rep, bbox))
    return out


@pytest.fixture(scope="session")
def reference_cell_boxes():
    return _reference_cell_boxes


def _reference_check_admissibility(sys, g, fam, grid, equilibria):
    """`model.check_admissibility` before the sign tests read boolean masks,
    its reference: phi and phidot on the grid, the equilibrium exclusions,
    then per slice a copy of its points and values."""
    phid = ex.compile_vector(md.lie_derivative(sys, g, fam))
    phi_v = ex.compile_vector(fam.phi)
    pts = sys.domain.grid(grid)
    phi_vals = phi_v(pts)
    vals = phid(pts)

    keep = np.ones(len(pts), dtype=bool)
    for p in equilibria:
        keep &= np.linalg.norm(pts - np.asarray(p), axis=1) > md.R_CRIT

    signs = {}
    for h in range(1, fam.band_count + 1):
        mask = fam.band_mask(h, phi_vals) & keep
        if not mask.any():
            continue
        v = vals[mask]
        p = pts[mask]
        pos = v > 0
        neg = v < 0
        if pos.all():
            signs[h] = 1
        elif neg.all():
            signs[h] = -1
        else:
            if pos.any() and neg.any():
                ia = int(np.argmax(v))
                ib = int(np.argmin(v))
            else:
                ia = int(np.argmin(np.abs(v)))
                ib = int(np.argmax(np.abs(v)))
            raise AdmissibilityError(fam.index, h, p[ia], float(v[ia]),
                                     p[ib], float(v[ib]))
    return signs


@pytest.fixture(scope="session")
def reference_check_admissibility():
    return _reference_check_admissibility


@pytest.fixture(scope="session")
def reference_level_edges():
    return _reference_level_edges


@pytest.fixture(scope="session")
def reference_level_points():
    return _reference_level_points


@pytest.fixture(scope="session")
def reference_locate():
    return _reference_locate


@pytest.fixture(scope="session")
def reference_bisect_crossing():
    return _reference_bisect_crossing


@pytest.fixture(scope="session")
def reference_bisect_crossings():
    return _reference_bisect_crossings


def _reference_run_feasible(tga, timed_sequence, initial_valuation=None,
                             final_dwell=0.0, tol=ta.GUARD_TOL):
    """`tga.run_feasible` as it was before its forward pass, the reference
    for it: a depth-first search with an explicit stack that, when several
    transitions connect a pair, tries each and backtracks over them."""
    if not timed_sequence:
        return ta.RunReport(feasible=True)
    v0 = (initial_valuation if initial_valuation is not None
          else ta.zero_valuation(tga.k))
    violations = []
    last = len(timed_sequence) - 1

    def successors(i, name, v, t_now):
        """States entered from step i, in candidate order; failures are logged."""
        next_name, next_t = timed_sequence[i + 1]
        dt = next_t - t_now
        if dt < -tol:
            violations.append({"step": i, "kind": "time-order", "location": name,
                               "detail": "entry times decrease"})
            return
        dt = max(dt, 0.0)
        v_delayed = ta.delay(v, dt)
        if not ta._invariant_ok(tga.invariant_of(name), v_delayed, tol):
            violations.append({
                "step": i, "kind": "invariant", "location": name,
                "detail": "dwell %.6g violates invariant %s"
                          % (dt, tga.invariant_of(name))})
            return
        candidates = [t for t in tga.outgoing(name) if t.target == next_name]
        if not candidates:
            violations.append({"step": i, "kind": "missing-edge",
                               "location": name,
                               "detail": "no transition to %s" % next_name})
            return
        for t in candidates:
            if not ta._guard_ok(t.guard, v_delayed, tol):
                violations.append({
                    "step": i, "kind": "guard", "location": name,
                    "detail": "guard %s unsatisfied at valuation %s"
                              % (t.guard, v_delayed)})
                continue
            try:
                v2 = ta.apply_update(v_delayed, t.update)
            except ta.NegativeClockError as err:
                violations.append({"step": i, "kind": "negative-clock",
                                   "location": name, "detail": str(err)})
                continue
            if not ta._invariant_ok(tga.invariant_of(next_name), v2, tol):
                violations.append({
                    "step": i, "kind": "invariant", "location": next_name,
                    "detail": "entry valuation %s violates invariant" % (v2,)})
                continue
            yield i + 1, next_name, v2, next_t

    name0, t0 = timed_sequence[0]
    if not ta._invariant_ok(tga.invariant_of(name0), v0, tol):
        violations.append({"step": 0, "kind": "invariant", "location": name0,
                           "detail": "initial valuation violates invariant"})
        return ta.RunReport(feasible=False, violations=violations)
    stack = [iter([(0, name0, v0, t0)])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        i, name, v, t_now = state
        if i < last:
            stack.append(successors(i, name, v, t_now))
            continue
        if final_dwell > 0 and not ta._invariant_ok(
                tga.invariant_of(name), ta.delay(v, final_dwell), tol):
            violations.append({
                "step": i, "kind": "invariant", "location": name,
                "detail": "final dwell %.6g exceeds the invariant" % final_dwell})
            continue
        return ta.RunReport(feasible=True, violations=[],
                            steps=len(timed_sequence), final_valuation=v)
    return ta.RunReport(feasible=False, violations=violations,
                        steps=len(timed_sequence))


@pytest.fixture(scope="session")
def reference_run_feasible():
    return _reference_run_feasible


# Two specs outside the linear-quadratic class: ROADMAP item 9's pendulum
# recipe (sin and cos) and a quartic phi (``^4`` and ``^3``).
PENDULUM_SPEC = {
    "state_dim": 2, "input_dim": 1,
    "domain": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
    "dynamics": ["x2", "-sin(x1) + u1"],
    "controls": {"damp": ["-x2"], "firm": ["-x1 - 2*x2"]},
    "partitions": [{"phi": "1 - cos(x1) + 0.5*x2^2 + 0.25*x1*x2",
                    "levels": [0.0, 0.1, 0.4, 1.0, 2.0, 5.0]}],
    "grid": {"points_per_dim": 96, "admissibility": 96},
}
QUARTIC_SPEC = {
    "state_dim": 2, "input_dim": 1,
    "domain": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
    "dynamics": ["x2", "-x1^3 + u1"],
    "controls": {"brake": ["-x2"], "firm": ["-x1 - x2"]},
    "partitions": [{"phi": "0.25*x1^4 + 0.5*x2^2",
                    "levels": [0.0, 0.5, 2.0, 6.5]}],
    "grid": {"points_per_dim": 96, "admissibility": 96},
}


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


_REF_GOLDEN_ITERS = 60
_REF_REFINE_ITERS = 3
_REF_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_golden_min(fun, lo, hi):
    a, b = lo, hi
    c = b - _REF_INVPHI * (b - a)
    d = a + _REF_INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_REF_GOLDEN_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _REF_INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _REF_INVPHI * (b - a)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def _reference_refine(phi_s, lie_s, x0, maximize, box, spacing, band):
    """The refinement of `bounds` before `expr.compile_refine` generated
    it, the reference for that kernel: `_REF_REFINE_ITERS` coordinate
    sweeps of golden-section line searches over closures that call the
    compiled scalars ``phi_s`` and ``lie_s``, always all of them. ``box``
    holds one (lo, hi) pair per coordinate and ``band`` the raw band.
    Returns the point as a list of floats and |lie| there."""
    # Refinement runs on lists of floats. A candidate y differs from the
    # current point, which lies in the box, only in coordinate d.
    def feasible(y, d):
        return (box[d][0] <= y[d] <= box[d][1]
                and band[0] <= phi_s(y) <= band[1])

    x = [float(v) for v in x0]
    for _ in range(_REF_REFINE_ITERS):
        for d in range(len(x)):
            a = max(box[d][0], x[d] - spacing[d])
            b = min(box[d][1], x[d] + spacing[d])

            def along(t, d=d):
                y = x.copy()
                y[d] = t
                if not feasible(y, d):
                    return math.inf
                v = abs(lie_s(y))
                return -v if maximize else v

            t_best, _ = _reference_golden_min(along, a, b)
            y = x.copy()
            y[d] = t_best
            if feasible(y, d):
                x = y
    return x, abs(lie_s(tuple(x)))


@pytest.fixture(scope="session")
def reference_refine():
    return _reference_refine


def _reference_extremal(slc, g, fam, sys, grid=64, *, equilibria):
    """`bounds.extremal_lie_derivative` before `expr.compile_refine`
    generated its refinement, the reference for that kernel and for
    `bounds.compute_bounds`: a grid scan of the slice's own points, then
    golden-section line searches over closures that call the compiled
    scalars, 3 sweeps of 60 iterations per coordinate."""
    phid = md.lie_derivative(sys, g, fam)
    phid_v = ex.compile_vector(phid)
    phid_s = ex.compile_scalar(phid)
    phi_s = ex.compile_scalar(fam.phi)
    phi_v = ex.compile_vector(fam.phi)

    pts = sys.domain.grid(grid)
    phis = phi_v(pts)
    mask = fam.band_mask(slc.index, phis)
    if not mask.any():
        raise EmptySliceError("slice %d of family %d has no grid samples"
                              % (slc.index, slc.family))
    sample_pts = pts[mask]
    vals = np.abs(phid_v(sample_pts))

    box = tuple(zip(sys.domain.lower, sys.domain.upper))
    spacing = [(b - a) / (grid - 1) for a, b in box]
    band = (slc.lo, slc.hi)

    def refine(x0, maximize):
        return np.array(_reference_refine(phi_s, phid_s, x0, maximize, box,
                                          spacing, band)[0])

    x_min = refine(sample_pts[int(np.argmin(vals))], maximize=False)
    x_max = refine(sample_pts[int(np.argmax(vals))], maximize=True)
    raw_inf = min(float(vals.min()), abs(phid_s(tuple(x_min))))
    raw_sup = max(float(vals.max()), abs(phid_s(tuple(x_max))))

    for p in equilibria:
        if (fam.band_mask(slc.index, phi_s(tuple(p)))
                and sys.domain.contains(p, tol=1e-9)):
            raw_inf = 0.0
            x_min = tuple(p)
            break

    inf_abs = raw_inf * (1.0 - 1e-3)
    sup_abs = raw_sup * (1.0 + 1e-3)
    return lg.ExtremalDerivatives(
        family=slc.family, slice_index=slc.index, control=g.name,
        inf_abs=float(inf_abs), sup_abs=float(sup_abs),
        argmin=tuple(float(v) for v in np.atleast_1d(x_min)),
        argmax=tuple(float(v) for v in np.atleast_1d(x_max)))


@pytest.fixture(scope="session")
def reference_extremal():
    return _reference_extremal


def _quadratic(e, n):
    """(H, g, c) with e(x) = x.H.x/2 + g.x + c, read from the derivatives of
    ``e`` at 0, which are exact for a quadratic. Refuses an ``e`` whose
    third derivatives do not all fold to 0: it is not quadratic."""
    names = ["x%d" % (i + 1) for i in range(n)]
    first = [ex.differentiate(e, v) for v in names]
    second = [[ex.differentiate(d1, v) for v in names] for d1 in first]
    for row in second:
        for d2 in row:
            for v in names:
                d3 = ex.differentiate(d2, v)
                if not (isinstance(d3, ex.Const) and d3.value == 0.0):
                    raise ValueError("not quadratic: %s" % ex.to_text(e))
    zero = (0.0,) * n
    H = np.array([[ex.eval_expression(d2, zero) for d2 in row]
                  for row in second])
    g = np.array([ex.eval_expression(d1, zero) for d1 in first])
    return H, g, ex.eval_expression(e, zero)


def _restrict(quad, fixed, free):
    """The quadratic ``quad`` over the coordinates ``free``, with the
    coordinates of ``fixed`` ({index: value}) held at their values."""
    H, g, c = quad
    fi = list(fixed)
    e = np.array([fixed[i] for i in fi])
    Hf = H[np.ix_(free, free)]
    gf = g[free] + H[np.ix_(free, fi)] @ e
    cf = c + g[fi] @ e + 0.5 * e @ H[np.ix_(fi, fi)] @ e
    return Hf, gf, cf


def _real_roots(coeffs):
    roots = np.roots(coeffs) if np.any(coeffs) else []
    return [r.real for r in roots if abs(r.imag) <= 1e-7 * (1.0 + abs(r))]


def _critical(quad):
    """The critical point of a quadratic when its Hessian is regular; a
    singular one leaves a line of equal values, whose ends lie on faces."""
    H, g, _ = quad
    try:
        return [np.linalg.solve(H, -g)]
    except np.linalg.LinAlgError:
        return []


def _on_level(lie, phi, a):
    """KKT points of ``lie`` on {phi = a} in one or two free coordinates."""
    Hl, gl, _ = lie
    Hp, gp, cp = phi
    if len(gp) == 1:
        return [np.array([y]) for y in
                _real_roots([0.5 * Hp[0, 0], gp[0], cp - a])]
    P = np.polynomial.polynomial
    M = [[np.array([Hl[i, j], -Hp[i, j]]) for j in range(2)] for i in range(2)]
    det = P.polysub(P.polymul(M[0][0], M[1][1]), P.polymul(M[0][1], M[1][0]))
    out = []
    if not (gp.any() or gl.any()):
        # forms: grad lie = lam grad phi is the generalized eigenproblem
        # (Hl - lam Hp) v = 0; each eigenvector is scaled onto the level
        for lam in _real_roots(det[::-1]):
            row = max(Hl - lam * Hp, key=lambda r: abs(r[0]) + abs(r[1]))
            v = np.array([row[1], -row[0]]) if row.any() else np.array([1.0, 0.0])
            s2 = (a - cp) / (0.5 * v @ Hp @ v)
            if s2 >= 0.0:
                out += [math.sqrt(s2) * v, -math.sqrt(s2) * v]
        return out
    # with linear terms: x(lam) = adj(M) r / det(M), M = Hl - lam Hp,
    # r = lam gp - gl, and phi(x(lam)) = a is a quartic in lam
    r = [np.array([-gl[i], gp[i]]) for i in range(2)]
    N = [P.polysub(P.polymul(M[1][1], r[0]), P.polymul(M[0][1], r[1])),
         P.polysub(P.polymul(M[0][0], r[1]), P.polymul(M[1][0], r[0]))]
    quart = P.polymul(P.polymul(det, det), [cp - a])
    for i in range(2):
        quart = P.polyadd(quart, P.polymul(P.polymul(det, N[i]), [gp[i]]))
        for j in range(2):
            quart = P.polyadd(quart, P.polymul(P.polymul(N[i], N[j]),
                                               [0.5 * Hp[i, j]]))
    for lam in _real_roots(quart[::-1]):
        dv = P.polyval(lam, det)
        if dv != 0.0:
            out.append(np.array([P.polyval(lam, N[0]),
                                 P.polyval(lam, N[1])]) / dv)
    return out


def _exact_extremal(sys, g, fam, h):
    """Exact inf and sup of |L_g phi| over slice h of ``fam`` within the
    box, for an affine closed loop and a quadratic phi in 1-D or 2-D (so
    L_g phi is quadratic too), with their argmin and argmax.

    The extrema of L over band ∩ box lie among the KKT points of each face
    of the box (the box itself, its edges, its corners): per face, the
    critical point of L and L's Lagrange points on each of the two levels.
    The candidates that ``band_mask``'s rule admits are kept. Where L takes
    both signs over them, inf is 0 and its argmin None (the band ∩ box of
    every spec tested here is connected)."""
    n = sys.n
    if n > 2:
        raise ValueError("the exact oracle covers 1-D and 2-D")
    phi = _quadratic(fam.phi, n)
    lie = _quadratic(md.lie_derivative(sys, g, fam), n)
    lo, hi = sys.domain.lower, sys.domain.upper
    levels = fam.band(h)
    cands = []
    for fixed_idx in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)):
        free = [i for i in range(n) if i not in fixed_idx]
        for ends in itertools.product(*[(lo[i], hi[i]) for i in fixed_idx]):
            fixed = dict(zip(fixed_idx, ends))

            def place(y):
                x = np.empty(n)
                x[free] = y
                for i, v in fixed.items():
                    x[i] = v
                return x

            if not free:
                cands.append(place([]))
                continue
            lie_f = _restrict(lie, fixed, free)
            phi_f = _restrict(phi, fixed, free)
            cands += [place(y) for y in _critical(lie_f)]
            for a in levels:
                cands += [place(y) for y in _on_level(lie_f, phi_f, a)]
    phi_s = ex.compile_scalar(fam.phi)
    lie_s = ex.compile_scalar(md.lie_derivative(sys, g, fam))
    kept = []
    for x in cands:
        if not sys.domain.contains(x, tol=1e-9):
            continue
        x = tuple(float(v) for v in np.clip(x, lo, hi))
        if fam.band_mask(h, phi_s(x)):
            kept.append((lie_s(x), x))
    vals = [v for v, _ in kept]
    v_max, x_max = max(kept, key=lambda vx: abs(vx[0]))
    if min(vals) <= 0.0 <= max(vals) and 0.0 not in vals:
        return 0.0, abs(v_max), None, x_max
    v_min, x_min = min(kept, key=lambda vx: abs(vx[0]))
    return abs(v_min), abs(v_max), x_min, x_max


@pytest.fixture(scope="session")
def exact_extremal():
    return _exact_extremal
