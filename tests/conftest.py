"""Shared fixtures: the 1-D toy system and the phase-plane navigation scenario."""

import itertools
from math import isfinite
from operator import itemgetter

import numpy as np
import pytest

import lyagate as lg
from lyagate import expr as ex
from lyagate.errors import NonFiniteStateError, OutOfDomainError


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
        self.signs = lg.admissibility_map(
            self.sys, self.controls, self.families, grid=128)
        self.complex = lg.build_cells(self.families, self.box, grid=grid)
        self.bounds = lg.compute_bounds(
            self.sys, self.controls, self.families, self.slices, grid=grid)
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
        self.signs = lg.admissibility_map(
            self.sys, self.controls, self.families, grid=grid)
        self.complex = lg.build_cells(self.families, self.box, grid=grid)
        self.bounds = lg.compute_bounds(
            self.sys, self.controls, self.families, self.slices, grid=grid)
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
    checks. Takes the kernel's arguments and returns what it returns."""
    field = ex.compile_field(field_exprs)
    checks = [(ex.compile_scalar(e), *band)
              for e, band in zip(phi_exprs, bands)]
    checks += [(itemgetter(d), *box[d]) for d in range(len(x))]
    step = hmax
    while t < t_stop:
        step = horizon - t
        if step > hmax:
            step = hmax
        xn = _textbook_rk4(field, x, step)
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
    """Level crossing on [p, q] over numpy 2-vectors, the reference for
    `partition._bisect_crossing`."""
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


@pytest.fixture(scope="session")
def reference_locate():
    return _reference_locate


@pytest.fixture(scope="session")
def reference_bisect_crossing():
    return _reference_bisect_crossing
