"""Slices, cells, and the adjacency structure of the finite state-space partition.

The box is rasterized on a uniform grid; every grid point gets a band index
per family, connected components of equal-index regions become cells, and
grid edges whose endpoints differ by exactly one band in exactly one family
contribute facet samples (bisected onto the crossed level surface) to the
adjacency between the two cells. Component counts are checked for stability
against a doubled resolution.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
import numpy as np
from scipy import ndimage

from . import expr as ex
# sample_level_set is looked up on the module at call time, so that a wrapper
# installed on `model.sample_level_set` sees the calls made from here
from . import model as md
from .errors import (
    CoverageError, EmptySliceError, OutOfDomainError, ResolutionError,
)
from .model import EPS_REG, Box, PartitioningFamily

DEFAULT_GRID = 64
MAX_FACET_POINTS = 32
EPS_FACE = 1e-9          # relative half-width of the boundary tag in locate()


@dataclass(frozen=True)
class Slice:
    """Band [lo, hi] of one family; index h is 1-based within the level stack."""

    family: int
    index: int
    lo: float
    hi: float

    @property
    def width(self):
        return self.hi - self.lo


def build_slices(fam: PartitioningFamily, box: Box, grid=DEFAULT_GRID):
    """One slice per consecutive level pair whose band meets the box.

    Raises CoverageError when a grid sample of phi falls outside
    [a_0, a_k]; the stack must cover the whole box.
    """
    pts = box.grid(grid)
    vals = ex.compile_vector(fam.phi)(pts)
    a0, ak = fam.levels[0], fam.levels[-1]
    tol = 1e-9 * max(1.0, abs(a0), abs(ak))
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
    if vals[imin] < a0 - tol:
        raise CoverageError(fam.index, float(vals[imin]), pts[imin], a0, ak)
    if vals[imax] > ak + tol:
        raise CoverageError(fam.index, float(vals[imax]), pts[imax], a0, ak)

    out = []
    for h in range(1, fam.band_count + 1):
        lo, hi = fam.band(h)
        if ((vals >= lo - tol) & (vals <= hi + tol)).any():
            out.append(Slice(family=fam.index, index=h, lo=lo, hi=hi))
    return out


@dataclass(frozen=True)
class Cell:
    """Connected component z of the extended cell with band tuple y."""

    id: str
    y: tuple
    z: int
    rep_point: tuple
    bbox: tuple          # (lower tuple, upper tuple)
    npoints: int

    @property
    def label(self):
        lo, hi = self.bbox
        return "x".join("[%.6g,%.6g]" % (a, b) for a, b in zip(lo, hi))


@dataclass
class Adjacency:
    """Shared facet between two cells across one level of one family."""

    a: str
    b: str
    family: int
    level: float
    lower: str                      # the cell on the lower-band side
    facet_points: tuple = ()
    edge_count: int = 0

    def other(self, cell_id):
        return self.b if cell_id == self.a else self.a


def _cell_id(y, z):
    return "c" + ".".join(str(h) for h in y) + "-" + str(z)


def _band_labels(levels, vals):
    """1-based band index per value; points on a level go to the lower band."""
    idx = np.searchsorted(np.asarray(levels), vals, side="left")
    return np.clip(idx, 1, len(levels) - 1)


class CellComplex:
    """The finite partition: cells, adjacency, and point-location support."""

    def __init__(self, families, box, grid, cells, adjacency, diagnostics,
                 axes, cell_index_flat):
        self.families = list(families)
        self.box = box
        self.grid = grid
        self.cells = list(cells)
        self.adjacency = list(adjacency)
        self.diagnostics = diagnostics
        self._axes = axes
        self._cell_index_flat = cell_index_flat
        self._by_id = {c.id: c for c in self.cells}
        # point-location tables: per family (index, phi, levels, band count),
        # and per band tuple its cells with their grid points stored as one
        # contiguous column per axis
        self._family_lookup = tuple(
            (f.index, ex.compile_scalar(f.phi), f.levels, f.band_count)
            for f in self.families)
        self._points = box.grid(grid)
        order = np.argsort(cell_index_flat, kind="stable")
        sizes = np.bincount(cell_index_flat, minlength=len(self.cells))
        cuts = np.cumsum(sizes)[:-1]
        columns = zip(*(np.split(self._points[order, i], cuts)
                        for i in range(box.dim)))
        self._cells_by_y = {}
        for c, cols in zip(self.cells, columns):
            self._cells_by_y.setdefault(c.y, []).append((c.id, cols))
        self._gradient_cache = {}
        self._touch_cache = {}
        self._adj_by_cell = {}
        for adj in self.adjacency:
            self._adj_by_cell.setdefault(adj.a, []).append(adj)
            self._adj_by_cell.setdefault(adj.b, []).append(adj)

    def cell(self, cell_id):
        return self._by_id[cell_id]

    def cell_ids(self):
        return [c.id for c in self.cells]

    def adjacencies_of(self, cell_id):
        return self._adj_by_cell.get(cell_id, [])

    def neighbors_toward(self, cell_id, family, direction):
        """Cells across the given family's level in band direction +1/-1."""
        out = []
        for adj in self.adjacencies_of(cell_id):
            if adj.family != family:
                continue
            going_up = adj.lower == cell_id
            if (direction > 0) == going_up:
                out.append(adj)
        return out

    def level_crossing_points(self, family_index, level):
        """Points on the level surface inside X where the gradient does not vanish.

        Each entry is (point, cell ids the point belongs to, gradient norm);
        a level that only meets X at critical points (the floor of a Lyapunov
        stack) yields an empty list and cannot be crossed.
        """
        key = (family_index, float(level))
        if key not in self._touch_cache:
            fam = next(f for f in self.families if f.index == family_index)
            pts = md.sample_level_set(fam, level, self.box,
                                      grid=min(self.grid, 64))
            grad_fns, thresh = self._gradient_of(fam)
            out = []
            for p in pts:
                gn = math.sqrt(sum(fn(p) ** 2 for fn in grad_fns))
                if gn <= thresh:
                    continue
                try:
                    loc = self.locate(p, eps_face=1e-7)
                except OutOfDomainError:
                    continue
                out.append((p, set(loc.cells) | {loc.primary}, gn))
            self._touch_cache[key] = out
        return self._touch_cache[key]

    def _gradient_of(self, fam):
        """Compiled gradient of phi and its vanishing threshold, once per family.

        Points polishing toward a critical point end up with a vanishing
        gradient; they are filtered relative to the family's gradient scale
        over the grid.
        """
        if fam.index not in self._gradient_cache:
            grad = fam.gradient(self.box.dim)
            scale = float(np.sqrt(sum(ex.compile_vector(e)(self._points) ** 2
                                      for e in grad)).max())
            self._gradient_cache[fam.index] = (
                [ex.compile_scalar(e) for e in grad], max(EPS_REG, 1e-4 * scale))
        return self._gradient_cache[fam.index]

    def cell_touches_level(self, cell_id, family_index, level):
        """True when the cell's boundary contains a crossable piece of the level."""
        return any(cell_id in cells
                   for _, cells, _ in self.level_crossing_points(family_index, level))

    def locate(self, x, eps_face=EPS_FACE):
        return locate(x, self, eps_face=eps_face)

    def cell_at(self, x):
        return self.locate(x).primary

    def uniform_point_in(self, cell_id, rng, max_tries=4096):
        """Rejection-sample an interior point of the cell (bbox proposal)."""
        lo, hi = self.cell(cell_id).bbox
        lo = np.asarray(lo)
        hi = np.asarray(hi)
        for _ in range(max_tries):
            x = lo + rng.random(len(lo)) * (hi - lo)
            res = self.locate(tuple(x))
            if res.primary == cell_id and not res.boundary_families:
                return tuple(float(v) for v in x)
        raise EmptySliceError("could not sample an interior point of %s" % cell_id)

    def to_dict(self):
        return {
            "grid": self.grid,
            "box": {"lower": list(self.box.lower), "upper": list(self.box.upper)},
            "families": [
                {"index": f.index, "phi": ex.to_text(f.phi), "levels": list(f.levels)}
                for f in self.families
            ],
            "cells": [
                {"id": c.id, "y": list(c.y), "z": c.z, "label": c.label,
                 "rep_point": list(c.rep_point),
                 "bbox": [list(c.bbox[0]), list(c.bbox[1])],
                 "npoints": c.npoints}
                for c in self.cells
            ],
            "adjacency": [
                {"a": a.a, "b": a.b, "family": a.family, "level": a.level,
                 "lower": a.lower, "edge_count": a.edge_count,
                 "facet_points": [list(p) for p in a.facet_points]}
                for a in self.adjacency
            ],
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class LocateResult:
    primary: str
    cells: tuple
    boundary_families: tuple


def _bisect_crossing(p, q, phi_fn, level, iters=60):
    """Point on the segment [p, q] where phi crosses the level.

    p and q are sequences of floats; each probe is ``p_i + t * (q_i - p_i)``
    per coordinate, and the result is a tuple of floats.

    The loop halves at most ``iters`` times and stops early once the
    midpoint rounds to ``lo`` or ``hi``. That is a fixed point, so the result
    is the one the full count gives. ``stat_lo`` only takes the value of a
    probe on the same side as ``phi(p) - level``, and ``hi`` only moves to a
    probe on the other side. If ``mid == lo`` with ``lo > 0``, the probe
    repeats the one that set ``lo`` and ``stat_lo``, so it lands on the same
    side and changes nothing (``lo == 0`` cannot recur, as ``hi`` stays at or
    above 2**-iters). If ``mid == hi < 1``, the probe repeats the one that
    set ``hi`` and changes nothing. If ``mid == hi == 1.0``, then
    ``lo == 1 - 2**-53`` and the probe may set ``lo`` to 1.0, but both before
    and after, ``0.5 * (lo + hi)`` rounds to 1.0. In every case the later
    midpoints, and the returned ``t = 0.5 * (lo + hi)``, stay the same.
    """
    dq = [b - a for a, b in zip(p, q)]
    stat_lo = phi_fn(p) - level
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = phi_fn([a + mid * d for a, d in zip(p, dq)]) - level
        if (fm > 0) == (stat_lo > 0):
            lo = mid
            stat_lo = fm
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return tuple(a + t * d for a, d in zip(p, dq))


def _build_raw(families, box, grid):
    """Label grid, flood-fill components, and gather raw adjacency edges."""
    n = box.dim
    shape = (grid,) * n
    pts = box.grid(grid)
    labels = []
    phi_vals = []
    for fam in families:
        vals = ex.compile_vector(fam.phi)(pts)
        phi_vals.append(vals)
        labels.append(_band_labels(fam.levels, vals).reshape(shape))

    # combined key per point: tuple of band indices
    key = np.zeros(shape, dtype=np.int64)
    mult = 1
    for lab, fam in zip(labels, families):
        key += lab.astype(np.int64) * mult
        mult *= fam.band_count + 2

    structure = ndimage.generate_binary_structure(n, 1)
    cell_index = -np.ones(shape, dtype=np.int64)
    cells_meta = []   # (y, z, first_flat_index)
    for k in np.unique(key):
        mask = key == k
        first = int(np.argmax(mask.ravel()))
        y = tuple(int(lab.ravel()[first]) for lab in labels)
        comp, ncomp = ndimage.label(mask, structure=structure)
        for z in range(1, ncomp + 1):
            comp_mask = comp == z
            flat = np.flatnonzero(comp_mask.ravel())
            cells_meta.append((y, flat))
    # deterministic cell order: by band tuple then by first grid index
    cells_meta.sort(key=lambda item: (item[0], int(item[1][0])))
    ordered = []
    z_counter = {}
    for y, flat in cells_meta:
        z = z_counter.get(y, 0)
        z_counter[y] = z + 1
        ordered.append((y, z, flat))
    for idx, (_, _, flat) in enumerate(ordered):
        cell_index.ravel()[flat] = idx

    return pts, labels, phi_vals, cell_index, ordered


def build_cells(families, box: Box, grid=DEFAULT_GRID, stability_check=True):
    """Rasterize, flood-fill cells, and record level-surface adjacency.

    With ``stability_check`` the construction is repeated at doubled
    resolution (2*grid - 1 points per axis keeps the original points) and a
    ResolutionError is raised when any extended cell's component count
    changes.
    """
    families = list(families)
    pts, labels, phi_vals, cell_index, ordered = _build_raw(families, box, grid)
    n = box.dim
    shape = (grid,) * n

    if stability_check:
        fine = 2 * grid - 1
        _, _, _, _, ordered_fine = _build_raw(families, box, fine)
        counts = {}
        for y, _, _ in ordered:
            counts[y] = counts.get(y, 0) + 1
        counts_fine = {}
        for y, _ in [(y, z) for y, z, _ in ordered_fine]:
            counts_fine[y] = counts_fine.get(y, 0) + 1
        if counts != counts_fine:
            raise ResolutionError(
                "component counts changed between grid %d and %d: %s vs %s"
                % (grid, fine, counts, counts_fine))

    phi_fns = [ex.compile_scalar(f.phi) for f in families]

    # adjacency from orthogonal grid edges crossing exactly one level
    flat = cell_index.ravel()
    raw_edges = {}
    skipped = 0
    for d in range(n):
        idx_a = cell_index.take(range(grid - 1), axis=d)
        idx_b = cell_index.take(range(1, grid), axis=d)
        diff = idx_a != idx_b
        if not diff.any():
            continue
        a_flat = idx_a[diff]
        b_flat = idx_b[diff]
        # recover grid coordinates of the lower endpoint of each edge
        coords = np.argwhere(diff)
        coords_full = coords.copy()
        for (ai, bi, coord) in zip(a_flat, b_flat, coords_full):
            ya = ordered[ai][0]
            yb = ordered[bi][0]
            deltas = [(i, yb[i] - ya[i]) for i in range(len(ya)) if ya[i] != yb[i]]
            if len(deltas) != 1 or abs(deltas[0][1]) != 1:
                skipped += 1
                continue
            fam_pos, step = deltas[0]
            coord_b = coord.copy()
            coord_b[d] += 1
            key = (min(ai, bi), max(ai, bi))
            raw_edges.setdefault(key, []).append(
                (fam_pos, step if ai == key[0] else -step,
                 tuple(coord), tuple(coord_b)))

    axes = box.axes(grid)

    def point_of(coord):
        return [float(axes[i][coord[i]]) for i in range(n)]

    adjacency = []
    for (ia, ib), edges in sorted(raw_edges.items()):
        fam_pos = edges[0][0]
        fam = families[fam_pos]
        ya = ordered[ia][0]
        yb = ordered[ib][0]
        step_ab = yb[fam_pos] - ya[fam_pos]
        lower_idx = ia if step_ab > 0 else ib
        level = fam.levels[max(ya[fam_pos], yb[fam_pos]) - 1]
        sel = np.linspace(0, len(edges) - 1,
                          num=min(MAX_FACET_POINTS, len(edges)), dtype=int)
        facet_pts = []
        for si in sel:
            _, _, ca, cb = edges[si]
            facet_pts.append(_bisect_crossing(point_of(ca), point_of(cb),
                                              phi_fns[fam_pos], level))
        a_id = _cell_id(*ordered[ia][:2])
        b_id = _cell_id(*ordered[ib][:2])
        adjacency.append(Adjacency(
            a=a_id, b=b_id, family=fam.index, level=float(level),
            lower=_cell_id(*ordered[lower_idx][:2]),
            facet_points=tuple(facet_pts), edge_count=len(edges)))

    # facet points sharpen the per-cell bounding boxes up to the true levels
    extra_pts = {}
    for adj in adjacency:
        for cid in (adj.a, adj.b):
            extra_pts.setdefault(cid, []).extend(adj.facet_points)

    cells = []
    for y, z, flat_idx in ordered:
        cid = _cell_id(y, z)
        cpts = pts[flat_idx]
        margin = np.full(len(cpts), np.inf)
        for pos, (fam, vals) in enumerate(zip(families, phi_vals)):
            lo, hi = fam.band(y[pos])
            v = vals[flat_idx]
            margin = np.minimum(margin, np.minimum(v - lo, hi - v))
        rep = tuple(float(v) for v in cpts[int(np.argmax(margin))])
        allpts = cpts
        if cid in extra_pts:
            allpts = np.vstack([cpts, np.array(extra_pts[cid])])
        bbox = (tuple(float(v) for v in allpts.min(axis=0)),
                tuple(float(v) for v in allpts.max(axis=0)))
        cells.append(Cell(id=cid, y=y, z=z, rep_point=rep, bbox=bbox,
                          npoints=len(flat_idx)))

    diagnostics = {"skipped_corner_edges": skipped}
    return CellComplex(families, box, grid, cells, adjacency, diagnostics,
                       axes, cell_index.ravel())


def _grid_distance(columns, x):
    """Euclidean distance from x to the nearest of a cell's grid points.

    The squares are summed over the axes from left to right, which is the
    order ``np.linalg.norm(points - x, axis=1)`` adds them in below eight
    axes; sqrt is monotone and correctly rounded, so taking it after the
    minimum gives the same bits as the minimum of the norms.
    """
    acc = None
    for col, xi in zip(columns, x):
        d = col - xi
        d *= d
        if acc is None:
            acc = d
        else:
            acc += d
    return math.sqrt(float(acc.min()))


def locate(x, complex: CellComplex, eps_face=EPS_FACE):
    """Cell(s) containing x; points within eps_face of a level get both sides.

    Per family, the band comes from bisection of phi(x) on the levels (a
    value on a level goes to the band below it); when phi(x) lies within
    ``eps_face * max(1, |a|)`` of a level a, the band on the other side of
    a is a second option and the family is listed in
    ``boundary_families``. Within each band tuple of options that has
    cells, the candidate is the component whose grid points lie nearest to
    x in Euclidean distance. ``cells`` holds the candidates' ids, sorted;
    ``primary`` is the nearest candidate, ties going to the smaller id.
    Distances are computed only when more than one cell can hold x.

    Raises OutOfDomainError when x lies outside the box, when some phi(x)
    is not finite, or when no cell has a matching band tuple.
    """
    if not complex.box.contains(x, tol=1e-12):
        raise OutOfDomainError("point %s outside the domain box" % (tuple(x),))

    xt = tuple(x)
    band_options = []
    boundary_families = []
    for index, phi, levels, band_count in complex._family_lookup:
        v = phi(xt)
        if not math.isfinite(v):
            raise OutOfDomainError("phi of family %d is %r at %s"
                                   % (index, v, xt))
        h = min(max(bisect_left(levels, v), 1), band_count)
        options = {h}
        for j, a in enumerate(levels):
            if abs(v - a) <= eps_face * max(1.0, abs(a)):
                if 1 <= j <= band_count:
                    options.add(j)        # band below the level
                if 1 <= j + 1 <= band_count:
                    options.add(j + 1)    # band above the level
                if len(options) > 1:
                    boundary_families.append(index)
                break
        band_options.append(sorted(options))

    groups = [m for m in map(complex._cells_by_y.get,
                             itertools.product(*band_options)) if m]
    if not groups:
        raise OutOfDomainError("no cell found for point %s" % (xt,))
    boundary_families = tuple(sorted(set(boundary_families)))
    if len(groups) == 1 and len(groups[0]) == 1:
        cid = groups[0][0][0]
        return LocateResult(primary=cid, cells=(cid,),
                            boundary_families=boundary_families)

    xf = [float(v) for v in xt]
    candidates = []
    for matching in groups:
        best = None
        for cid, columns in matching:
            dist = _grid_distance(columns, xf)
            if best is None or dist < best[0]:
                best = (dist, cid)
        candidates.append(best)
    candidates.sort()
    return LocateResult(primary=candidates[0][1],
                        cells=tuple(sorted(cid for _, cid in candidates)),
                        boundary_families=boundary_families)
