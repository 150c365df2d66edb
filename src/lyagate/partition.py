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
    CoverageError, EmptySliceError, ModelError, OutOfDomainError,
    ResolutionError, format_point,
)
from .model import EPS_REG, Box, PartitioningFamily

DEFAULT_GRID = 64
MAX_FACET_POINTS = 32
EPS_FACE = 1e-9          # relative half-width of the boundary tag in locate()
LEVEL_EPS_FACE = 1e-7    # the same for points sampled on a level
_DRAW_BLOCK = 16         # most candidates uniform_point_in draws at once


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
    [a_0, a_k], widened by ``fam.band_tol``; the stack must cover the whole
    box. A band meets the box when ``fam.band_mask`` holds a grid sample.
    """
    pts = box.grid(grid)
    vals = ex.compile_vector(fam.phi)(pts)
    a0, ak = fam.levels[0], fam.levels[-1]
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
    if vals[imin] < a0 - fam.band_tol:
        raise CoverageError(fam.index, float(vals[imin]), pts[imin], a0, ak)
    if vals[imax] > ak + fam.band_tol:
        raise CoverageError(fam.index, float(vals[imax]), pts[imax], a0, ak)
    return [Slice(fam.index, h, *fam.band(h))
            for h in range(1, fam.band_count + 1)
            if fam.band_mask(h, vals).any()]


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


@dataclass
class _LevelSamples:
    """Crossable samples of one level and what is known of them."""

    points: list         # point tuples
    norms: list          # gradient norm at each point
    rows_by_y: dict      # band tuple -> rows whose band options allow it
    located: dict        # row -> cell ids from locate(), or None if refused


class CellComplex:
    """The finite partition: cells, adjacency, and point-location support."""

    def __init__(self, families, box, grid, cells, adjacency, diagnostics,
                 cell_index_flat):
        self.families = list(families)
        self.box = box
        self.grid = grid
        self.cells = list(cells)
        self.adjacency = list(adjacency)
        self.diagnostics = diagnostics
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
        # the level-sample index: phi per family, and each band tuple with
        # cells under its mixed-radix key (digit base: band count + 1)
        self._phi_vectors = [ex.compile_vector(f.phi) for f in self.families]
        self._y_by_key = {}
        for y in self._cells_by_y:
            key = 0
            for f, h in zip(self.families, y):
                key = key * (f.band_count + 1) + h
            self._y_by_key[key] = y
        self._gradient_cache = {}
        self._level_cache = {}
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
        samples = self.sample_levels(family_index, [level])[0]
        out = []
        for row, (p, gn) in enumerate(zip(samples.points, samples.norms)):
            cells = self._cells_at(samples, row)
            if cells is not None:
                out.append((p, cells, gn))
        return out

    def cell_touches_level(self, cell_id, family_index, level):
        """True when the cell's boundary contains a crossable piece of the level.

        This is exactly "some entry of ``level_crossing_points`` holds the
        cell", but only the samples listed under the cell's band tuple are
        located, in sample order. ``locate`` takes a point's cells from the
        product of its per-family ``_band_options``, and ``_rows_by_y``
        lists each sample under every band tuple of that product, with the
        same rule on phi compiled for arrays. Both compiled forms of phi
        round alike on ``+ - * /`` and squares. A sample lies within
        LEVEL_EPS_FACE of its own level, so both bands beside that level are
        options whichever side of it phi rounds to. A sample not listed
        under the cell's band tuple therefore cannot hold the cell, and
        skipping it changes no answer.
        """
        samples = self.sample_levels(family_index, [level])[0]
        return any(cell_id in (self._cells_at(samples, row) or ())
                   for row in samples.rows_by_y.get(self.cell(cell_id).y, ()))

    def _family(self, family_index):
        for fam in self.families:
            if fam.index == family_index:
                return fam
        raise ModelError("no partitioning family with index %r; the complex "
                         "has %s" % (family_index,
                                     [f.index for f in self.families]))

    def sample_levels(self, family_index, levels):
        """The crossable samples of each given level of one family, built
        once per complex: the levels not built yet are polished together in
        one ``model.sample_level_set`` call. A level's samples are the
        distinct points the sampler returns, each where it first occurs,
        less those where the gradient vanishes.

        The new levels' samples are indexed by one ``_rows_by_y`` call on
        all of them, whose ascending rows under each band tuple are then
        split by level; every row is indexed on its own, so each level gets
        the rows it would get alone."""
        fam = self._family(family_index)
        new = [a for a in dict.fromkeys(map(float, levels))
               if (family_index, a) not in self._level_cache]
        if new:
            grad_vs, thresh = self._gradient_of(fam)
            blocks = [np.array(list(dict.fromkeys(sampled)),
                               dtype=float).reshape(-1, self.box.dim)
                      for sampled in md.sample_level_set(
                          fam, new, self.box, grid=min(self.grid, 64))]
            pts = np.concatenate(blocks)
            norms = np.sqrt(sum(g * g for g in (gv(pts) for gv in grad_vs)))
            crossable = norms > thresh
            pts, norms = pts[crossable], norms[crossable]
            ends = np.cumsum([np.count_nonzero(c) for c in np.split(
                crossable, np.cumsum([len(b) for b in blocks])[:-1])])
            rows_by_y = self._rows_by_y(pts)
            start = 0
            for a, end in zip(new, ends.tolist()):
                mine = {}
                for y, rows in rows_by_y.items():
                    lo, hi = bisect_left(rows, start), bisect_left(rows, end)
                    if lo < hi:
                        mine[y] = [r - start for r in rows[lo:hi]]
                self._level_cache[family_index, a] = _LevelSamples(
                    list(map(tuple, pts[start:end].tolist())),
                    norms[start:end].tolist(), mine, {})
                start = end
        return [self._level_cache[family_index, float(a)] for a in levels]

    def _rows_by_y(self, points):
        """Rows of ``points`` under each band tuple whose cells may hold them.

        A row is listed, in row order, under every band tuple with cells in
        the product of its per-family band options at LEVEL_EPS_FACE, the
        set that ``locate`` draws the row's cells from. This is
        ``_band_options`` on whole columns: the band from ``searchsorted``,
        clipped to the stack, and, when phi lies within reach of a level,
        the bands on both sides of the first such level, clipped the same
        way. A row where some phi is not finite is listed nowhere, as
        ``locate`` refuses it.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, self.box.dim)
        if not len(pts):
            return {}
        keys = np.zeros((len(pts), 1), dtype=np.int64)
        finite = np.ones(len(pts), dtype=bool)
        with np.errstate(all="ignore"):      # a non-finite phi is listed nowhere
            for fam, phi_v in zip(self.families, self._phi_vectors):
                v = phi_v(pts)
                finite &= np.isfinite(v)
                levels = np.asarray(fam.levels)
                top = fam.band_count
                h = np.clip(np.searchsorted(levels, v, side="left"), 1, top)
                near = (np.abs(v[:, None] - levels)
                        <= LEVEL_EPS_FACE * np.maximum(1.0, np.abs(levels)))
                j = np.argmax(near, axis=1)       # the first level in reach
                hit = near.any(axis=1)
                options = np.stack([h, np.where(hit, np.maximum(j, 1), h),
                                    np.where(hit, np.minimum(j + 1, top), h)],
                                   axis=1)
                keys = (keys[:, :, None] * (top + 1)
                        + options[:, None, :]).reshape(len(pts), -1)
        # one (key, row) code per distinct pair, sorted by key, then by row
        rows = np.repeat(np.flatnonzero(finite), keys.shape[1])
        codes = np.unique(keys[finite].ravel() * len(pts) + rows)
        groups, starts = np.unique(codes // len(pts), return_index=True)
        out = {}
        for key, members in zip(groups.tolist(),
                                np.split(codes % len(pts), starts[1:])):
            y = self._y_by_key.get(key)
            if y is not None:
                out[y] = members.tolist()
        return out

    def _cells_at(self, samples, row):
        """The cell ids ``locate`` gives a level sample, or None when it
        refuses the point; each sample is located at most once."""
        located = samples.located
        if row not in located:
            try:
                located[row] = set(self.locate(samples.points[row],
                                               eps_face=LEVEL_EPS_FACE).cells)
            except OutOfDomainError:
                located[row] = None
        return located[row]

    def _gradient_of(self, fam):
        """Gradient of phi compiled for arrays, and its vanishing threshold,
        once per family.

        Points polishing toward a critical point end up with a vanishing
        gradient; they are filtered relative to the family's gradient scale
        over the grid.
        """
        if fam.index not in self._gradient_cache:
            grad_vs = [ex.compile_vector(e)
                       for e in md.gradient(fam.phi, self.box.dim)]
            scale = float(np.sqrt(sum(
                g * g for g in (gv(self._points) for gv in grad_vs))).max())
            self._gradient_cache[fam.index] = (grad_vs,
                                               max(EPS_REG, 1e-4 * scale))
        return self._gradient_cache[fam.index]

    def locate(self, x, eps_face=EPS_FACE):
        return locate(x, self, eps_face=eps_face)

    def cell_at(self, x):
        return self.locate(x).primary

    def uniform_point_in(self, cell_id, rng, max_tries=4096):
        """Rejection-sample an interior point of the cell (bbox proposal).

        Candidate i is ``lo + rng.random(d) * (hi - lo)`` over the i-th of
        consecutive ``rng.random(d)`` draws. The point returned is the first
        candidate that ``locate`` puts in the cell and on no level, and the
        generator is left as after drawing that candidate; after drawing
        ``max_tries`` candidates when there is none, and EmptySliceError is
        raised. A candidate that ``locate`` refuses raises its error.

        The first candidate goes to ``locate``. After it, candidates come in
        blocks of up to ``_DRAW_BLOCK`` rows from one ``rng.random((m, d))``
        call, which fills rows in the order of m calls of ``random(d)``. A
        row is passed over by its band stage (``_band_tuples``) alone when
        it lies on a level, or when its one band tuple is not the cell's.
        The first other row goes to ``locate``: the generator is reset to
        before the block and draws that row again, with the rows before it.
        """
        cell = self.cell(cell_id)
        lo, hi = cell.bbox
        lo = np.asarray(lo)
        span = np.asarray(hi) - lo
        d = len(lo)
        tries = 0
        while tries < max_tries:
            if tries == 0:
                x = lo + rng.random(d) * span
                tries = 1
            else:
                m = min(_DRAW_BLOCK, max_tries - tries)
                saved = rng.bit_generator.state
                rows = (lo + rng.random((m, d)) * span).tolist()
                j = next((j for j, row in enumerate(rows)
                          if not self._rules_out(row, cell.y)), None)
                if j is None:
                    tries += m
                    continue
                rng.bit_generator.state = saved
                x = (lo + rng.random((j + 1, d)) * span)[j]
                tries += j + 1
            res = self.locate(tuple(x))
            if res.primary == cell_id and not res.boundary_families:
                return tuple(float(v) for v in x)
        raise EmptySliceError("could not sample an interior point of %s" % cell_id)

    def _rules_out(self, x, y):
        """True when ``locate`` would put x in no cell of band tuple y or on
        a level, by the band stage alone; False when it may do neither or
        refuses x."""
        try:
            ys, boundary_families = _band_tuples(x, self)
        except OutOfDomainError:
            return False
        return bool(boundary_families) or ys[0] != y

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


def _level_edges(cell_index, ys):
    """Grid edges whose end cells' band tuples differ by one in one family.

    ``cell_index`` holds each grid point's cell and ``ys`` each cell's band
    tuple as a row. Returns the flat grid indices of both ends of every such
    edge, lower end first, as an (E, 2) array in axis order and in
    ``np.argwhere`` order within an axis; and the number of the other edges
    between different cells (corner edges), which are skipped.
    """
    flat = cell_index.ravel()
    grid, n = cell_index.shape[0], cell_index.ndim
    edges = []
    for d in range(n):
        diff = (cell_index.take(range(grid - 1), axis=d)
                != cell_index.take(range(1, grid), axis=d))
        lower = np.ravel_multi_index(np.argwhere(diff).T, cell_index.shape)
        edges.append(np.stack([lower, lower + grid ** (n - 1 - d)], axis=1))
    edges = np.concatenate(edges)
    keep = np.abs(ys[flat[edges[:, 1]]] - ys[flat[edges[:, 0]]]).sum(axis=1) == 1
    return edges[keep], int(len(keep) - keep.sum())


def _band_keys(families, pts, shape):
    """Band labels of the grid points ``pts``, reshaped to ``shape``.

    Returns phi per family, its band labels, each point's band tuple as
    one mixed-radix key (digit base: band count + 2), and each family's
    digit weight in that key.
    """
    phi_vals, labels, weights = [], [], []
    key = np.zeros(shape, dtype=np.int64)
    mult = 1
    for fam in families:
        vals = ex.compile_vector(fam.phi)(pts)
        lab = _band_labels(fam.levels, vals).reshape(shape)
        phi_vals.append(vals)
        labels.append(lab)
        weights.append(mult)
        key += lab.astype(np.int64) * mult
        mult *= fam.band_count + 2
    return phi_vals, labels, key, weights


def _build_raw(families, box, grid):
    """Label grid and flood-fill components.

    Returns the grid points, phi per family on them, each point's cell
    index, and the cells as (y, z, flat grid indices) ordered by band tuple,
    then by first grid index.
    """
    n = box.dim
    shape = (grid,) * n
    pts = box.grid(grid)
    phi_vals, labels, key, _ = _band_keys(families, pts, shape)

    structure = ndimage.generate_binary_structure(n, 1)
    cell_index = -np.ones(shape, dtype=np.int64)
    cells_meta = []   # (y, flat grid indices of one component)
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

    return pts, phi_vals, cell_index, ordered


def _component_counts(families, box, grid, ys):
    """Number of components per band tuple on the grid of ``grid`` points
    per axis, in band-tuple order; a tuple no grid point holds is left out.

    Only counts are kept: each tuple of ``ys`` has its mask labelled, and a
    band tuple outside ``ys`` is looked for only when some grid point lies
    outside all their masks.
    """
    n = box.dim
    shape = (grid,) * n
    _, labels, key, weights = _band_keys(families, box.grid(grid), shape)
    structure = ndimage.generate_binary_structure(n, 1)
    codes = [sum(h * w for h, w in zip(y, weights)) for y in ys]
    counts = {}
    covered = 0
    for y, code in zip(ys, codes):
        mask = key == code
        ncomp = ndimage.label(mask, structure=structure)[1]
        if ncomp:
            counts[y] = ncomp
            covered += np.count_nonzero(mask)
    if covered < key.size:
        flat = key.ravel()
        for k in np.unique(flat[~np.isin(flat, codes)]).tolist():
            first = int(np.argmax(flat == k))
            y = tuple(int(lab.ravel()[first]) for lab in labels)
            counts[y] = ndimage.label(key == k, structure=structure)[1]
        counts = dict(sorted(counts.items()))
    return counts


def _cell_boxes(families, pts, phi_vals, ordered, ys, extra_pts):
    """Representative point and bounding box of every cell of ``ordered``.

    A cell's representative is its grid point of largest band margin
    (the smaller distance of phi to either level of its band, the least
    over the families), the first in flat order among equals and the first
    NaN margin if any, as ``np.argmax`` picks. Its box spans its grid
    points and the facet points ``extra_pts`` lists under its index. The
    margins come from one pass over the grid, and the per-cell maxima and
    extents from ``reduceat`` over the points in cell order.
    """
    flat = np.concatenate([f for _, _, f in ordered])
    sizes = np.array([len(f) for _, _, f in ordered])
    starts = np.cumsum(sizes) - sizes
    home = np.repeat(np.arange(len(ordered)), sizes)
    margin = np.full(len(flat), np.inf)
    for pos, (fam, vals) in enumerate(zip(families, phi_vals)):
        levels = np.asarray(fam.levels)
        h = ys[home, pos]
        v = vals[flat]
        margin = np.minimum(margin, np.minimum(v - levels[h - 1],
                                               levels[h] - v))
    top = np.repeat(np.maximum.reduceat(margin, starts), sizes)
    hits = np.flatnonzero((margin == top) | (np.isnan(margin) & np.isnan(top)))
    reps = pts[flat[hits[np.searchsorted(hits, starts)]]]
    cpts = pts[flat]
    lows = np.minimum.reduceat(cpts, starts, axis=0)
    highs = np.maximum.reduceat(cpts, starts, axis=0)
    for i, extra in extra_pts.items():
        extra = np.array(extra)
        lows[i] = np.minimum(lows[i], extra.min(axis=0))
        highs[i] = np.maximum(highs[i], extra.max(axis=0))
    return reps.tolist(), lows.tolist(), highs.tolist()


def build_cells(families, box: Box, grid=DEFAULT_GRID, stability_check=True):
    """Rasterize, flood-fill cells, and record level-surface adjacency.

    Up to ``MAX_FACET_POINTS`` grid edges of each adjacent cell pair are
    picked evenly in scan order, and each family's picked edges are
    bisected onto their levels in one call of the kernel
    ``expr.compile_bisect`` generates for its phi (``expr._BISECT_ITERS``
    halvings at most); the facet points are that kernel's, bit for bit
    those of a bisection loop over whole arrays of the compiled vector phi.
    Each cell's representative point and bounding box come from one pass
    over the grid (``_cell_boxes``).

    With ``stability_check`` the band tuples are labelled again at doubled
    resolution (2*grid - 1 points per axis keeps the original points), and
    a ResolutionError is raised when any extended cell's component count
    changes. The doubled grid's components are only counted
    (``_component_counts``); no cells are built from them.
    """
    families = list(families)
    pts, phi_vals, cell_index, ordered = _build_raw(families, box, grid)

    if stability_check:
        fine = 2 * grid - 1
        counts = {}
        for y, _, _ in ordered:
            counts[y] = counts.get(y, 0) + 1
        counts_fine = _component_counts(families, box, fine, list(counts))
        if counts != counts_fine:
            changed = sorted(y for y in counts.keys() | counts_fine.keys()
                             if counts.get(y) != counts_fine.get(y))
            raise ResolutionError(
                "component counts changed between grid %d and %d: %s vs %s; "
                "the grid does not resolve band tuple(s) %s: raise "
                "grid.points_per_dim above %d"
                % (grid, fine, counts, counts_fine,
                   ", ".join(map(str, changed)), grid))

    # adjacency from orthogonal grid edges crossing exactly one level, per
    # cell pair in pair order; the sort is stable, so each pair's edges stay
    # in scan order, from which MAX_FACET_POINTS are picked evenly
    ys = np.array([y for y, _, _ in ordered], dtype=np.int64)
    edges, skipped = _level_edges(cell_index, ys)
    pair = np.sort(cell_index.ravel()[edges], axis=1)
    order = np.lexsort((pair[:, 1], pair[:, 0]))
    starts = np.flatnonzero(
        np.diff(pair[order], axis=0, prepend=-1).any(axis=1))
    pairs = []      # (ia, ib, family position, level, lower index, count, picked)
    for start, count in zip(starts.tolist(),
                            np.diff(starts, append=len(order)).tolist()):
        ia, ib = pair[order[start]].tolist()
        ya, yb = ordered[ia][0], ordered[ib][0]
        fam_pos = next(i for i in range(len(ya)) if ya[i] != yb[i])
        level = families[fam_pos].levels[max(ya[fam_pos], yb[fam_pos]) - 1]
        lower_idx = ia if yb[fam_pos] > ya[fam_pos] else ib
        picked = order[start + np.linspace(
            0, count - 1, num=min(MAX_FACET_POINTS, count), dtype=int)]
        pairs.append((ia, ib, fam_pos, level, lower_idx, count, picked))

    # the picked edges of each family are bisected in one batch
    facets = {}
    for fam_pos, fam in enumerate(families):
        mine = [(ia, ib, level, picked)
                for ia, ib, pos, level, _, _, picked in pairs if pos == fam_pos]
        if not mine:
            continue
        ends = edges[np.concatenate([picked for *_, picked in mine])]
        found = ex.compile_bisect(fam.phi, box.dim)(
            pts[ends[:, 0]], pts[ends[:, 1]],
            np.repeat([level for _, _, level, _ in mine],
                      [len(picked) for *_, picked in mine]))
        found = map(tuple, found.tolist())
        for ia, ib, _, picked in mine:
            facets[ia, ib] = tuple(itertools.islice(found, len(picked)))

    adjacency = [
        Adjacency(a=_cell_id(*ordered[ia][:2]), b=_cell_id(*ordered[ib][:2]),
                  family=families[fam_pos].index, level=float(level),
                  lower=_cell_id(*ordered[lower_idx][:2]),
                  facet_points=facets[ia, ib], edge_count=count)
        for ia, ib, fam_pos, level, lower_idx, count, _ in pairs]

    # facet points sharpen the per-cell bounding boxes up to the true levels
    extra_pts = {}
    for ia, ib, *_ in pairs:
        for i in (ia, ib):
            extra_pts.setdefault(i, []).extend(facets[ia, ib])
    reps, lows, highs = _cell_boxes(families, pts, phi_vals, ordered, ys,
                                    extra_pts)
    cells = [Cell(id=_cell_id(y, z), y=y, z=z, rep_point=tuple(rep),
                  bbox=(tuple(lo), tuple(hi)), npoints=len(flat_idx))
             for (y, z, flat_idx), rep, lo, hi
             in zip(ordered, reps, lows, highs)]

    diagnostics = {"skipped_corner_edges": skipped}
    return CellComplex(families, box, grid, cells, adjacency, diagnostics,
                       cell_index.ravel())


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


def _band_options(v, levels, band_count, eps_face):
    """Sorted 1-based bands that may hold a point whose phi value is v.

    The band comes from bisection of v on the levels, clipped to
    1..band_count at both ends of the stack (a value on a level goes to the
    band below it). When v lies within ``eps_face * max(1, |a|)`` of a level
    a (the first such level), the bands on both sides of a, clipped the
    same way, are options too.

    No level is within reach when the two levels beside v are farther than
    the widest reach of the stack: a rounded difference only grows with the
    distance between the values, so every other level is farther still.
    """
    i = bisect_left(levels, v)
    h = min(max(i, 1), band_count)
    reach = eps_face * max(1.0, abs(levels[0]), abs(levels[-1]))
    if ((i == 0 or v - levels[i - 1] > reach)
            and (i == len(levels) or levels[i] - v > reach)):
        return [h]
    for j, a in enumerate(levels):
        if abs(v - a) <= eps_face * max(1.0, abs(a)):
            # bands j (below a) and j + 1 (above a), clipped like h
            return sorted({h, max(j, 1), min(j + 1, band_count)})
    return [h]


def _band_tuples(x, complex: CellComplex, eps_face=EPS_FACE):
    """The band stage of ``locate``: the band tuples with cells that may
    hold x, in ``itertools.product`` order of the per-family
    ``_band_options``, and the sorted indices of the families that allow
    two bands (x lies on one of their levels).

    Raises OutOfDomainError when x lies outside the box, when some phi(x)
    is not finite, or when no cell has a matching band tuple.
    """
    if not complex.box.contains(x, tol=1e-12):
        raise OutOfDomainError("point %s outside the domain box"
                               % format_point(x))

    xt = tuple(x)
    band_options = []
    boundary_families = []
    for index, phi, levels, band_count in complex._family_lookup:
        v = phi(xt)
        if not math.isfinite(v):
            raise OutOfDomainError("phi of family %d is %r at %s"
                                   % (index, v, format_point(xt)))
        options = _band_options(v, levels, band_count, eps_face)
        if len(options) > 1:
            boundary_families.append(index)
        band_options.append(options)

    ys = [y for y in itertools.product(*band_options)
          if y in complex._cells_by_y]
    if not ys:
        raise OutOfDomainError("no cell found for point %s"
                               % format_point(xt))
    return ys, tuple(sorted(set(boundary_families)))


def locate(x, complex: CellComplex, eps_face=EPS_FACE):
    """Cell(s) containing x; points within eps_face of a level get both sides.

    Per family, ``_band_options`` gives the bands phi(x) allows, and a
    family with two is listed in ``boundary_families``. Within each band
    tuple of options that has cells, the candidate is the component whose
    grid points lie nearest to x in Euclidean distance. ``cells`` holds the
    candidates' ids, sorted; ``primary`` is the nearest candidate, ties
    going to the smaller id. Distances are computed only when more than one
    cell can hold x.

    Raises OutOfDomainError as ``_band_tuples`` does.
    """
    ys, boundary_families = _band_tuples(x, complex, eps_face)
    groups = [complex._cells_by_y[y] for y in ys]
    if len(groups) == 1 and len(groups[0]) == 1:
        cid = groups[0][0][0]
        return LocateResult(primary=cid, cells=(cid,),
                            boundary_families=boundary_families)

    xf = [float(v) for v in x]
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
