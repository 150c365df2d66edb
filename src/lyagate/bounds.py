"""Extremal Lie-derivative magnitudes per (slice, control) and dwell-time bounds.

For an admissible control the magnitude |phidot| is bounded away from zero
on a slice unless the slice contains an equilibrium. The minimum and maximum
over the slice give the slowest and fastest possible progress through the
band, hence an upper and lower bound on the dwell time:

    t_lo = (band width) / sup |phidot|      (guard: exit no earlier)
    t_hi = (band width) / inf |phidot|      (invariant: exit no later)

Extrema come from a grid scan of the closed band (``band_mask``) refined by
coordinate-wise golden-section search inside the slice, then rounded outward
by 0.1% so that sampling error cannot make the stored extrema tighter than
the true ones. ``compute_bounds`` evaluates phi once per family and
|phidot| once per (family, control) on the bounds grid, and takes each
slice's masked argmin and argmax from those arrays. Each is refined by the
kernel ``expr.compile_refine`` generates per (phi, phidot), which tests the
raw band ``lo <= phi <= hi``; its results are bit for bit those of the
golden-section loop over compiled-scalar closures that it replaced (the
reference in ``tests/conftest.py``). The caller passes each control's
equilibria, found once per build; one inside the band clamps inf to 0.
inf = 0 encodes "no invariant"; t_hi is then the explicit infinity, never a
large float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import model as md
from .errors import EmptySliceError
from .partition import Slice

ROUND_OUT = 1e-3          # multiplicative outward safety margin on extrema
_GOLDEN_ITERS = 60
_REFINE_ITERS = 3         # coordinate sweeps of golden-section refinement


@dataclass(frozen=True)
class ExtremalDerivatives:
    family: int
    slice_index: int
    control: str
    inf_abs: float
    sup_abs: float
    argmin: tuple
    argmax: tuple

    def __post_init__(self):
        if not (0.0 <= self.inf_abs <= self.sup_abs):
            raise ValueError("need 0 <= inf_abs <= sup_abs")
        if self.sup_abs <= 0.0:
            raise ValueError("sup_abs must be positive for an admissible control")


@dataclass(frozen=True)
class TimingBounds:
    family: int
    slice_index: int
    control: str
    t_lo: float
    t_hi: float          # math.inf when no invariant applies
    delta_a: float


def _band_rows(slc, fam, phis):
    """Grid rows of slice ``slc`` by ``band_mask``, from phi on the grid."""
    rows = np.flatnonzero(fam.band_mask(slc.index, phis))
    if not len(rows):
        raise EmptySliceError("slice %d of family %d has no grid samples"
                              % (slc.index, slc.family))
    return rows


def _abs_lie(sys, g, fam, pts):
    """The expression phidot_g and |phidot_g| on the grid points ``pts``."""
    phid = md.lie_derivative(sys, g, fam)
    return phid, np.abs(ex.compile_vector(phid)(pts))


def _extremal(slc, g, fam, sys, grid, pts, rows, phid, absd, equilibria):
    """One (slice, control) entry from the shared grid scan: the masked
    argmin and argmax of ``absd`` over ``rows``, each refined by the
    generated golden-section kernel inside the raw band."""
    vals = absd[rows]
    refine = ex.compile_refine(fam.phi, phid, sys.n)
    box = tuple(zip(sys.domain.lower, sys.domain.upper))
    spacing = tuple((b - a) / (grid - 1) for a, b in box)
    band = (slc.lo, slc.hi)
    x_min, v_min = refine(pts[rows[int(np.argmin(vals))]].tolist(), False,
                          box, spacing, band, _REFINE_ITERS, _GOLDEN_ITERS)
    x_max, v_max = refine(pts[rows[int(np.argmax(vals))]].tolist(), True,
                          box, spacing, band, _REFINE_ITERS, _GOLDEN_ITERS)
    raw_inf = min(float(vals.min()), v_min)
    raw_sup = max(float(vals.max()), v_max)

    phi_s = ex.compile_scalar(fam.phi)
    for p in equilibria:
        if (fam.band_mask(slc.index, phi_s(tuple(p)))
                and sys.domain.contains(p, tol=1e-9)):
            raw_inf = 0.0
            x_min = tuple(p)
            break

    inf_abs = raw_inf * (1.0 - ROUND_OUT)
    sup_abs = raw_sup * (1.0 + ROUND_OUT)
    return ExtremalDerivatives(
        family=slc.family, slice_index=slc.index, control=g.name,
        inf_abs=float(inf_abs), sup_abs=float(sup_abs),
        argmin=tuple(float(v) for v in x_min),
        argmax=tuple(float(v) for v in x_max))


def extremal_lie_derivative(slc: Slice, g, fam, sys, grid=64, *, equilibria):
    """Grid scan of |phidot_g| over slice ∩ X plus golden-section refinement:
    the one-slice case of ``compute_bounds``.

    The infimum is clamped to zero when one of ``equilibria`` (the
    ``critical_points`` of g) lies inside the slice band. Final values are
    rounded outward by 0.1%.
    """
    pts = sys.domain.grid(grid)
    rows = _band_rows(slc, fam, ex.compile_vector(fam.phi)(pts))
    phid, absd = _abs_lie(sys, g, fam, pts)
    return _extremal(slc, g, fam, sys, grid, pts, rows, phid, absd,
                     equilibria)


def timing_bounds(ext: ExtremalDerivatives, delta_a):
    """Dwell-time window of a slice: t_lo = da/sup, t_hi = da/inf (inf -> +infinity)."""
    delta_a = abs(float(delta_a))
    if delta_a == 0.0:
        return TimingBounds(ext.family, ext.slice_index, ext.control,
                            t_lo=0.0, t_hi=0.0, delta_a=0.0)
    t_lo = delta_a / ext.sup_abs
    t_hi = math.inf if ext.inf_abs == 0.0 else delta_a / ext.inf_abs
    return TimingBounds(ext.family, ext.slice_index, ext.control,
                        t_lo=float(t_lo), t_hi=t_hi, delta_a=delta_a)


class BoundsTable:
    """Timing bounds and extrema keyed by (family, slice index, control name)."""

    def __init__(self):
        self.extremals = {}
        self.timings = {}

    def add(self, ext: ExtremalDerivatives, tb: TimingBounds):
        key = (ext.family, ext.slice_index, ext.control)
        self.extremals[key] = ext
        self.timings[key] = tb

    def timing(self, family, slice_index, control):
        return self.timings[(family, slice_index, control)]

    def rates(self, family, slice_index, control):
        e = self.extremals[(family, slice_index, control)]
        return e.inf_abs, e.sup_abs

    def with_override(self, family, slice_index, control, t_lo=None, t_hi=None):
        """Copy with one timing entry replaced (negative-control experiments)."""
        out = BoundsTable()
        out.extremals = dict(self.extremals)
        out.timings = dict(self.timings)
        key = (family, slice_index, control)
        tb = out.timings[key]
        out.timings[key] = TimingBounds(
            tb.family, tb.slice_index, tb.control,
            t_lo=tb.t_lo if t_lo is None else float(t_lo),
            t_hi=tb.t_hi if t_hi is None else float(t_hi),
            delta_a=tb.delta_a)
        return out

    def to_dict(self):
        def enc(v):
            return "inf" if v == math.inf else v

        out = {}
        for (fam, h, ctrl), tb in sorted(self.timings.items()):
            ext = self.extremals[(fam, h, ctrl)]
            out["f%d.s%d.%s" % (fam, h, ctrl)] = {
                "family": fam, "slice": h, "control": ctrl,
                "t_lo": enc(tb.t_lo), "t_hi": enc(tb.t_hi),
                "delta_a": tb.delta_a,
                "inf_abs": ext.inf_abs, "sup_abs": ext.sup_abs,
            }
        return out


def compute_bounds(sys, controls, families, slices_by_family, grid=64, *,
                   equilibria):
    """Fill a BoundsTable for every (slice, control) pair.

    ``slices_by_family`` maps family index -> list of Slice from build_slices,
    and ``equilibria`` control name -> its ``critical_points``.
    """
    table = BoundsTable()
    pts = sys.domain.grid(grid)
    for fam in families:
        phis = ex.compile_vector(fam.phi)(pts)
        lies = [(g, *_abs_lie(sys, g, fam, pts)) for g in controls]
        for slc in slices_by_family[fam.index]:
            rows = _band_rows(slc, fam, phis)
            for g, phid, absd in lies:
                ext = _extremal(slc, g, fam, sys, grid, pts, rows, phid, absd,
                                equilibria[g.name])
                table.add(ext, timing_bounds(ext, slc.width))
    return table
