"""Extremal Lie-derivative magnitudes per (slice, control) and dwell-time bounds.

For an admissible control the magnitude |phidot| is bounded away from zero
on a slice unless the slice contains an equilibrium. The minimum and maximum
over the slice give the slowest and fastest possible progress through the
band, hence an upper and lower bound on the dwell time:

    t_lo = (band width) / sup |phidot|      (guard: exit no earlier)
    t_hi = (band width) / inf |phidot|      (invariant: exit no later)

Extrema come from a grid scan refined by coordinate-wise golden-section
search inside the slice, then rounded outward by 0.1% so that sampling error
cannot make the stored extrema tighter than the true ones. inf = 0 encodes
"no invariant"; t_hi is then the explicit infinity, never a large float.
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
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _golden_min(fun, lo, hi, iters=_GOLDEN_ITERS):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def extremal_lie_derivative(slc: Slice, g, fam, sys, grid=64, crit=None):
    """Grid scan of |phidot_g| over slice ∩ X plus golden-section refinement.

    The infimum is clamped to zero when an equilibrium of the closed loop
    lies inside the slice band. Final values are rounded outward by 0.1%.
    """
    ld = md.lie_derivative(sys, g, fam)
    phid_v = ld.vector_function()
    phid_s = ld.function()
    phi_s = ex.compile_scalar(fam.phi)
    phi_v = ex.compile_vector(fam.phi)

    pts = sys.domain.grid(grid)
    phis = phi_v(pts)
    tol = 1e-12 * max(1.0, abs(slc.lo), abs(slc.hi))
    mask = (phis >= slc.lo - tol) & (phis <= slc.hi + tol)
    if not mask.any():
        raise EmptySliceError("slice %d of family %d has no grid samples"
                              % (slc.index, slc.family))
    sample_pts = pts[mask]
    vals = np.abs(phid_v(sample_pts))

    lo_b = sys.domain.lower
    hi_b = sys.domain.upper
    spacing = [(b - a) / (grid - 1) for a, b in zip(lo_b, hi_b)]

    # Refinement runs on lists of floats. A candidate y differs from the
    # current point, which lies in the box, only in coordinate d.
    def feasible(y, d):
        return lo_b[d] <= y[d] <= hi_b[d] and slc.lo <= phi_s(y) <= slc.hi

    def refine(x0, maximize):
        x = [float(v) for v in x0]
        for _ in range(_REFINE_ITERS):
            for d in range(sys.n):
                a = max(lo_b[d], x[d] - spacing[d])
                b = min(hi_b[d], x[d] + spacing[d])

                def along(t, d=d):
                    y = x.copy()
                    y[d] = t
                    if not feasible(y, d):
                        return math.inf
                    v = abs(phid_s(y))
                    return -v if maximize else v

                t_best, _ = _golden_min(along, a, b)
                y = x.copy()
                y[d] = t_best
                if feasible(y, d):
                    x = y
        return np.array(x)

    x_min = refine(sample_pts[int(np.argmin(vals))], maximize=False)
    x_max = refine(sample_pts[int(np.argmax(vals))], maximize=True)
    raw_inf = min(float(vals.min()), abs(phid_s(tuple(x_min))))
    raw_sup = max(float(vals.max()), abs(phid_s(tuple(x_max))))

    if crit is None:
        crit = md.critical_points(sys, g, grid=min(grid, 64))
    for p in crit:
        v = phi_s(tuple(p))
        if slc.lo - tol <= v <= slc.hi + tol and sys.domain.contains(p, tol=1e-9):
            raw_inf = 0.0
            x_min = tuple(p)
            break

    inf_abs = raw_inf * (1.0 - ROUND_OUT)
    sup_abs = raw_sup * (1.0 + ROUND_OUT)
    return ExtremalDerivatives(
        family=slc.family, slice_index=slc.index, control=g.name,
        inf_abs=float(inf_abs), sup_abs=float(sup_abs),
        argmin=tuple(float(v) for v in np.atleast_1d(x_min)),
        argmax=tuple(float(v) for v in np.atleast_1d(x_max)))


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

    def t_lo(self, family, slice_index, control):
        return self.timings[(family, slice_index, control)].t_lo

    def t_hi(self, family, slice_index, control):
        return self.timings[(family, slice_index, control)].t_hi

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


def compute_bounds(sys, controls, families, slices_by_family, grid=64):
    """Fill a BoundsTable for every (slice, control) pair.

    ``slices_by_family`` maps family index -> list of Slice from build_slices.
    """
    table = BoundsTable()
    crit_cache = {g.name: md.critical_points(sys, g, grid=min(grid, 64))
                  for g in controls}
    for fam in families:
        for slc in slices_by_family[fam.index]:
            for g in controls:
                ext = extremal_lie_derivative(
                    slc, g, fam, sys, grid=grid, crit=crit_cache[g.name])
                table.add(ext, timing_bounds(ext, slc.width))
    return table
