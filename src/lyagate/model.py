"""Control systems, feedback laws, partitioning families, and admissibility.

A control system is dx/dt = f(x, u) on an axis-aligned box X with a finite
set of feedback laws u = g(x). A partitioning family carries a scalar
function phi and a strictly increasing level stack; its bands slice X. A
control is admissible for a family when the Lie derivative of phi along the
closed loop keeps one strict sign on every slice, away from critical points
of the closed-loop field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
import numpy as np

from . import expr as ex
from .errors import (
    AdmissibilityError, DegenerateLevelError, ModelError, UnknownVariableError,
)

EPS_REG = 1e-6        # minimum gradient norm for a level to count as regular
R_CRIT = 1e-3         # exclusion radius around critical points of f_g
CRIT_CANDIDATES = 32  # grid minima of |f_g|^2 polished by Newton
LEVEL_SAMPLES = 256   # grid points polished onto a level by sample_level_set
_NEWTON_ITERS = 30
_CRIT_RESIDUAL = 1e-8


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with finite bounds."""

    lower: tuple
    upper: tuple
    _grids: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or not lo:
            raise ModelError("box bounds must be nonempty and of equal length")
        for a, b in zip(lo, hi):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ModelError("box bounds must be finite with lower < upper")

    @property
    def dim(self):
        return len(self.lower)

    def contains(self, x, tol=0.0):
        return all(lo - tol <= v <= hi + tol
                   for v, lo, hi in zip(x, self.lower, self.upper))

    def axes(self, points_per_dim):
        return [np.linspace(lo, hi, points_per_dim)
                for lo, hi in zip(self.lower, self.upper)]

    def grid(self, points_per_dim):
        """All grid points as an (N, n) array, C-order over the mesh.

        Built once per size and shared by every caller, so it is read-only.
        """
        pts = self._grids.get(points_per_dim)
        if pts is None:
            mesh = np.meshgrid(*self.axes(points_per_dim), indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            pts.flags.writeable = False
            self._grids[points_per_dim] = pts
        return pts

    def sample(self, rng, count):
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return lo + rng.random((count, self.dim)) * (hi - lo)


def _check_vars(e, n, m, where):
    for name in ex.variables(e):
        kind, idx = ex.var_kind_index(name)
        limit = n if kind == "x" else m
        if idx > limit:
            raise UnknownVariableError(name)
        if kind == "u" and m == 0:
            raise ModelError("%s may not reference input variables" % where)


@dataclass(frozen=True)
class ControlSystem:
    """dx/dt = f(x, u) on the box ``domain``."""

    n: int
    m: int
    domain: Box
    f: tuple

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(self.f))
        if self.domain.dim != self.n:
            raise ModelError("domain dimension %d != state dimension %d"
                             % (self.domain.dim, self.n))
        if len(self.f) != self.n:
            raise ModelError("f must have exactly n = %d components" % self.n)
        for comp in self.f:
            _check_vars(comp, self.n, self.m, "dynamics")

    def closed_loop(self, g: "ControlLaw"):
        """Vector field f(x, g(x)) as a tuple of x-only expressions,
        substituted once per (f, control components)."""
        if len(g.components) != self.m:
            raise ModelError("control '%s' has %d components, expected %d"
                             % (g.name, len(g.components), self.m))
        return _closed_loop(self.f, g.components)


@lru_cache(maxsize=None)
def _closed_loop(f, components):
    mapping = {"u%d" % (j + 1): comp for j, comp in enumerate(components)}
    return tuple(ex.substitute(comp, mapping) for comp in f)


@dataclass(frozen=True)
class ControlLaw:
    """Feedback u = g(x); components reference state variables only."""

    name: str
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for comp in self.components:
            for vname in ex.variables(comp):
                if vname.startswith("u"):
                    raise ModelError(
                        "control law '%s' references input variable %s"
                        % (self.name, vname))


@dataclass(frozen=True)
class PartitioningFamily:
    """Scalar function phi with a strictly increasing level stack a_0 < ... < a_k.

    The first level may sit at (or below) the minimum of phi on the domain;
    that floor is the inner edge of the first band and is exempt from the
    regular-value requirement.
    """

    index: int
    phi: ex.Expression
    levels: tuple

    def __post_init__(self):
        lv = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "levels", lv)
        if len(lv) < 2:
            raise ModelError("family %d needs at least two levels" % self.index)
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ModelError("levels of family %d must be strictly increasing"
                             % self.index)
        for vname in ex.variables(self.phi):
            if vname.startswith("u"):
                raise ModelError("partitioning function of family %d references inputs"
                                 % self.index)

    @property
    def band_count(self):
        return len(self.levels) - 1

    def band(self, h):
        """Closed band [a_{h-1}, a_h] for 1-based slice index h."""
        return self.levels[h - 1], self.levels[h]

    @property
    def band_tol(self):
        return 1e-9 * max(1.0, abs(self.levels[0]), abs(self.levels[-1]))

    def band_mask(self, h, vals):
        """Which phi values lie in band h, closed and widened by ``band_tol``:
        the one band-membership rule of slices, admissibility, dwell extrema
        and the default step."""
        lo, hi = self.band(h)
        return (vals >= lo - self.band_tol) & (vals <= hi + self.band_tol)


@lru_cache(maxsize=None)
def gradient(phi, n):
    """(dphi/dx_1, ..., dphi/dx_n), derived once per (phi, n)."""
    return tuple(ex.differentiate(phi, "x%d" % (j + 1)) for j in range(n))


@lru_cache(maxsize=None)
def _lie_derivative(fg, phi):
    total = ex.Const(0.0)
    for dphi, fj in zip(gradient(phi, len(fg)), fg):
        total = ex._add(total, ex._mul(dphi, fj))
    return total


def lie_derivative(sys: ControlSystem, g: ControlLaw, fam: PartitioningFamily):
    """phidot_g = sum_j dphi/dx_j * f_j(x, g(x)) as an x-only expression,
    derived once per (closed loop, phi) and memoized like ``expr.compile_*``."""
    return _lie_derivative(sys.closed_loop(g), fam.phi)


@lru_cache(maxsize=None)
def _jacobian(fg):
    """((dfg_i/dx_j)_j)_i of an x-only field, derived once per field."""
    return tuple(tuple(ex.differentiate(fi, "x%d" % (j + 1))
                       for j in range(len(fg)))
                 for fi in fg)


def critical_points(sys: ControlSystem, g: ControlLaw, grid=64):
    """Equilibria of the closed-loop field inside the domain.

    Grid scan for local minima of |f_g|^2, then damped Newton with the
    symbolic Jacobian from the ``CRIT_CANDIDATES`` smallest; points are kept
    when the residual polishes below 1e-8 and deduplicated within 1e-6.
    """
    fg = sys.closed_loop(g)
    comps = [ex.compile_vector(c) for c in fg]
    pts = sys.domain.grid(grid)
    sq = np.zeros(len(pts))
    for c in comps:
        sq += c(pts) ** 2

    shape = (grid,) * sys.n
    sq_nd = sq.reshape(shape)
    from scipy.ndimage import minimum_filter
    local_min = sq_nd <= minimum_filter(sq_nd, size=3, mode="nearest")
    cand_idx = np.flatnonzero(local_min.ravel())
    cand_idx = cand_idx[np.argsort(sq[cand_idx], kind="stable")][:CRIT_CANDIDATES]

    field_fn = ex.compile_field(fg)
    jac_fns = [[ex.compile_scalar(e) for e in row] for row in _jacobian(fg)]

    def residual(x):
        return math.sqrt(sum(v * v for v in field_fn(tuple(x))))

    found = []
    for ci in cand_idx:
        x = np.array(pts[ci], dtype=float)
        r = residual(x)
        for _ in range(_NEWTON_ITERS):
            if r < _CRIT_RESIDUAL:
                break
            J = np.array([[fn(tuple(x)) for fn in row] for row in jac_fns])
            fv = np.array(field_fn(tuple(x)))
            try:
                step = np.linalg.solve(J, -fv)
            except np.linalg.LinAlgError:
                break
            lam = 1.0
            for _ in range(8):
                xn = x + lam * step
                rn = residual(xn)
                if rn < r:
                    x, r = xn, rn
                    break
                lam *= 0.5
            else:
                break
        if r < _CRIT_RESIDUAL and sys.domain.contains(x, tol=1e-9):
            if all(np.linalg.norm(x - np.asarray(p)) > 1e-6 for p in found):
                found.append(tuple(float(v) for v in x))
    return found


def check_admissibility(sys: ControlSystem, g: ControlLaw, fam: PartitioningFamily,
                        grid=128, *, equilibria):
    """Slice-wise strict sign of phidot_g, excluding R_CRIT-balls around the
    ``equilibria`` of the closed loop (``critical_points`` of g).

    Returns {slice index: +1 | -1}. Raises AdmissibilityError with a pair of
    opposite-sign witness points when any slice mixes signs (or hits an exact
    zero away from the exclusions): the grid points of the slice's largest
    and smallest phidot, or of its smallest and largest |phidot| when the
    slice has no point of one strict sign. Slices are checked in index
    order. This is ``admissibility_map`` for one control and one family.
    """
    signs = admissibility_map(sys, [g], [fam], grid=grid,
                              equilibria={g.name: equilibria})
    return {h: s for (_, h, _), s in signs.items()}


def admissibility_map(sys, controls, families, grid=128, *, equilibria):
    """Signs for every (family, slice, control), given each control's
    ``critical_points`` by name, as ``check_admissibility`` describes them;
    raises on the first violation, checking the families in order, each
    family's controls in order and each control's slices in order.

    phi and its band masks are evaluated once per family, and each
    control's exclusion mask once. The sign tests count the points of the
    boolean masks ``phidot > 0`` and ``phidot < 0`` in each slice; a
    slice's points and values are gathered only when it fails, to pick the
    witnesses."""
    pts = sys.domain.grid(grid)
    keeps = []
    for g in controls:
        keep = np.ones(len(pts), dtype=bool)
        for p in equilibria[g.name]:
            keep &= np.linalg.norm(pts - np.asarray(p), axis=1) > R_CRIT
        keeps.append(keep)
    signs = {}
    for fam in families:
        phi_vals = ex.compile_vector(fam.phi)(pts)
        bands = [fam.band_mask(h, phi_vals)
                 for h in range(1, fam.band_count + 1)]
        for g, keep in zip(controls, keeps):
            vals = ex.compile_vector(lie_derivative(sys, g, fam))(pts)
            pos = vals > 0
            neg = vals < 0
            for h, band in enumerate(bands, start=1):
                mask = band & keep
                count = np.count_nonzero(mask)
                if not count:
                    continue
                if np.count_nonzero(pos & mask) == count:
                    signs[(fam.index, h, g.name)] = 1
                elif np.count_nonzero(neg & mask) == count:
                    signs[(fam.index, h, g.name)] = -1
                else:
                    v = vals[mask]
                    p = pts[mask]
                    if pos[mask].any() and neg[mask].any():
                        ia = int(np.argmax(v))
                        ib = int(np.argmin(v))
                    else:
                        # exact zero away from critical points
                        ia = int(np.argmin(np.abs(v)))
                        ib = int(np.argmax(np.abs(v)))
                    raise AdmissibilityError(fam.index, h, p[ia], float(v[ia]),
                                             p[ib], float(v[ib]))
    return signs


@dataclass
class LevelReport:
    """Minimum gradient norms observed on each checked level set."""

    family: int
    min_grad: dict = field(default_factory=dict)   # level value -> min |grad phi|
    samples: dict = field(default_factory=dict)    # level value -> sample count
    floor_exempt: bool = False

    def to_dict(self):
        return {
            "family": self.family,
            "floor_exempt": self.floor_exempt,
            "levels": {repr(k): {"min_grad": v, "samples": self.samples[k]}
                       for k, v in sorted(self.min_grad.items())},
        }


def _level_points(fam, levels, box, grid, limit, tol):
    """Points on phi = a for each level a, polished from the grid samples
    nearest that level, all levels in one Gauss-Newton kernel call.

    For each level, the ``limit`` grid points whose phi value lies closest
    to it are its candidates; each row carries its own level and scale
    ``max(1, |a|)``. The rows are projected together, clipped to the box,
    by the kernel ``expr.compile_polish`` generates for phi. Every
    operation acts row by row, so a row ends exactly where it would if its
    level were polished alone. A row stops once its residual vanishes or
    its gradient degenerates, once a step leaves its bits unchanged (a
    fixed point, so further steps would too), or after
    ``expr._POLISH_ROUNDS`` (40) steps. The kernel's rows are bit for bit
    those of a loop over whole (N, n) arrays of the compiled vector phi and
    gradient (``expr.compile_polish`` says why, its ``g2`` matmul
    included).
    Rows whose final residual exceeds ``tol`` (relative to the level) are
    dropped. Returns one (k, n) array per entry of ``levels``, its rows in
    candidate order.
    """
    phi_v = ex.compile_vector(fam.phi)
    pts = box.grid(grid)
    vals = phi_v(pts)
    span = float(vals.max() - vals.min())
    picks = []
    for a in levels:
        near = np.abs(vals - a)
        cand = np.flatnonzero(near <= 4.0 * span / grid + 1e-12)
        picks.append(cand[np.argsort(near[cand], kind="stable")][:limit])
    counts = [len(c) for c in picks]
    x = pts[np.concatenate(picks)]
    level = np.repeat(np.asarray(levels, dtype=float), counts)
    scale = np.maximum(1.0, np.abs(level))
    ex.compile_polish(fam.phi, box.dim)(x, level, scale,
                                        tuple(zip(box.lower, box.upper)))
    keep = np.abs(phi_v(x) - level) <= tol * scale
    cuts = np.cumsum(counts)[:-1]
    return [block[ok] for block, ok in zip(np.split(x, cuts),
                                           np.split(keep, cuts))]


def _distinct_rows(a):
    """Number of distinct rows of a nonempty 2-D float array without NaN,
    rows compared with float ``!=`` as ``np.unique(a, axis=0)`` does: one
    lexicographic sort, then a count of the rows that differ from the row
    before them."""
    s = a[np.lexsort(a.T)]
    return 1 + int(np.count_nonzero((s[1:] != s[:-1]).any(axis=1)))


def validate_levels(fam: PartitioningFamily, box: Box, grid=128):
    """Check that level sets inside the box are regular (|grad phi| >= EPS_REG).

    The floor level a_0 is exempt when it lies at or below the sampled minimum
    of phi on the box: there the first band has no inner boundary to cross.
    All checked levels are polished in one ``_level_points`` call; a level's
    ``samples`` counts its distinct polished points.
    Raises DegenerateLevelError naming the level and a witness point otherwise.
    """
    phi_v = ex.compile_vector(fam.phi)
    grad_vs = [ex.compile_vector(e) for e in gradient(fam.phi, box.dim)]
    vals = phi_v(box.grid(grid))
    tiny = 1e-9 * max(1.0, abs(vals.min()), abs(vals.max()))

    report = LevelReport(family=fam.index)
    report.floor_exempt = bool(fam.levels[0] <= vals.min() + tiny)
    to_check = list(fam.levels[1:])
    if not report.floor_exempt:
        to_check.insert(0, fam.levels[0])

    for a, kept in zip(to_check, _level_points(fam, to_check, box, grid,
                                                limit=512, tol=1e-7)):
        if not len(kept):
            report.min_grad[a] = math.inf
            report.samples[a] = 0
            continue
        gnorm = np.sqrt(sum(gv(kept) ** 2 for gv in grad_vs))
        imin = int(np.argmin(gnorm))
        report.min_grad[a] = float(gnorm[imin])
        report.samples[a] = _distinct_rows(kept)
        if gnorm[imin] < EPS_REG:
            raise DegenerateLevelError(fam.index, a, kept[imin], float(gnorm[imin]))
    return report


def sample_level_set(fam, levels, box, grid=128):
    """Points on phi = a inside the box for each level a of ``levels``, each
    polished from the ``LEVEL_SAMPLES`` nearest grid points, all in one
    ``_level_points`` call; one list of point tuples (may be empty) per
    level."""
    return [[tuple(p) for p in block.tolist()] for block in
            _level_points(fam, levels, box, grid, LEVEL_SAMPLES, tol=1e-9)]
