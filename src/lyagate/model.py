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
import numpy as np

from . import expr as ex
from .errors import (
    AdmissibilityError, DegenerateLevelError, ModelError, UnknownVariableError,
)

EPS_REG = 1e-6        # minimum gradient norm for a level to count as regular
R_CRIT = 1e-3         # exclusion radius around critical points of f_g
_NEWTON_ITERS = 30
_CRIT_RESIDUAL = 1e-8


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with finite bounds."""

    lower: tuple
    upper: tuple

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
        """All grid points as an (N, n) array, C-order over the mesh."""
        mesh = np.meshgrid(*self.axes(points_per_dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

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
        """Vector field f(x, g(x)) as a tuple of x-only expressions."""
        if len(g.components) != self.m:
            raise ModelError("control '%s' has %d components, expected %d"
                             % (g.name, len(g.components), self.m))
        mapping = {"u%d" % (j + 1): comp for j, comp in enumerate(g.components)}
        return tuple(ex.substitute(comp, mapping) for comp in self.f)


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

    def gradient(self, n):
        return tuple(ex.differentiate(self.phi, "x%d" % (j + 1)) for j in range(n))


@dataclass(frozen=True)
class LieDerivative:
    """d/dt phi(x(t)) along the closed loop, as an x-only expression."""

    control: str
    family: int
    expression: ex.Expression

    def __post_init__(self):
        for vname in ex.variables(self.expression):
            if vname.startswith("u"):
                raise ModelError("Lie derivative still references input %s" % vname)

    def function(self):
        return ex.compile_scalar(self.expression)

    def vector_function(self):
        return ex.compile_vector(self.expression)


@dataclass
class SignTable:
    """Per-slice sign of the Lie derivative for one (family, control) pair."""

    family: int
    control: str
    signs: dict = field(default_factory=dict)       # slice index -> +1 | -1


def lie_derivative(sys: ControlSystem, g: ControlLaw, fam: PartitioningFamily):
    """phidot_g = sum_j dphi/dx_j * f_j(x, g(x)), fully closed over x."""
    fg = sys.closed_loop(g)
    total = ex.Const(0.0)
    for j in range(sys.n):
        dphi = ex.differentiate(fam.phi, "x%d" % (j + 1))
        total = ex._add(total, ex._mul(dphi, fg[j]))
    return LieDerivative(control=g.name, family=fam.index, expression=total)


def critical_points(sys: ControlSystem, g: ControlLaw, grid=64, max_candidates=32):
    """Equilibria of the closed-loop field inside the domain.

    Grid scan for local minima of |f_g|^2, then damped Newton with the
    symbolic Jacobian; points are kept when the residual polishes below
    1e-8 and deduplicated within 1e-6.
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
    cand_idx = cand_idx[np.argsort(sq[cand_idx], kind="stable")][:max_candidates]

    field_fn = ex.compile_field(fg)
    jac_exprs = tuple(tuple(ex.differentiate(fi, "x%d" % (j + 1)) for j in range(sys.n))
                      for fi in fg)
    jac_fns = [[ex.compile_scalar(e) for e in row] for row in jac_exprs]

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


def _band_masks(fam, phi_vals):
    """Masks of grid points per 1-based band index (closed bands)."""
    masks = {}
    for h in range(1, fam.band_count + 1):
        lo, hi = fam.band(h)
        masks[h] = (phi_vals >= lo) & (phi_vals <= hi)
    return masks


def check_admissibility(sys: ControlSystem, g: ControlLaw, fam: PartitioningFamily,
                        grid=128, r_crit=R_CRIT, crit=None):
    """Slice-wise strict sign of phidot_g, excluding r_crit-balls around equilibria.

    Raises AdmissibilityError with a pair of opposite-sign witness points when
    any slice mixes signs (or hits an exact zero away from the exclusions).
    """
    ld = lie_derivative(sys, g, fam)
    phid = ld.vector_function()
    phi_v = ex.compile_vector(fam.phi)
    pts = sys.domain.grid(grid)
    phi_vals = phi_v(pts)
    vals = phid(pts)
    if crit is None:
        crit = critical_points(sys, g, grid=min(grid, 64))

    keep = np.ones(len(pts), dtype=bool)
    for p in crit:
        keep &= np.linalg.norm(pts - np.asarray(p), axis=1) > r_crit

    table = SignTable(family=fam.index, control=g.name)
    for h, band_mask in _band_masks(fam, phi_vals).items():
        mask = band_mask & keep
        if not mask.any():
            continue
        v = vals[mask]
        p = pts[mask]
        pos = v > 0
        neg = v < 0
        if pos.all():
            table.signs[h] = 1
        elif neg.all():
            table.signs[h] = -1
        else:
            if pos.any() and neg.any():
                ia = int(np.argmax(v))
                ib = int(np.argmin(v))
            else:
                # exact zero away from critical points
                ia = int(np.argmin(np.abs(v)))
                ib = int(np.argmax(np.abs(v)))
            raise AdmissibilityError(fam.index, h, p[ia], float(v[ia]),
                                     p[ib], float(v[ib]))
    return table


def admissibility_map(sys, controls, families, grid=128):
    """Signs for every (family, slice, control); raises on the first violation."""
    signs = {}
    tables = []
    for fam in families:
        for g in controls:
            t = check_admissibility(sys, g, fam, grid=grid)
            tables.append(t)
            for h, s in t.signs.items():
                signs[(fam.index, h, g.name)] = s
    return signs, tables


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


def _level_points(fam, level, box, grid, limit, tol):
    """Points on phi = level, polished from the grid samples nearest the level.

    The ``limit`` grid points whose phi value lies closest to the level are
    projected together by Gauss-Newton, clipped to the box. A row stops once
    its residual vanishes or its gradient degenerates, or after 40 steps.
    Rows whose final residual exceeds ``tol`` (relative to the level) are
    dropped; the rest come back in candidate order as a (k, n) array.
    """
    phi_v = ex.compile_vector(fam.phi)
    grad_vs = [ex.compile_vector(e) for e in fam.gradient(box.dim)]
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
        # row-wise BLAS dot: each row rounds exactly as ``g @ g`` would alone
        g2 = (grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
        go = (np.abs(r) >= 1e-14 * scale) & (g2 >= 1e-30)
        rows = rows[go]
        x[rows] = np.clip(xr[go] - r[go, None] * grad[go] / g2[go, None], lo, hi)
    return x[np.abs(phi_v(x) - level) <= tol * scale]


def validate_levels(fam: PartitioningFamily, box: Box, grid=128, eps_reg=EPS_REG):
    """Check that level sets inside the box are regular (|grad phi| >= eps_reg).

    The floor level a_0 is exempt when it lies at or below the sampled minimum
    of phi on the box: there the first band has no inner boundary to cross.
    Raises DegenerateLevelError naming the level and a witness point otherwise.
    """
    phi_v = ex.compile_vector(fam.phi)
    grad_vs = [ex.compile_vector(e) for e in fam.gradient(box.dim)]
    vals = phi_v(box.grid(grid))
    tiny = 1e-9 * max(1.0, abs(vals.min()), abs(vals.max()))

    report = LevelReport(family=fam.index)
    report.floor_exempt = bool(fam.levels[0] <= vals.min() + tiny)
    to_check = list(fam.levels[1:])
    if not report.floor_exempt:
        to_check.insert(0, fam.levels[0])

    for a in to_check:
        kept = _level_points(fam, a, box, grid, limit=512, tol=1e-7)
        if not len(kept):
            report.min_grad[a] = math.inf
            report.samples[a] = 0
            continue
        gnorm = np.sqrt(sum(gv(kept) ** 2 for gv in grad_vs))
        imin = int(np.argmin(gnorm))
        report.min_grad[a] = float(gnorm[imin])
        report.samples[a] = len(kept)
        if gnorm[imin] < eps_reg:
            raise DegenerateLevelError(fam.index, a, kept[imin], float(gnorm[imin]))
    return report


def sample_level_set(fam, level, box, grid=128, limit=256):
    """Polished points on phi = level inside the box (may be empty)."""
    return [tuple(p) for p in
            _level_points(fam, level, box, grid, limit, tol=1e-9).tolist()]
