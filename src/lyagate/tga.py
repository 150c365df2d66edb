"""Timed game automaton with paired clocks and affine update maps.

Locations are (cell, control) pairs plus one absorbing sink for trajectories
that leave the state space through an outermost level surface. Each family
of the partition owns a clock pair (c1, c2): c1 tracks the slowest-progress
reading (bounded above by the invariant), c2 the fastest-progress reading
(bounded below by guards). Delays advance both components; discrete steps
apply per-family affine maps alpha + beta * v. Crossing a level resets the
crossed family's pair; switching the control rescales every pair so that the
remaining-dwell information survives the change of rates. The switch map is
total: a slice with no finite dwell bound gets the limit of the ratio map,
so every (zone, control, control) triple has its switch edge, and ``compose``
chains maps so that other layers reuse these edges instead of re-deriving
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from .errors import (
    FacetSignConflictError, ModelError, NegativeClockError, UnboundedRatioError,
)
from .model import lie_derivative

NEG_CLOCK_TOL = 1e-12
GUARD_TOL = 1e-9


@dataclass(frozen=True)
class Location:
    name: str
    cell: str | None
    control: str | None
    is_sink: bool = False


@dataclass(frozen=True)
class FamilyUpdate:
    """Affine map v -> alpha + beta @ v on one clock pair."""

    alpha: tuple
    beta: tuple   # ((b11, b12), (b21, b22))

    def apply(self, pair):
        a1, a2 = self.alpha
        (b11, b12), (b21, b22) = self.beta
        c1, c2 = pair
        return (a1 + b11 * c1 + b12 * c2, a2 + b21 * c1 + b22 * c2)


RESET = FamilyUpdate((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))


@dataclass(frozen=True)
class UpdateMap:
    """Per-family updates; families not listed keep their valuation."""

    entries: tuple   # ((family, FamilyUpdate), ...) sorted by family

    @staticmethod
    def of(mapping):
        return UpdateMap(tuple(sorted(mapping.items())))


def compose(first: UpdateMap, then: UpdateMap):
    """The update map v -> then(first(v)), family by family."""
    out = dict(first.entries)
    for fam, g in then.entries:
        f = out.get(fam)
        if f is None:
            out[fam] = g
            continue
        (f11, f12), (f21, f22) = f.beta
        (g11, g12), (g21, g22) = g.beta
        out[fam] = FamilyUpdate(
            alpha=g.apply(f.alpha),
            beta=((g11 * f11 + g12 * f21, g11 * f12 + g12 * f22),
                  (g21 * f11 + g22 * f21, g21 * f12 + g22 * f22)))
    return UpdateMap.of(out)


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    action: str
    kind: str                    # 'u' uncontrollable | 'c' controllable
    guard: tuple                 # ((family, threshold), ...) meaning c2_i >= thr
    update: UpdateMap
    family: int | None = None    # crossing family for uncontrollable edges


class TimedGameAutomaton:
    """Built automaton; immutable once constructed, safe for concurrent readers."""

    def __init__(self, mode, k, locations, initial, invariants, transitions,
                 bounds, signs, complex, diagnostics=None):
        self.mode = mode
        self.k = k
        self.locations = dict(locations)
        self.initial = tuple(initial)
        self.invariants = dict(invariants)   # name -> ((family, bound), ...)
        self.transitions = list(transitions)
        self.bounds = bounds
        self.signs = dict(signs)
        self.complex = complex
        self.diagnostics = dict(diagnostics or {})
        self.sink_name = "sink"
        self._by_source = {}
        for t in self.transitions:
            self._by_source.setdefault(t.source, []).append(t)

    def outgoing(self, name):
        return self._by_source.get(name, [])

    def location_name(self, cell, control):
        return "(%s,%s)" % (cell, control)

    def non_sink_locations(self):
        return [loc for loc in self.locations.values() if not loc.is_sink]

    def cells(self):
        return sorted({loc.cell for loc in self.non_sink_locations()})

    def controls(self):
        return sorted({loc.control for loc in self.non_sink_locations()})

    def invariant_of(self, name):
        return self.invariants.get(name, ())

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        def enc(v):
            if v == math.inf:
                return "inf"
            if v == -math.inf:
                return "-inf"
            return v

        def enc_update(u):
            return {
                str(fam): {"alpha": [enc(a) for a in fu.alpha],
                           "beta": [[enc(b) for b in row] for row in fu.beta]}
                for fam, fu in u.entries
            }

        return {
            "mode": self.mode,
            "clock_pairs": self.k,
            "locations": [
                {"name": loc.name, "cell": loc.cell, "control": loc.control,
                 "sink": loc.is_sink,
                 "invariant": [{"family": f, "t_hi": enc(b)}
                               for f, b in self.invariant_of(loc.name)]}
                for _, loc in sorted(self.locations.items())
            ],
            "initial": sorted(self.initial),
            "transitions": [
                {"source": t.source, "target": t.target, "action": t.action,
                 "kind": t.kind, "family": t.family,
                 "guard": [{"family": f, "t_lo": enc(thr)} for f, thr in t.guard],
                 "update": enc_update(t.update)}
                for t in sorted(self.transitions,
                                key=lambda t: (t.source, t.target, t.kind, t.action))
            ],
            "diagnostics": self.diagnostics,
        }

    def to_dot(self):
        """Graphviz digraph: solid edges controllable, dashed uncontrollable."""
        def q(s):
            return '"%s"' % s.replace('"', r'\"')

        lines = ["digraph tga {", "  rankdir=LR;"]
        for name, loc in sorted(self.locations.items()):
            if loc.is_sink:
                lines.append("  %s [shape=box, style=filled, fillcolor=gray80];" % q(name))
                continue
            # extended-cell locations name a zone id, not a cell of the complex
            cell = (self.complex.cell(loc.cell)
                    if self.complex and self.mode == "cells" else None)
            label = "%s\\n%s" % (cell.label if cell else loc.cell, loc.control)
            for fam, b in self.invariant_of(name):
                label += "\\nc1^%d <= %.4g" % (fam, b)
            lines.append("  %s [shape=ellipse, label=%s];" % (q(name), q(label)))
        for t in sorted(self.transitions,
                        key=lambda t: (t.source, t.target, t.kind, t.action)):
            style = "dashed" if t.kind == "u" else "solid"
            label = t.action
            for fam, thr in t.guard:
                label += "\\nc2^%d >= %.4g" % (fam, thr)
            lines.append("  %s -> %s [style=%s, label=%s];"
                         % (q(t.source), q(t.target), style, q(label)))
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Valuations
# ---------------------------------------------------------------------------

def zero_valuation(k):
    return tuple((0.0, 0.0) for _ in range(k))


def delay(v, t):
    """Advance every pair by t (both components)."""
    if t < 0:
        raise ValueError("delay must be nonnegative")
    return tuple((c1 + t, c2 + t) for c1, c2 in v)


def _apply_raw(v, update: UpdateMap):
    pairs = list(v)
    for fam, fu in update.entries:
        pairs[fam - 1] = fu.apply(pairs[fam - 1])
    return tuple(pairs)


def apply_update(v, update: UpdateMap):
    """Apply an update map; clamp tiny negative components, reject real ones."""
    out = []
    for c1, c2 in _apply_raw(v, update):
        if c1 < -NEG_CLOCK_TOL or c2 < -NEG_CLOCK_TOL:
            raise NegativeClockError(
                "update produced negative clock (%g, %g)" % (c1, c2))
        out.append((max(c1, 0.0), max(c2, 0.0)))
    return tuple(out)


def switch_update(bounds_src, bounds_dst, same_sign):
    """Per-family affine map for a control switch (source bounds -> target bounds).

    Same sign of the Lie derivative: rescale both components by the ratio of
    the new and old dwell bounds. Opposite sign: the remaining progress flips,
    v -> (t_hi', t_lo') - antidiag(t_hi'/t_lo, t_lo'/t_hi) v. Where t_hi or
    t_hi' is infinite, c1 maps to 0; with opposite signs and t_hi infinite,
    c2 maps to t_lo', the limit of the ratio map. Where all four bounds are
    finite these are the plain ratio maps.

    Why this over-approximates: a pair in a band whose phi progress is the
    fraction p of the band is represented by c1 in [0, p t_hi] and c2 in
    [p t_lo, t_lo] (any c1 >= 0 when t_hi is infinite). Then the invariant
    c1 <= t_hi allows at least the true remaining dwell, and the guard
    c2 >= t_lo opens no later than the true exit. The map sends this set into
    the target's set for progress p (same sign) or 1 - p (opposite sign, the
    band is then crossed the other way); the ratio maps do so exactly. A
    smaller c1 and a larger c2 only admit more runs, so c1 = 0 lies in every
    target set, and c2 = t_lo' is the largest value of the opposite-sign set.
    Only a t_lo or t_lo' that is not finite and positive has no map.
    """
    t_hi, t_lo = bounds_src.t_hi, bounds_src.t_lo
    t_hi2, t_lo2 = bounds_dst.t_hi, bounds_dst.t_lo
    for name, val in (("t_lo", t_lo), ("t_lo'", t_lo2)):
        if not math.isfinite(val) or val <= 0.0:
            raise UnboundedRatioError(
                "switch update undefined: %s = %s for slice %d of family %d"
                % (name, val, bounds_src.slice_index, bounds_src.family))
    bounded = math.isfinite(t_hi) and math.isfinite(t_hi2)
    if same_sign:
        return FamilyUpdate(alpha=(0.0, 0.0),
                            beta=((t_hi2 / t_hi if bounded else 0.0, 0.0),
                                  (0.0, t_lo2 / t_lo)))
    a1, b12 = (t_hi2, -t_hi2 / t_lo) if bounded else (0.0, 0.0)
    b21 = -t_lo2 / t_hi if math.isfinite(t_hi) else 0.0
    return FamilyUpdate(alpha=(a1, t_lo2), beta=((0.0, b12), (b21, 0.0)))


# ---------------------------------------------------------------------------
# Construction (Procedure: cells x controls, invariants, guarded crossings)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Zone:
    """A cell (or extended cell) as seen by the automaton builder."""

    id: str
    y: tuple
    label: str
    members: tuple     # underlying cell ids


def _zones_and_adjacency(complex, mode):
    if mode == "cells":
        zones = [_Zone(c.id, c.y, c.label, (c.id,)) for c in complex.cells]
        adj = [(a.a, a.b, a.family, a.level, a.lower, a.facet_points)
               for a in complex.adjacency]
        return zones, adj
    if mode != "extended-cells":
        raise ValueError("mode must be 'cells' or 'extended-cells'")
    ys = sorted({c.y for c in complex.cells})
    zid = {y: "e" + ".".join(str(h) for h in y) for y in ys}
    members = {y: tuple(c.id for c in complex.cells if c.y == y) for y in ys}
    zones = [_Zone(zid[y], y, zid[y], members[y]) for y in ys]
    merged = {}
    for a in complex.adjacency:
        ya = complex.cell(a.a).y
        yb = complex.cell(a.b).y
        lower_y = complex.cell(a.lower).y
        key = (min(zid[ya], zid[yb]), max(zid[ya], zid[yb]), a.family)
        rec = merged.setdefault(key, {"level": a.level, "lower": zid[lower_y],
                                      "facets": []})
        rec["facets"].extend(a.facet_points)
    adj = []
    for (za, zb, fam), rec in sorted(merged.items()):
        adj.append((za, zb, fam, rec["level"], rec["lower"],
                    tuple(rec["facets"][:32])))
    return zones, adj


def build_tga(sys, complex, controls, bounds, sign_table, mode="cells"):
    """Assemble the timed game automaton of ``sys`` from a cell complex and bounds.

    ``sign_table`` maps (family, slice index, control name) -> +1/-1 as
    produced by model.admissibility_map. Uncontrollable transitions follow
    the facet sign of the Lie derivative (checked on the stored facet
    samples); every ordered pair of distinct controls gets a controllable
    switch in every zone, carrying the switch update maps. A slice of a zone
    with no sign for some control (no admissibility grid point fell inside
    it) is refused with a ModelError.
    """
    controls = list(controls)
    families = complex.families
    k = len(families)
    fam_pos = {fam.index: i for i, fam in enumerate(families)}
    zones, adjacency = _zones_and_adjacency(complex, mode)
    zone_by_id = {z.id: z for z in zones}

    locations = {}
    invariants = {}
    transitions = []

    sink = Location(name="sink", cell=None, control=None, is_sink=True)
    locations[sink.name] = sink

    def loc_name(zid, gname):
        return "(%s,%s)" % (zid, gname)

    for z in zones:
        for g in controls:
            name = loc_name(z.id, g.name)
            locations[name] = Location(name=name, cell=z.id, control=g.name)
            inv = []
            for fam in families:
                h = z.y[fam_pos[fam.index]]
                if (fam.index, h, g.name) not in sign_table:
                    raise ModelError(
                        "family %d, slice %d has no admissibility sign under "
                        "control %s: no admissibility grid point lies in the "
                        "slice; raise grid.admissibility"
                        % (fam.index, h, g.name))
                t_hi = bounds.t_hi(fam.index, h, g.name)
                if math.isfinite(t_hi):
                    inv.append((fam.index, t_hi))
            if inv:
                invariants[name] = tuple(inv)

    # Lie-derivative evaluators for the facet sign checks
    phidot = {(fam.index, g.name): lie_derivative(sys, g, fam).function()
              for fam in families for g in controls}

    # uncontrollable crossings between adjacent zones
    covered = {}   # (zone, family, direction, control) -> True
    for za, zb, fam_idx, level, lower, facets in adjacency:
        fam = families[fam_pos[fam_idx]]
        for g in controls:
            fn = phidot[(fam_idx, g.name)]
            vals = [fn(tuple(p)) for p in facets]
            if not vals:
                continue
            pos = [v > 0 for v in vals]
            neg = [v < 0 for v in vals]
            if all(pos):
                sgn = 1
            elif all(neg):
                sgn = -1
            else:
                raise FacetSignConflictError(za, zb, fam_idx, g.name, vals)
            upper = zb if lower == za else za
            src, dst = (lower, upper) if sgn > 0 else (upper, lower)
            h_src = zone_by_id[src].y[fam_pos[fam_idx]]
            if sign_table[(fam_idx, h_src, g.name)] != sgn:
                raise FacetSignConflictError(za, zb, fam_idx, g.name, vals)
            guard = ((fam_idx, bounds.t_lo(fam_idx, h_src, g.name)),)
            transitions.append(Transition(
                source=loc_name(src, g.name), target=loc_name(dst, g.name),
                action="u%d" % fam_idx, kind="u", guard=guard,
                update=UpdateMap.of({fam_idx: RESET}), family=fam_idx))
            covered[(src, fam_idx, sgn, g.name)] = True

    # sink edges: the forced direction has no neighbour, and the zone really
    # touches the crossed level at a point where it can be crossed
    level_exit_notes = []
    for z in zones:
        for g in controls:
            for fam in families:
                h = z.y[fam_pos[fam.index]]
                sgn = sign_table[(fam.index, h, g.name)]
                if covered.get((z.id, fam.index, sgn, g.name)):
                    continue
                lo, hi = fam.band(h)
                level = hi if sgn > 0 else lo
                touches = any(
                    complex.cell_touches_level(cid, fam.index, level)
                    for cid in z.members)
                if not touches:
                    continue
                if 1 <= h + sgn <= fam.band_count:
                    # the neighbour band exists elsewhere in X, so this is a
                    # box exit through a mid-stack level; keep it conservative
                    level_exit_notes.append((z.id, g.name, fam.index, level))
                transitions.append(Transition(
                    source=loc_name(z.id, g.name), target="sink",
                    action="u%d" % fam.index, kind="u",
                    guard=((fam.index, bounds.t_lo(fam.index, h, g.name)),),
                    update=UpdateMap.of({fam.index: RESET}), family=fam.index))

    # controllable switches between controls within a zone
    for z in zones:
        for g in controls:
            for g2 in controls:
                if g2.name == g.name:
                    continue
                per_family = {}
                for fam in families:
                    h = z.y[fam_pos[fam.index]]
                    same = (sign_table[(fam.index, h, g.name)]
                            == sign_table[(fam.index, h, g2.name)])
                    per_family[fam.index] = switch_update(
                        bounds.timing(fam.index, h, g.name),
                        bounds.timing(fam.index, h, g2.name), same)
                transitions.append(Transition(
                    source=loc_name(z.id, g.name), target=loc_name(z.id, g2.name),
                    action="c:%s" % g2.name, kind="c", guard=(),
                    update=UpdateMap.of(per_family), family=None))

    initial = sorted(name for name, loc in locations.items() if not loc.is_sink)
    return TimedGameAutomaton(
        mode=mode, k=k, locations=locations, initial=initial,
        invariants=invariants, transitions=transitions, bounds=bounds,
        signs=sign_table, complex=complex,
        diagnostics={"level_exits_without_neighbor": level_exit_notes})


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

def _guard_ok(guard, v, tol=GUARD_TOL):
    return all(v[fam - 1][1] >= thr - tol for fam, thr in guard)


def _invariant_ok(inv, v, tol=GUARD_TOL):
    return all(v[fam - 1][0] <= bound + tol for fam, bound in inv)


def enabled(state, tga):
    """Transitions fireable now: guard satisfied, target invariant respected."""
    name, v = state
    out = []
    for t in tga.outgoing(name):
        if not _guard_ok(t.guard, v):
            continue
        v2 = _apply_raw(v, t.update)
        if not _invariant_ok(tga.invariant_of(t.target), v2):
            continue
        out.append(t)
    return out


@dataclass
class RunReport:
    feasible: bool
    violations: list = field(default_factory=list)
    steps: int = 0
    final_valuation: tuple = ()

    def first_violation(self):
        return self.violations[0] if self.violations else None


def run_feasible(tga, timed_sequence, initial_valuation=None, final_dwell=0.0,
                 tol=GUARD_TOL):
    """Replay a timed location sequence through the automaton deterministically.

    ``timed_sequence`` is a list of (location name, entry time); delays are
    the gaps between entries. Guards are checked at firing time, invariants
    through every dwell (linear clocks: endpoint check suffices), and the
    final location's invariant for ``final_dwell`` more time units. When
    several transitions connect a pair, each is tried (depth-first, with an
    explicit stack so that long runs need no recursion).
    """
    if not timed_sequence:
        return RunReport(feasible=True)
    v0 = initial_valuation if initial_valuation is not None else zero_valuation(tga.k)
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
        v_delayed = delay(v, dt)
        if not _invariant_ok(tga.invariant_of(name), v_delayed, tol):
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
            if not _guard_ok(t.guard, v_delayed, tol):
                violations.append({
                    "step": i, "kind": "guard", "location": name,
                    "detail": "guard %s unsatisfied at valuation %s"
                              % (t.guard, v_delayed)})
                continue
            try:
                v2 = apply_update(v_delayed, t.update)
            except NegativeClockError as err:
                violations.append({"step": i, "kind": "negative-clock",
                                   "location": name, "detail": str(err)})
                continue
            if not _invariant_ok(tga.invariant_of(next_name), v2, tol):
                violations.append({
                    "step": i, "kind": "invariant", "location": next_name,
                    "detail": "entry valuation %s violates invariant" % (v2,)})
                continue
            yield i + 1, next_name, v2, next_t

    name0, t0 = timed_sequence[0]
    if not _invariant_ok(tga.invariant_of(name0), v0, tol):
        violations.append({"step": 0, "kind": "invariant", "location": name0,
                           "detail": "initial valuation violates invariant"})
        return RunReport(feasible=False, violations=violations)
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
        if final_dwell > 0 and not _invariant_ok(
                tga.invariant_of(name), delay(v, final_dwell), tol):
            violations.append({
                "step": i, "kind": "invariant", "location": name,
                "detail": "final dwell %.6g exceeds the invariant" % final_dwell})
            continue
        return RunReport(feasible=True, violations=[], steps=len(timed_sequence),
                         final_valuation=v)
    return RunReport(feasible=False, violations=violations,
                     steps=len(timed_sequence))
