"""Checks tying the abstraction back to simulated continuous behaviour.

Three layers: (1) the sandwich check brackets the growth of phi along a
trajectory between the piecewise-linear envelopes built from per-slice rate
bounds; (2) the dwell check compares measured slice-traversal times against
the guard/invariant window; (3) the embedding check replays each simulated
trace as a timed run of the strategy-restricted automaton and reports every
trace whose timing the automaton cannot reproduce. With correctly computed
bounds the embedding check must come back empty; a corrupted bounds table
must make it fail, which is the checker's own negative control.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import game as gm
from . import sim as sm
from . import tga as ta

SANDWICH_TOL = 1e-6
TANGENCY_TOL = 1e-9
# largest acceptable HybridTrace.step_error: a tenth of epsilon_t's 1e-6
# modelling slack, so the integrator never uses up the replay tolerance
STEP_ERROR_BUDGET = 1e-7


def epsilon_t(step):
    """Dwell-time tolerance: modelling slack plus the integrator's share."""
    return 1e-6 + 10.0 * step ** 4


# ---------------------------------------------------------------------------
# Stay extraction
# ---------------------------------------------------------------------------

@dataclass
class Stay:
    family: int
    band: int
    t0: float
    t1: float
    entry_level: float | None      # level crossed on the way in (None at start)
    exit_level: float | None       # level crossed on the way out (None at end)
    closed: bool                   # ended by crossing a level of this family
    sample_slice: slice            # samples of the trace inside the stay
    segments: list                 # (control, t_start, t_end)


def _stays(trace: sm.HybridTrace, complex, family):
    fam = next(f for f in complex.families if f.index == family)
    fam_pos = [f.index for f in complex.families].index(family)
    times = trace.trajectory.times
    pieces = trace.segments()
    stays = []
    i0 = 0
    t0 = float(times[0])
    entry_level = None
    events = list(trace.events) + [None]
    for e in events:
        at_end = e is None
        t1 = float(times[-1]) if at_end else e.time
        crosses = (not at_end and e.kind == "level" and e.family == family
                   and e.new_cell != "sink")
        sinks = not at_end and e.new_cell == "sink"
        if crosses or sinks or at_end:
            i1 = int(np.searchsorted(times, t1, side="right"))
            cell = trace.cells[i0]
            band = complex.cell(cell).y[fam_pos]
            seg = [s for s in pieces
                   if s[2] > t0 + 1e-15 and s[1] < t1 - 1e-15]
            segments = [(c, max(a, t0), min(b, t1)) for c, a, b in seg]
            exit_level = e.level if (crosses or (sinks and e.family == family)) \
                else None
            stays.append(Stay(
                family=family, band=band, t0=t0, t1=t1,
                entry_level=entry_level, exit_level=exit_level,
                closed=bool(crosses or (sinks and e.family == family)),
                sample_slice=slice(i0, i1), segments=segments))
            if at_end or sinks:
                break
            t0 = t1
            i0 = i1 - 1   # the event sample belongs to both stays
            entry_level = e.level
    return stays


def _envelopes(stay, rates, sign_of, t):
    """Lower/upper bound on phi(x(t)) - phi(x(t0)) from the per-control rates."""
    low = up = 0.0
    for control, a, b in stay.segments:
        if a >= t:
            break
        dt = min(b, t) - a
        if dt <= 0:
            continue
        inf_r, sup_r = rates(stay.family, stay.band, control)
        if sign_of(stay.family, stay.band, control) > 0:
            low += dt * inf_r
            up += dt * sup_r
        else:
            low -= dt * sup_r
            up -= dt * inf_r
    return low, up


@dataclass
class SandwichReport:
    family: int
    stays: int = 0
    samples: int = 0
    violations: list = field(default_factory=list)
    worst_margin: float = 0.0            # most negative slack seen
    start_tangency: float = 0.0          # worst |gap| at stay entries

    @property
    def passed(self):
        return not self.violations


def check_sandwich(trace, fam, bounds_table, sign_table, complex,
                   tol=SANDWICH_TOL):
    """Assert envelope bracketing of phi growth on every stay of one family."""
    phi_fn = ex.compile_scalar(fam.phi)
    times = trace.trajectory.times
    states = trace.trajectory.states

    def rates(f, h, c):
        return bounds_table.rates(f, h, c)

    def sign_of(f, h, c):
        return sign_table[(f, h, c)]

    rep = SandwichReport(family=fam.index)
    for stay in _stays(trace, complex, fam.index):
        rep.stays += 1
        idx = range(stay.sample_slice.start, stay.sample_slice.stop)
        if not idx:
            continue
        i_first = idx[0]
        phi0 = phi_fn(tuple(states[i_first]))
        entry_gap = 0.0
        for j, i in enumerate(idx):
            t = float(times[i])
            dphi = phi_fn(tuple(states[i])) - phi0
            low, up = _envelopes(stay, rates, sign_of, t)
            rep.samples += 1
            slack = min(dphi - low, up - dphi)
            rep.worst_margin = min(rep.worst_margin, slack)
            if j == 0:
                entry_gap = max(abs(dphi), abs(low), abs(up))
                rep.start_tangency = max(rep.start_tangency, entry_gap)
            if slack < -tol:
                rep.violations.append({
                    "family": fam.index, "band": stay.band, "t": t,
                    "dphi": dphi, "low": low, "up": up})
    return rep


@dataclass
class DwellReport:
    traversals: int = 0
    mixed_stays: int = 0
    violations: list = field(default_factory=list)
    dwells: list = field(default_factory=list)   # (family, band, control, dwell)

    @property
    def passed(self):
        return not self.violations


def check_dwell(trace, bounds_table, sign_table, complex, eps=None):
    """Measured dwell of completed traversals against [t_lo - eps, t_hi + eps].

    A completed traversal enters through one boundary of the band and leaves
    through the other under a single control. Stays that mix controls are
    checked through the accumulated envelope instead: at the exit crossing
    the bracketing must still cover the full band width.
    """
    if eps is None:
        eps = epsilon_t(trace.step)
    rep = DwellReport()
    for fam in complex.families:
        phi_fn = ex.compile_scalar(fam.phi)
        for stay in _stays(trace, complex, fam.index):
            if not stay.closed or stay.entry_level is None:
                continue
            if stay.exit_level == stay.entry_level:
                continue   # re-entry through the same boundary: no full traversal
            controls = {c for c, _, _ in stay.segments}
            dwell = stay.t1 - stay.t0
            if len(controls) == 1:
                control = next(iter(controls))
                tb = bounds_table.timing(fam.index, stay.band, control)
                rep.traversals += 1
                rep.dwells.append((fam.index, stay.band, control, dwell))
                hi_ok = (dwell <= tb.t_hi + eps)
                lo_ok = (dwell >= tb.t_lo - eps)
                if not (hi_ok and lo_ok):
                    rep.violations.append({
                        "family": fam.index, "band": stay.band,
                        "control": control, "dwell": dwell,
                        "t_lo": tb.t_lo, "t_hi": tb.t_hi})
            else:
                rep.mixed_stays += 1
                dphi = stay.exit_level - stay.entry_level

                def rates(f, h, c):
                    return bounds_table.rates(f, h, c)

                def sign_of(f, h, c):
                    return sign_table[(f, h, c)]

                low, up = _envelopes(stay, rates, sign_of, stay.t1)
                if not (low - SANDWICH_TOL <= dphi <= up + SANDWICH_TOL):
                    rep.violations.append({
                        "family": fam.index, "band": stay.band,
                        "controls": sorted(controls), "dphi": dphi,
                        "low": low, "up": up})
    return rep


# ---------------------------------------------------------------------------
# Soundness embedding (simulated traces replayed through the automaton)
# ---------------------------------------------------------------------------

@dataclass
class SoundnessReport:
    samples: int
    horizon: float
    step: float = 0.0
    traces: int = 0
    violations: list = field(default_factory=list)
    guard_violations: int = 0
    invariant_violations: int = 0
    other_violations: int = 0
    witnessed: set = field(default_factory=set)
    reachable: set = field(default_factory=set)
    completeness: float = 0.0
    max_step_error: float = 0.0

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "samples": self.samples,
            "horizon": self.horizon,
            "step": self.step,
            "max_step_error": self.max_step_error,
            "step_error_budget": STEP_ERROR_BUDGET,
            "traces": self.traces,
            "passed": self.passed,
            "violations": self.violations,
            "guard_violations": self.guard_violations,
            "invariant_violations": self.invariant_violations,
            "other_violations": self.other_violations,
            "completeness": self.completeness,
            "witnessed": sorted(self.witnessed),
            "reachable": sorted(self.reachable),
        }


def initial_valuation(tga, complex, cell, control, x0):
    """Clock valuation consistent with a mid-slice start.

    A trajectory starting inside a band has already made phi-progress d from
    the boundary it would have entered through; any entry time between
    d/sup and d/inf is consistent, so c2 (fastest reading) starts at d/sup
    and c1 (slowest reading) at d/inf (0 when inf vanishes: no invariant is
    active there).
    """
    pairs = []
    fam_pos = {fam.index: i for i, fam in enumerate(complex.families)}
    y = complex.cell(cell).y
    for fam in complex.families:
        h = y[fam_pos[fam.index]]
        lo, hi = fam.band(h)
        sgn = tga.signs[(fam.index, h, control)]
        phi0 = ex.compile_scalar(fam.phi)(tuple(x0))
        d = (phi0 - lo) if sgn > 0 else (hi - phi0)
        d = max(d, 0.0)
        inf_r, sup_r = tga.bounds.rates(fam.index, h, control)
        c2 = d / sup_r
        c1 = d / inf_r if inf_r > 0 else 0.0
        pairs.append((c1, c2))
    return tuple(pairs)


def check_sound(sys, tga, strategy, x0_cells, samples, horizon, step=None,
                seed=0, *, controls, eps=None):
    """Embed simulated closed-loop traces into the restricted automaton.

    Draws ``samples`` start states uniformly from the given cells, simulates
    the closed loop, converts each trace to a timed location sequence, and
    replays it through restrict(tga, strategy). Any trace whose timing the
    automaton cannot reproduce is recorded as a violation; with sound bounds
    there must be none. The report also records the step and the largest
    ``HybridTrace.step_error``, to be held against ``STEP_ERROR_BUDGET``.
    """
    complex = tga.complex
    if step is None:
        step = sm.default_step(sys, controls, complex.families)
    if eps is None:
        eps = epsilon_t(step)

    restricted = gm.restrict(tga, strategy)
    rng = np.random.default_rng(seed)
    report = SoundnessReport(samples=samples, horizon=horizon, step=step)

    cells = list(x0_cells)
    for i in range(samples):
        cell = cells[i % len(cells)]
        x0 = complex.uniform_point_in(cell, rng)
        trace = sm.simulate_closed_loop(sys, strategy, complex, x0, horizon,
                                        step, controls=controls)
        report.traces += 1
        report.max_step_error = max(report.max_step_error, trace.step_error)
        seq = []
        for cid, ctrl, t in trace.location_sequence(strategy):
            name = "sink" if cid == "sink" else tga.location_name(cid, ctrl)
            seq.append((name, t))
        report.witnessed.update(name for name, _ in seq)
        v0 = initial_valuation(tga, complex, cell, strategy[cell], x0)
        final_dwell = max(horizon - seq[-1][1], 0.0) if seq[-1][0] != "sink" else 0.0
        rr = ta.run_feasible(restricted, seq, initial_valuation=v0,
                             final_dwell=final_dwell, tol=eps)
        if not rr.feasible:
            first = rr.first_violation() or {}
            kind = first.get("kind", "unknown")
            if kind == "guard":
                report.guard_violations += 1
            elif kind == "invariant":
                report.invariant_violations += 1
            else:
                report.other_violations += 1
            report.violations.append({
                "sample": i, "cell": cell, "x0": list(x0),
                "sequence": [[n, t] for n, t in seq],
                "violation": first})

    if samples > 0:
        e0 = [restricted.location_name(c, strategy[c]) for c in cells]
        reach = gm.reach_locations(restricted, e0, horizon)
        report.reachable = reach.locations()
        hit = len(report.reachable & report.witnessed)
        report.completeness = hit / len(report.reachable) if report.reachable else 1.0
    return report
