"""Closed-loop integration, level-crossing detection, and hybrid traces.

Fixed-step classic Runge-Kutta drives the continuous state. Each control's
closed-loop field is compiled once into a fused step (``expr.compile_step``)
that unrolls the four stages over local floats; its states are bit-identical
to the textbook RK4 step over ``expr.compile_field``. One stay in a
(cell, control) location runs in a generated kernel (``expr.compile_stay``)
that takes those same steps, with the box and band checks and every phi
inline, while the state stays in the box and every phi in the cell's band.
It records nothing per step: it returns how many steps it accepted, and it
turns a float error of the field into the package's own at the step that
raised it. The first step that leaves goes to the event code: a non-finite
state is an error, and the first crossing of a level or a box face (1e-12
outside it, the kernel's own slack) inside that step is located to within
``EVENT_TIME_TOL`` by one safeguarded Illinois search. Its probes re-take
the step with shorter lengths, so event states are exactly reproducible
RK4 states; each probe decides every crossed value, and the event is named
by the first one past (levels by family, then faces). Leaving the box, or
crossing a level with no cell on the other side, ends the trace with a
sink event.
More than 10 events inside a 10-step window aborts with a chattering error,
the stand-in for sliding behaviour this toolkit does not model.

A trace records the run it took as visits: one (cell, control, first
sample index) per location entered, with the RK4 steps accepted in each.
The sample of a crossing opens the next visit; the sample of a sink event
closes the last one. The run (``location_sequence``, which
``conformance.check_sound`` embeds) reads the visits and the event times
only. The samples are built only when ``HybridTrace.trajectory`` is read:
a walker (``expr.compile_walk``, the stay kernel's stepping code) takes
each visit's steps again from the sample that opened it, bit for bit. The
trace's segments and its CSV rows read them.

The step is read from the measured local error. ``default_step`` caps it
at a quarter of the fastest band traversal (band gap / max |L_g phi| on a
32-point grid), takes one step of that length from each point of a 16-point
grid, and reads the event-time error of each phi by step doubling. Since
the error grows as h**4, it shrinks the cap until a run of ``STEP_HORIZON``
time units stays within a tenth of ``STEP_ERROR_BUDGET``; ``--step`` is the
only override. Each trace estimates its error the same way: at every event
and at the trace's last step the step just taken is taken again as two
halves, and the difference, turned into a time error and multiplied by the
steps of that stay, is the trace's ``step_error``, an estimate and not a
bound (on example1d the true error runs up to 1.17 times it).
``conformance.check_sound`` holds it against the budget of 1e-7, a tenth of
the replay tolerance's modelling slack, and sizes each trace's replay
tolerance by it (``conformance.epsilon_t``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, nan
from operator import itemgetter
from typing import Mapping

import numpy as np

from . import expr as ex
from . import model as md
from .errors import (
    ChatteringError, EvalDomainError, LyagateError, ModelError,
    NonFiniteStateError, OutOfDomainError, StrategyError, raise_float_error,
)
from .partition import CellComplex

# width of the bracket [lo, tau] an event is located in: no crossed value is
# past at the RK4 state at lo, and the event's is past at the one at tau
EVENT_TIME_TOL = 1e-10
_EVENT_NUDGE = 1e-9      # fraction of a step used to probe the far side
CHATTER_LIMIT = 10       # more events than this in as many steps is chattering
STEP_GRID = 32           # points per axis of the grid default_step reads
STEP_PROBES = 16         # points per axis it takes one error probe from
STEP_HORIZON = 10.0      # longest run default_step keeps within the budget
# largest acceptable HybridTrace.step_error: a tenth of the replay
# tolerance's 1e-6 modelling slack, so the integrator never uses it up
STEP_ERROR_BUDGET = 1e-7
_LOCATE_PROBES = 16      # secant probes of an event before it bisects


@dataclass
class Event:
    time: float
    family: int | None       # None for a plain domain exit
    level: float | None
    old_cell: str
    new_cell: str             # 'sink' when the trajectory leaves
    state: tuple
    kind: str                 # 'level' | 'domain'


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    step: float
    exited: bool = False

    def __len__(self):
        return len(self.times)


@dataclass
class HybridTrace:
    events: list
    # (cell, control, first sample index), one per location entered: the
    # sample of a crossing opens the next visit, and the sample of a sink
    # event closes the last one
    visits: list
    # RK4 steps accepted in each visit, one per visit
    stay_steps: list
    start: tuple             # the state at t = 0
    walkers: dict            # control name -> its compile_walk function
    step: float
    horizon: float
    exited: bool = False
    # largest event-time error estimate (not a bound) over the events and
    # the last step: the step-doubling difference, times the stay's steps
    step_error: float = 0.0

    @cached_property
    def trajectory(self):
        """Every sample: the start and each event sample, each followed by
        the steps of the visit it opens, from one call of its walker."""
        samples = [(0.0, self.start)] + [(e.time, e.state) for e in self.events]
        times, coords = [], []
        for k, (t, x) in enumerate(samples):
            times.append(t)
            coords += x
            if k < len(self.visits):
                self.walkers[self.visits[k][1]](
                    x, t, self.stay_steps[k], self.horizon, self.step,
                    times, coords)
        return Trajectory(times=np.fromiter(times, float),
                          states=np.fromiter(coords, float).reshape(
                              -1, len(self.start)),
                          step=self.step, exited=self.exited)

    def segments(self):
        """(control, t_start, t_end) of every visit that lasts."""
        times = self.trajectory.times
        ends = [times[start] for _, _, start in self.visits[1:]] + [times[-1]]
        return [(ctrl, float(times[start]), float(end))
                for (_, ctrl, start), end in zip(self.visits, ends)
                if end > times[start]]

    def location_sequence(self):
        """[(cell, control, entry time), ...] for embedding into the automaton."""
        entries = [0.0] + [e.time for e in self.events]
        seq = [(cell, ctrl, t)
               for (cell, ctrl, _), t in zip(self.visits, entries)]
        if self.exited:
            seq.append(("sink", None, self.events[-1].time))
        return seq

    def sample_locations(self):
        """(cell, control) of every sample, expanded from the visits."""
        ends = [start for _, _, start in self.visits[1:]] + [len(self.trajectory)]
        return [(cell, ctrl)
                for (cell, ctrl, start), end in zip(self.visits, ends)
                for _ in range(start, end)]

    def write_csv(self, path):
        traj = self.trajectory
        n = traj.states.shape[1]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + ["x%d" % (i + 1) for i in range(n)]
                       + ["cell", "control"])
            for i, (cell, ctrl) in enumerate(self.sample_locations()):
                w.writerow([repr(float(traj.times[i]))]
                           + [repr(float(v)) for v in traj.states[i]]
                           + [cell, ctrl])


def _advance(step, x, h, t):
    """One RK4 step of length h from state x at time t; a float error
    becomes the package's own (``errors.raise_float_error``)."""
    try:
        return step(x, h)
    except (OverflowError, ZeroDivisionError, ValueError) as err:
        raise_float_error(err, x, t, h)


def default_step(sys, controls, families):
    """RK4 step read from the measured local error.

    For every (family, band, control) the band's gap divided by the largest
    ``|L_g phi|`` over the ``STEP_GRID`` points in the band (``band_mask``)
    is a lower estimate of the time the closed loop needs to cross that
    band (the abstraction's own ``t_lo``). A quarter of the smallest of
    these is the cap, so no band seen on the grid is crossed within one
    step. One step of length ``cap`` is taken from each point of the
    ``STEP_PROBES``-point grid under each control, and ``_step_errors``
    turns it into the event-time error of every phi (a phi that does not
    move over the step is skipped, and so is a point where the field or a
    phi hits a float domain error or overflows). rho, the largest of these
    per unit of step time, estimates a trace's ``step_error`` per unit of
    stay time at the cap.

    Contract: the error grows as ``h**4`` and in proportion to stay length,
    so the step ``cap * min(1, (STEP_ERROR_BUDGET / (10 rho STEP_HORIZON))
    ** 0.25)`` keeps the ``step_error`` estimate (not a bound on the true
    error) within a tenth of ``STEP_ERROR_BUDGET`` on runs up to
    ``STEP_HORIZON`` long. Longer runs, and box exits (whose time error is
    unbounded where the exit is tangential, so no probe can size it), are
    not covered by the rule; every trace still estimates its own
    ``step_error``, and the CLI warns when it is over budget.

    Box exits are only seen at step ends: a trajectory that leaves the box
    and comes back within one step makes no event and adds nothing to
    ``step_error``, so neither the trace nor ``check_sound`` reports that
    excursion. A longer step spans more time in which this can happen;
    give a smaller ``--step`` where short excursions matter.
    """
    pts = sys.domain.grid(STEP_GRID)
    fastest = float("inf")
    for fam in families:
        vals = ex.compile_vector(fam.phi)(pts)
        masks = [(h, fam.band_mask(h, vals))
                 for h in range(1, fam.band_count + 1)]
        for g in controls:
            rate = np.abs(ex.compile_vector(md.lie_derivative(sys, g, fam))(pts))
            for h, mask in masks:
                vmax = float(rate[mask].max()) if mask.any() else 0.0
                if vmax > 0.0:
                    lo, hi = fam.band(h)
                    fastest = min(fastest, (hi - lo) / vmax)
    if not isfinite(fastest):
        raise ModelError("no control moves phi across a band on the %d-point "
                         "grid; give the step with --step" % STEP_GRID)
    cap = 0.25 * fastest
    phi_fns = [ex.compile_scalar(fam.phi) for fam in families]
    rho = 0.0
    for g in controls:
        step_fn = ex.compile_step(sys.closed_loop(g))
        for x in map(tuple, sys.domain.grid(STEP_PROBES).tolist()):
            try:
                xn = _advance(step_fn, x, cap, 0.0)
                errs = _step_errors(step_fn, x, xn, cap, 0.0, phi_fns)
            except (NonFiniteStateError, EvalDomainError, ArithmeticError):
                continue
            rho = max([rho] + [e / cap for e in errs if isfinite(e)])
    if rho == 0.0:
        return cap
    return cap * min(1.0, (STEP_ERROR_BUDGET
                           / (10.0 * rho * STEP_HORIZON)) ** 0.25)


def _as_chooser(strategy):
    if callable(strategy):
        return strategy
    if isinstance(strategy, Mapping):
        def chooser(cell_id, n_events):
            if cell_id not in strategy:
                raise StrategyError("strategy misses cell %s" % cell_id)
            return strategy[cell_id]
        return chooser
    raise StrategyError("strategy must be a mapping or a callable")


def simulate_closed_loop(sys, strategy, complex: CellComplex, x0, horizon, h, *,
                         controls):
    """Integrate dx/dt = f(x, g(x)) with g chosen per cell by the strategy.

    ``strategy`` is either a mapping cell id -> control name or a callable
    (cell id, event count) -> control name (used for randomized switching
    experiments). Returns a HybridTrace whose visits record the
    (cell, control) locations the trace entered, whose events carry the
    crossed family, level, and both cells, and whose ``step_error`` holds
    the largest event-time error estimate (see ``_step_errors``).
    """
    if not (isfinite(h) and h > 0):
        raise LyagateError("step must be finite and positive, got %r" % (h,))
    chooser = _as_chooser(strategy)
    steppers = {g.name: ex.compile_step(sys.closed_loop(g)) for g in controls}
    walkers = {g.name: ex.compile_walk(sys.closed_loop(g)) for g in controls}
    families = complex.families
    phi_fns = [ex.compile_scalar(fam.phi) for fam in families]
    phis = tuple(fam.phi for fam in families)
    stays = {g.name: ex.compile_stay(sys.closed_loop(g), phis)
             for g in controls}
    # a step leaves the box when a component is more than 1e-12 outside it
    faces = [(itemgetter(d), lo, hi, 1e-12, None)
             for d, (lo, hi) in enumerate(zip(sys.domain.lower, sys.domain.upper))]
    box = tuple((lo - slack, hi + slack) for _, lo, hi, slack, _ in faces)

    x = start = tuple(float(v) for v in x0)
    events = []
    visits = []
    stay_steps = []

    def enter(cell):
        """Choose the control for ``cell``; its visit opens at the last
        sample, whose index counts the first sample, every accepted step
        and every event sample so far."""
        ctrl = chooser(cell, len(events))
        if ctrl not in steppers:
            raise StrategyError("unknown control '%s'" % ctrl)
        visits.append((cell, ctrl, sum(stay_steps) + len(events)))
        stay_steps.append(0)
        return ctrl

    cell = complex.locate(x).primary
    ctrl = enter(cell)
    recent = []
    step_error = 0.0
    exited = False

    t = 0.0
    t_stop = horizon - 1e-15
    while t < t_stop:
        # One stay in (cell, ctrl). The generated kernel takes steps while
        # x stays in the box and every phi in its band; the first step that
        # leaves goes to the event code below, which re-takes it to find
        # the event.
        step_fn = steppers[ctrl]
        y = complex.cell(cell).y
        bands = [fam.band(y[i]) for i, fam in enumerate(families)]
        t, x, xn, step, stayed, t_prev, x_prev = stays[ctrl](
            x, t, t_stop, horizon, h, box, bands)
        stay_steps[-1] += stayed
        if xn is None:
            if stayed:
                # the last step, from the state before it
                step_error = max(step_error, stayed * max(
                    _step_errors(step_fn, x_prev, x, step, t_prev, phi_fns)))
            break
        for v in xn:
            if not isfinite(v):
                raise NonFiniteStateError(
                    "non-finite state at t=%g" % (t + step))

        # Boundary events inside this step: the levels of every family, then
        # the box faces, each with the threshold beyond which it is past (a
        # face's includes the kernel's 1e-12 slack, so a level on a face is
        # past first). The locator names the first value past at the event.
        levels = [(phi, lo, hi, 0.0, fam.index)
                  for fam, phi, (lo, hi) in zip(families, phi_fns, bands)]
        crossed = []   # (value, threshold, direction, family, level)
        for value, lo, hi, slack, family in levels + faces:
            v = value(xn)
            if v > hi + slack:
                crossed.append((value, hi + slack, +1, family, hi))
            elif v < lo - slack:
                crossed.append((value, lo - slack, -1, family, lo))

        if not crossed:
            # only a nan phi stops the inner loop without a crossing
            t += step
            x = xn
            stay_steps[-1] += 1
            continue

        k, _, tau, x_event = _locate_event(step_fn, x, t, step, xn, crossed)
        value, _, direction, family, level = crossed[k]
        step_error = max(step_error, (stayed + 1) * _step_errors(
            step_fn, x, xn, step, t, [value])[0])
        t_event = t + tau

        recent.append(t_event)
        recent = [te for te in recent if te > t_event - CHATTER_LIMIT * h]
        if len(recent) > CHATTER_LIMIT:
            raise ChatteringError(
                "%d events within %g time units at t=%g"
                % (len(recent), CHATTER_LIMIT * h, t_event))

        # a box face, or a level with no cell on the other side, is a sink
        partners = ([] if family is None
                    else complex.neighbors_toward(cell, family, direction))
        if not partners:
            new_cell = "sink"
        elif len(partners) == 1:
            new_cell = partners[0].other(cell)
        else:
            # disambiguate the component by probing just past the surface
            probe = _advance(step_fn, x,
                             min(tau * (1.0 + _EVENT_NUDGE) + 1e-15, step), t)
            new_cell = None
            try:
                loc = complex.locate(tuple(probe))
            except OutOfDomainError:
                pass
            else:
                cand = {adj.other(cell) for adj in partners}
                for cid in (loc.primary,) + loc.cells:
                    if cid in cand:
                        new_cell = cid
                        break
            if new_cell is None:
                pa = np.asarray(probe)
                dist = [(min(np.linalg.norm(np.asarray(p) - pa)
                             for p in adj.facet_points), adj.other(cell))
                        for adj in partners]
                new_cell = min(dist)[1]

        events.append(Event(time=t_event, family=family, level=level,
                            old_cell=cell, new_cell=new_cell, state=x_event,
                            kind="domain" if family is None else "level"))
        t = t_event
        x = x_event
        if new_cell == "sink":
            exited = True
            break
        cell = new_cell
        ctrl = enter(cell)

    return HybridTrace(events=events, visits=visits, stay_steps=stay_steps,
                       start=start, walkers=walkers, step=h,
                       horizon=horizon, exited=exited, step_error=step_error)


def _step_errors(step_fn, x, xn, step, t, values):
    """Event-time error of one RK4 step, estimated by step doubling, for
    each of ``values``: an estimate, not a bound.

    The step from ``x`` to ``xn`` is taken once more as two halves; the two
    results differ by about the full step's local error (Hairer, Norsett &
    Wanner, Solving ODEs I, section II.4). Each value reads a quantity an
    event is located on: phi of a family, or the coordinate that left the
    box. Its difference over the two results, divided by its rate along the
    step (the secant of the value over the step, i.e. the mean of
    ``L_g phi`` or of ``f_d``), is the shift that error causes in the time
    at which the value reaches a threshold: inf when the value differs but
    does not move. A value that cannot be evaluated (division by zero, math
    domain) raises as ``_advance`` does.
    """
    half = 0.5 * step
    xh = _advance(step_fn, _advance(step_fn, x, half, t), half, t + half)
    errors = []
    for value in values:
        try:
            v, vn, vh = value(x), value(xn), value(xh)
        except (ZeroDivisionError, ValueError) as err:
            raise_float_error(err, x, t, step)
        diff = abs(vn - vh)
        rate = abs(vn - v) / step
        errors.append(0.0 if diff == 0.0 else
                      diff / rate if rate > 0.0 else float("inf"))
    return errors


def _past(d, sign):
    """Whether a value is past its threshold, from its distance ``d``
    beyond it: above it (direction +1), or not above it (-1, where a nan
    counts as past)."""
    return d > 0.0 or sign < 0 and not d < 0.0


def _locate_event(step_fn, x, t, step, xn, crossed):
    """The first boundary event inside one RK4 step, by a safeguarded
    Illinois search (Shampine & Thompson, Comput. Math. Appl. 39, 2000).

    ``crossed`` lists ``(value, threshold, direction, ...)`` for every value
    past its threshold (``_past``) at ``xn``, the state the step of length
    ``step`` reaches from ``x`` at time ``t``, in naming order. Every probe
    is ``RK4(x, s)`` for one ``s`` in ``(0, step]``, and past is decided for
    all crossed values on it.

    Returns ``(k, lo, tau, x_tau)``: ``tau`` in ``(0, step]`` with
    ``tau - lo < EVENT_TIME_TOL``, where no crossed value is past at
    ``RK4(x, lo)`` and ``crossed[k]`` is the first past at ``x_tau =
    RK4(x, tau)``. When a value is already past at ``x``, the event is
    immediate: ``tau = min(EVENT_TIME_TOL, step)``, ``lo = 0``, and ``k`` is
    the first value past at ``x``.

    Regula falsi runs on one value's distance past its threshold: first the
    value whose secant over the step crosses zero first, then, whenever it
    is not past at the bracket's far end, the first value that is. When the
    same end of the bracket moves twice in a row, the other end's distance
    is halved (Illinois), so neither end stays put. A probe never falls
    within half a tolerance of an end; it is moved there instead, which
    closes the bracket once the estimate is that close. After
    ``_LOCATE_PROBES`` probes, on a distance that is not a number, or where
    half a tolerance is below the spacing of floats, the probe is the
    midpoint; on a step so long that the bracket reaches adjacent floats
    before the tolerance, the search stops there.
    """
    tests = [entry[:3] for entry in crossed]

    def scan(y):
        """Each value's distance past its threshold at state y, and the
        index of the first value past there (None when none is)."""
        ds = []
        first = None
        for i, (value, thr, sign) in enumerate(tests):
            d = (value(y) - thr) * sign
            ds.append(d)
            if first is None and _past(d, sign):
                first = i
        return ds, first

    d_lo, k = scan(x)
    if k is not None:
        tau = min(EVENT_TIME_TOL, step)
        return k, 0.0, tau, _advance(step_fn, x, tau, t)
    lo, hi, x_hi = 0.0, step, xn
    d_hi, k = scan(xn)
    lead = 0
    if len(tests) > 1:
        firsts = [d / (d - e) if e - d > 0.0 else 1.0
                  for d, e in zip(d_lo, d_hi)]
        lead = firsts.index(min(firsts))
    scale_lo = scale_hi = 1.0
    side = 0                  # the end that moved last: -1 lo, +1 hi
    half = 0.5 * EVENT_TIME_TOL
    probes = 0
    while hi - lo >= EVENT_TIME_TOL:
        fa = d_lo[lead] * scale_lo
        fb = d_hi[lead] * scale_hi
        s = nan
        if probes < _LOCATE_PROBES and fb - fa > 0.0:
            s = min(max(lo - fa * (hi - lo) / (fb - fa), lo + half), hi - half)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
            if not lo < s < hi:
                break         # lo and hi are adjacent floats
        probes += 1
        y = _advance(step_fn, x, s, t)
        ds, first = scan(y)
        if first is None:
            lo, d_lo, scale_lo = s, ds, 1.0
            if side < 0:
                scale_hi *= 0.5
            side = -1
        else:
            hi, d_hi, x_hi, k, scale_hi = s, ds, y, first, 1.0
            if side > 0:
                scale_lo *= 0.5
            side = +1
            if not _past(ds[lead], tests[lead][2]):
                lead, scale_lo, side = first, 1.0, 0
    return k, lo, hi, x_hi
