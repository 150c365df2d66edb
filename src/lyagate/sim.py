"""Closed-loop integration, level-crossing detection, and hybrid traces.

Fixed-step classic Runge-Kutta drives the continuous state. Each control's
closed-loop field is compiled once into a fused step (``expr.compile_step``)
that unrolls the four stages over local floats; its states are bit-identical
to the textbook RK4 step over ``expr.compile_field``. One stay in a
(cell, control) location runs in a generated kernel (``expr.compile_stay``)
that takes those same steps, with the box and band checks and every phi
inline, while the state stays in the box and every phi in the cell's band.
It appends each sample's time to one list and its coordinates to one flat
list, from which the trajectory's arrays are built once at the end. The
first step that leaves goes to the event code: a non-finite state is an
error, and the earliest crossing of a level or a box face is localized by
bisection on phi(x(t)) - a (or x_d(t) - a) within the step (the dense state
comes from re-taking the step with a shorter length, so event states are
exactly reproducible). Leaving the box, or crossing a level with no cell on
the other side, ends the trace with a sink event. More than 10 events
inside a 10-step window aborts with a chattering error, the stand-in for
sliding behaviour this toolkit does not model.

A trace records the run it took as visits: one (cell, control, first
sample index) per location entered. The sample of a crossing opens the
next visit; the sample of a sink event closes the last one. The trace's
segments, its location sequence and its CSV rows all read the visits.

The step comes from a time budget, not from a state speed: ``default_step``
takes 1% of the fastest band traversal (band gap / max |L_g phi|) seen on a
32-point grid, so every band gets about 100 steps. Each trace checks that
budget a posteriori by step doubling: at every event and at the trace's
last step the step just taken is taken again as two halves, and the
difference, turned into a time error and multiplied by the steps of that
stay, is the trace's ``step_error``. ``conformance.check_sound`` holds it
against a budget of 1e-7, a tenth of the replay tolerance's modelling slack.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import isfinite
from operator import itemgetter
from typing import Mapping

import numpy as np

from . import expr as ex
from . import model as md
from .errors import (
    ChatteringError, EvalDomainError, LyagateError, ModelError,
    NonFiniteStateError, OutOfDomainError, StrategyError,
)
from .partition import CellComplex

EVENT_TIME_TOL = 1e-10
_EVENT_NUDGE = 1e-9      # fraction of a step used to probe the far side
CHATTER_LIMIT = 10       # more events than this in as many steps is chattering
STEP_GRID = 32           # points per axis of the grid default_step reads
STEP_FRACTION = 1e-2     # of the fastest band traversal, per step
_EVENT_ITERS = 80        # most halvings of a step that locate an event


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
    trajectory: Trajectory
    events: list
    # (cell, control, first sample index), one per location entered: the
    # sample of a crossing opens the next visit, and the sample of a sink
    # event closes the last one
    visits: list
    # largest event-time error estimate over the trace's events and its last
    # step: the step-doubling difference, times the steps of that stay
    step_error: float = 0.0

    @property
    def step(self):
        return self.trajectory.step

    def segments(self):
        """(control, t_start, t_end) of every visit that lasts."""
        times = self.trajectory.times
        ends = [times[start] for _, _, start in self.visits[1:]] + [times[-1]]
        return [(ctrl, float(times[start]), float(end))
                for (_, ctrl, start), end in zip(self.visits, ends)
                if end > times[start]]

    def location_sequence(self):
        """[(cell, control, entry time), ...] for embedding into the automaton."""
        times = self.trajectory.times
        seq = [(cell, ctrl, float(times[start]))
               for cell, ctrl, start in self.visits]
        if self.trajectory.exited:
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
    """One RK4 step of length h from state x at time t.

    Python floats raise where IEEE arithmetic would give inf or nan; those
    errors become the package's own so that the CLI reports them as bad
    input rather than as an internal error.
    """
    try:
        return step(x, h)
    except OverflowError as err:
        raise NonFiniteStateError(
            "state overflows in the step to t=%g" % (t + h)) from err
    except ZeroDivisionError as err:
        raise EvalDomainError("division by zero", x, ()) from err
    except ValueError as err:
        if str(err) != "math domain error":
            raise
        raise EvalDomainError("math domain error", x, ()) from err


def default_step(sys, controls, families):
    """RK4 step: ``STEP_FRACTION`` of the fastest band traversal on the grid.

    For every (family, band, control) the band's gap divided by the largest
    ``|L_g phi|`` over the ``STEP_GRID`` points in the band (``band_mask``)
    is a lower estimate of the time the closed loop needs to cross that
    band (the abstraction's own ``t_lo``). The step is ``STEP_FRACTION``
    times the smallest of these, so every band gets at least about
    ``1 / STEP_FRACTION`` steps. A band with no grid point in it does not
    count; ``simulate_closed_loop`` measures the error this step causes on
    every trace (``HybridTrace.step_error``).
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
                         "grid; give the step explicitly" % STEP_GRID)
    return STEP_FRACTION * fastest


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
    the largest event-time error estimate (see ``_step_error``).
    """
    if not (isfinite(h) and h > 0):
        raise LyagateError("step must be finite and positive, got %r" % (h,))
    chooser = _as_chooser(strategy)
    steppers = {g.name: ex.compile_step(sys.closed_loop(g)) for g in controls}
    families = complex.families
    phi_fns = [ex.compile_scalar(fam.phi) for fam in families]
    phis = tuple(fam.phi for fam in families)
    stays = {g.name: ex.compile_stay(sys.closed_loop(g), phis)
             for g in controls}
    n = sys.n
    # a step leaves the box when a component is more than 1e-12 outside it
    faces = [(itemgetter(d), lo, hi, 1e-12, None)
             for d, (lo, hi) in enumerate(zip(sys.domain.lower, sys.domain.upper))]
    box = tuple((lo - slack, hi + slack) for _, lo, hi, slack, _ in faces)

    x = tuple(float(v) for v in x0)
    times = [0.0]
    coords = list(x)          # the states, flat: n floats per sample
    events = []
    visits = []

    def enter(cell):
        """Choose the control for ``cell``; its visit opens at the last sample."""
        ctrl = chooser(cell, len(events))
        if ctrl not in steppers:
            raise StrategyError("unknown control '%s'" % ctrl)
        visits.append((cell, ctrl, len(times) - 1))
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
        stay_start = len(times)
        try:
            t, x, xn, step = stays[ctrl](x, t, t_stop, horizon, h, box,
                                         bands, times, coords)
        except (OverflowError, ZeroDivisionError, ValueError):
            # every step before the failing one is stored; re-taking that
            # one turns an error of the field into the package's own, and
            # an error of a phi propagates as it is
            t = times[-1]
            _advance(step_fn, tuple(coords[-n:]), min(h, horizon - t), t)
            raise
        stayed = len(times) - stay_start
        if xn is None:
            if stayed:
                # the last step, from the sample before the last one
                x_prev = tuple(coords[-2 * n:-n])
                step_error = max(step_error, stayed * max(
                    _step_error(step_fn, x_prev, x, step, times[-2], phi)
                    for phi in phi_fns))
            break
        for v in xn:
            if not isfinite(v):
                raise NonFiniteStateError(
                    "non-finite state at t=%g" % (t + step))

        # Earliest boundary event inside this step, if any: the levels of
        # every family (no slack), then the box faces (1e-12 slack; the
        # crossing is located on the face itself). Ties go to the first.
        levels = [(phi, lo, hi, 0.0, fam.index)
                  for fam, phi, (lo, hi) in zip(families, phi_fns, bands)]
        best = None   # (tau, value, crossed, direction, family)
        for value, lo, hi, slack, family in levels + faces:
            v = value(xn)
            if v > hi + slack:
                crossed, direction = hi, +1
            elif v < lo - slack:
                crossed, direction = lo, -1
            else:
                continue
            tau = _bisect_event(
                lambda s: value(_advance(step_fn, x, s, t)) - crossed,
                step, value(x) - crossed)
            if best is None or tau < best[0]:
                best = (tau, value, crossed, direction, family)

        if best is None:
            # only a nan phi stops the inner loop without a crossing
            t += step
            x = xn
            times.append(t)
            coords += x
            continue

        tau, value, level, direction, family = best
        step_error = max(step_error, (stayed + 1) * _step_error(
            step_fn, x, xn, step, t, value))
        tau = max(tau, 1e-15)
        x_event = _advance(step_fn, x, tau, t)
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
        times.append(t)
        coords += x
        if new_cell == "sink":
            exited = True
            break
        cell = new_cell
        ctrl = enter(cell)

    traj = Trajectory(times=np.fromiter(times, float),
                      states=np.fromiter(coords, float).reshape(-1, n),
                      step=h, exited=exited)
    return HybridTrace(trajectory=traj, events=events, visits=visits,
                       step_error=step_error)


def _step_error(step_fn, x, xn, step, t, value):
    """Event-time error of one RK4 step, estimated by step doubling.

    The step from ``x`` to ``xn`` is taken once more as two halves; the two
    results differ by about the full step's local error (Hairer, Norsett &
    Wanner, Solving ODEs I, section II.4). ``value`` reads the quantity the
    event is located on: phi of the crossed family, or the coordinate that
    left the box. Its difference over the two results, divided by its rate
    along the step (the secant of ``value`` over the step, i.e. the mean of
    ``L_g phi`` or of ``f_d``), is the shift that error causes in the time
    at which ``value`` reaches a threshold.
    """
    half = 0.5 * step
    xh = _advance(step_fn, _advance(step_fn, x, half, t), half, t + half)
    diff = abs(value(xn) - value(xh))
    if diff == 0.0:
        return 0.0
    rate = abs(value(xn) - value(x)) / step
    return diff / rate if rate > 0.0 else float("inf")


def _bisect_event(fun, step, f0):
    """First zero of fun on (0, step], to within EVENT_TIME_TOL; fun(step)
    has the opposite sign of f0."""
    s0 = f0 > 0
    if (fun(step) > 0) == s0:
        # already past the edge at the start of the step: immediate event
        return min(EVENT_TIME_TOL, step)
    lo, hi = 0.0, step
    for _ in range(_EVENT_ITERS):
        mid = 0.5 * (lo + hi)
        if (fun(mid) > 0) == s0:
            lo = mid
        else:
            hi = mid
        if hi - lo < EVENT_TIME_TOL:
            break
    return hi
