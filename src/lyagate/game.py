"""Strategy synthesis on the cell game, restriction, and interval reachability.

Strategies are cell-constant: one control per cell, independent of the
clocks. Safety uses a greatest fixed point (keep a cell when some control
leads all uncontrollable successors back into the kept set); reachability
uses a layered attractor (a cell joins when some control forces an exit in
bounded time and every uncontrollable successor already wins). Restricting
the game by a strategy collapses the control switch at each cell entry into
the crossing transition: the edge's update is the crossing's update composed
with the automaton's own switch edge at the target zone, so the switch maps
are defined in one place, the ``tga`` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import StrategyError
from .tga import FamilyUpdate, Location, TimedGameAutomaton, Transition, compose


@dataclass(frozen=True)
class GameObjective:
    """Either avoid a set of cells forever, or reach one (optionally in time)."""

    kind: str                  # 'safety' | 'reach'
    cells: tuple
    horizon: float | None = None

    def __post_init__(self):
        if self.kind not in ("safety", "reach"):
            raise ValueError("objective kind must be 'safety' or 'reach'")
        object.__setattr__(self, "cells", tuple(self.cells))
        if self.horizon is not None and self.kind != "reach":
            raise ValueError("horizon only applies to reach objectives")


def synthesize(tga, objective: GameObjective):
    """Dispatch on the objective; reach horizons prune slow winners."""
    if objective.kind == "safety":
        return synthesize_safety(tga, objective.cells)
    result = synthesize_reach(tga, objective.cells)
    if objective.horizon is not None:
        keep = {c for c in result.winning
                if result.bounds.get(c, math.inf) <= objective.horizon}
        cells = set(tga.cells())
        return SynthesisResult(
            objective="reach", realizable=keep >= cells,
            strategy=result.strategy, winning=keep,
            bounds={c: b for c, b in result.bounds.items() if c in keep},
            note=result.note)
    return result


@dataclass
class SynthesisResult:
    objective: str
    realizable: bool
    strategy: dict                 # cell id -> control name (total)
    winning: set                   # cell ids that win
    bounds: dict = field(default_factory=dict)   # cell id -> worst-case time
    note: str = ""

    def to_dict(self):
        enc = lambda v: "inf" if v == math.inf else v
        return {
            "objective": self.objective,
            "realizable": self.realizable,
            "strategy": dict(sorted(self.strategy.items())),
            "winning": sorted(self.winning),
            "bounds": {k: enc(v) for k, v in sorted(self.bounds.items())},
            "note": self.note,
        }


_NOTE = ("cell-level attractor on the abstraction; conservative with respect "
         "to clock-aware strategies")


def _successor_map(tga):
    """(cell, control) -> set of successor cells over uncontrollable edges."""
    succ = {}
    for loc in tga.non_sink_locations():
        succ[(loc.cell, loc.control)] = set()
    for t in tga.transitions:
        if t.kind != "u":
            continue
        src = tga.locations[t.source]
        dst = tga.locations[t.target]
        target_cell = "sink" if dst.is_sink else dst.cell
        succ[(src.cell, src.control)].add(target_cell)
    return succ


def synthesize_safety(tga, avoid):
    """Greatest fixed point of 'some control keeps every successor winning'.

    The sink is always avoided. Returns a total strategy; losing cells get
    the lexicographically smallest control so the map stays total.
    """
    avoid = set(avoid) | {"sink"}
    cells = [c for c in tga.cells()]
    controls = tga.controls()
    succ = _successor_map(tga)

    winning = {c for c in cells if c not in avoid}
    changed = True
    while changed:
        changed = False
        for c in list(winning):
            ok = any(succ[(c, g)] <= winning for g in controls)
            if not ok:
                winning.discard(c)
                changed = True

    strategy = {}
    for c in cells:
        pick = None
        if c in winning:
            for g in controls:
                if succ[(c, g)] <= winning:
                    pick = g
                    break
        strategy[c] = pick if pick is not None else controls[0]
    realizable = winning == {c for c in cells if c not in avoid}
    return SynthesisResult(objective="safety", realizable=realizable,
                           strategy=strategy, winning=winning, note=_NOTE)


def _forced_bound(tga, cell, control):
    """Smallest finite invariant bound of the location, or None."""
    name = tga.location_name(cell, control)
    finite = [b for _, b in tga.invariant_of(name) if math.isfinite(b)]
    return min(finite) if finite else None


def synthesize_reach(tga, goal):
    """Layered attractor with per-cell worst-case arrival bounds.

    A cell joins when some control has a finite invariant bound (the exit is
    forced within it) and every uncontrollable successor under that control
    already wins; its bound is that invariant bound plus the worst successor
    bound. Ties break toward the smaller bound, then the control name.
    """
    goal = set(goal)
    cells = [c for c in tga.cells()]
    controls = tga.controls()
    succ = _successor_map(tga)

    bound = {c: 0.0 for c in goal if c in cells}
    winning = set(bound)
    strategy = {}
    changed = True
    while changed:
        changed = False
        for c in cells:
            if c in winning:
                continue
            best = None
            for g in controls:
                t_exit = _forced_bound(tga, c, g)
                if t_exit is None:
                    continue
                succs = succ[(c, g)]
                if not succs or not succs <= winning:
                    continue
                cand = t_exit + max(bound[s] for s in succs)
                if best is None or (cand, g) < best:
                    best = (cand, g)
            if best is not None:
                bound[c] = best[0]
                strategy[c] = best[1]
                winning.add(c)
                changed = True

    for c in cells:
        if c not in strategy:
            # goal cells and losing cells still get a deterministic entry
            pick = None
            for g in controls:
                if succ[(c, g)] <= winning | {c}:
                    pick = g
                    break
            strategy[c] = pick if pick is not None else controls[0]
    realizable = winning >= set(cells)
    return SynthesisResult(objective="reach", realizable=realizable,
                           strategy=strategy, winning=winning,
                           bounds=bound, note=_NOTE)


def restrict(tga, strategy):
    """Timed automaton controlled by a cell-constant strategy.

    Keeps one location per cell. A crossing edge into a cell whose strategy
    control differs is followed by the automaton's own switch edge at the
    target zone, so the two collapse into one edge with the composed update.
    """
    cells = tga.cells()
    missing = [c for c in cells if c not in strategy]
    if missing:
        raise StrategyError("strategy misses cells: %s" % missing)
    controls = set(tga.controls())
    for c, g in strategy.items():
        if g not in controls:
            raise StrategyError("strategy names unknown control '%s'" % g)

    kept = {}
    invariants = {}
    for c in cells:
        name = tga.location_name(c, strategy[c])
        kept[name] = Location(name=name, cell=c, control=strategy[c])
        inv = tga.invariant_of(name)
        if inv:
            invariants[name] = inv
    sink = Location(name="sink", cell=None, control=None, is_sink=True)
    kept["sink"] = sink

    switches = {(t.source, t.target): t for t in tga.transitions if t.kind == "c"}
    transitions = []
    for t in tga.transitions:
        if t.kind != "u":
            continue
        src_loc = tga.locations[t.source]
        if src_loc.is_sink or strategy.get(src_loc.cell) != src_loc.control:
            continue
        dst_loc = tga.locations[t.target]
        if dst_loc.is_sink or strategy[dst_loc.cell] == dst_loc.control:
            transitions.append(t)
            continue
        switch = switches[(t.target,
                           tga.location_name(dst_loc.cell, strategy[dst_loc.cell]))]
        transitions.append(Transition(
            source=t.source, target=switch.target, action=t.action, kind="u",
            guard=t.guard, update=compose(t.update, switch.update),
            family=t.family))

    return TimedGameAutomaton(
        mode=tga.mode, k=tga.k, locations=kept,
        initial=sorted(n for n in kept if n != "sink"),
        invariants=invariants, transitions=transitions, bounds=tga.bounds,
        signs=tga.signs, complex=tga.complex,
        diagnostics={"restricted": True})


# ---------------------------------------------------------------------------
# Interval-box forward reachability
# ---------------------------------------------------------------------------

def _interval_add(iv, lo, hi):
    return (iv[0] + lo, iv[1] + hi)


def _affine_interval(fu: FamilyUpdate, pair_iv):
    """Image of a per-pair interval box under alpha + beta v."""
    (c1l, c1u), (c2l, c2u) = pair_iv
    out = []
    for r in range(2):
        lo = hi = fu.alpha[r]
        for (bl, bu), coeff in (((c1l, c1u), fu.beta[r][0]),
                                ((c2l, c2u), fu.beta[r][1])):
            if coeff >= 0:
                lo += coeff * bl
                hi += coeff * bu
            else:
                lo += coeff * bu
                hi += coeff * bl
        out.append((lo, hi))
    return tuple(out)


def _hull(a, b):
    return tuple(
        tuple((min(pa[0], pb[0]), max(pa[1], pb[1])) for pa, pb in zip(fa, fb))
        for fa, fb in zip(a, b))


def _box_le(a, b):
    return all(pb[0] <= pa[0] and pa[1] <= pb[1]
               for fa, fb in zip(a, b) for pa, pb in zip(fa, fb))


@dataclass
class ReachItem:
    entry: tuple       # (earliest, latest) entry time
    occupancy: tuple   # (earliest, latest) time the location can be occupied


@dataclass
class ReachResult:
    items: dict
    horizon: float
    converged: bool

    def locations(self):
        return set(self.items)


def reach_locations(tga, initial, horizon, max_iters=None):
    """Forward exploration with one interval box per clock pair.

    Entry valuations are over-approximated by per-component intervals; a
    transition is taken whenever some delay satisfies its guard without
    breaking the invariant. Time accumulates as [sum of minimal delays, sum
    of maximal delays], capped at the horizon.
    """
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    k = tga.k
    zero = tuple(((0.0, 0.0), (0.0, 0.0)) for _ in range(k))

    boxes = {}
    times = {}
    work = []
    for name in initial:
        boxes[name] = zero
        times[name] = (0.0, 0.0)
        work.append(name)

    if max_iters is None:
        max_iters = 64 * max(1, len(tga.locations))
    iters = 0
    converged = True
    while work:
        iters += 1
        if iters > max_iters:
            converged = False
            break
        name = work.pop()
        box = boxes[name]
        t_ent = times[name]
        inv = tga.invariant_of(name)
        d_max_inv = math.inf
        for fam, bound in inv:
            d_max_inv = min(d_max_inv, bound - box[fam - 1][0][0])
        d_max_inv = max(d_max_inv, 0.0)
        for t in tga.outgoing(name):
            d_min = 0.0
            for fam, thr in t.guard:
                d_min = max(d_min, thr - box[fam - 1][1][1])
            d_min = max(d_min, 0.0)
            d_max = min(d_max_inv, horizon - t_ent[0])
            if d_min > d_max + 1e-12:
                continue
            delayed = tuple(
                tuple(_interval_add(iv, d_min, d_max) for iv in fam_box)
                for fam_box in box)
            upd = dict(t.update.entries)
            new_box = tuple(
                _affine_interval(upd[fam + 1], delayed[fam]) if fam + 1 in upd
                else delayed[fam]
                for fam in range(k))
            new_t = (t_ent[0] + d_min, min(horizon, t_ent[1] + d_max))
            if new_t[0] > horizon:
                continue
            tgt = t.target
            if tgt in boxes:
                merged_box = _hull(boxes[tgt], new_box)
                merged_t = (min(times[tgt][0], new_t[0]),
                            max(times[tgt][1], new_t[1]))
                if _box_le(merged_box, boxes[tgt]) and merged_t == times[tgt]:
                    continue
                boxes[tgt] = merged_box
                times[tgt] = merged_t
            else:
                boxes[tgt] = new_box
                times[tgt] = new_t
            work.append(tgt)

    items = {}
    for name, box in boxes.items():
        t_ent = times[name]
        inv = tga.invariant_of(name)
        dwell = math.inf
        for fam, bound in inv:
            dwell = min(dwell, bound - box[fam - 1][0][0])
        latest = horizon if dwell == math.inf else min(horizon, t_ent[1] + dwell)
        items[name] = ReachItem(entry=t_ent, occupancy=(t_ent[0], latest))
    return ReachResult(items=items, horizon=horizon, converged=converged)
