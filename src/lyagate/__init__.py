"""Timed-game abstraction of control systems via Lyapunov level-set partitioning.

The pipeline: parse a control system and a stack of partitioning functions
(`expr`, `model`), slice the state space into cells (`partition`), bound the
dwell time of every slice under every control (`bounds`), assemble a timed
game automaton with paired clocks and affine update maps (`tga`), synthesize
cell-constant switching strategies (`game`), simulate the continuous closed
loop (`sim`), and check that every simulated trace embeds into a run of the
abstraction (`conformance`). The `cli` module wires the whole chain behind
one command.
"""

from . import errors
from .expr import (
    Expression, parse_expression, eval_expression, differentiate,
    substitute, variables, to_text,
)
from .model import (
    Box, ControlSystem, ControlLaw, PartitioningFamily,
    lie_derivative, check_admissibility, admissibility_map,
    validate_levels, critical_points,
)
from .partition import Slice, Cell, CellComplex, build_slices, build_cells, locate
from .bounds import (
    ExtremalDerivatives, TimingBounds, BoundsTable,
    extremal_lie_derivative, timing_bounds, compute_bounds,
)
from .tga import (
    Location, FamilyUpdate, UpdateMap, Transition, TimedGameAutomaton,
    build_tga, delay, apply_update, switch_update, run_feasible,
    zero_valuation,
)
from .game import (
    SynthesisResult, synthesize_safety, synthesize_reach, restrict,
    reach_locations,
)
from .sim import Trajectory, HybridTrace, simulate_closed_loop, default_step
from .conformance import (
    SoundnessReport, check_sandwich, check_dwell, check_sound,
)

__version__ = "0.1.0"
