"""Exception types shared across the package."""


class LyagateError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(LyagateError):
    """Malformed expression text; ``offset`` is the byte position of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (offset %d)" % (message, offset))
        self.offset = offset


class UnknownVariableError(LyagateError):
    """Identifier that is not a declared state/input variable."""

    def __init__(self, name, offset=None):
        msg = "unknown variable '%s'" % name
        if offset is not None:
            msg += " (offset %d)" % offset
        super().__init__(msg)
        self.name = name
        self.offset = offset


class EvalDomainError(LyagateError):
    """Evaluation left the expression's domain (division by zero, sqrt of a negative)."""

    def __init__(self, reason, x, u):
        super().__init__("%s at x=%s, u=%s" % (reason, tuple(x), tuple(u)))
        self.reason = reason
        self.x = tuple(x)
        self.u = tuple(u)


class ModelError(LyagateError):
    """Inconsistent model data (dimensions, level ordering, input usage)."""


class AdmissibilityError(LyagateError):
    """A control's Lie derivative changes sign inside a slice."""

    def __init__(self, family, slice_index, witness_a, value_a, witness_b, value_b):
        wa = tuple(float(v) for v in witness_a)
        wb = tuple(float(v) for v in witness_b)
        super().__init__(
            "control not admissible on slice %d of family %d: "
            "phidot(%s)=%g, phidot(%s)=%g"
            % (slice_index, family, wa, value_a, wb, value_b)
        )
        self.family = family
        self.slice_index = slice_index
        self.witness_a = wa
        self.value_a = value_a
        self.witness_b = wb
        self.value_b = value_b


class DegenerateLevelError(LyagateError):
    """A level value is not regular: the gradient vanishes on the level set."""

    def __init__(self, family, level, point, grad_norm):
        super().__init__(
            "level %g of family %d is degenerate: |grad phi| = %g at %s"
            % (level, family, grad_norm, tuple(point))
        )
        self.family = family
        self.level = level
        self.point = tuple(point)
        self.grad_norm = grad_norm


class CoverageError(LyagateError):
    """The level range of a family does not cover the state-space box."""

    def __init__(self, family, value, point, lo, hi):
        super().__init__(
            "family %d does not cover the domain: phi(%s) = %g outside [%g, %g]"
            % (family, tuple(point), value, lo, hi)
        )
        self.family = family
        self.value = value
        self.point = tuple(point)


class ResolutionError(LyagateError):
    """Cell structure changed when the grid resolution was doubled."""


class OutOfDomainError(LyagateError):
    """Point lies outside the state-space box."""


class EmptySliceError(LyagateError):
    """A slice or cell has no sample points inside the domain."""


class FacetSignConflictError(LyagateError):
    """Sampled facet points disagree about the sign of the Lie derivative."""

    def __init__(self, cell_a, cell_b, family, control, values):
        super().__init__(
            "facet sign conflict on %s|%s (family %d, control %s): values %s"
            % (cell_a, cell_b, family, control, list(values)[:6])
        )
        self.cell_a = cell_a
        self.cell_b = cell_b
        self.family = family
        self.control = control
        self.values = tuple(values)


class UnboundedRatioError(LyagateError):
    """A switch update needs a ratio whose divisor is zero or infinite."""


class NegativeClockError(LyagateError):
    """An update map produced a clock component below the tolerance floor."""


class ChatteringError(LyagateError):
    """Too many crossings in a short window; sliding-mode behaviour suspected."""


class NonFiniteStateError(LyagateError):
    """Integration produced a non-finite state."""


class StrategyError(LyagateError):
    """Strategy is missing a cell or names an unknown control."""


class SpecFileError(LyagateError):
    """System specification file failed validation."""
