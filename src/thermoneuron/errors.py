"""Exception hierarchy for the thermoneuron package."""


class ThermoneuronError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(ThermoneuronError):
    """Malformed state, register, or operator (dimension/shape/invariant)."""


class ResonanceError(ThermoneuronError):
    """Target-qubit gap does not match the virtual-qubit gap."""


class SingularGapError(ThermoneuronError):
    """A virtual or target gap of zero where a finite gap is required."""


class CalibrationError(ThermoneuronError):
    """Modulator calibration is infeasible or a spec is not calibrated."""


class DegenerateSteadyStateError(ThermoneuronError):
    """The generator's null space has dimension greater than one."""


class SolverError(ThermoneuronError, RuntimeError):
    """A numerical solver failed: integration, steady-state residual, or range."""


class NotSeparableError(ThermoneuronError):
    """Truth table is not linearly separable; lists the violating rows."""

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class DesignError(ThermoneuronError):
    """Weight-to-machine compilation cannot produce a working machine."""


class TrainingError(ThermoneuronError):
    """Network training did not reach a behaviorally correct design."""

    def __init__(self, message, loss=None):
        super().__init__(message)
        self.loss = loss


class ConfigError(ThermoneuronError):
    """Invalid user-facing configuration (encodings, grids, CLI arguments)."""
