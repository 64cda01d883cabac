"""Exception hierarchy for the thermoneuron package."""


class ThermoneuronError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(ThermoneuronError):
    """Malformed state, register, or operator (dimension/shape/invariant),
    including an off-resonant target gap and a zero virtual or target gap."""


class CalibrationError(ThermoneuronError):
    """Modulator calibration is infeasible or a spec is not calibrated."""


class SolverError(ThermoneuronError, RuntimeError):
    """A numerical solver failed: integration, range, a steady-state residual,
    or a generator whose steady state is not unique."""


class NotSeparableError(ThermoneuronError):
    """Truth table is not linearly separable; the message lists the violating rows."""


class DesignError(ThermoneuronError):
    """Weight-to-machine compilation or network training cannot produce a
    working machine."""


class ConfigError(ThermoneuronError):
    """Invalid user-facing configuration (encodings, grids, CLI arguments)."""
