"""thermoneuron: simulate and design thermodynamic neurons.

Autonomous few-qubit thermal machines that compute boolean functions with
heat: logical values ride on bath temperatures, the machine relaxes to a
non-equilibrium steady state, and the output is read off the final
temperature of a finite reservoir.  Natural units (k_B = hbar = 1)
throughout.
"""

from .channel import (ChannelStats, TradeoffPoint, average_dissipation,
                      average_error, conditional_outputs, dissipation,
                      machine_response, mc_conditional_outputs, tradeoff_sweep)
from .designer import (DesignConfig, Encoding, TruthTable, decode_array, encode,
                       gate_table, preset, train_perceptron, weights_to_neuron)
from .dynamics import Trajectory, evolve_full, evolve_quasi_static
from .errors import (CalibrationError, ConfigError, DesignError, NotSeparableError,
                     SolverError, StructuralError, ThermoneuronError)
from .network import NetworkSpec, eval_layers, train_network
from .neuron import (ModulatorCalibration, NeuronSpec, TransferPoint,
                     build_neuron, calibrate_modulator, inverter,
                     sigmoid_approx, slope_at_threshold, steady_from_virtual,
                     steady_output, steady_response, threshold_point)
from .quantum import fermi_population
from .serialize import TOOL_VERSION, dump_machine, load_machine
from .virtual import (VirtualQubit, virtual_gap, virtual_population, virtual_qubit,
                      virtual_temperature)

__version__ = TOOL_VERSION
