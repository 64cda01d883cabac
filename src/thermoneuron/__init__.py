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
from .errors import (CalibrationError, ConfigError, DegenerateSteadyStateError,
                     DesignError, NotSeparableError, ResonanceError,
                     SingularGapError, SolverError, StructuralError,
                     ThermoneuronError, TrainingError)
from .network import (NetworkSpec, NetworkResponse, eval_layers, eval_network,
                      train_network)
from .neuron import (ModulatorCalibration, NeuronSpec, TransferPoint,
                     build_neuron, calibrate_modulator, inverter,
                     sigmoid_approx, slope_at_threshold, steady_from_virtual,
                     steady_output, steady_response, threshold_point)
from .quantum import (BathContact, QubitRegister, fermi_population,
                      gibbs_qubit, gibbs_register, heat_current,
                      entropy_production_rate, integrate_master, lindblad_rhs,
                      reset_dissipator, steady_state, von_neumann_entropy)
from .serialize import TOOL_VERSION, dump_machine, load_machine
from .virtual import (VirtualQubit, build_interaction_hamiltonian, virtual_gap,
                      virtual_population, virtual_qubit, virtual_temperature)

__version__ = TOOL_VERSION
