"""Single-query database fetching on a simulated liquid-state NMR register.

The package simulates the full experiment: a logical register of one
readout (ancilla) spin plus database spins, a compiler that turns a bit
pattern query into one- and two-qubit pulse network (optionally expanded
to refocused hard pulses over the always-on couplings), mixed-state
ensemble evolution from thermal equilibrium or an effective pure state,
and an ancilla spectrometer whose inverted lines reveal every matching
item after a single oracle application.
"""

from .spin_system import (
    ConfigError,
    QueryPattern,
    Spin,
    SpinSystem,
    SpinSystemError,
    crotonic_default,
    load_spin_system,
    load_spin_system_file,
)
from .operators import distance_up_to_global_phase
from .compiler import (
    CompileError,
    Delay,
    GateSequence,
    SelectivePulse,
    VirtualZ,
    ZZEvolution,
    build_query_network,
    compile_multilinear_z_phase,
    expand_to_hard_pulses,
    format_sequence,
    sequence_report,
)
from .states import (
    DensityState,
    StateError,
    apply_query_diagonal,
    effective_pure_ancilla,
    thermal_state,
)
from .spectrometer import (
    AcquisitionParams,
    DecodeError,
    Peak,
    Readout,
    SpectralLine,
    Spectrum,
    SpectrometerError,
    line_table,
    readout,
)
from .cli import RunConfig, RunResult, bench_report, classical_oracle, run_fetch

__version__ = "0.1.0"

__all__ = [
    "AcquisitionParams",
    "CompileError",
    "ConfigError",
    "DecodeError",
    "Delay",
    "DensityState",
    "GateSequence",
    "Peak",
    "QueryPattern",
    "Readout",
    "RunConfig",
    "RunResult",
    "SelectivePulse",
    "Spin",
    "SpinSystem",
    "SpinSystemError",
    "SpectralLine",
    "Spectrum",
    "SpectrometerError",
    "StateError",
    "VirtualZ",
    "ZZEvolution",
    "apply_query_diagonal",
    "bench_report",
    "build_query_network",
    "classical_oracle",
    "compile_multilinear_z_phase",
    "crotonic_default",
    "distance_up_to_global_phase",
    "effective_pure_ancilla",
    "expand_to_hard_pulses",
    "format_sequence",
    "line_table",
    "load_spin_system",
    "load_spin_system_file",
    "readout",
    "run_fetch",
    "sequence_report",
    "thermal_state",
]
