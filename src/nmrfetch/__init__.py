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
    SpectralLine,
    Spectrum,
    SpectrometerError,
    acquire_fid,
    analytic_spectrum,
    classify_marked,
    decode_peaks,
    fft_spectrum,
    line_table,
    pick_peaks,
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
    "acquire_fid",
    "analytic_spectrum",
    "apply_query_diagonal",
    "bench_report",
    "build_query_network",
    "classical_oracle",
    "classify_marked",
    "compile_multilinear_z_phase",
    "crotonic_default",
    "decode_peaks",
    "distance_up_to_global_phase",
    "effective_pure_ancilla",
    "expand_to_hard_pulses",
    "fft_spectrum",
    "format_sequence",
    "line_table",
    "load_spin_system",
    "load_spin_system_file",
    "pick_peaks",
    "run_fetch",
    "sequence_report",
    "thermal_state",
]
