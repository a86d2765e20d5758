"""causalgap: how far ideal bandpass filters sit from physically realizable ones.

An ideal (brick-wall) filter multiplies by the indicator of a frequency
band; its impulse response spreads over all time, so no causal system, and
no system with a finite look-ahead, can implement it exactly.  This package
computes the exact L2 distance and angle from an ideal filter to the causal
filters and to the filters allowed a delay, in both the analog (real line)
and digital (unit circle) settings, and ships the brute-force oracles used
to validate every closed form.

Outside verify, numpy is imported only inside the functions that build or
reduce arrays: the analog impulse response, operators, oracles and
best_causal_coefficients.  Scalar reports, sweeps, limit probes and the
command line's digital coefficient tables and impulse responses never load
it.
"""

from .errors import (
    DomainError,
    NonMonotoneLadder,
    ZeroKernel,
)
from .kernel import BandpassInterval
from .signals import AnalogDelay, DigitalDelay, DigitalSequence, SampledSignal
from .analog import (
    ApproximationReport,
    causal_report,
    delayed_distance_si,
    delayed_report,
    impulse_response,
)
from .digital import (
    best_causal_coefficients,
    causal_report_digital,
    delayed_report_digital,
)
from .operators import (
    NormEstimate,
    convolve_digital,
    operator_norm_estimate,
    truncate_to_delay,
    truncate_to_delay_analog,
)
from .oracle import (
    LimitProbeResult,
    OracleDistance,
    analog_distance_oracle,
    digital_distance_oracle,
    limit_probe,
)

__version__ = "0.1.0"

__all__ = [
    "AnalogDelay",
    "ApproximationReport",
    "BandpassInterval",
    "DigitalDelay",
    "DigitalSequence",
    "DomainError",
    "LimitProbeResult",
    "NonMonotoneLadder",
    "NormEstimate",
    "OracleDistance",
    "SampledSignal",
    "ZeroKernel",
    "analog_distance_oracle",
    "best_causal_coefficients",
    "causal_report",
    "causal_report_digital",
    "convolve_digital",
    "delayed_distance_si",
    "delayed_report",
    "delayed_report_digital",
    "digital_distance_oracle",
    "impulse_response",
    "limit_probe",
    "operator_norm_estimate",
    "truncate_to_delay",
    "truncate_to_delay_analog",
    "__version__",
]
