"""Single-photon driving of a three-level lambda emitter.

Simulation and verification tools for the transfer |a> -> |b> driven by
one photon: transition probabilities, absorbed work and dissipated heat,
environment entropy, a brute-force discrete-mode cross-check, and
optimization of the driving regime.
"""

__version__ = "0.1.0"

from .model import (
    LambdaSystem,
    Exponential,
    Gaussian,
    Rectangular,
    PulseSpec,
    InitialMixture,
    SimGrid,
    make_pulse,
)

__all__ = [
    "__version__",
    "LambdaSystem",
    "Exponential",
    "Gaussian",
    "Rectangular",
    "PulseSpec",
    "InitialMixture",
    "SimGrid",
    "make_pulse",
]
