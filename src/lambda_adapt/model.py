"""System, pulse, mixture, and grid value types.

Geometry conventions: the emitter sits at z = 0, the incoming photon
travels toward +z, and the initial envelope lives on z <= 0 so that the
front of the pulse reaches the emitter at t = 0.  Envelope shapes are
normalized so that (1 / (2 pi rho c)) * integral |phi(z, 0)|^2 dz = 1,
which makes the one-photon state unit norm.  hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    ParameterError,
    UnsupportedEnvelopeError,
)

__all__ = [
    "LambdaSystem",
    "Exponential",
    "Gaussian",
    "Rectangular",
    "Sampled",
    "PulseSpec",
    "InitialMixture",
    "SimGrid",
    "MAX_GRID_NODES",
    "make_pulse",
    "envelope_at",
]

# Gaussian envelopes are centered this many rms widths before the emitter,
# which keeps the truncated weight at z > 0 below e^-32.
_GAUSS_OFFSET = 8.0


@dataclass(frozen=True)
class LambdaSystem:
    """Three-level lambda emitter coupled to a unidirectional waveguide.

    Parameters
    ----------
    omega_a : float
        |a> -> |e> transition frequency (sets the energy scale of work).
    delta_ab : float
        Energy of |b> above |a>; omega_b = omega_a - delta_ab.
    gamma_a, gamma_b : float
        Decay rates of |e> into the a- and b-branch continua.
    rho_density : float
        Frequency density of waveguide modes (flat).
    c_speed : float
        Propagation speed in the waveguide.
    """

    omega_a: float
    delta_ab: float = 0.0
    gamma_a: float = 1.0
    gamma_b: float = 1.0
    rho_density: float = 1.0
    c_speed: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (
                self.omega_a, self.delta_ab, self.rho_density, self.c_speed,
                self.gamma_total)):
            raise ParameterError(f"system parameters must be finite: {self}")
        if not self.omega_a > 0:
            raise ParameterError(f"omega_a must be positive, got {self.omega_a}")
        if self.gamma_a <= 0 or self.gamma_b <= 0:
            raise ParameterError(
                f"decay rates must be positive, got gamma_a={self.gamma_a}, "
                f"gamma_b={self.gamma_b}"
            )
        if self.rho_density <= 0 or self.c_speed <= 0:
            raise ParameterError("rho_density and c_speed must be positive")
        if self.omega_b <= 0:
            raise ParameterError(
                f"omega_b = omega_a - delta_ab = {self.omega_b} must stay positive"
            )

    @property
    def omega_b(self) -> float:
        return self.omega_a - self.delta_ab

    @property
    def gamma_total(self) -> float:
        return self.gamma_a + self.gamma_b

    def coupling(self, branch: str) -> float:
        """Flat coupling constant g_k = sqrt(Gamma_k / (2 pi rho))."""
        if branch == "a":
            gamma = self.gamma_a
        elif branch == "b":
            gamma = self.gamma_b
        else:
            raise ParameterError(f"branch must be 'a' or 'b', got {branch!r}")
        return math.sqrt(gamma / (2.0 * math.pi * self.rho_density))


@dataclass(frozen=True)
class Exponential:
    """Rising exponential envelope, exp(Delta z / 2c) on z <= 0.

    The Fourier transform is a Lorentzian of HWHM ``linewidth / 2``
    centered on the carrier, so this is the wavepacket emitted by
    time-reversing the decay of an emitter with linewidth ``linewidth``.
    """

    linewidth: float

    def _check(self):
        if not self.linewidth > 0:
            raise ParameterError(f"linewidth must be positive, got {self.linewidth}")

    def norm_constant(self, rho, c):
        return math.sqrt(2.0 * math.pi * rho * self.linewidth)

    def shape_values(self, z, rho, c):
        z = np.asarray(z, dtype=float)
        out = np.where(z <= 0.0, np.exp(0.5 * self.linewidth * np.minimum(z, 0.0) / c), 0.0)
        return self.norm_constant(rho, c) * out

    def spectral_scale(self):
        return self.linewidth

    def settle_time(self, c):
        # amplitude at the emitter falls as exp(-linewidth t / 2)
        return 20.0 / self.linewidth

    def drive_breakpoints(self, c):
        return ()



@dataclass(frozen=True)
class Gaussian:
    """Gaussian envelope of temporal rms width ``sigma``.

    Centered at z0 = -offset * c * sigma and truncated to z <= 0.  The
    default offset of 8 puts the truncated weight at ~e^-32; smaller
    offsets (>= 4) trade a still-negligible truncation for an earlier
    arrival of the peak.  The normalization accounts for the truncation
    exactly.
    """

    sigma: float
    offset: float = _GAUSS_OFFSET

    def _check(self):
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not self.offset >= 4.0:
            raise ParameterError(
                f"offset must be >= 4 sigma to keep the truncated tail "
                f"negligible, got {self.offset}")

    @property
    def _offset(self):
        return self.offset * self.sigma

    def norm_constant(self, rho, c):
        s = c * self.sigma
        weight = s * math.sqrt(2.0 * math.pi) * ndtr(self.offset)
        return math.sqrt(2.0 * math.pi * rho * c / weight)

    def shape_values(self, z, rho, c):
        z = np.asarray(z, dtype=float)
        s = c * self.sigma
        z0 = -c * self._offset
        out = np.where(z <= 0.0, np.exp(-((z - z0) ** 2) / (4.0 * s * s)), 0.0)
        return self.norm_constant(rho, c) * out

    def spectral_scale(self):
        return 1.0 / self.sigma

    def settle_time(self, c):
        return (self.offset + 6.5) * self.sigma

    def drive_breakpoints(self, c):
        return ()



@dataclass(frozen=True)
class Rectangular:
    """Flat envelope of duration ``duration`` (support -c tau <= z <= 0)."""

    duration: float

    def _check(self):
        if not self.duration > 0:
            raise ParameterError(f"duration must be positive, got {self.duration}")

    def norm_constant(self, rho, c):
        return math.sqrt(2.0 * math.pi * rho / self.duration)

    def shape_values(self, z, rho, c):
        z = np.asarray(z, dtype=float)
        inside = (z <= 0.0) & (z >= -c * self.duration)
        return self.norm_constant(rho, c) * np.where(inside, 1.0, 0.0)

    def spectral_scale(self):
        return 1.0 / self.duration

    def settle_time(self, c):
        return self.duration

    def drive_breakpoints(self, c):
        # the drive switches off abruptly when the back edge passes z = 0
        return (self.duration,)



@dataclass(frozen=True)
class Sampled:
    """Envelope given on a discrete z grid, linearly interpolated.

    The amplitude may be complex.  Outside the sampled window the shape
    is zero (hard truncation).  ``make_pulse`` renormalizes the samples;
    constructing the dataclass directly performs no validation.
    """

    z: np.ndarray
    amplitude: np.ndarray

    def _check(self):
        z = np.asarray(self.z, dtype=float)
        amp = np.asarray(self.amplitude)
        if z.ndim != 1 or amp.shape != z.shape or z.size < 2:
            raise ParameterError("sampled envelope needs matching 1-d z and amplitude")
        if np.any(np.diff(z) <= 0):
            raise ParameterError("sampled z grid must be strictly increasing")
        if np.any((np.abs(amp) > 0) & (z > 0)):
            raise ParameterError("sampled envelope has support at z > 0")
        if not np.all(np.isfinite(z)) or not np.all(np.isfinite(amp)):
            raise ParameterError("sampled envelope contains non-finite values")

    def norm_constant(self, rho, c):
        z = np.asarray(self.z, dtype=float)
        amp = np.asarray(self.amplitude, dtype=complex)
        # the envelope is the linear interpolant, whose square integrates
        # exactly to h/3 (|a|^2 + Re(a conj b) + |b|^2) on each interval
        sq = np.abs(amp) ** 2
        cross = (amp[:-1] * amp[1:].conj()).real
        raw = float(np.dot(np.diff(z), sq[:-1] + cross + sq[1:])) / 3.0
        if raw <= 0.0:
            raise DegenerateInputError("sampled envelope has zero norm")
        return math.sqrt(2.0 * math.pi * rho * c / raw)

    def shape_values(self, z, rho, c):
        zq = np.asarray(z, dtype=float)
        amp = np.asarray(self.amplitude, dtype=complex)
        k = self.norm_constant(rho, c)
        re = np.interp(zq, self.z, amp.real, left=0.0, right=0.0)
        im = np.interp(zq, self.z, amp.imag, left=0.0, right=0.0)
        return k * (re + 1j * im)

    def spectral_scale(self):
        # resolve features down to the sample spacing
        dz = float(np.min(np.diff(np.asarray(self.z, dtype=float))))
        span = float(self.z[-1] - self.z[0])
        return max(2.0 / span, 0.2 / dz)

    def settle_time(self, c):
        return -float(self.z[0]) / c

    def drive_breakpoints(self, c):
        # the interpolant kinks at every sample; between two samples the
        # drive is linear, which the integrator and quadratures take exactly
        return tuple(-float(zj) / c for zj in self.z)



_FAMILIES = (Exponential, Gaussian, Rectangular, Sampled)


@dataclass(frozen=True)
class PulseSpec:
    """A normalized single-photon wavepacket with a carrier frequency."""

    carrier: float
    envelope: object
    rho: float = 1.0
    c: float = 1.0

    def shape_at(self, z):
        """Normalized envelope phi_shape(z, 0), no carrier phase."""
        return self.envelope.shape_values(z, self.rho, self.c)

    def detuning(self, system: LambdaSystem) -> float:
        """Carrier detuning from the a-branch transition, delta_L."""
        return self.carrier - system.omega_a

    def spectral_scale(self) -> float:
        return self.envelope.spectral_scale()

    def settle_time(self) -> float:
        return self.envelope.settle_time(self.c)

    def drive_breakpoints(self):
        return self.envelope.drive_breakpoints(self.c)


def make_pulse(envelope, carrier: float, system: LambdaSystem) -> PulseSpec:
    """Validate an envelope and attach it to the system's waveguide.

    Parameters
    ----------
    envelope : Exponential | Gaussian | Rectangular | Sampled
        Envelope family instance; Sampled data is renormalized here.
    carrier : float
        Carrier frequency omega_L (> 0).
    system : LambdaSystem
        Supplies the waveguide constants rho and c.
    """
    if not isinstance(envelope, _FAMILIES):
        raise UnsupportedEnvelopeError(
            f"unknown envelope family {type(envelope).__name__!r}"
        )
    if not 0 < carrier < math.inf:
        raise ParameterError(
            f"carrier frequency must be positive and finite, got {carrier}")
    envelope._check()
    rho, c = system.rho_density, system.c_speed
    if isinstance(envelope, Sampled):
        k = envelope.norm_constant(rho, c)  # raises on zero norm
        amp = np.asarray(envelope.amplitude, dtype=complex) * k
        z = np.asarray(envelope.z, dtype=float).copy()
        amp.flags.writeable = False
        z.flags.writeable = False
        # after rescaling, norm_constant evaluates to 1 for the new samples
        envelope = Sampled(z=z, amplitude=amp)
    return PulseSpec(carrier=float(carrier), envelope=envelope, rho=rho, c=c)


def envelope_at(pulse: PulseSpec, z):
    """Initial pulse amplitude phi(z, 0) = phi_shape(z) e^{i omega_L z / c}.

    Accepts a scalar or an array of positions.
    """
    zq = np.asarray(z, dtype=float)
    vals = pulse.shape_at(zq) * np.exp(1j * pulse.carrier * zq / pulse.c)
    if np.isscalar(z) or getattr(z, "ndim", 0) == 0:
        return complex(vals)
    return vals


@dataclass(frozen=True)
class InitialMixture:
    """Classical mixture of the two ground states before the pulse."""

    p_a0: float
    p_b0: float

    def __post_init__(self):
        if min(self.p_a0, self.p_b0) < 0 or abs(self.p_a0 + self.p_b0 - 1.0) > 1e-12:
            raise ParameterError(
                f"mixture weights must be a distribution, got ({self.p_a0}, {self.p_b0})"
            )

    @classmethod
    def pure_a(cls):
        return cls(1.0, 0.0)

    @classmethod
    def spontaneous(cls, system: LambdaSystem):
        """Mixture left by spontaneous emission from |e>: p_k = Gamma_k / Gamma."""
        g = system.gamma_total
        return cls(system.gamma_a / g, system.gamma_b / g)


# Largest number of steps a trajectory or a z-grid may have; 2e7 complex
# samples with their companion arrays already take gigabytes.
MAX_GRID_NODES = 20_000_000


@dataclass(frozen=True)
class SimGrid:
    """Time grid of a trajectory run: horizon ``t_max`` and step ``dt``.

    ``dt`` is the largest step ``integrate_psi`` takes.  It need only
    resolve the envelope (dt <= 0.01 / spectral scale): Gamma and
    delta_L set no step here, because ``integrate_psi`` resolves the
    emitter's transients itself.  The p_ab, work and heat quadratures
    are fourth order, so no ledger needs a finer dt.  t_max / dt may not
    exceed MAX_GRID_NODES.
    """

    t_max: float
    dt: float

    def validate(self, pulse: PulseSpec):
        if min(self.t_max, self.dt) <= 0:
            raise ConfigurationError("t_max and dt must both be positive")
        nodes = self.t_max / self.dt
        if not nodes <= MAX_GRID_NODES:
            raise ConfigurationError(
                f"grid of t_max / dt = {nodes:.3g} nodes exceeds "
                f"MAX_GRID_NODES = {MAX_GRID_NODES:.3g}"
            )
        ceiling = 0.01 / pulse.spectral_scale()
        if self.dt > ceiling * (1 + 1e-9):
            raise ConfigurationError(
                f"dt = {self.dt} too coarse; need dt <= 0.01 / "
                f"(envelope spectral scale) = {ceiling:.3g}"
            )

    @classmethod
    def auto(cls, system: LambdaSystem, pulse: PulseSpec, *, t_max=None,
             dt=None):
        """Build a grid adequate for the given system and pulse.

        The default dt = 0.005 / spectral scale, half the ``validate``
        ceiling, is the one step rule of every trajectory grid: it
        reads neither Gamma nor delta_L.  With the transient windows of
        ``integrate_psi`` and the fourth-order quadratures of p_ab, heat
        and work it closes the energy ledger of a resonant run at 1e-8.
        The default t_max is the settle time plus 20 / Gamma.
        """
        if t_max is None:
            t_max = pulse.settle_time() + 20.0 / system.gamma_total
        if dt is None:
            dt = 0.005 / pulse.spectral_scale()
        grid = cls(t_max=float(t_max), dt=float(dt))
        grid.validate(pulse)
        return grid
