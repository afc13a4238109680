"""System, pulse, mixture, and grid value types.

Geometry conventions: the emitter sits at z = 0, the incoming photon
travels toward +z, and the initial envelope lives on z <= 0 so that the
front of the pulse reaches the emitter at t = 0.  Units are hbar = c = 1
and the waveguide's flat mode density is 1, so a position z is the time
-z at which it reaches the emitter.  Envelope shapes are normalized so
that (1 / (2 pi)) * integral |phi(z, 0)|^2 dz = 1, which makes the
one-photon state unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ParameterError,
                     UnsupportedEnvelopeError)

__all__ = [
    "LambdaSystem",
    "Exponential",
    "Gaussian",
    "Rectangular",
    "FAMILIES",
    "PulseSpec",
    "InitialMixture",
    "SimGrid",
    "MAX_GRID_NODES",
    "make_pulse",
]

# Gaussian envelopes are centered this many rms widths before the emitter,
# which keeps the truncated weight at z > 0 below e^-32.
_GAUSS_OFFSET = 8.0

# Terms of Laplace's continued fraction for erfc, evaluated backward.  The
# spectrum takes it at Re w = _GAUSS_OFFSET / 2 = 4, where it converges
# slowest on the real axis: there 20 terms leave 1e-16 of e^{w^2} erfc(w),
# which moves the last bit of some spectrum values, and 60 leave 6e-32.
_ERFC_TERMS = 60


def _erfcx(w):
    """e^{w^2} erfc(w) for Re w >= 4, by Laplace's continued fraction.

    erfc(w) = e^{-w^2} / sqrt(pi) * 1 / (w + (1/2) / (w + 1 / (w + (3/2)
    / (w + ...)))); the scaled form cannot overflow.
    """
    tail = np.zeros_like(w)
    for k in range(_ERFC_TERMS, 0, -1):
        tail = (0.5 * k) / (w + tail)
    return 1.0 / (math.sqrt(math.pi) * (w + tail))


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
    """

    omega_a: float
    delta_ab: float = 0.0
    gamma_a: float = 1.0
    gamma_b: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (
                self.omega_a, self.delta_ab, self.gamma_total)):
            raise ParameterError(f"system parameters must be finite: {self}")
        if not self.omega_a > 0:
            raise ParameterError(f"omega_a must be positive, got {self.omega_a}")
        if self.gamma_a <= 0 or self.gamma_b <= 0:
            raise ParameterError(
                f"decay rates must be positive, got gamma_a={self.gamma_a}, "
                f"gamma_b={self.gamma_b}"
            )
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


@dataclass(frozen=True)
class Exponential:
    """Rising exponential envelope, exp(Delta z / 2) on z <= 0.

    The Fourier transform is a Lorentzian of HWHM ``linewidth / 2``
    centered on the carrier, so this is the wavepacket emitted by
    time-reversing the decay of an emitter with linewidth ``linewidth``.
    """

    linewidth: float

    def _check(self):
        if not self.linewidth > 0:
            raise ParameterError(f"linewidth must be positive, got {self.linewidth}")

    def norm_constant(self):
        return math.sqrt(2.0 * math.pi * self.linewidth)

    def shape_values(self, z):
        z = np.asarray(z, dtype=float)
        out = np.where(z <= 0.0, np.exp(0.5 * self.linewidth * np.minimum(z, 0.0)), 0.0)
        return self.norm_constant() * out

    def spectrum(self, delta):
        delta = np.asarray(delta, dtype=float)
        return self.norm_constant() / (0.5 * self.linewidth - 1j * delta)

    def spectral_scale(self):
        return self.linewidth

    def at_scale(self, scale):
        """The same family at spectral scale ``scale``."""
        return Exponential(scale)

    def settle_time(self):
        # amplitude at the emitter falls as exp(-linewidth t / 2)
        return 20.0 / self.linewidth

    def drive_breakpoints(self):
        return ()



@dataclass(frozen=True)
class Gaussian:
    """Gaussian envelope of temporal rms width ``sigma``.

    Centered at z0 = -8 sigma (_GAUSS_OFFSET rms widths before the
    emitter) and truncated to z <= 0, which leaves a truncated weight of
    ~e^-32.  The normalization accounts for the truncation exactly.
    """

    sigma: float

    def _check(self):
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")

    def norm_constant(self):
        # Phi(_GAUSS_OFFSET), the standard normal CDF
        phi = 0.5 * math.erfc(-_GAUSS_OFFSET / math.sqrt(2.0))
        weight = self.sigma * math.sqrt(2.0 * math.pi) * phi
        return math.sqrt(2.0 * math.pi / weight)

    def shape_values(self, z):
        z = np.asarray(z, dtype=float)
        s = self.sigma
        z0 = -_GAUSS_OFFSET * s
        out = np.where(z <= 0.0, np.exp(-((z - z0) ** 2) / (4.0 * s * s)), 0.0)
        return self.norm_constant() * out

    def spectrum(self, delta):
        # with a = _GAUSS_OFFSET / 2, b = sigma delta and w = a + i b:
        # N s sqrt(pi) e^{-i delta z0} (2 - erfc(w)) e^{-b^2}, where
        # z0 = -2 a s and e^{-b^2} erfc(w) = e^{-a^2 - 2 i a b} erfcx(w)
        a = 0.5 * _GAUSS_OFFSET
        b = self.sigma * np.asarray(delta, dtype=float)
        full = 2.0 * np.exp(-b * b + 2j * a * b)
        tail = math.exp(-a * a) * _erfcx(a + 1j * b)
        return self.norm_constant() * self.sigma \
            * math.sqrt(math.pi) * (full - tail)

    def spectral_scale(self):
        return 1.0 / self.sigma

    def at_scale(self, scale):
        """The same family at spectral scale ``scale``."""
        return Gaussian(1.0 / scale)

    def settle_time(self):
        return (_GAUSS_OFFSET + 6.5) * self.sigma

    def drive_breakpoints(self):
        return ()



@dataclass(frozen=True)
class Rectangular:
    """Flat envelope of duration ``duration`` (support -tau <= z <= 0)."""

    duration: float

    def _check(self):
        if not self.duration > 0:
            raise ParameterError(f"duration must be positive, got {self.duration}")

    def norm_constant(self):
        return math.sqrt(2.0 * math.pi / self.duration)

    def shape_values(self, z):
        z = np.asarray(z, dtype=float)
        inside = (z <= 0.0) & (z >= -self.duration)
        return self.norm_constant() * np.where(inside, 1.0, 0.0)

    def spectrum(self, delta):
        half = 0.5 * self.duration * np.asarray(delta, dtype=float)
        return self.norm_constant() * self.duration \
            * np.exp(1j * half) * np.sinc(half / math.pi)

    def spectral_scale(self):
        return 1.0 / self.duration

    def at_scale(self, scale):
        """The same family at spectral scale ``scale``."""
        return Rectangular(1.0 / scale)

    def settle_time(self):
        return self.duration

    def drive_breakpoints(self):
        # the drive switches off abruptly when the back edge passes z = 0
        return (self.duration,)


# the analytic envelope families by name; each class takes its width as
# its one positional argument
FAMILIES = {"exponential": Exponential, "gaussian": Gaussian,
            "rectangular": Rectangular}


@dataclass(frozen=True)
class PulseSpec:
    """A normalized single-photon wavepacket with a carrier frequency; its
    ``envelope`` holds the shape, whose ``spectrum`` is the closed form of
    integral phi_shape(z, 0) e^{-i delta z} dz at detunings delta."""

    carrier: float
    envelope: object

    def shape_at(self, z):
        """Normalized envelope phi_shape(z, 0), no carrier phase."""
        return self.envelope.shape_values(z)

    def detuning(self, system: LambdaSystem) -> float:
        """Carrier detuning from the a-branch transition, delta_L."""
        return self.carrier - system.omega_a


def make_pulse(envelope, carrier: float) -> PulseSpec:
    """Validate an envelope and give it a carrier frequency.

    Parameters
    ----------
    envelope : Exponential | Gaussian | Rectangular
        Envelope family instance (a value of ``FAMILIES``).
    carrier : float
        Carrier frequency omega_L (> 0).
    """
    if not isinstance(envelope, tuple(FAMILIES.values())):
        raise UnsupportedEnvelopeError(
            f"unknown envelope family {type(envelope).__name__!r}"
        )
    if not 0 < carrier < math.inf:
        raise ParameterError(
            f"carrier frequency must be positive and finite, got {carrier}")
    envelope._check()
    if isinstance(envelope, Gaussian):
        # shape_values squares z - z0, whose reach is the peak's distance
        # from the front, _GAUSS_OFFSET sigma (and divides by 4 sigma^2, the
        # smaller square): once that overflows the envelope is inf / inf
        # at the peak, or an overflow warning away from it
        reach = _GAUSS_OFFSET * envelope.sigma
        if not reach * reach < math.inf:
            raise ParameterError(
                f"sigma = {envelope.sigma} is too wide: (offset sigma)^2 "
                "overflows")
    return PulseSpec(carrier=float(carrier), envelope=envelope)


@dataclass(frozen=True)
class InitialMixture:
    """Classical mixture p_a0 |a><a| + p_b0 |b><b| of the two ground
    states before the pulse.  Its one free weight is p_a0, in [0, 1];
    p_b0 is 1 - p_a0."""

    p_a0: float

    def __post_init__(self):
        if not 0.0 <= self.p_a0 <= 1.0:
            raise ParameterError(f"p_a0 must lie in [0, 1], got {self.p_a0}")

    @property
    def p_b0(self) -> float:
        return 1.0 - self.p_a0


# Largest number of steps a trajectory may have; 2e7 complex samples with
# their companion arrays already take gigabytes.  The same cap bounds the
# point count of a sweep or an entropy curve and the amplitudes of the
# oracle's snapshots (n_out x dim); the oracle projects pulses in closed
# form, on no z-grid.
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
        ceiling = 0.01 / pulse.envelope.spectral_scale()
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
            t_max = pulse.envelope.settle_time() + 20.0 / system.gamma_total
        if dt is None:
            dt = 0.005 / pulse.envelope.spectral_scale()
        grid = cls(t_max=float(t_max), dt=float(dt))
        grid.validate(pulse)
        return grid
