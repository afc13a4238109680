"""Entropy of the waveguide environment, during and after the pulse.

For an initial mixture p_a0 |a><a| + p_b0 |b><b| the environment state
is a rank <= 4 mixture: the vacuum branch (weight p_a0 |psi|^2), the
b-photon branch (p_a0 N_b), and a 2x2 block spanned by the scattered
a-photon and the freely propagated pulse.  Its eigenvalues only need
the branch weights and one overlap, so entropies come from a closed
formula, evaluated for one instant or a whole series of them at once,
rather than any density-matrix diagonalization.

The overlap needs no field on a z-grid: after the pulse its real part
follows from p_ab(inf) alone and its imaginary part, zero on resonance,
from the drive quadrature at t_max (``asymptotic_spectrum``), and at
finite times the whole overlap comes from one cumulative quadrature of
the drive against the amplitude along a trajectory
(``overlap_series``).  The entropy curve is the resonant asymptotic
spectrum on a grid of p_ab(inf) values, built in one vectorized pass or
in blocks of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import AmplitudeTrajectory
from .errors import NumericalConsistencyError, ParameterError
from .model import MAX_GRID_NODES, InitialMixture, LambdaSystem, PulseSpec
from .thermo import drive_overlap_integral

__all__ = [
    "EnvSpectrum",
    "env_eigenvalues",
    "von_neumann",
    "quantum_branch_entropy",
    "classical_entropy",
    "normalized_overlap_sq",
    "asymptotic_spectrum",
    "overlap_series",
    "entropy_curve",
    "heat_to_pab",
]


def _check_unit_interval(name, value, slack=1e-12):
    # written so that NaN fails it
    bad = ~((value >= -slack) & (value <= 1.0 + slack))
    if np.any(bad):
        raise ParameterError(f"{name} = {value[bad]} outside [0, 1]")


def env_eigenvalues(mixture: InitialMixture, psi_sq, n_a, n_b,
                    overlap_sq) -> np.ndarray:
    """Eigenvalues of the reduced environment state, sorted descending.

    Scalar arguments give a length-4 array; arrays are broadcast
    together and give one spectrum per element along a last axis of 4.

    Parameters
    ----------
    psi_sq, n_a, n_b : float or array
        Excited population and branch weights of the a-started pure
        state; they must add up to 1.
    overlap_sq : float or array
        |<free pulse | scattered a photon>|^2 (normalized vectors).
    """
    psi_sq, n_a, n_b, overlap_sq = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (psi_sq, n_a, n_b, overlap_sq)))
    for name, val in (("psi_sq", psi_sq), ("n_a", n_a), ("n_b", n_b),
                      ("overlap_sq", overlap_sq)):
        _check_unit_interval(name, val)
    total = psi_sq + n_a + n_b
    off = np.abs(total - 1.0) > 1e-9
    if np.any(off):
        raise ParameterError(f"branch weights must sum to 1, got {total[off]}")
    p_a0, p_b0 = mixture.p_a0, mixture.p_b0
    half = 0.5 * (p_a0 * n_a + p_b0)
    # squares by products: a float64 scalar's ** 2 is pow(), which can
    # round apart from an array's square
    gap = p_a0 * n_a - p_b0
    disc = np.sqrt(gap * gap + 4.0 * p_a0 * p_b0 * n_a * overlap_sq)
    lams = np.stack([p_a0 * psi_sq, p_a0 * n_b, half + 0.5 * disc,
                     half - 0.5 * disc], axis=-1)
    return np.sort(np.clip(lams, 0.0, None), axis=-1)[..., ::-1]


def von_neumann(eigenvalues):
    """S = -sum lambda ln lambda over the last axis, with 0 ln 0 = 0.

    One spectrum gives a float, a stack of spectra an array of entropies.
    A pure spectrum gives +0.0, never -0.0.
    """
    lams = np.asarray(eigenvalues, dtype=float)
    if not np.all(lams >= -1e-12):
        raise ParameterError(f"negative or NaN eigenvalue in {lams}")
    sums = lams.sum(axis=-1)
    if np.any(sums > 1.0 + 1e-10):
        raise ParameterError(f"eigenvalues sum to {np.max(sums)} > 1")
    lams = np.clip(lams, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lams > 0.0, lams * np.log(lams), 0.0)
    # 0 - x is -x for every x but a zero sum, which gives +0.0
    s = 0.0 - np.sum(terms, axis=-1)
    return float(s) if s.ndim == 0 else s


def quantum_branch_entropy(n_a, n_b, psi_sq):
    """Entropy of the branch distribution of the a-started pure state."""
    return von_neumann(np.stack(np.broadcast_arrays(n_a, n_b, psi_sq),
                                axis=-1))


def normalized_overlap_sq(value, n_a):
    """|<free pulse | u>|^2 for the normalized scattered a photon u.

    ``value`` is the unnormalized overlap sqrt(N_a) <free | u>.  Where
    N_a < 1e-14 essentially all population has left the a branch and the
    normalized overlap is meaningless; 0 is returned there.
    """
    n_a = np.asarray(n_a, dtype=float)
    kept = n_a >= 1e-14
    size = np.abs(value)
    ratio = size * size / np.where(kept, n_a, 1.0)
    return np.where(kept, np.minimum(ratio, 1.0), 0.0)


def classical_entropy(s_e, mixture: InitialMixture, s_q):
    """S_E^c = S_E - p_a0 S_q: environment entropy net of quantum spread.

    The b-started branch scatters nothing, so only the a-branch quantum
    entropy is subtracted.  Floats give a float, arrays an array.
    """
    out = s_e - mixture.p_a0 * s_q
    if not np.all(out >= -1e-12):
        raise NumericalConsistencyError(
            f"classical entropy came out negative or NaN ({np.min(out):.3e})"
        )
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def _p_max(system: LambdaSystem) -> float:
    """4 gamma_a gamma_b / Gamma^2, as a product of rate ratios so that no
    Gamma^2 overflows or underflows."""
    gamma = system.gamma_total
    return 4.0 * (system.gamma_a / gamma) * (system.gamma_b / gamma)


def _p_ab_range(system: LambdaSystem) -> tuple[float, float]:
    """[0, p_max] widened for rounding by 1e-12 at both ends and 1e-9 p_max
    above: a p_max that underflows (4e-300 at gamma_a = 1e300) leaves
    quadrature noise of either sign (1e-30) in range."""
    return -1e-12, _p_max(system) * (1.0 + 1e-9) + 1e-12


def overlap_series(traj: AmplitudeTrajectory, pulse: PulseSpec,
                   system: LambdaSystem, t) -> np.ndarray:
    """sqrt(N_a) <free pulse | a-branch photon> at times t in [0, t_max].

    Input-output composition of the a-branch field gives
    sqrt(N_a) <free | phi_a>(t) = 1 - int_0^t conj(f(tau)) psi^(tau) dtau
    with the carrier-frame drive f and amplitude psi^; its real part is
    1 - flux(t) / 2, the work integral, and its t -> inf limit is the
    overlap of ``asymptotic_spectrum``.  The integral is the fourth-order
    cumulative quadrature ``thermo.drive_overlap_integral`` at the
    trajectory's nodes, interpolated linearly at t.
    """
    acc = drive_overlap_integral(traj, pulse, system)
    return 1.0 - (np.interp(t, traj.times, acc.real)
                  + 1j * np.interp(t, traj.times, acc.imag))


@dataclass(frozen=True)
class EnvSpectrum:
    """Eigenvalues and entropies of the environment state.

    Built from floats it holds one instant; built from arrays of branch
    weights, one per snapshot or per p_ab(inf), it holds the series, with
    the spectra along a last axis of 4.  ``s_e_c`` is formed when read.
    """

    lambdas: np.ndarray
    psi_sq: float | np.ndarray
    n_a: float | np.ndarray
    n_b: float | np.ndarray
    overlap_sq: float | np.ndarray
    s_e: float | np.ndarray
    s_q: float | np.ndarray
    mixture: InitialMixture

    def __post_init__(self):
        self.lambdas.flags.writeable = False

    @classmethod
    def from_branches(cls, mixture: InitialMixture, psi_sq, n_a, n_b,
                      overlap_sq) -> "EnvSpectrum":
        lams = env_eigenvalues(mixture, psi_sq, n_a, n_b, overlap_sq)
        return cls(lambdas=lams, psi_sq=psi_sq, n_a=n_a, n_b=n_b,
                   overlap_sq=overlap_sq, s_e=von_neumann(lams),
                   s_q=quantum_branch_entropy(n_a, n_b, psi_sq),
                   mixture=mixture)

    @property
    def s_e_c(self) -> float | np.ndarray:
        return classical_entropy(self.s_e, self.mixture, self.s_q)

    def as_dict(self) -> dict:
        """One instant's fields as floats."""
        return {
            "lambdas": [float(x) for x in self.lambdas],
            "psi_sq": float(self.psi_sq),
            "n_a": float(self.n_a),
            "n_b": float(self.n_b),
            "overlap_sq": float(self.overlap_sq),
            "s_e": float(self.s_e),
            "s_q": float(self.s_q),
            "s_e_c": self.s_e_c,
        }


def asymptotic_spectrum(system: LambdaSystem, mixture: InitialMixture,
                        p_ab_infty, overlap_imag) -> EnvSpectrum:
    """Environment spectrum after the pulse.

    sqrt(N_a) <1_a^free | 1_a~> = 1 - int_0^inf conj(f) psi^ dt has the
    real part 1 - (Gamma / (2 gamma_b)) p_ab(inf) and the imaginary part
    ``overlap_imag`` = -Im int_0^inf conj(f) psi^ dt, which is 0 on
    resonance; the normalized squared overlap is its squared modulus over
    N_a = 1 - p_ab, and nothing is left excited.  A float gives one
    instant, an array one spectrum per value.  Valid for p_ab(inf) in
    [0, 4 gamma_a gamma_b / Gamma^2], else ParameterError.  A rounding excess (``_p_ab_range``) is
    accepted and clamped off, so that N_a stays in the range
    ``env_eigenvalues`` takes (at gamma_a = gamma_b the maximum is 1); the
    spectrum's ``n_b`` is the clamped value.
    """
    p_max = _p_max(system)
    lo, hi = _p_ab_range(system)
    p = np.asarray(p_ab_infty, dtype=float)
    bad = ~((p >= lo) & (p <= hi))
    if np.any(bad):
        raise ParameterError(
            f"p_ab_infty = {p[bad]} outside [0, 4 gamma_a gamma_b / Gamma^2 "
            f"= {p_max}]"
        )
    p = np.minimum(p, p_max)
    n_a = 1.0 - p
    value = (1.0 - (system.gamma_total / (2.0 * system.gamma_b)) * p
             + 1j * overlap_imag)
    return EnvSpectrum.from_branches(mixture, 0.0, n_a, p,
                                     normalized_overlap_sq(value, n_a))


def entropy_curve(system: LambdaSystem, mixture: InitialMixture,
                  n_points: int = 200, start: int = 0,
                  stop: int | None = None) -> EnvSpectrum:
    """S_E and S_E^c versus the long-time transfer probability.

    A resonant statement: ``asymptotic_spectrum`` with a real overlap
    (imaginary part 0), which a detuned drive's need not be, on n_points
    values of p_ab(inf), its ``n_b``, evenly spaced from 0 to the family
    maximum p_max = 4 gamma_a gamma_b / Gamma^2 (= 1 only for gamma_a =
    gamma_b): value i is i (p_max / (n_points - 1)), the last p_max, as
    ``np.linspace(0, p_max, n_points)`` forms them.  ``start`` and
    ``stop`` slice the values (all of them by default), so that a long
    curve can be built in blocks; each value's numbers do not depend on
    the block it is built in.
    """
    if not 2 <= n_points <= MAX_GRID_NODES:
        raise ParameterError(
            f"n_points must be >= 2 and <= MAX_GRID_NODES = "
            f"{MAX_GRID_NODES:.3g}, got {n_points}")
    p_max = _p_max(system)
    rows = range(n_points)[start:stop]
    i = np.arange(rows.start, rows.stop, dtype=float)
    step = p_max / (n_points - 1)
    # np.linspace's product, and its quotient where the step underflows
    p = i * step if step else i / (n_points - 1) * p_max
    if rows and rows[-1] == n_points - 1:
        p[-1] = p_max
    return asymptotic_spectrum(system, mixture, p, 0.0)


def heat_to_pab(system: LambdaSystem, q_diss: float) -> float:
    """Invert the heat bookkeeping for the transfer probability.

    p_ab(inf) = Q / (hbar omega_a Gamma / gamma_b - hbar delta_ab); a Q
    that is not finite raises ParameterError.
    """
    if not np.isfinite(q_diss):
        raise ParameterError(f"q_diss = {q_diss} is not finite")
    denom = (system.omega_a * system.gamma_total / system.gamma_b
             - system.delta_ab)
    if denom <= 0.0:
        raise ParameterError(
            f"heat-to-probability denominator {denom} is not positive"
        )
    return q_diss / denom
