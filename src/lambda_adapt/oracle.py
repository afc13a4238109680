"""Brute-force cross-check on a discretized waveguide.

The continuum is replaced by two uniform combs of modes (one per decay
branch) and the full one-excitation Schroedinger equation is solved with
no Wigner-Weisskopf or input-output shortcut.  Everything downstream of
the main package can then be compared against this model: transition
probabilities, branch weights, work and heat quadratures, and the exact
partial trace of the environment.

The comb approximates the continuum as long as (i) the window is much
wider than the emission line, (ii) the spacing is much finer than every
physical rate, and (iii) times stay well below the recurrence 2 pi /
spacing.  Defaults: 2001 modes per branch over a window of 40 Gamma.

``evolve`` diagonalizes the discrete Hamiltonian exactly, as n dark
modes and one real arrowhead block (O'Leary & Stewart 1990).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.signal import czt

from .errors import (
    BandwidthError,
    ConfigurationError,
    NumericalConsistencyError,
    ParameterError,
)
from .dynamics import integrate_psi
from .entropy import (env_eigenvalues, normalized_overlap_sq, overlap_series,
                      quantum_branch_entropy, von_neumann)
from .model import (MAX_GRID_NODES, InitialMixture, LambdaSystem, PulseSpec,
                    SimGrid)
from .thermo import drive_overlap_density

__all__ = [
    "DiscreteBath",
    "OneExcitationState",
    "OracleRun",
    "DeviationReport",
    "build_hamiltonian",
    "discretize_pulse",
    "evolve",
    "measure_series",
    "compare",
]

DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteBath:
    """Uniform frequency combs standing in for the two continua.

    ``bandwidth`` is the full window width; both branch combs share the
    spacing bandwidth / (n_modes - 1) and are centered on their own
    transition (omega_a and omega_b).
    """

    n_modes: int = 2001
    bandwidth: float = 0.0

    def __post_init__(self):
        if self.n_modes < 3 or self.n_modes % 2 == 0:
            raise ConfigurationError(
                f"n_modes must be odd and >= 3, got {self.n_modes}"
            )
        if not 0 < self.bandwidth < math.inf:
            raise ConfigurationError(
                f"bandwidth must be positive and finite, got {self.bandwidth}")

    @classmethod
    def default(cls, system: LambdaSystem, n_modes: int = 2001) -> "DiscreteBath":
        return cls(n_modes=n_modes, bandwidth=40.0 * system.gamma_total)

    @property
    def spacing(self) -> float:
        return self.bandwidth / (self.n_modes - 1)

    @property
    def density(self) -> float:
        return 1.0 / self.spacing

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.spacing

    def offsets(self) -> np.ndarray:
        """Mode frequencies relative to the comb center."""
        n = self.n_modes
        return (np.arange(n) - (n - 1) / 2.0) * self.spacing

    def check_against(self, system: LambdaSystem, t_final: float | None = None):
        g = system.gamma_total
        if self.bandwidth < 20.0 * g * (1 - 1e-12):
            raise ConfigurationError(
                f"bandwidth {self.bandwidth} < 20 Gamma = {20 * g}: the window "
                "clips the emission line"
            )
        if self.spacing > g / 20.0 * (1 + 1e-12):
            raise ConfigurationError(
                f"spacing {self.spacing:.3g} > Gamma/20: comb too coarse"
            )
        if t_final is not None and t_final >= self.recurrence_time:
            raise ConfigurationError(
                f"t_final = {t_final} reaches the recurrence time "
                f"{self.recurrence_time:.3g}; enlarge the bath"
            )


@dataclass(frozen=True)
class OneExcitationState:
    """Amplitudes in the one-excitation basis.

    Layout: excited |e, vac>, a-branch modes (system in |a>), b-branch
    modes (system in |b>), and optionally the decoupled backward sector
    (system in |b> with an a-branch photon).
    """

    excited: complex
    a_modes: np.ndarray
    b_modes: np.ndarray
    backward: np.ndarray | None = None

    def pack(self) -> np.ndarray:
        parts = [np.array([self.excited], dtype=complex),
                 np.asarray(self.a_modes, dtype=complex),
                 np.asarray(self.b_modes, dtype=complex)]
        if self.backward is not None:
            parts.append(np.asarray(self.backward, dtype=complex))
        return np.concatenate(parts)

    @classmethod
    def unpack(cls, vec: np.ndarray, n_modes: int) -> "OneExcitationState":
        vec = np.asarray(vec, dtype=complex)
        if vec.size == 1 + 2 * n_modes:
            back = None
        elif vec.size == 1 + 3 * n_modes:
            back = vec[1 + 2 * n_modes:]
        else:
            raise ParameterError(
                f"vector of length {vec.size} does not fit {n_modes} modes"
            )
        return cls(excited=complex(vec[0]), a_modes=vec[1:1 + n_modes],
                   b_modes=vec[1 + n_modes:1 + 2 * n_modes], backward=back)

    @classmethod
    def from_pulse(cls, amps: np.ndarray, *,
                   backward: bool = False) -> "OneExcitationState":
        """Photon in the a-branch comb; system in |a> (or |b> if backward)."""
        n = amps.shape[0]
        zeros = np.zeros(n, dtype=complex)
        if backward:
            return cls(excited=0.0, a_modes=zeros, b_modes=zeros.copy(),
                       backward=np.asarray(amps, dtype=complex))
        return cls(excited=0.0, a_modes=np.asarray(amps, dtype=complex),
                   b_modes=zeros)


def build_hamiltonian(system: LambdaSystem, bath: DiscreteBath,
                      include_backward: bool = False) -> sp.csr_matrix:
    """Sparse one-excitation Hamiltonian (lab frame, hbar = 1).

    Diagonal: omega_a for |e, vac>, omega_j for a-modes, delta_ab +
    omega_j^b for b-modes (and delta_ab + omega_j for the backward
    sector, which has no off-diagonal elements at all: an a-branch
    photon cannot raise |b>).  As delta_ab + omega_j^b = omega_j, both
    combs are stored from one array and share the diagonal exactly.
    Couplings are +/- i g_k with g_k = sqrt(gamma_k * spacing / (2 pi)).
    """
    bath.check_against(system)
    n = bath.n_modes
    offs = bath.offsets()
    g_a = math.sqrt(system.gamma_a * bath.spacing / (2.0 * math.pi))
    g_b = math.sqrt(system.gamma_b * bath.spacing / (2.0 * math.pi))

    dim = 1 + (3 if include_backward else 2) * n
    diag = np.empty(dim, dtype=complex)
    diag[0] = system.omega_a
    comb = system.omega_a + offs
    diag[1:1 + n] = comb
    diag[1 + n:1 + 2 * n] = comb
    if include_backward:
        diag[1 + 2 * n:] = system.delta_ab + comb

    rows = [np.arange(dim)]
    cols = [np.arange(dim)]
    vals = [diag]
    a_idx = 1 + np.arange(n)
    b_idx = 1 + n + np.arange(n)
    for idx, g in ((a_idx, g_a), (b_idx, g_b)):
        rows.extend([np.zeros(n, dtype=int), idx])
        cols.extend([idx, np.zeros(n, dtype=int)])
        vals.extend([np.full(n, -1j * g), np.full(n, 1j * g)])
    h = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return h


def discretize_pulse(pulse: PulseSpec, bath: DiscreteBath,
                     system: LambdaSystem) -> np.ndarray:
    """Project the initial envelope onto the a-branch comb.

    Computes phi_j ~ integral phi_a(z, 0) e^{-i omega_j z / c} dz on a
    fine spatial grid (chirp z-transform over all bins at once), scales
    to physical units, and renormalizes so sum |phi_j|^2 = 1.

    Raises
    ------
    BandwidthError
        If more than 1% of the pulse's spectral weight falls outside
        the comb window before renormalization.
    ConfigurationError
        If the z-grid would have more than MAX_GRID_NODES steps (a
        narrowband pulse settles late); nothing is allocated.
    """
    c = pulse.c
    z_lo = -c * pulse.settle_time() * 1.2
    # resolve the fastest beat between envelope and comb edge
    k_max = (0.5 * bath.bandwidth + abs(pulse.detuning(system))) / c
    dz = 0.011 / max(k_max, 1e-300)
    dz = min(dz, -z_lo / 64.0)
    steps = -z_lo / dz
    if not steps <= MAX_GRID_NODES:
        raise ConfigurationError(
            f"pulse projection needs a z-grid of {steps:.3g} steps, above "
            f"MAX_GRID_NODES = {MAX_GRID_NODES:.3g}")
    z = np.linspace(z_lo, 0.0, math.ceil(steps) + 1)
    dz = z[1] - z[0]
    # phi_a(z, 0) with carrier, trapezoid end weights folded in
    vals = pulse.shape_at(z).astype(complex) * np.exp(1j * pulse.carrier * z / c)
    vals[0] *= 0.5
    vals[-1] *= 0.5
    omega_start = system.omega_a + bath.offsets()[0]
    # F_j = dz * sum_m vals_m e^{-i omega_j z_m / c} via a chirp z-transform
    w = np.exp(-1j * bath.spacing * dz / c)
    a = np.exp(1j * omega_start * dz / c)
    f = czt(vals, m=bath.n_modes, w=w, a=a)
    omegas = system.omega_a + bath.offsets()
    f *= dz * np.exp(-1j * omegas * z_lo / c)
    # physical scale: with rho_eff = 1/spacing the captured weight is
    # sum |F_j|^2 * spacing / (2 pi c)^2 / rho_phys when fully inside
    amps = f * math.sqrt(bath.spacing / pulse.rho) / (2.0 * math.pi * c)
    captured = float(np.sum(np.abs(amps) ** 2))
    if captured < 0.99:
        raise BandwidthError(
            f"only {captured:.4f} of the pulse spectrum fits in the comb "
            "window; widen the bath or narrow the pulse"
        )
    return amps / math.sqrt(captured)


@dataclass(frozen=True)
class OracleRun:
    """States of a discrete-bath evolution at the requested output times.

    States are stored in the interaction-free rotating frame at
    omega_ref (the |e> diagonal); multiply state k by
    e^{-i omega_ref t_k} for lab-frame amplitudes.  Global per-state
    phases drop out of every measurement.
    """

    times: np.ndarray
    states: np.ndarray          # (n_out, dim) complex
    omega_ref: float
    bath: DiscreteBath
    system: LambdaSystem
    include_backward: bool
    norm_drift: float

    def __post_init__(self):
        self.times.flags.writeable = False
        self.states.flags.writeable = False

    def excited_series(self) -> np.ndarray:
        """psi~(t) in the omega_ref rotating frame (= psi e^{i omega_a t})."""
        return self.states[:, 0]

    def energy_series(self, h: sp.csr_matrix) -> np.ndarray:
        """<H>(t) including the frame shift; conserved up to solver error."""
        shifted = h - sp.identity(h.shape[0], format="csr") * self.omega_ref
        ys = self.states
        return np.real(np.sum(np.conj(ys) * (shifted @ ys.T).T, axis=1)) \
            + self.omega_ref * np.sum(np.abs(ys) ** 2, axis=1)


@functools.lru_cache(maxsize=1)
def _arrowhead_eigh(diag: bytes,
                    spokes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of the arrowhead [[d_0, G], [G, diag(d_1..)]].

    Keyed on the comb, so runs on one comb share one decomposition."""
    g = np.frombuffer(spokes)
    arrow = np.diag(np.frombuffer(diag))
    arrow[0, 1:] = arrow[1:, 0] = g
    evals, evecs = np.linalg.eigh(arrow)
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def evolve(h: sp.csr_matrix, state: OneExcitationState, t_final: float, *,
           bath: DiscreteBath, system: LambdaSystem,
           n_out: int = 201) -> OracleRun:
    """Solve i dy/dt = H y exactly and record n_out snapshots on [0, t_final].

    H must look as ``build_hamiltonian`` makes it, else ParameterError:
    Hermitian, nonzeros only on the diagonal, row 0 and column 0, a-mode
    j on the diagonal of b-mode j, the backward sector uncoupled.  In the
    frame rotating at omega_ref = H[0, 0], with z = row 0 and G_j =
    sqrt(|z_aj|^2 + |z_bj|^2), pair j splits into a dark mode
    (z_bj a_j - z_aj b_j) / G_j, evolving by its phase like the backward
    sector, and a bright mode (conj(z_aj) a_j + conj(z_bj) b_j) / G_j.
    |e> and the bright modes form the real arrowhead [[0, G], [G, diag(d)]]
    solved by dense eigh.  Norm drift above DRIFT_TOL raises.
    """
    if t_final <= 0:
        raise ParameterError("t_final must be positive")
    bath.check_against(system, t_final=t_final)
    dim = h.shape[0]
    n = bath.n_modes
    y0 = state.pack()
    if y0.size != dim or dim not in (1 + 2 * n, 1 + 3 * n):
        raise ParameterError(f"state dim {y0.size}, hamiltonian dim {dim} "
                             f"and {n} modes do not fit")
    norm0 = float(np.real(np.vdot(y0, y0)))
    if abs(norm0 - 1.0) > 1e-9:
        raise ParameterError(f"initial state norm {norm0} != 1")

    if (h != h.conj().T).nnz:
        raise ParameterError("H is not Hermitian")
    upper = sp.triu(h, k=1, format="coo")
    if np.any((upper.row != 0) & (upper.data != 0)):
        raise ParameterError("H couples two modes to each other")
    z = h[[0]].toarray().ravel()
    a, b, back = slice(1, n + 1), slice(n + 1, 2 * n + 1), slice(2 * n + 1, dim)
    omega_ref = float(np.real(h[0, 0]))
    d = h.diagonal().real - omega_ref
    z_a, z_b = z[a], z[b]
    g = np.hypot(np.abs(z_a), np.abs(z_b))
    if np.any(d[a] != d[b]) or np.any(z[back] != 0) or np.any(g == 0):
        raise ParameterError("H does not split into a/b mode pairs that "
                             "share their diagonal and couple to |e>")

    t_out = np.linspace(0.0, t_final, n_out)
    evals, evecs = _arrowhead_eigh(np.concatenate(([d[0]], d[a])).tobytes(),
                                   g.tobytes())
    bright0 = np.concatenate(([y0[0]], (z_a * y0[a] + z_b * y0[b]) / g))
    dark0 = (np.conj(z_b) * y0[a] - np.conj(z_a) * y0[b]) / g
    # real products only: V is real, so split real and imaginary parts
    w0 = evecs.T @ np.stack([bright0.real, bright0.imag], axis=1)
    spec = np.exp(-1j * np.outer(t_out, evals)) * (w0[:, 0] + 1j * w0[:, 1])
    parts = np.concatenate([spec.real, spec.imag]) @ evecs.T
    bright = parts[:n_out] + 1j * parts[n_out:]
    dark = np.exp(-1j * np.outer(t_out, d[a])) * dark0

    states = np.empty((n_out, dim), dtype=complex)
    states[:, 0] = bright[:, 0]
    states[:, a] = (np.conj(z_a) * bright[:, 1:] + z_b * dark) / g
    states[:, b] = (np.conj(z_b) * bright[:, 1:] - z_a * dark) / g
    states[:, back] = np.exp(-1j * np.outer(t_out, d[back])) * y0[back]
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    if drift > DRIFT_TOL:
        raise NumericalConsistencyError(
            f"norm drift {drift:.3e} exceeds {DRIFT_TOL}")
    return OracleRun(times=t_out, states=states, omega_ref=omega_ref,
                     bath=bath, system=system,
                     include_backward=state.backward is not None,
                     norm_drift=drift)


@dataclass(frozen=True)
class OracleSeries:
    """Vectorized measurements over all snapshots of a run."""

    times: np.ndarray
    p_e: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    overlap_sq: np.ndarray
    lambdas: np.ndarray      # (n_out, 4)
    s_e: np.ndarray
    s_q: np.ndarray
    norm: np.ndarray

    @property
    def p_ab(self) -> np.ndarray:
        return self.n_b


def measure_series(run: OracleRun, mixture: InitialMixture) -> OracleSeries:
    """Exact partial trace of the environment at every snapshot.

    The environment state is rank <= 4: vacuum, the b-branch photon, and
    a 2x2 block mixing the scattered a photon with the free-flying pulse
    (the reference for the photon had the system started in |b>).  Its
    eigenvalues follow from scalar products of the stored amplitudes; no
    large matrix is ever diagonalized.
    """
    n = run.bath.n_modes
    states = run.states
    if run.include_backward:
        back = states[:, 1 + 2 * n:]
        if float(np.max(np.abs(back))) > 1e-12:
            raise ParameterError(
                "measure_series expects a forward-sector run; backward "
                "amplitudes are populated"
            )
        states = states[:, :1 + 2 * n]
    a_block = states[:, 1:1 + n]
    b_block = states[:, 1 + n:1 + 2 * n]
    p_e = np.abs(states[:, 0]) ** 2
    n_a = np.sum(np.abs(a_block) ** 2, axis=1)
    n_b = np.sum(np.abs(b_block) ** 2, axis=1)
    norm = p_e + n_a + n_b

    # free pulse reference in the same rotating frame
    a0 = a_block[0]
    offs = run.bath.offsets()
    phases = np.exp(-1j * np.outer(run.times, offs))
    free = phases * a0
    cross = np.sum(np.conj(a_block) * free, axis=1)

    overlap_sq = normalized_overlap_sq(cross, n_a)
    lams = env_eigenvalues(mixture, p_e, n_a, n_b, overlap_sq)
    s_e = von_neumann(lams)
    s_q = quantum_branch_entropy(n_a, n_b, p_e)
    return OracleSeries(times=run.times.copy(), p_e=p_e, n_a=n_a, n_b=n_b,
                        overlap_sq=overlap_sq, lambdas=lams, s_e=s_e,
                        s_q=s_q, norm=norm)


DEFAULT_TOLERANCES = {
    "p_e": 1e-3,
    "p_ab": 1e-3,
    "n_a": 1e-3,
    "n_b": 1e-3,
    "s_e": 1e-2,
    "w": 5e-3,
    "q": 5e-3,
}


@dataclass(frozen=True)
class DeviationReport:
    """Worst-case oracle-vs-analytic deviations and their verdicts.

    ``amplitudes`` is the comb projection of the pulse the oracle
    evolved (``discretize_pulse``), kept so a further run on the same
    comb need not project the pulse again; ``as_dict`` leaves it out.
    """

    deviations: dict
    tolerances: dict
    failures: tuple
    norm_drift: float
    t_final: float
    n_modes: int
    bandwidth: float
    amplitudes: np.ndarray

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "deviations": dict(self.deviations),
            "tolerances": dict(self.tolerances),
            "failures": list(self.failures),
            "norm_drift": self.norm_drift,
            "t_final": self.t_final,
            "n_modes": self.n_modes,
            "bandwidth": self.bandwidth,
        }


def compare(system: LambdaSystem, pulse: PulseSpec, mixture: InitialMixture,
            bath: DiscreteBath | None = None, *, t_final: float | None = None,
            n_out: int = 301,
            tolerances: dict | None = None) -> DeviationReport:
    """Run the discrete-mode model and the analytic pipeline side by side.

    The oracle side is the exact partial trace of each snapshot
    (``measure_series``).  The analytic side interpolates one trajectory
    at the snapshot times; its S_E(t) takes the finite-time overlap from
    ``entropy.overlap_series``, one cumulative quadrature over that
    trajectory, and no field is rebuilt on a z-grid.  Both sides share
    the closed-form spectrum (``entropy.env_eigenvalues``).  Work and
    heat are integrated with the same trapezoid rule on the same output
    grid for both sides, so their deviation reflects the dynamics, not
    quadrature differences.
    """
    if bath is None:
        bath = DiscreteBath.default(system)
    if t_final is None:
        t_final = 15.0 / system.gamma_total
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)

    amps = discretize_pulse(pulse, bath, system)
    h = build_hamiltonian(system, bath)
    run = evolve(h, OneExcitationState.from_pulse(amps), t_final,
                 bath=bath, system=system, n_out=n_out)
    oracle = measure_series(run, mixture)

    grid = SimGrid.auto(system, pulse, t_max=t_final)
    traj = integrate_psi(system, pulse, grid)

    t_out = run.times
    p_e_an = np.interp(t_out, traj.times, traj.p_e)
    p_ab_an = np.interp(t_out, traj.times, traj.p_ab)
    n_a_an = 1.0 - p_e_an - p_ab_an

    overlap_sq = normalized_overlap_sq(
        overlap_series(traj, pulse, system, t_out), n_a_an)
    s_e_an = von_neumann(env_eigenvalues(mixture, p_e_an, n_a_an, p_ab_an,
                                         overlap_sq))

    def flux(psi):
        density = drive_overlap_density(system, pulse, t_out, psi)
        return float(np.trapezoid(2.0 * density.real, t_out))

    gtot = system.gamma_total
    q_or = system.omega_a * gtot * float(np.trapezoid(oracle.p_e, t_out)) \
        - system.delta_ab * float(oracle.n_b[-1])
    q_an = system.omega_a * gtot * float(np.trapezoid(p_e_an, t_out)) \
        - system.delta_ab * float(p_ab_an[-1])

    deviations = {
        "p_e": float(np.max(np.abs(oracle.p_e - p_e_an))),
        "p_ab": float(np.max(np.abs(oracle.n_b - p_ab_an))),
        "n_a": float(np.max(np.abs(oracle.n_a - n_a_an))),
        "n_b": float(np.max(np.abs(oracle.n_b - p_ab_an))),
        "s_e": float(np.max(np.abs(oracle.s_e - s_e_an))),
        # energies compared in units of hbar omega_a so the verdict does
        # not depend on the absolute optical frequency
        "w": abs(flux(run.excited_series()) - flux(traj.psi_at(t_out))),
        "q": abs(q_or - q_an) / system.omega_a,
    }
    failures = tuple(name for name, dev in deviations.items()
                     if dev > tol[name])
    return DeviationReport(deviations=deviations, tolerances=tol,
                           failures=failures, norm_drift=run.norm_drift,
                           t_final=float(t_final), n_modes=bath.n_modes,
                           bandwidth=bath.bandwidth, amplitudes=amps)
