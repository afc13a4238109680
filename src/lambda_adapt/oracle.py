"""Brute-force cross-check on a discretized waveguide.

The continuum is replaced by two uniform combs of modes (one per decay
branch) and the full one-excitation Schroedinger equation is solved with
no Wigner-Weisskopf or input-output shortcut.  ``compare`` builds one
``Observables`` record of such a run and one of the Wigner-Weisskopf
trajectory, and diffs the two with ``deviations``.

The comb approximates the continuum as long as (i) the window is much
wider than the emission line, (ii) the spacing is much finer than every
physical rate, and (iii) times stay well below the recurrence 2 pi /
spacing.  ``DiscreteBath`` checks (i) and (ii); after
``build_hamiltonian`` everything (``evolve`` and its checks of (iii),
``OracleRun``) reads the comb from the Hamiltonian.

``evolve`` diagonalizes the discrete Hamiltonian exactly, as n dark
modes and one real arrowhead block.  The arrowhead's eigenvalues are the
roots of its secular equation (O'Leary & Stewart 1990), found in O(n^2)
all at once; its eigenvectors follow in closed form from spokes
recomputed from those roots (Gu & Eisenstat 1995).  Only those O(n)
numbers are kept: the eigenvectors are rebuilt straight from their
Cauchy form, a block of rows at a time and in panels of columns, as
mirror sums and differences, and never stored; one sweep over all rows
in that one form takes the start's coefficients, and one more per chunk
of snapshots applies them.  The comb is mirror symmetric about the line
(offsets d_{n-1-j} = -d_j, equal couplings), so the roots come in +-
pairs: the solver, the spokes, the eigenvector rebuild, its GEMM and
every phase table run on one half (the fold), and the other half is
their mirror.  The snapshot times are an even grid, so one generator
forms every phase table, taking cos and sin once per 16 snapshots and
forming the rest as products.

``evolve`` builds the snapshots a chunk of at most _CHUNK at a time,
folded into four real bands of half their bytes, and measures each
chunk a few snapshots at a time before it builds the next, so no array
of n_out x n numbers is ever whole.  A run keeps only its O(n) start and
rebuilds the snapshots the same way when they are read
(``OracleRun.states``).  ``evolve`` states its working set: one chunk's
bands, and scratch of a fixed width whatever the comb.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BandwidthError,
    ConfigurationError,
    NumericalConsistencyError,
    ParameterError,
)
from .dynamics import AmplitudeTrajectory, integrate_psi
from .entropy import EnvSpectrum, normalized_overlap_sq, overlap_series
from .model import (MAX_GRID_NODES, InitialMixture, LambdaSystem,
                    PulseSpec, SimGrid)

__all__ = [
    "DiscreteBath",
    "Hamiltonian",
    "OracleRun",
    "Observables",
    "DeviationReport",
    "build_hamiltonian",
    "discretize_pulse",
    "evolve",
    "deviations",
    "compare",
]

DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteBath:
    """Uniform frequency combs standing in for the two continua.

    ``bandwidth`` is the full window width; both branch combs share the
    spacing bandwidth / (n_modes - 1) and are centered on their own
    transition (omega_a and omega_b).  ``build_hamiltonian``,
    ``discretize_pulse`` and ``compare``'s report read it.
    """

    n_modes: int
    bandwidth: float

    def __post_init__(self):
        if self.n_modes < 3 or self.n_modes % 2 == 0:
            raise ConfigurationError(
                f"n_modes must be odd and >= 3, got {self.n_modes}"
            )
        if not 0 < self.bandwidth < math.inf:
            raise ConfigurationError(
                f"bandwidth must be positive and finite, got {self.bandwidth}")

    @classmethod
    def default(cls, system: LambdaSystem) -> "DiscreteBath":
        return cls(n_modes=2001, bandwidth=40.0 * system.gamma_total)

    @property
    def spacing(self) -> float:
        return self.bandwidth / (self.n_modes - 1)

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.spacing

    def offsets(self) -> np.ndarray:
        """Mode frequencies relative to the comb center."""
        n = self.n_modes
        return (np.arange(n) - (n - 1) / 2.0) * self.spacing

    def check_against(self, system: LambdaSystem):
        """Window and spacing rules; the recurrence rule is ``evolve``'s."""
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


@dataclass(frozen=True)
class Hamiltonian:
    """One-excitation Hamiltonian of the discrete model (lab frame, hbar = 1).

    Only the nonzero structure: the |e, vac> energy ``omega_ref``; the
    ``offsets`` d_j from omega_ref that a-mode j and b-mode j share (the
    bath's ``DiscreteBath.offsets()`` exactly, so the comb stays mirror
    symmetric about omega_ref to the last bit whatever omega_ref is); and
    the couplings z_a = <e|H|a_j> and z_b = <e|H|b_j>.  ``diagonal`` is
    the diagonal in the frame rotating at omega_ref and ``toarray`` the
    dense lab-frame matrix.

    One-excitation layout: a state is one complex vector of ``dim`` = 1 +
    2n amplitudes, packed as |e, vac> at index 0, then the n a-branch
    modes (system in |a>), then the n b-branch modes (system in |b>).
    ``diagonal``, ``toarray``, ``evolve``'s start vector and
    ``OracleRun.states`` all use it.  In the rotating-wave model <e,
    0|H|s, 1_k j> = g_k delta_{s,k}: the states |b, 1_a j> (system in
    |b>, a photon on the a-branch) have no coupling at all, so a
    time-mirrored pulse on |b> never enters this block and is left out
    of it.
    """

    omega_ref: float
    offsets: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray

    @property
    def dim(self) -> int:
        return 1 + 2 * self.offsets.size

    def diagonal(self) -> np.ndarray:
        return np.concatenate(([0.0], self.offsets, self.offsets))

    def toarray(self) -> np.ndarray:
        h = np.diag((self.omega_ref + self.diagonal()).astype(complex))
        h[0, 1:] = np.concatenate((self.z_a, self.z_b))
        h[1:, 0] = np.conj(h[0, 1:])
        return h


def build_hamiltonian(system: LambdaSystem,
                      bath: DiscreteBath) -> Hamiltonian:
    """The one-excitation Hamiltonian on the bath's combs.

    omega_ref = omega_a; a-mode j and b-mode j share the offset d_j of
    ``bath.offsets()``, since delta_ab + omega_j^b = omega_a + d_j.  z_k =
    -i g_k, g_k = sqrt(gamma_k spacing / 2 pi), equal on every mode: the
    comb and its couplings are mirror symmetric about the line, which
    ``evolve`` folds.
    """
    bath.check_against(system)
    offsets = bath.offsets()
    g_a = math.sqrt(system.gamma_a * bath.spacing / (2.0 * math.pi))
    g_b = math.sqrt(system.gamma_b * bath.spacing / (2.0 * math.pi))
    return Hamiltonian(
        omega_ref=float(system.omega_a), offsets=offsets,
        z_a=np.full(offsets.size, -1j * g_a),
        z_b=np.full(offsets.size, -1j * g_b))


def discretize_pulse(pulse: PulseSpec, bath: DiscreteBath,
                     system: LambdaSystem) -> np.ndarray:
    """Project the initial envelope onto the a-branch comb.

    phi_j = F(delta_j) sqrt(spacing) / (2 pi), where F is the
    envelope's closed-form ``spectrum`` and delta_j
    the offset of comb mode j from the carrier.  sum |phi_j|^2 is then a
    Riemann sum of (1 / 4 pi^2) int |F|^2 d delta, which Parseval's
    theorem makes the envelope norm (1 / 2 pi) int |phi_shape|^2 dz = 1.
    The amplitudes are renormalized so that sum |phi_j|^2 = 1.  Before
    that, the sampled weight must lie within 1% of 1.  By Poisson summation
    it is 1, less the spectral weight outside the comb window, plus the
    pulse's overlaps with its copies shifted by whole recurrence times
    2 pi / spacing.

    Raises
    ------
    BandwidthError
        If the weight is below 0.99: the window clips the spectrum.
    ConfigurationError
        If the weight is above 1.01 (or not finite): the comb is too
        coarse for the pulse, which overlaps its own recurrence.
    """
    delta = bath.offsets() - pulse.detuning(system)
    amps = pulse.envelope.spectrum(delta) \
        * (math.sqrt(bath.spacing) / (2.0 * math.pi))
    weight = float(np.sum(np.abs(amps) ** 2))
    if weight < 0.99:
        raise BandwidthError(
            f"only {weight:.4f} of the pulse spectrum fits in the comb "
            "window; widen the bath or narrow the pulse"
        )
    if not weight <= 1.01:
        raise ConfigurationError(
            f"the comb samples {weight:.4g} of the pulse's weight: at spacing "
            f"{bath.spacing:.3g} the pulse aliases onto its copy one "
            f"recurrence time ({bath.recurrence_time:.3g}) away; refine the "
            "comb or widen the pulse")
    return amps / math.sqrt(weight)


@dataclass(frozen=True)
class OracleRun:
    """A discrete-bath evolution at the requested output times.

    Per snapshot, ``evolve`` measured the weights ``p_e`` of |e, vac> and
    ``n_a``, ``n_b`` of each branch, and the ``overlap`` <a(t)|free(t)>
    with the free pulse a0_j e^{-i d_j t}, a0 the a-modes of snapshot 0.
    The run holds no snapshot data, only the O(n) start: its bright part
    ``bright0`` ([|e>, bright modes]) and its dark part ``dark0``.
    ``states`` rebuilds the snapshots from them on first read, chunk by
    chunk as ``evolve`` did to measure them (``_snapshots``), on the
    cached decomposition, or a fresh one if another comb has replaced it
    in the cache; so a measured run never holds them.
    States are in the interaction-free rotating frame at
    ``hamiltonian.omega_ref`` (the |e> diagonal); multiply state k by
    e^{-i omega_ref t_k} for lab-frame amplitudes.  Global per-state
    phases drop out of every measurement.  The comb is ``hamiltonian``'s.
    """

    times: np.ndarray
    bright0: np.ndarray         # (1 + n,) complex, [|e>, bright modes]
    dark0: np.ndarray           # (n,) complex
    hamiltonian: Hamiltonian
    norm_drift: float
    p_e: np.ndarray
    n_a: np.ndarray
    n_b: np.ndarray
    overlap: np.ndarray         # complex

    def __post_init__(self):
        for series in (self.times, self.bright0, self.dark0, self.p_e,
                       self.n_a, self.n_b, self.overlap):
            series.flags.writeable = False

    @functools.cached_property
    def states(self) -> np.ndarray:
        """The snapshots, (n_out, dim) complex, read-only."""
        states = np.empty((self.times.size, self.hamiltonian.dim),
                          dtype=complex)
        for rows, block, _ in _snapshots(self.hamiltonian, self.bright0,
                                         self.dark0, self.times):
            states[rows] = block
        states.flags.writeable = False
        return states


# roots per block of the O(n^2) passes over all roots (``_secular_roots``,
# ``_spokes``), whose temporaries are _SOLVE x n doubles: 1 MB at 2001
# modes, inside a 2 MB L2; roots per block and mode pairs per panel of the
# bright pass, which sweeps each block's Cauchy rows _BRIGHT x _PANEL at a
# time (``_mirror_panels``), once for the start's coefficients and once
# per chunk to apply them through (chunk, _BRIGHT) operands, so its
# scratch has the same width whatever the comb; snapshots per chunk at
# most, whose bands are built and measured before the next chunk's
# (``_chunks``); snapshots per block of the pass over a chunk's snapshots,
# whose scratch is _ROWS x (dim + 2n) complex, and of the phase tables,
# which take cos and sin once per _ROWS snapshots (``_phase_rows``); and
# the secular solver's step cap
_SOLVE = 64
_BRIGHT = 256
_PANEL = 128
_CHUNK = 160
_ROWS = 16
_MAX_ITER = 100


def _pole_gaps(poles: np.ndarray, origin: np.ndarray, tau: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """poles_j - lambda_i for lambda_i = origin_i + tau_i, one row per root,
    where origin_i is the root's own pole d_{k_i}, written to ``out``.

    Measured from that pole, the difference keeps a few ulps of relative
    accuracy however close lambda_i is to a pole.  The poles are copied
    into every row and both subtractions run in place: 10-20 % faster
    than a broadcasting subtraction, to the same bits."""
    out[:] = poles
    out -= origin[:, None]
    out -= tau[:, None]
    return out


def _row_dots(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _secular_roots(alpha: float, d: np.ndarray, g: np.ndarray,
                   r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots r0 .. r1 - 1 of w(lam) = lam - alpha + sum_j g_j^2 / (d_j - lam).

    Root r lies between the poles d_{r-1} and d_r; root 0 lies below d_0
    and root n above d_{n-1}, within the Weyl bounds min(alpha, d_0) - |g|
    and max(alpha, d_{n-1}) + |g|.  Each root is held as (k, tau), lam =
    d_k + tau, from its origin pole k: the nearer of its two poles, as
    the sign of w at the bracket midpoint, where it starts, tells.  All
    roots of the block step together.  A step solves, for the new tau
    itself, a model matching w and w' with a constant and two poles (one
    pole and the linear term for the outer roots), each side's sum
    weighing on its neighbouring pole: the "middle way" of LAPACK dlaed4.
    A step that leaves the bracket becomes a bisection.  A root is done
    once |w| is within the rounding error of its sum.
    """
    n = d.size
    rows = np.arange(r0, r1)
    reach = float(np.linalg.norm(g))
    k = np.maximum(rows - 1, 0)
    # an outer bracket ends one ulp beyond the Weyl bound, so that a root
    # that rounds onto the bound still lies inside
    lo = np.where(rows > 0, 0.0,
                  np.nextafter(min(alpha - d[0], 0.0) - reach, -np.inf))
    hi = np.where(rows < n, d[np.minimum(rows, n - 1)] - d[k],
                  np.nextafter(max(alpha - d[-1], 0.0) + reach, np.inf))
    tau = 0.5 * (lo + hi)
    # pole columns left of every root of the block, mixed, right of all
    m0, m1 = min(r0, n), min(r1, n)
    mixed = rows[:, None] > np.arange(m0, m1)
    eps = np.finfo(float).eps
    active = np.arange(rows.size)
    scratch = np.empty((rows.size, n))
    for it in range(_MAX_ITER):
        ka, ta, ra = k[active], tau[active], rows[active]
        # t_ij = g_j / (d_j - lam_i): psi = sum g t and psi' = sum t^2
        # over the poles left of the root, phi and phi' right of it
        t = _pole_gaps(d, d[ka], ta, out=scratch[:active.size])
        np.divide(g, t, out=t)
        t_l = t[:, m0:m1] * mixed[active]
        t_r = t[:, m0:m1] - t_l
        psi = t[:, :m0] @ g[:m0] + t_l @ g[m0:m1]
        phi = t[:, m1:] @ g[m1:] + t_r @ g[m0:m1]
        dpsi = _row_dots(t[:, :m0]) + _row_dots(t_l)
        dphi = _row_dots(t[:, m1:]) + _row_dots(t_r)
        lin = (d[ka] - alpha) + ta
        w = lin + psi + phi
        bound = eps * (8.0 * (phi - psi) + abs(lin)
                       + abs(ta) * (dpsi + dphi + 1.0))
        il, ir = np.maximum(ra - 1, 0), np.minimum(ra, n - 1)
        if it == 0:
            # at the midpoint, w < 0 moves an interior root's origin to
            # its right pole, the nearer one
            flip = (w < 0) & (ra > 0) & (ra < n)
            k[flip] = ra[flip]
            shift = np.where(flip, d[ka] - d[ir], 0.0)
            ta = tau[:] = ta + shift
            lo += shift
            hi += shift
            ka = k.copy()
        lo[active] = np.where(w < 0, ta, lo[active])
        hi[active] = np.where(w < 0, hi[active], ta)
        keep = ~(np.abs(w) <= bound)
        active, ka, ta, ra = active[keep], ka[keep], ta[keep], ra[keep]
        if not active.size:
            return k, tau
        w, dpsi, dphi = w[keep], dpsi[keep], dphi[keep]
        # solved for the new tau itself, measured from the origin pole,
        # a root next to that pole keeps its digits
        pl, pr = d[il[keep]] - d[ka], d[ir[keep]] - d[ka]
        dl, dr = pl - ta, pr - ta
        with np.errstate(divide="ignore", invalid="ignore"):
            # interior: c + s_l / (pl - x) + s_r / (pr - x), the left sum
            # weighing on the left pole, the right sum and the linear term
            # on the right one; its root between the poles from
            # c x^2 - a x + b = 0 (pl or pr is the origin, 0)
            s_l, s_r = dl * dpsi * dl, dr * (dphi + 1.0) * dr
            c = w - dl * dpsi - dr * (dphi + 1.0)
            a = c * (pl + pr) + s_l + s_r
            b = s_l * pr + s_r * pl
            root = np.sqrt(np.abs(a * a - 4.0 * b * c))
            inner = np.where(a <= 0, (a - root) / (2.0 * c),
                             2.0 * b / (a + root))
            inner = np.where(c == 0, b / a, inner)
            # outer: c + x - s / x, all poles weighing on the origin pole;
            # its root on the root's side of that pole from x^2 + c x - s
            s = ta * (dpsi + dphi) * ta
            c = w - ta + s / ta
            root = np.sqrt(c * c + 4.0 * s)
            below = np.where(c >= 0, -0.5 * (c + root), 2.0 * s / (c - root))
            above = np.where(c <= 0, 0.5 * (root - c), 2.0 * s / (c + root))
            new = np.where((ra > 0) & (ra < n), inner,
                           np.where(ra == 0, below, above))
        # a step against the sign of w is replaced by Newton's
        new = np.where(w * (new - ta) >= 0,
                       ta - w / (dpsi + dphi + 1.0), new)
        la, ha = lo[active], hi[active]
        tau[active] = np.where((new > la) & (new < ha), new, 0.5 * (la + ha))
    raise NumericalConsistencyError(
        f"secular equation: {active.size} roots unconverged after "
        f"{_MAX_ITER} iterations")


class _Arrowhead(NamedTuple):
    """O(n) data of an arrowhead's eigendecomposition.

    The eigenvalues are lam_i = d_{k_i} + tau_i, ascending, each held as
    an offset from its origin pole; ``spokes_hat`` are Gu & Eisenstat's
    recomputed spokes.  The eigenvector matrix V is never stored: row i of
    V^T is the normalized Cauchy vector [1, g^_j / (lam_i - d_j)], which
    ``_mirror_panels`` rebuilds in blocks from these arrays, folded into
    its mirror sums and differences.
    """

    d: np.ndarray
    evals: np.ndarray
    k: np.ndarray
    tau: np.ndarray
    spokes_hat: np.ndarray


def _roots(alpha: float, d: np.ndarray, g: np.ndarray,
           r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots r0 .. r1 - 1 of the secular equation as (k, tau), _SOLVE at a
    time (``_secular_roots``)."""
    k = np.empty(r1 - r0, dtype=int)
    tau = np.empty(r1 - r0)
    for a in range(r0, r1, _SOLVE):
        b = min(a + _SOLVE, r1)
        k[a - r0:b - r0], tau[a - r0:b - r0] = _secular_roots(alpha, d, g,
                                                              a, b)
    return k, tau


def _spokes(d: np.ndarray, k: np.ndarray, tau: np.ndarray,
            j0: int, j1: int) -> np.ndarray:
    """|g^_j| for j0 <= j < j1, recomputed from all n + 1 roots (Gu &
    Eisenstat 1995): g^_j^2 = prod_i |d_j - lam_i| / prod_{k != j}
    |d_j - d_k|, taken as a product of ratios near 1 that pair lam_i with
    d_i for i < j and with d_{i-1} for i > j + 1."""
    n = d.size
    out = np.empty(j1 - j0)
    dk = d[k]
    den, ratio = np.empty((2, min(_SOLVE, j1 - j0), n + 1))
    for a in range(j0, j1, _SOLVE):
        b = min(a + _SOLVE, j1)
        dj = d[a:b, None]
        den_b, ratio_b = den[:b - a], ratio[:b - a]
        # lam_j and lam_{j+1}, next to d_j, stay unpaired
        np.subtract(dj, d[:a], out=den_b[:, :a])
        np.subtract(dj, d[b:], out=den_b[:, b + 1:])
        i = np.arange(a, b + 1)
        j = np.arange(a, b)[:, None]
        den_b[:, a:b + 1] = np.where(
            i < j, dj - d[np.minimum(i, n - 1)],
            np.where(i > j + 1, dj - d[i - 1], 1.0))
        np.subtract(dj, dk, out=ratio_b)
        ratio_b -= tau
        ratio_b /= den_b
        out[a - j0:b - j0] = np.sqrt(np.prod(np.abs(ratio_b, out=ratio_b),
                                             axis=1))
    return out


def _decomposition(d: np.ndarray, k: np.ndarray, tau: np.ndarray,
                   spokes_hat: np.ndarray) -> _Arrowhead:
    arrow = _Arrowhead(d=d, evals=d[k] + tau, k=k, tau=tau,
                       spokes_hat=spokes_hat)
    for part in arrow:
        part.flags.writeable = False
    return arrow


@functools.lru_cache(maxsize=1)
def _folded_eigh(offsets: bytes, spokes: bytes) -> _Arrowhead:
    """Eigendecomposition of a mirror-symmetric arrowhead, from its fold.

    The arrowhead is [[0, g^T], [g, diag(d)]] over n = 2c + 1 poles with
    d_{n-1-j} = -d_j (so d_c = 0) and g_{n-1-j} = g_j; ``offsets`` holds
    the positive poles d_{c+1} .. d_{n-1} and ``spokes`` g_c .. g_{n-1}.
    The map S (|e> kept, pole j to pole n - 1 - j with its sign flipped)
    takes A to -A, so the roots pair as lam_{n-r} = -lam_r: the negative
    ones mirror the positive ones, (k, tau) -> (n - 1 - k, -tau), and
    their eigenvectors are S applied to the positive ones.  So the secular
    solver runs on the c + 1 positive roots only, and the recomputed
    spokes, which keep the symmetry, on the c + 1 poles d_c .. d_{n-1}:
    half of each O(n^2) pass over all roots and all spokes.  The equation
    itself is not squared: the half-size arrowhead of the lam^2, [[|g|^2,
    sqrt(2) g_j d_j], [.., diag(d_j^2)]], cancels its corner |g|^2
    against the far spokes and loses the roots next to the line when the
    spokes there are small.  Keyed on the folded comb, so runs on one comb
    and rates share one decomposition whatever omega_a is.
    """
    dp, gh = np.frombuffer(offsets), np.frombuffer(spokes)
    c = dp.size
    n = 2 * c + 1
    d = np.concatenate((-dp[::-1], [0.0], dp))
    k, tau = _roots(0.0, d, np.concatenate((gh[:0:-1], gh)), c + 1, n + 1)
    k = np.concatenate(((n - 1 - k)[::-1], k))
    tau = np.concatenate((-tau[::-1], tau))
    half = np.copysign(_spokes(d, k, tau, c, n), gh)
    return _decomposition(d, k, tau, np.concatenate((half[:0:-1], half)))


def _phase_rows(t: np.ndarray, freqs: np.ndarray, out: np.ndarray):
    """The phase table e^{-i f_j t_i} on the even grid t (a ``np.linspace``),
    _ROWS snapshots at a time, each block written to the first rows of
    ``out``, (min(t.size, _ROWS), freqs.size) complex or more rows: yields
    (rows, table), table the block's view of ``out``.

    Only the first row of each block, its base, takes cos and sin; row r
    of a block is its base times the step e^{-i f_j (t_r - t_0)}, one
    complex product, from one set of steps for the whole grid.  Against
    cos and sin of the rounded argument f t_i, the entries differ by at
    most 4 eps max|f t| + 8 eps (7.6e-14 at max|f t| = 300, the default
    comb, 9.1e-13 at 6000), and their moduli from 1 by a few ulps.  The
    301 x 401 table of the 801-mode comb (max|f t| = 300) takes 0.75-0.8
    ms, against 4.2-4.3 ms for cos and sin of every entry (2-core x86 VM).
    """
    def trig(times, rows):
        # cos and sin of -f t; the argument is held in the imaginary parts
        # until the sines replace it
        np.multiply(times[:, None], -freqs, out=rows.imag)
        np.cos(rows.imag, out=rows.real)
        np.sin(rows.imag, out=rows.imag)

    steps = np.empty((min(t.size, _ROWS), freqs.size), dtype=complex)
    trig(t[:_ROWS] - t[0], steps)
    for i0 in range(0, t.size, _ROWS):
        table = out[:min(_ROWS, t.size - i0)]
        trig(t[i0:i0 + 1], table[:1])
        np.multiply(table[0], steps[1:len(table)], out=table[1:])
        yield slice(i0, i0 + len(table)), table


def _mirror_panels(arrow: _Arrowhead, r0: int, r1: int, panel: np.ndarray):
    """The unnormalized Cauchy vectors of the positive roots r0 .. r1 - 1
    of a folded arrowhead as their mirror sums S and differences D,
    _PANEL mode pairs at a time, each panel written to ``panel``, (3, r1 -
    r0, _PANEL) or wider, whose third slot is scratch: yields (cols, S,
    D), views of ``panel``.

    For root i and mode pair j = 0 .. c, up_j = g^_{c+j} / (lam_i -
    d_{c+j}) and down_j = g^_{c+j} / (lam_i + d_{c+j}), the entry of pole
    c - j (whose spoke is the same), each gap taken from the root's own
    pole (``_pole_gaps``).  Row i of V^T is u / N_i, u = [1, down_c ..
    down_1, up_0 .. up_c]; S = up + down and D = up - down, with S_0 = 2
    up_0 (up_0 = down_0 is pole c) and D_0 = 2 for |e>.
    """
    d, c = arrow.d, arrow.d.size // 2
    origin, tau = d[arrow.k[r0:r1]], arrow.tau[r0:r1]
    spokes = -arrow.spokes_hat[c:]
    for j0 in range(0, c + 1, _PANEL):
        cols = slice(j0, min(j0 + _PANEL, c + 1))
        sums, diffs, down = panel[:, :r1 - r0, :cols.stop - j0]
        for poles, out in ((d[c:], sums), (d[c::-1], down)):
            _pole_gaps(poles[cols], origin, tau, out=out)
            np.divide(spokes[cols], out, out=out)
        np.subtract(sums, down, out=diffs)
        sums += down
        if j0 == 0:
            diffs[:, 0] = 2.0
        yield cols, sums, diffs


def _block_coefficients(arrow: _Arrowhead, r0: int, r1: int, xy: np.ndarray,
                        panel: np.ndarray) -> np.ndarray:
    """The coefficients (v . b0) / 2 N and (v' . b0) / 2 N of the positive
    roots r0 .. r1 - 1 of a folded arrowhead, v = u / N the normalized
    rows of V^T and v' their mirrors, (2, r1 - r0) complex, from the
    mirror parts xy = (x, y) of the start b0 = [|e>, modes], (2, c + 1)
    complex: x_j = (b0_{c+j} + b0_{c-j}) / 2 and y_j = (b0_{c+j} -
    b0_{c-j}) / 2, with x_0 = b0_c / 2 and y_0 = b0_e / 2.

    One sweep of ``_mirror_panels`` through ``panel`` gives u . b0 = S . x
    + D . y, u' . b0 = D . y - S . x and 2 N^2 = sum (S^2 + D^2) - (S_0^2
    + 4) / 2.
    """
    parts = xy.view(float).reshape(2, -1, 2)
    sx, dy = np.zeros((2, r1 - r0, 2))
    two_norm_sq = np.full(r1 - r0, -2.0)
    for cols, sums, diffs in _mirror_panels(arrow, r0, r1, panel):
        sx += sums @ parts[0, cols]
        dy += diffs @ parts[1, cols]
        two_norm_sq += _row_dots(sums) + _row_dots(diffs)
        if cols.start == 0:
            two_norm_sq -= 0.5 * sums[:, 0] ** 2
    coef = np.stack((sx + dy, dy - sx)) / two_norm_sq[:, None]
    return coef[..., 0] + 1j * coef[..., 1]


def _bright_coefficients(arrow: _Arrowhead,
                         bright0: np.ndarray) -> np.ndarray:
    """The coefficients of all positive roots of a folded arrowhead, (2, c
    + 1) complex, from the start ``bright0`` ([|e>, bright modes]): row 0
    (v . b0) / 2 N and row 1 (v' . b0) / 2 N, as ``_block_coefficients``
    takes them, _BRIGHT roots at a time, from the start's mirror parts,
    the inverse of ``_unfold`` with column 0 halved.  They are what
    ``_bright_bands`` applies, so every chunk of snapshots shares one
    sweep of the Cauchy rows for them."""
    c = arrow.d.size // 2
    up, down = bright0[c + 1:], bright0[c + 1:0:-1]
    xy = 0.5 * np.stack((up + down, up - down))
    xy[:, 0] = 0.5 * bright0[c + 1], 0.5 * bright0[0]
    coef = np.empty((2, c + 1), dtype=complex)
    panel = np.empty((3, min(_BRIGHT, c + 1), min(_PANEL, c + 1)))
    for r0 in range(c + 1, 2 * c + 2, _BRIGHT):
        r1 = min(r0 + _BRIGHT, 2 * c + 2)
        coef[:, r0 - c - 1:r1 - c - 1] = _block_coefficients(arrow, r0, r1,
                                                             xy, panel)
    return coef


def _bright_bands(arrow: _Arrowhead, coef: np.ndarray,
                  t_out: np.ndarray) -> np.ndarray:
    """The bands Re X, Im X, Re Y and Im Y of the bright amplitudes at
    ``t_out`` (one chunk of snapshots) from the coefficients ``coef``
    (``_bright_coefficients``) on a folded arrowhead, (t_out.size, 4 (c +
    1)).

    Roots go _BRIGHT at a time, and each block sweeps its Cauchy rows
    once, as the mirror sums S and differences D of ``_mirror_panels``,
    _PANEL mode pairs at a time.  With F the forward-phased and G the
    mirrored coefficients, X = (F - G) on S and Y = (F + G) on D: F and G
    are formed _ROWS snapshots at a time (``_phase_rows``), straight into
    the four real operands, and the sweep applies each operand one panel
    at a time, adding its products to the bands through one (t_out.size,
    _PANEL) buffer, so no scratch array grows with the comb.  For a chunk
    of _CHUNK snapshots on the 2001-mode comb the bands are 5.1 MB and
    the scratch above them 2.4 MB.
    """
    c = arrow.d.size // 2
    n_out = t_out.size
    # zeros written, not calloc'd: adding into untouched zero pages faults
    # each page twice, 3 ms more of the bright pass's 13 ms at 801 modes
    # and 301 snapshots (2-core x86 VM)
    bands = np.full((n_out, 4 * (c + 1)), 0.0)
    re_x, im_x, re_y, im_y = np.split(bands, 4, axis=1)
    width, panel_width = min(_BRIGHT, c + 1), min(_PANEL, c + 1)
    # Re (F - G), Im (F - G), Re (F + G) and Im (F + G), the operands of
    # the four bands
    lhs = np.empty((4, n_out, width))
    panel = np.empty((3, width, panel_width))
    part = np.empty((n_out, panel_width))
    fwd_buf, mir_buf = np.empty((2, min(n_out, _ROWS), width), dtype=complex)
    for r0 in range(c + 1, 2 * c + 2, _BRIGHT):
        r1 = min(r0 + _BRIGHT, 2 * c + 2)
        m = r1 - r0
        # F = e^{-i lam t} v.b0 / 2 N and G = e^{i lam t} v'.b0 / 2 N: the
        # 1 / N of v on S and D goes on the coefficients, and a half, as
        # the mirror sums and differences are not halved
        w_fwd, w_mir = coef[:, r0 - c - 1:r1 - c - 1]
        for rows, fwd in _phase_rows(t_out, arrow.evals[r0:r1],
                                     fwd_buf[:, :m]):
            mir = mir_buf[:len(fwd), :m]
            np.conjugate(fwd, out=mir)
            fwd *= w_fwd
            mir *= w_mir
            for op, (re, im) in ((np.subtract, lhs[:2]), (np.add, lhs[2:])):
                op(fwd.real, mir.real, out=re[rows, :m])
                op(fwd.imag, mir.imag, out=im[rows, :m])
        for cols, sums, diffs in _mirror_panels(arrow, r0, r1, panel):
            p = cols.stop - cols.start
            for half, rhs, band in zip(lhs, (sums, sums, diffs, diffs),
                                       (re_x, im_x, re_y, im_y)):
                np.matmul(half[:, :m], rhs, out=part[:, :p])
                band[:, cols] += part[:, :p]
    return bands


def _unfold(x: np.ndarray, y: np.ndarray, out: np.ndarray):
    """Write the bright block from its mirror parts X and Y, (rows, c + 1)
    each: |e> is Y_0 and mode c is X_0; mode c + i is X_i + Y_i and its
    mirror c - i is X_i - Y_i."""
    c = x.shape[1] - 1
    out[:, 0] = y[:, 0]
    out[:, c + 1] = x[:, 0]
    np.add(x[:, 1:], y[:, 1:], out=out[:, c + 2:2 * c + 2])
    np.subtract(x[:, 1:], y[:, 1:], out=out[:, c:0:-1])


def _snapshot_blocks(h: Hamiltonian, dark0: np.ndarray, bands: np.ndarray,
                     times: np.ndarray):
    """The snapshots at ``times`` from their bands, _ROWS at a time, each
    block written into one scratch block: yields (rows, block, work).

    Each block unfolds its bands into the bright amplitudes and turns
    (bright, dark) into (a, b) in place:
    a = (conj(z_a) bright + z_b dark0 e^{-i d t}) / G and
    b = (conj(z_b) bright - z_a dark0 e^{-i d t}) / G.  ``work`` is
    (rows, 2n) complex scratch, its second half the phases e^{i d_j t}
    of the block; the caller may overwrite both."""
    n = h.offsets.size
    c = n // 2
    g = np.hypot(np.abs(h.z_a), np.abs(h.z_b))
    a_bright, b_bright = np.conj(h.z_a) / g, np.conj(h.z_b) / g
    a_dark, b_dark = h.z_b * dark0 / g, -h.z_a * dark0 / g
    block_buf = np.empty((min(times.size, _ROWS), h.dim), dtype=complex)
    scratch = np.empty((len(block_buf), 2 * n), dtype=complex)
    # the dark phases, the upper half a phase table written in place, the
    # lower half its mirrored conjugate
    for rows, upper in _phase_rows(times, h.offsets[c:],
                                   block_buf[:, n + 1 + c:]):
        block, work = block_buf[:len(upper)], scratch[:len(upper)]
        x_re, x_im, y_re, y_im = np.split(bands[rows], 4, axis=1)
        _unfold(x_re, y_re, block.real)
        _unfold(x_im, y_im, block.imag)
        bright, phase = block[:, 1:n + 1], block[:, n + 1:]
        np.conjugate(phase[:, :c:-1], out=phase[:, :c])
        new_a, conj_phase = np.split(work, 2, axis=1)
        np.multiply(a_bright, bright, out=new_a)
        np.multiply(a_dark, phase, out=conj_phase)
        new_a += conj_phase
        np.conjugate(phase, out=conj_phase)
        phase *= b_dark
        bright *= b_bright
        phase += bright
        bright[:] = new_a
        yield rows, block, work


def _chunks(n_out: int):
    """Consecutive slices of range(n_out), _CHUNK snapshots each but the
    last: 301 snapshots make 160 + 141.  _CHUNK is a multiple of _ROWS,
    so only a run's last chunk ends in a partial block."""
    for i0 in range(0, n_out, _CHUNK):
        yield slice(i0, min(i0 + _CHUNK, n_out))


def _snapshots(h: Hamiltonian, bright0: np.ndarray, dark0: np.ndarray,
               times: np.ndarray):
    """The snapshots at ``times`` from the start's bright and dark parts,
    chunk by chunk (``_chunks``): yields ``_snapshot_blocks``' (rows,
    block, work), rows counted over all of ``times``.

    The arrowhead comes from the decomposition cache (``_folded_eigh``),
    the coefficients from one sweep (``_bright_coefficients``); each
    chunk's bands (``_bright_bands``) are measured, then dropped before
    the next chunk's are built."""
    c = h.offsets.size // 2
    g = np.hypot(np.abs(h.z_a), np.abs(h.z_b))
    arrow = _folded_eigh(h.offsets[c + 1:].tobytes(), g[c:].tobytes())
    coef = _bright_coefficients(arrow, bright0)
    for chunk in _chunks(times.size):
        bands = _bright_bands(arrow, coef, times[chunk])
        for rows, block, work in _snapshot_blocks(h, dark0, bands,
                                                  times[chunk]):
            yield (slice(chunk.start + rows.start, chunk.start + rows.stop),
                   block, work)
        # the next chunk is built without this one's bands or scratch
        # block, which a name left bound here would keep alive
        del bands, block, work


def _check_snapshot_size(n_out: int, dim: int):
    """Refuse an n_out that is not an integer (numpy's included; a bool is
    not one) or is below 1 with ParameterError, and a snapshot array of
    more than MAX_GRID_NODES amplitudes, the cap that bounds trajectories,
    with ConfigurationError, before any of it is allocated."""
    if isinstance(n_out, bool) or not isinstance(n_out, numbers.Integral):
        raise ParameterError(f"n_out must be an integer, got {n_out!r}")
    if not n_out >= 1:
        raise ParameterError(f"n_out must be at least 1, got {n_out}")
    if n_out * dim > MAX_GRID_NODES:
        raise ConfigurationError(
            f"{n_out} snapshots of {dim} amplitudes, {n_out * dim} in all, "
            f"exceed MAX_GRID_NODES = {MAX_GRID_NODES:.3g}; shrink the bath")


def evolve(h: Hamiltonian, y0: np.ndarray, t_final: float, *,
           n_out: int = 201) -> OracleRun:
    """Solve i dy/dt = H y exactly and record n_out snapshots on [0, t_final].

    ``y0`` is the unit-norm start, one vector of ``h.dim`` amplitudes in
    the one-excitation layout of ``Hamiltonian``, else ParameterError.
    Everything else comes from ``h``; n_out must be an integer of at
    least 1, else ParameterError, and t_final must stay below 2 pi /
    (finest gap of ``h.offsets``), the recurrence time, else
    ConfigurationError.
    In the frame rotating at omega_ref, with d the offsets and G_j =
    sqrt(|z_aj|^2 + |z_bj|^2), pair j splits into a dark mode
    (z_bj a_j - z_aj b_j) / G_j, evolving by its phase alone, and a
    bright mode (conj(z_aj) a_j + conj(z_bj) b_j) / G_j.
    |e> and the bright modes form the real arrowhead [[0, G], [G, diag(d)]].
    The comb must be mirror symmetric, d_{n-1-j} = -d_j and G_{n-1-j} =
    G_j, with d strictly increasing and every G_j^2 a normal float, else
    ParameterError.  The arrowhead is then solved through its fold
    (``_folded_eigh``): the eigenvectors of the roots -lam are those of
    +lam with modes j and n - 1 - j swapped and negated.  Only the
    positive roots' rows of V^T are rebuilt, from the cached O(n) roots
    and spokes, never stored.  The snapshots are built and measured in
    chunks of _CHUNK, the last one shorter
    (``_chunks``; 301 snapshots make 160 + 141), by ``_snapshots``.  One
    coefficient pass (``_bright_coefficients``) takes the positive roots
    _BRIGHT at a time and sweeps each block's Cauchy vectors _PANEL mode
    pairs at a time in one form, their mirror sums S and differences D,
    unnormalized (``_mirror_panels``).  It contracts them with the start's
    mirror parts into the block's coefficients (``_block_coefficients``),
    the 1 / N^2 of each root on them: (2, c + 1) complex numbers in all.
    For each chunk the apply pass (``_bright_bands``) sweeps every block
    once more and applies them, as GEMMs of half the width: with F the
    forward-phased and G the mirrored coefficients, X = (F - G) on S and Y
    = (F + G) on D give bright_j = X_j + Y_j and bright_{n-1-j} = X_j -
    Y_j (and |e> from Y).  F and G are formed _ROWS snapshots at a
    time by the phase generator (``_phase_rows``), straight into the four
    real operands Re (F - G), Im (F - G), Re (F + G) and Im (F + G), so
    no complex table of a block is ever whole.  X and Y accumulate in four
    real bands Re X, Im X, Re Y and Im Y of c + 1 each, (chunk, 4 (c +
    1)) doubles, half the bytes of the chunk's snapshots, which start at
    zero; every block adds its products to them panel by panel through
    one (chunk, _PANEL) buffer.  The snapshot loop then measures the
    chunk _ROWS snapshots at a time in one scratch block
    (``_snapshot_blocks``), which unfolds their bands into the bright
    amplitudes and mixes (bright, dark) into (a, b) with the dark phases,
    the upper half of their table written into the block by the same
    generator, the lower its conjugate: the overlap with the free pulse,
    whose phases e^{i d_j t} are the dark ones' conjugate, then p_e, n_a,
    n_b and the norms.  The chunk's bands and scratch block are dropped
    before the next chunk is built.  The run keeps the start's bright and
    dark parts, from which ``OracleRun.states`` rebuilds the snapshots by
    the same passes when read.  Norm drift above DRIFT_TOL, or NaN,
    raises.  n_out * dim above MAX_GRID_NODES is refused with
    ConfigurationError before anything is allocated or solved.  A cold
    run (decomposition not cached) on the 2001-mode default comb with 301
    snapshots takes 0.13-0.15 s (a warm one 0.087-0.095 s) and peaks at
    7.9 MiB while it measures the first chunk, its 4.9 MiB of bands and
    the 2.0 MiB scratch block, where the bands of all 301 snapshots alone
    would be 9.2 MiB; the bright pass's four (chunk, _BRIGHT) operands,
    its panels and its (chunk, _PANEL) buffer are freed by then.  At 5385
    modes and 401 snapshots (three chunks, 160 + 160 + 81), 0.95-1.10 s
    and 20.4 MiB; at 7643 modes, 1.69-2.25 s and 28.6 MiB (2-core x86 VM
    on a shared host; peaks by tracemalloc).  Each chunk after the first
    sweeps the Cauchy vectors once more: a cold run takes up to 1.10
    times as long as in one chunk at 2001 modes and 301 snapshots, and
    1.17-1.21 times at 7643 modes and 401.  The panels cost time on large
    combs: every panel's GEMMs repack the operands, and every block adds
    its products to the bands panel by panel, so at 7643 modes the warm
    bright pass takes 1.1-1.2 times as long as with whole-width panels.
    """
    if not t_final > 0:
        raise ParameterError("t_final must be positive")
    n = h.offsets.size
    dim = h.dim
    _check_snapshot_size(n_out, dim)
    y0 = np.asarray(y0, dtype=complex)
    if y0.shape != (dim,):
        raise ParameterError(f"state of shape {y0.shape} does not fit the "
                             f"hamiltonian dim {dim}")
    norm0 = float(np.real(np.vdot(y0, y0)))
    if not abs(norm0 - 1.0) <= 1e-9:
        raise ParameterError(f"initial state norm {norm0} != 1")

    d = h.offsets
    z_a, z_b = h.z_a, h.z_b
    g = np.hypot(np.abs(z_a), np.abs(z_b))
    if not (np.array_equal(d, -d[::-1]) and np.array_equal(g, g[::-1])):
        raise ParameterError("the folded solver needs a comb and couplings "
                             "mirror-symmetric about omega_ref")
    gaps = np.diff(d)
    if not (np.all(gaps > 0) and np.all(g * g >= np.finfo(float).tiny)):
        raise ParameterError("the arrowhead solver needs the mode pairs in "
                             "strictly increasing order, with couplings "
                             "whose squares do not underflow")
    recurrence = 2.0 * math.pi / float(np.min(gaps, initial=np.inf))
    if t_final >= recurrence:
        raise ConfigurationError(
            f"t_final = {t_final} reaches the recurrence time "
            f"{recurrence:.3g}; enlarge the bath")

    a, b = slice(1, n + 1), slice(n + 1, dim)
    t_out = np.linspace(0.0, t_final, n_out)
    bright0 = np.concatenate(([y0[0]], (z_a * y0[a] + z_b * y0[b]) / g))
    dark0 = (np.conj(z_b) * y0[a] - np.conj(z_a) * y0[b]) / g

    # each block of snapshots is measured in its scratch block; the
    # overlap with the free pulse a0_j e^{-i d_j t} in the same rotating
    # frame is <a(t)|free(t)> = conj(sum_j a_j(t) e^{i d_j t} conj(a0_j))
    norms, p_e, n_a, n_b = np.empty((4, n_out))
    overlap = np.empty(n_out, dtype=complex)
    for rows, block, work in _snapshots(h, bright0, dark0, t_out):
        if rows.start == 0:
            a0 = np.conj(block[0, a])
        free = work[:, n:]
        free *= a0
        free *= block[:, a]
        overlap[rows] = np.conj(np.sum(free, axis=1))
        pops = np.abs(block, out=work.view(float)[:, :dim])
        pops *= pops
        p_e[rows] = pops[:, 0]
        for cols, out in ((slice(None), norms), (a, n_a), (b, n_b)):
            out[rows] = np.add.reduce(pops[:, cols], axis=1)
        # bound while ``_snapshots`` builds the next chunk, these views
        # would keep this chunk's scratch block alive: 2 MB at 2001 modes
        del block, work, free, pops
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= DRIFT_TOL:
        raise NumericalConsistencyError(
            f"norm drift {drift:.3e} exceeds {DRIFT_TOL}")
    return OracleRun(times=t_out, bright0=bright0, dark0=dark0,
                     hamiltonian=h, norm_drift=drift, p_e=p_e, n_a=n_a,
                     n_b=n_b, overlap=overlap)


DEFAULT_TOLERANCES = {"p_e": 1e-3, "p_ab": 1e-3, "n_a": 1e-3, "s_e": 1e-2,
                      "w": 5e-3, "q": 5e-3}


@dataclass(frozen=True)
class Observables:
    """What ``compare`` checks of one run, at its snapshot ``times``.

    ``spectrum`` is the environment (p_e is its ``psi_sq``, p_ab its
    ``n_b``), ``w`` the work per hbar omega_a, the photon number the
    pulse lost, 2 (1 - Re overlap(T)), and ``q`` the heat omega_a Gamma
    int p_e dt - delta_ab p_ab(T) (hbar = 1), a trapezoid on ``times``.
    The overlap is that of the a-branch photon with the free pulse,
    times sqrt(N_a); its real part is 1 - flux / 2
    (``entropy.overlap_series``).  ``from_series``, the one constructor,
    takes all three from the series p_e, n_a, n_b and the overlap.
    """

    times: np.ndarray
    spectrum: EnvSpectrum
    w: float
    q: float
    omega_a: float

    @classmethod
    def from_series(cls, system: LambdaSystem, mixture: InitialMixture,
                    times: np.ndarray, p_e: np.ndarray, n_a: np.ndarray,
                    n_b: np.ndarray, overlap: np.ndarray) -> "Observables":
        spectrum = EnvSpectrum.from_branches(
            mixture, p_e, n_a, n_b, normalized_overlap_sq(overlap, n_a))
        w = 2.0 * (1.0 - float(overlap[-1].real))
        q = system.omega_a * system.gamma_total \
            * float(np.trapezoid(p_e, times)) \
            - system.delta_ab * float(n_b[-1])
        return cls(times, spectrum, w, q, system.omega_a)

    @classmethod
    def from_run(cls, run: OracleRun, system: LambdaSystem,
                 mixture: InitialMixture) -> "Observables":
        """The series the run measured.

        The environment state is rank <= 4: vacuum, the b-branch photon,
        and a 2x2 block mixing the scattered a photon with the free pulse
        (the photon, had the system started in |b>), so the series give
        its spectrum exactly."""
        return cls.from_series(system, mixture, run.times, run.p_e,
                               run.n_a, run.n_b, run.overlap)

    @classmethod
    def from_trajectory(cls, traj: AmplitudeTrajectory, system: LambdaSystem,
                        pulse: PulseSpec, mixture: InitialMixture,
                        times: np.ndarray) -> "Observables":
        """Interpolated at ``times``; the overlap is ``overlap_series``."""
        p_e = np.interp(times, traj.times, traj.p_e)
        p_ab = np.interp(times, traj.times, traj.p_ab)
        overlap = overlap_series(traj, pulse, system, times)
        return cls.from_series(system, mixture, times, p_e,
                               1.0 - p_e - p_ab, p_ab, overlap)


def deviations(a: Observables, b: Observables) -> dict:
    """Worst |a - b| of each observable, keyed as DEFAULT_TOLERANCES; q
    per hbar omega_a, so no verdict depends on the optical frequency."""
    if not (np.array_equal(a.times, b.times) and a.omega_a == b.omega_a):
        raise ParameterError("records on different times or omega_a")
    sa, sb = a.spectrum, b.spectrum
    devs = {name: float(np.max(np.abs(x - y))) for name, x, y in (
        ("p_e", sa.psi_sq, sb.psi_sq), ("p_ab", sa.n_b, sb.n_b),
        ("n_a", sa.n_a, sb.n_a), ("s_e", sa.s_e, sb.s_e), ("w", a.w, b.w),
        ("q", a.q, b.q))}
    devs["q"] /= a.omega_a
    return devs


@dataclass(frozen=True)
class DeviationReport:
    """Worst-case oracle-vs-analytic deviations and their verdicts:
    ``passed`` when no observable is over its tolerance (``failures``)."""

    deviations: dict
    tolerances: dict
    failures: tuple
    passed: bool
    norm_drift: float
    t_final: float
    n_modes: int
    bandwidth: float


def compare(system: LambdaSystem, pulse: PulseSpec, mixture: InitialMixture,
            bath: DiscreteBath | None = None, *,
            n_out: int = 301) -> DeviationReport:
    """Diff a discrete-bath run against the analytic pipeline.

    Both run to t_final = 15 / Gamma (the oracle to n_out snapshots) and
    each becomes an ``Observables`` record on the snapshot times, whose
    ``deviations`` are judged against DEFAULT_TOLERANCES.
    """
    bath = bath or DiscreteBath.default(system)
    t_final = 15.0 / system.gamma_total

    # evolve's refusal, before the comb is projected or built
    _check_snapshot_size(n_out, 1 + 2 * bath.n_modes)
    amps = discretize_pulse(pulse, bath, system)
    h = build_hamiltonian(system, bath)
    run = evolve(h, np.concatenate(([0.0], amps, np.zeros_like(amps))),
                 t_final, n_out=n_out)
    oracle = Observables.from_run(run, system, mixture)

    traj = integrate_psi(system, pulse,
                         SimGrid.auto(system, pulse, t_max=t_final))
    devs = deviations(oracle, Observables.from_trajectory(
        traj, system, pulse, mixture, run.times))
    tol = dict(DEFAULT_TOLERANCES)
    failures = tuple(name for name, dev in devs.items() if dev > tol[name])
    return DeviationReport(deviations=devs, tolerances=tol,
                           failures=failures, passed=not failures,
                           norm_drift=run.norm_drift,
                           t_final=t_final, n_modes=bath.n_modes,
                           bandwidth=bath.bandwidth)
