"""Discrete-bath cross-check machinery."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_adapt import oracle
from lambda_adapt.dynamics import integrate_psi
from lambda_adapt.entropy import normalized_overlap_sq
from lambda_adapt.errors import (BandwidthError, ConfigurationError,
                                 NumericalConsistencyError, ParameterError)
from lambda_adapt.model import (Exponential, Gaussian, InitialMixture,
                                LambdaSystem, Rectangular, SimGrid,
                                make_pulse)
from lambda_adapt.oracle import (DEFAULT_TOLERANCES, DiscreteBath,
                                 Observables, build_hamiltonian, compare,
                                 deviations, discretize_pulse, evolve)
from lambda_adapt.thermo import drive_energy_flux


@pytest.fixture(scope="module")
def system():
    return LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)


@pytest.fixture(scope="module")
def small_bath(system):
    return DiscreteBath(n_modes=801, bandwidth=40.0 * system.gamma_total)


@pytest.fixture(scope="module")
def tiny_bath(system):
    # the coarsest comb check_against takes: dense matrices stay small
    return DiscreteBath(n_modes=401, bandwidth=20.0 * system.gamma_total)


def excited_in(h):
    """|e, vac> in the basis of ``h``."""
    y0 = np.zeros(h.dim, dtype=complex)
    y0[0] = 1.0
    return y0


def photon_in(amps):
    """A photon with the a-comb amplitudes ``amps``, system in |a>."""
    return np.concatenate(([0.0], amps, np.zeros_like(amps)))


class TestDiscreteBath:
    def test_default_geometry(self, system):
        bath = DiscreteBath.default(system)
        assert bath.n_modes == 2001
        assert bath.bandwidth == pytest.approx(40.0 * system.gamma_total)
        assert bath.spacing == pytest.approx(bath.bandwidth / 2000.0)
        assert bath.recurrence_time == pytest.approx(2 * math.pi / bath.spacing)
        offs = bath.offsets()
        assert offs[0] == -offs[-1]
        assert offs[(bath.n_modes - 1) // 2] == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"n_modes": 800, "bandwidth": 80.0},   # even comb has no center mode
        {"n_modes": 1, "bandwidth": 80.0},
        {"n_modes": 801, "bandwidth": 0.0},
        {"n_modes": 801, "bandwidth": math.inf},
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ConfigurationError):
            DiscreteBath(**kwargs)

    def test_check_against_guards(self, system):
        with pytest.raises(ConfigurationError):
            DiscreteBath(801, 10.0 * system.gamma_total).check_against(system)
        with pytest.raises(ConfigurationError):
            DiscreteBath(201, 40.0 * system.gamma_total).check_against(system)
        DiscreteBath(801, 40.0 * system.gamma_total).check_against(system)


class TestHamiltonian:
    def test_hermitian(self, system, tiny_bath):
        h = build_hamiltonian(system, tiny_bath)
        dense = h.toarray()
        assert np.array_equal(dense, dense.conj().T)

    def test_dimensions_and_diagonal(self, system, tiny_bath):
        n = tiny_bath.n_modes
        h = build_hamiltonian(system, tiny_bath).toarray()
        assert h.shape == (1 + 2 * n, 1 + 2 * n)
        center = (n - 1) // 2
        assert h[0, 0] == pytest.approx(system.omega_a)
        assert h[1 + center, 1 + center] == pytest.approx(system.omega_a)
        # b-branch diagonal stores photon energy plus the parked delta_ab,
        # which adds back to omega_a on resonance with the b line
        assert h[1 + n + center, 1 + n + center] == pytest.approx(
            system.delta_ab + system.omega_b)

    def test_coupling_magnitudes(self, system, tiny_bath):
        h = build_hamiltonian(system, tiny_bath).toarray()
        g_a = math.sqrt(system.gamma_a * tiny_bath.spacing / (2 * math.pi))
        assert abs(h[0, 1]) == pytest.approx(g_a, rel=1e-12)
        assert h[0, 1] == pytest.approx(h[1, 0].conjugate())

    def test_backward_sector_is_decoupled(self, system, tiny_bath):
        # the RWA coupling <e,0|H|s,1_k j> = g_k delta_{s,k} over all three
        # one-photon sectors: the |b,1_a j> sector the oracle leaves out
        # couples to nothing, and the rest is the oracle's coupling row
        n = tiny_bath.n_modes
        h = build_hamiltonian(system, tiny_bath)
        assert h.dim == 1 + 2 * n
        rate = {"a": system.gamma_a, "b": system.gamma_b}
        sectors = [("a", "a"), ("b", "b"), ("b", "a")]
        row = np.concatenate([
            np.full(n, -1j * math.sqrt(rate[branch] * tiny_bath.spacing
                                       / (2.0 * math.pi)) * (s == branch))
            for s, branch in sectors])
        assert not np.any(row[2 * n:])
        np.testing.assert_allclose(h.toarray()[0, 1:], row[:2 * n],
                                   rtol=1e-12, atol=0)


class TestDiscretizePulse:
    def test_unit_norm(self, system, small_bath):
        amps = discretize_pulse(make_pulse(Gaussian(1.0), 50.0),
                                small_bath, system)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_gives_lorentzian_bins(self, system, small_bath):
        pulse = make_pulse(Exponential(1.0), 50.0)
        amps = discretize_pulse(pulse, small_bath, system)
        om = system.omega_a + small_bath.offsets()
        lor = 1.0 / ((om - pulse.carrier) ** 2 + 0.25)
        lor /= lor.sum()
        assert np.max(np.abs(np.abs(amps) ** 2 - lor)) < 1e-5

    def test_detuned_carrier_shifts_the_peak(self, system, small_bath):
        pulse = make_pulse(Gaussian(1.0), 50.0 + 5 * small_bath.spacing)
        amps = discretize_pulse(pulse, small_bath, system)
        center = (small_bath.n_modes - 1) // 2
        assert int(np.argmax(np.abs(amps))) == center + 5

    @pytest.mark.parametrize("envelope", [Exponential(300.0),
                                          Rectangular(0.02)])
    def test_spectrum_outside_window(self, system, small_bath, envelope):
        with pytest.raises(BandwidthError):
            discretize_pulse(make_pulse(envelope, 50.0),
                             small_bath, system)

    def test_weight_rule_is_two_sided(self, system, small_bath):
        # 801 modes over 80: spacing 0.1, recurrence time 62.8.
        # Exponential(0.3) samples 0.998 of its weight;
        # Exponential(0.05) overlaps its copies e^{-0.05 * 31.4} apart
        # and samples (1 + r) / (1 - r) = 1.52 of it, r = 0.208
        def weight(linewidth):
            pulse = make_pulse(Exponential(linewidth), 50.0)
            raw = pulse.envelope.spectrum(small_bath.offsets()) \
                * math.sqrt(small_bath.spacing) / (2.0 * math.pi)
            return float(np.sum(np.abs(raw) ** 2))

        assert weight(0.3) == pytest.approx(0.9978, abs=1e-4)
        amps = discretize_pulse(make_pulse(Exponential(0.3), 50.0),
                                small_bath, system)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        r = math.exp(-0.05 * small_bath.recurrence_time / 2.0)
        assert weight(0.05) == pytest.approx((1 + r) / (1 - r), rel=1e-3)
        with pytest.raises(ConfigurationError, match="aliases"):
            discretize_pulse(make_pulse(Exponential(0.05), 50.0),
                             small_bath, system)

    def test_fine_comb_projection_stays_small(self, system):
        # the projection holds a few arrays of n_modes numbers, no more
        bath = DiscreteBath(7643, 40.0 * system.gamma_total)
        pulse = make_pulse(Exponential(0.05), 50.0)
        tracemalloc.start()
        try:
            amps = discretize_pulse(pulse, bath, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert amps.shape == (7643,)
        assert peak < 2e6


RANDOM_RUN_SYSTEM = LambdaSystem(omega_a=50.0, delta_ab=0.2, gamma_a=1.0,
                                 gamma_b=0.6)


def graded_hamiltonian(s):
    """A comb no DiscreteBath describes: a uniform core of 81 modes at
    spacing Gamma/20 and geometric tails of ratio 1.05 out to about
    +-26 Gamma, 211 modes, the positive half mirrored exactly; couplings
    z_k = -i sqrt(gamma_k w_j / 2 pi) with midpoint cell widths w_j
    (one-sided at the ends).  Built by replacing the comb of a built
    Hamiltonian."""
    h = build_hamiltonian(s, DiscreteBath(401, 20.0 * s.gamma_total))
    step = s.gamma_total / 20.0
    dp = np.cumsum(step * np.concatenate((np.ones(40),
                                          1.05 ** np.arange(1, 66))))
    offsets = np.concatenate((-dp[::-1], [0.0], dp))
    inner = 0.5 * (dp[1:] - np.concatenate(([0.0], dp[:-2])))
    half = np.concatenate(([step], inner, [dp[-1] - dp[-2]]))
    widths = np.concatenate((half[:0:-1], half))
    return dataclasses.replace(
        h, offsets=offsets,
        z_a=-1j * np.sqrt(s.gamma_a * widths / (2.0 * math.pi)),
        z_b=-1j * np.sqrt(s.gamma_b * widths / (2.0 * math.pi)))


def traced_excess(system, n_modes, n_out):
    """A cold ``evolve`` of a Gaussian pulse on an n_modes comb of 40
    Gamma and its tracemalloc peak above its bands: (run, excess)."""
    bath = DiscreteBath(n_modes, 40.0 * system.gamma_total)
    h = build_hamiltonian(system, bath)
    amps = discretize_pulse(make_pulse(Gaussian(1.2), 50.0), bath, system)
    y0 = photon_in(amps)
    oracle._folded_eigh.cache_clear()
    tracemalloc.start()
    try:
        run = evolve(h, y0, 7.5, n_out=n_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return run, peak - run.bands.nbytes


def random_evolve(h, n_out):
    """A random start, every amplitude of ``h`` populated, evolved to t = 5:
    (start, run)."""
    rng = np.random.default_rng(7)
    y0 = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    y0 /= np.linalg.norm(y0)
    return y0, evolve(h, y0, 5.0, n_out=n_out)


def random_run(n_out):
    """``random_evolve`` on 401 modes with a shifted b line and unequal
    rates: (hamiltonian, start, run)."""
    s = RANDOM_RUN_SYSTEM
    h = build_hamiltonian(s, DiscreteBath(401, 20.0 * s.gamma_total))
    return (h, *random_evolve(h, n_out))


def dense_states(h, y0, times):
    """The states of a full complex eigh of ``h``, at ``times``, in the
    frame rotating at omega_ref."""
    shifted = h.toarray() - h.omega_ref * np.eye(y0.size)
    evals, evecs = np.linalg.eigh(shifted)
    return (np.exp(-1j * np.outer(times, evals))
            * (evecs.conj().T @ y0)) @ evecs.T


class TestEvolve:
    def test_golden_rule_decay(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        run = evolve(h, excited_in(h), 2.0, n_out=41)
        p_e = np.abs(run.states[:, 0]) ** 2
        rate = -np.polyfit(run.times, np.log(p_e), 1)[0]
        assert rate == pytest.approx(system.gamma_total, rel=0.02)

    # 1, 2 and 33 snapshots end in partial blocks of the snapshot passes
    @pytest.mark.parametrize("n_out", [21, 1, 2, 33])
    def test_matches_dense_eigh(self, n_out):
        # every amplitude populated, shifted b line, unequal rates: every
        # dark and bright amplitude against a full complex eigh
        h, y0, run = random_run(n_out)
        ref = dense_states(h, y0, run.times)
        assert np.max(np.abs(run.states - ref)) <= 1e-12
        assert run.norm_drift <= 1e-12

    @pytest.mark.parametrize("n_out", [21, 2])
    def test_graded_comb_matches_dense_eigh(self, n_out):
        # the same check on a comb that no DiscreteBath describes: evolve
        # reads the comb from the Hamiltonian alone
        h = graded_hamiltonian(RANDOM_RUN_SYSTEM)
        y0, run = random_evolve(h, n_out)
        ref = dense_states(h, y0, run.times)
        assert np.max(np.abs(run.states - ref)) <= 1e-12
        assert run.norm_drift <= 1e-12

    # one block of all 201 positive roots, or blocks of 64 that end in a
    # partial one, each on snapshot counts one short of, at and one past
    # the width of a block; at the default panel, and at panels of mode
    # pairs at the edges: a partial last panel (201 = 3 x 64 + 9), a
    # single panel wider than all c + 1 = 201 pairs under partial root
    # blocks, and the |e> column (D_0 = 2) in a panel narrower than its
    # root block, whose last panel is partial too
    @pytest.mark.parametrize("bright, panel", [
        pytest.param(256, oracle._PANEL, id="256"),
        pytest.param(64, oracle._PANEL, id="64"),
        (256, 64), (64, 256), (64, 16)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bright_blocks_match_dense_eigh(self, monkeypatch, bright,
                                            panel, offset):
        monkeypatch.setattr(oracle, "_BRIGHT", bright)
        monkeypatch.setattr(oracle, "_PANEL", panel)
        h, y0, run = random_run(min(bright, 201) + offset)
        ref = dense_states(h, y0, run.times)
        assert np.max(np.abs(run.states - ref)) <= 1e-12
        assert run.norm_drift <= 1e-12

    def test_states_unfold_on_first_read(self):
        # a measured run holds only its bands; states are unfolded when
        # read, once, read-only (test_partial_snapshot_blocks checks them
        # against what the run measured)
        _, _, run = random_run(33)
        Observables.from_run(run, RANDOM_RUN_SYSTEM, InitialMixture(0.5))
        assert "states" not in vars(run)
        states = run.states
        assert run.states is states
        assert not states.flags.writeable
        with pytest.raises(ValueError):
            states[0, 0] = 0.0

    def test_energy_conserved(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        run = evolve(h, excited_in(h), 2.0, n_out=21)
        # <H> = Re(y^dagger H y) at every snapshot, from the dense matrix
        dense = h.toarray()
        e = np.array([np.vdot(y, dense @ y).real for y in run.states])
        assert np.max(np.abs(e - e[0])) < 1e-9 * abs(e[0])

    def test_input_guards(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        state = excited_in(h)
        with pytest.raises(ParameterError):
            evolve(h, state, -1.0)
        with pytest.raises(ParameterError):
            evolve(h, 0.5 * state, 2.0)
        # NaN fails the time check too, rather than running to NaN series
        with pytest.raises(ParameterError, match="t_final"):
            evolve(h, state, math.nan)
        # a state on another number of modes does not fit, nor a stack
        other = photon_in(np.full(799, 799 ** -0.5))
        with pytest.raises(ParameterError, match="does not fit"):
            evolve(h, other, 2.0)
        with pytest.raises(ParameterError, match="does not fit"):
            evolve(h, np.stack([state, state]), 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_refused(self, system, small_bath, bad):
        # a NaN or inf amplitude fails the norm check, rather than running
        # to NaN series with a NaN drift
        h = build_hamiltonian(system, small_bath)
        y0 = excited_in(h)
        y0[1] = bad
        with pytest.raises(ParameterError, match="norm"):
            evolve(h, y0, 2.0, n_out=11)

    def test_nan_drift_raises(self, system, small_bath, monkeypatch):
        # NaN fails the drift check too: bands gone NaN are a numerical
        # failure
        h = build_hamiltonian(system, small_bath)
        bright_bands = oracle._bright_bands

        def nan_bands(*args):
            return np.full_like(bright_bands(*args), math.nan)

        monkeypatch.setattr(oracle, "_bright_bands", nan_bands)
        with pytest.raises(NumericalConsistencyError, match="drift"):
            evolve(h, excited_in(h), 2.0, n_out=11)

    @pytest.mark.parametrize("graded", [False, True])
    def test_refuses_the_recurrence_time(self, system, small_bath, graded):
        # 2 pi over the finest gap of the Hamiltonian's offsets: the
        # spacing of the uniform comb, the core spacing of the graded one
        if graded:
            h = graded_hamiltonian(RANDOM_RUN_SYSTEM)
        else:
            h = build_hamiltonian(system, small_bath)
        t_rec = 2.0 * math.pi / np.min(np.diff(h.offsets))
        with pytest.raises(ConfigurationError, match="recurrence"):
            evolve(h, excited_in(h), t_rec, n_out=2)
        run = evolve(h, excited_in(h), np.nextafter(t_rec, 0.0), n_out=2)
        assert run.norm_drift <= 1e-12

    @pytest.mark.parametrize("defect", ["unordered_modes", "equal_modes",
                                        "underflowing_coupling",
                                        "asymmetric_comb",
                                        "asymmetric_couplings"])
    def test_comb_the_solver_cannot_take_refused(self, system, small_bath,
                                                 defect):
        h = build_hamiltonian(system, small_bath)
        offsets = h.offsets.copy()
        z_a, z_b = h.z_a.copy(), h.z_b.copy()
        if defect == "unordered_modes":
            # both ends swap their outer pairs: still mirror symmetric
            offsets[[0, 1, -2, -1]] = offsets[[1, 0, -1, -2]]
        elif defect == "equal_modes":
            offsets[[1, -2]] = offsets[[0, -1]]
        elif defect == "underflowing_coupling":
            # pairs 0 and n - 1: G^2 = |z_a|^2 + |z_b|^2 underflows
            z_a[[0, -1]] = z_b[[0, -1]] = -1e-160j
        elif defect == "asymmetric_comb":
            # still strictly increasing, one ulp off the mirror
            offsets[0] = np.nextafter(offsets[0], -np.inf)
        else:
            # equal |z| but G_0 != G_{n-1}
            z_a[0] *= 1.5
        h = dataclasses.replace(h, offsets=offsets, z_a=z_a, z_b=z_b)
        with pytest.raises(ParameterError):
            evolve(h, excited_in(h), 2.0, n_out=11)

    def test_refuses_more_snapshots_than_the_cap(self, system, small_bath,
                                                 monkeypatch):
        # 12477 snapshots of 1603 amplitudes are 20000631 > MAX_GRID_NODES,
        # refused before the start is read or a root is solved: a start
        # that does not fit is not what it reports
        h = build_hamiltonian(system, small_bath)

        def refuse(*args):
            raise AssertionError("the arrowhead was solved")

        monkeypatch.setattr(oracle, "_folded_eigh", refuse)
        for y0 in (excited_in(h), np.zeros(1)):
            with pytest.raises(ConfigurationError, match="20000631"):
                evolve(h, y0, 2.0, n_out=12477)

    def test_stores_no_eigenvector_matrix(self, system):
        # a dense V of the 2001-mode arrowhead alone is (n + 1)^2 doubles
        bath = DiscreteBath.default(system)
        n = bath.n_modes
        h = build_hamiltonian(system, bath)
        oracle._folded_eigh.cache_clear()
        tracemalloc.start()
        try:
            evolve(h, excited_in(h), 1.0, n_out=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) ** 2 * 8

    def test_working_set(self, system):
        # the bright pass accumulates in the folded bands, half the bytes
        # of the states, through operands and panels of a fixed width, and
        # the snapshot loop writes and measures through one small block,
        # so a cold 301-snapshot run peaks about 4.2 MiB above its bands;
        # doubling the comb doubles the bands, not the scratch above them:
        # about 1.2 MiB more at 4001 modes (6.4 MiB with whole-width slabs)
        run, small = traced_excess(system, 2001, 301)
        assert small < 5 * 2 ** 20
        assert "states" not in vars(run)
        _, large = traced_excess(system, 4001, 301)
        assert large - small < 2 * 2 ** 20

    def test_large_bath_evolves(self, system):
        bath = DiscreteBath(2049, 40.0 * system.gamma_total)
        h = build_hamiltonian(system, bath)
        run = evolve(h, excited_in(h), 1.0, n_out=11)
        assert run.states.shape == (11, 1 + 2 * 2049)
        assert run.norm_drift <= 1e-12


EPS = np.finfo(float).eps


def phase_bound(arg):
    """How far a product phase table may sit from cos and sin of its
    rounded arguments: 4 eps max|f t| + 8 eps."""
    return 4.0 * EPS * float(np.max(np.abs(arg))) + 8.0 * EPS


def product_table(t, freqs):
    """e^{-i f_j t_i} on the even grid t from ``oracle._phase_rows``, as
    evolve builds its phase tables: every _ROWS-th row a base, each row
    after it that base times a step."""
    out = np.empty((t.size, freqs.size), dtype=complex)
    buf = np.empty((min(t.size, oracle._ROWS), freqs.size), dtype=complex)
    for rows, table in oracle._phase_rows(t, freqs, buf):
        out[rows] = table
    return out


class TestPhases:
    # the default comb's offsets to its 301 snapshots (max |f t| = 300),
    # twenty times them (6000), and grids ending in partial blocks
    @pytest.mark.parametrize("scale, t_final, n_out", [
        (1.0, 7.5, 301), (20.0, 7.5, 301), (1.0, 150.0, 401),
        (1.0, 3.0, 1), (1.0, 3.0, 2), (1.0, 3.0, 17), (1.0, 7.5, 33)])
    def test_matches_cos_and_sin(self, system, scale, t_final, n_out):
        freqs = scale * DiscreteBath.default(system).offsets()
        t = np.linspace(0.0, t_final, n_out)
        table = product_table(t, freqs)
        arg = np.multiply(t[:, None], freqs)
        assert np.max(np.abs(table - (np.cos(arg) - 1j * np.sin(arg)))) \
            <= phase_bound(arg)
        # the bases, every _ROWS-th row, are cos and sin themselves
        base = arg[::oracle._ROWS]
        assert np.array_equal(table[::oracle._ROWS],
                              np.cos(base) - 1j * np.sin(base))

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    def test_unit_modulus(self, system, scale):
        # a base and a step, each of modulus 1 within an ulp, and their
        # product
        freqs = scale * DiscreteBath.default(system).offsets()
        table = product_table(np.linspace(0.0, 7.5, 301), freqs)
        assert np.max(np.abs(np.abs(table) - 1.0)) <= 4.0 * EPS

    def test_steps_serve_every_block_of_a_grid(self, system):
        # one set of steps serves every block of _ROWS snapshots, each from
        # its own base; evolve hands the generator a column window of a
        # wider buffer (a block of roots, the upper dark modes of a
        # snapshot block): each block lands in the window's first rows and
        # nowhere else, the rows tile the grid in order up to a partial
        # last block, and the entries are those of a buffer of their own
        freqs = DiscreteBath.default(system).offsets()
        t = np.linspace(0.0, 7.5, 301)
        whole = product_table(t, freqs)
        wide = np.zeros((oracle._ROWS, freqs.size + 7), dtype=complex)
        window = wide[:, 3:3 + freqs.size]
        stop = 0
        for rows, table in oracle._phase_rows(t, freqs, window):
            assert rows.start == stop
            stop = rows.stop
            assert np.shares_memory(table, window[:rows.stop - rows.start])
            assert np.array_equal(table, whole[rows])
            assert not np.any(wide[:, :3]) and not np.any(wide[:, -4:])
        assert stop == t.size

    def test_mirrored_table_of_the_dark_modes(self, small_bath):
        # e^{-i d_j t} on the 801-mode comb, as evolve turns its dark
        # modes: the upper half a product table, the lower half its
        # mirror's conjugate, within the product tables' bound of cos and
        # sin of d t
        d = small_bath.offsets()
        c = d.size // 2
        t = np.linspace(0.0, 7.5, 21)
        upper = product_table(t, d[c:])
        table = np.concatenate((np.conj(upper[:, :0:-1]), upper), axis=1)
        arg = np.multiply(t[:, None], d)
        assert np.max(np.abs(table - (np.cos(arg) - 1j * np.sin(arg)))) \
            <= phase_bound(arg)


def dense_arrowhead(alpha, d, g):
    arrow = np.diag(np.concatenate(([alpha], d)))
    arrow[0, 1:] = arrow[1:, 0] = g
    return arrow


def arrowhead_eigh(alpha, d, g):
    """Eigendecomposition of any arrowhead [[alpha, g^T], [g, diag(d)]],
    the reference for the folded solver.

    The poles d must be in strictly increasing order, and no spoke g_j so
    small that its square underflows.  The eigenvalues, ascending, are the
    roots of the secular equation (``oracle._roots``); they interlace d,
    and strictly so as the solver holds them, each as an offset from a
    pole, though a root within half an ulp of a pole rounds onto it in
    ``evals``.  The eigenvectors are the normalized Cauchy vectors
    [1, g^_j / (lam_i - d_j)] with the spokes g^ recomputed from the
    computed roots (``oracle._spokes``).  The arrowhead with spokes g^ has
    exactly the computed eigenvalues, so the vectors are orthogonal to
    working precision.  This is the unfolded form of
    ``oracle._folded_eigh``, from the same two passes run over all roots
    and all spokes.
    """
    k, tau = oracle._roots(alpha, d, g, 0, d.size + 1)
    return oracle._decomposition(
        d, k, tau, np.copysign(oracle._spokes(d, k, tau, 0, d.size), g))


def vt_rows(arrow, r0, r1):
    """Rows r0 .. r1 - 1 of V^T, eigenvectors r0 .. r1 - 1 as rows: the
    reference builder of V for a decomposition ``arrow``.

    Each is the normalized Cauchy vector [1, g^_j / (lam_i - d_j)], with
    lam_i - d_j taken from the root's own pole (``oracle._pole_gaps``).
    """
    block = np.empty((r1 - r0, arrow.d.size + 1))
    block[:, 0] = 1.0
    gaps = oracle._pole_gaps(arrow.d, arrow.d[arrow.k[r0:r1]],
                             arrow.tau[r0:r1], out=block[:, 1:])
    np.divide(-arrow.spokes_hat, gaps, out=gaps)
    block /= np.linalg.norm(block, axis=1)[:, None]
    return block


def assert_solves_arrowhead(alpha, d, g):
    """The secular solver against dense eigh, at 1e-13 of |A|.

    V is stacked from ``vt_rows`` in uneven blocks of rows.  Orthogonality
    is asked to 1e-14: the vectors built from the recomputed spokes have
    stayed within 1.1e-15 on these families, where vectors from the
    original spokes reach 1.3e-13."""
    arrow = arrowhead_eigh(alpha, d, g)
    assert_decomposes(arrow, alpha, d, g)


def assert_decomposes(arrow, alpha, d, g):
    n = d.size
    evals = arrow.evals
    evecs = np.concatenate([vt_rows(arrow, r0, min(r0 + 37, n + 1))
                            for r0 in range(0, n + 1, 37)]).T
    dense = dense_arrowhead(alpha, d, g)
    ref = np.linalg.eigh(dense)[0]
    scale = np.max(np.abs(ref))
    assert evecs.shape == (n + 1, n + 1)
    assert np.max(np.abs(evals - ref)) <= 1e-13 * scale
    assert np.all(evals[:-1] <= d) and np.all(d <= evals[1:])
    assert np.max(np.abs(evecs.T @ evecs - np.eye(n + 1))) <= 1e-14
    assert np.max(np.abs(dense @ evecs - evecs * evals)) <= 1e-13 * scale
    # in the solver's own (pole, offset) form every root lies strictly
    # between its two neighbouring poles
    k, tau = arrow.k, arrow.tau
    r = np.arange(n + 1)
    left = np.where(r > 0, d[np.maximum(r - 1, 0)] - d[k], -np.inf)
    right = np.where(r < n, d[np.minimum(r, n - 1)] - d[k], np.inf)
    assert np.all((left < tau) & (tau < right))


@st.composite
def arrowheads(draw):
    """n poles 1e-6 to 1 apart; spokes of either sign between 1 and a
    floor of 1e-15, or of 1e-100 (roots within 1e-200 of a pole); alpha
    among the poles or near them, or up to 3e4 times further out."""
    n = draw(st.integers(1, 79))
    floor = draw(st.sampled_from([-15.0, -100.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gaps = 10.0 ** rng.uniform(-6.0, 0.0, n)
    d = np.cumsum(gaps) - rng.uniform(0.0, gaps.sum())
    g = 10.0 ** rng.uniform(floor, 0.0, n) * rng.choice([-1.0, 1.0], n)
    alpha = draw(st.floats(-3.0, 3.0)) * max(1.0, float(np.max(np.abs(d)))) \
        * draw(st.sampled_from([1.0, 1e4]))
    return alpha, d, g


class TestArrowheadSolver:
    @settings(max_examples=200, deadline=None)
    @given(arrowheads())
    def test_matches_dense_eigh(self, arrow):
        assert_solves_arrowhead(*arrow)

    def test_default_comb(self, system, small_bath):
        # the bright block evolve builds on 801 modes, gamma_a = gamma_b
        d = small_bath.offsets()
        g = np.full(d.size, math.sqrt(system.gamma_total * small_bath.spacing
                                      / (2.0 * math.pi)))
        assert_solves_arrowhead(0.0, d, g)

    def test_keeps_linear_data_only(self, system):
        # the O(n) data of a decomposition of the 2001-mode comb
        bath = DiscreteBath.default(system)
        d = bath.offsets()
        g = np.full(d.size, math.sqrt(system.gamma_total * bath.spacing
                                      / (2.0 * math.pi)))
        arrow = arrowhead_eigh(0.0, d, g)
        assert sum(part.nbytes for part in arrow) < 16 * (d.size + 1) * 8
        assert not any(part.flags.writeable for part in arrow)


@st.composite
def mirrored_arrowheads(draw):
    """Graded combs mirror-symmetric about 0: c = 1 .. 39 positive poles
    1e-6 to 1 apart, d_c = 0; spokes of either sign between 1 and 1e-15,
    equal on mirrored poles."""
    c = draw(st.integers(1, 39))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dp = np.cumsum(10.0 ** rng.uniform(-6.0, 0.0, c))
    gh = 10.0 ** rng.uniform(-15.0, 0.0, c + 1) * rng.choice([-1.0, 1.0],
                                                              c + 1)
    return dp, gh


class TestFoldedSolver:
    @settings(max_examples=200, deadline=None)
    @given(mirrored_arrowheads())
    def test_matches_dense_eigh(self, comb):
        dp, gh = comb
        oracle._folded_eigh.cache_clear()
        arrow = oracle._folded_eigh(dp.tobytes(), gh.tobytes())
        d = np.concatenate((-dp[::-1], [0.0], dp))
        assert_decomposes(arrow, 0.0, d, np.concatenate((gh[:0:-1], gh)))
        # the mirror pairs hold exactly opposite roots
        assert np.array_equal(arrow.evals, -arrow.evals[::-1])

    def test_default_comb_matches_the_unfolded_solver(self, system,
                                                      small_bath):
        d = small_bath.offsets()
        g = np.full(d.size, math.sqrt(system.gamma_total * small_bath.spacing
                                      / (2.0 * math.pi)))
        c = d.size // 2
        folded = oracle._folded_eigh(d[c + 1:].tobytes(), g[c:].tobytes())
        full = arrowhead_eigh(0.0, d, g)
        scale = float(np.max(np.abs(full.evals)))
        assert np.max(np.abs(folded.evals - full.evals)) <= 1e-14 * scale
        assert np.max(np.abs(folded.spokes_hat - full.spokes_hat)) \
            <= 1e-13 * g[0]
        assert sum(part.nbytes for part in folded) < 16 * (d.size + 1) * 8
        assert not any(part.flags.writeable for part in folded)

    @settings(max_examples=50, deadline=None)
    @given(mirrored_arrowheads())
    def test_mirror_block_matches_the_rows_of_v(self, comb):
        dp, gh = comb
        arrow = oracle._folded_eigh(dp.tobytes(), gh.tobytes())
        c = dp.size
        # blocks of 16 roots, each sum over panels narrower than the c + 1
        # mode pairs, the last one partial or the |e> pair alone
        assert_projections(arrow, 16, max(1, c // 3))
        assert_mirror_panel(arrow, c + 1, 2 * c + 2, slice(0, c + 1))
        assert_mirror_panel(arrow, c + 1, 2 * c + 2, slice(c // 2, c + 1))

    def test_default_comb_mirror_block(self, system):
        # the bright pass's blocks on the 2001-mode comb: every positive
        # root's projection and whole rows, and panels at |e>, inside and
        # at the end of the pairs in a block that starts and ends inside
        # the positive roots
        bath = DiscreteBath.default(system)
        d = bath.offsets()
        c = d.size // 2
        g = np.full(c + 1, math.sqrt(system.gamma_total * bath.spacing
                                     / (2.0 * math.pi)))
        arrow = oracle._folded_eigh(d[c + 1:].tobytes(), g.tobytes())
        assert_projections(arrow, oracle._BRIGHT, oracle._PANEL)
        assert_mirror_panel(arrow, c + 1, d.size + 1, slice(0, c + 1))
        for cols in (slice(0, 128), slice(384, 512), slice(896, c + 1)):
            assert_mirror_panel(arrow, c + 300, c + 556, cols)


def assert_projections(arrow, block, panel):
    """``oracle._block_projections`` of every positive root, ``block`` roots
    at a time with panels of ``panel`` mode pairs, scaled by 1 / N, against
    the rows' projections (``vt_rows``) on a random start, to 1e-14."""
    n = arrow.d.size
    b0 = np.random.default_rng(5).normal(size=(n + 1, 4)) / math.sqrt(n)
    scratch = np.empty((block, panel))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_PANEL", panel)
        proj, norm_sq = map(np.concatenate, zip(*(
            oracle._block_projections(arrow, r0, min(r0 + block, n + 1), b0,
                                      scratch[:min(block, n + 1 - r0)])
            for r0 in range(n // 2 + 1, n + 1, block))))
    vt = vt_rows(arrow, n // 2 + 1, n + 1)
    scale = 1.0 / np.sqrt(norm_sq)[:, None]
    assert np.max(np.abs(proj * scale - vt @ b0)) <= 1e-14
    # the |e> entry of a normalized row is 1 / N
    assert np.max(np.abs(np.sqrt(norm_sq) * vt[:, 0] - 1.0)) <= 1e-14


def assert_mirror_panel(arrow, r0, r1, cols):
    """``oracle._mirror_panel`` for the positive roots r0 .. r1 - 1 over
    the mode pairs ``cols``, scaled by 1 / N, against the mirror sums and
    differences of ``vt_rows`` (modes c + j and c - j; |e> doubled in the
    differences), to 1e-14."""
    n = arrow.d.size
    c = n // 2
    vt = vt_rows(arrow, r0, r1)
    up, dn = vt[:, c + 1:], vt[:, c + 1:0:-1]
    ref_diffs = up - dn
    ref_diffs[:, 0] = 2.0 * vt[:, 0]
    out = np.empty((3, r1 - r0, cols.stop - cols.start))
    sums, diffs = oracle._mirror_panel(arrow, r0, r1, cols, out)
    # the |e> entry of a normalized row is 1 / N
    scale = vt[:, :1]
    assert np.max(np.abs(sums * scale - (up + dn)[:, cols])) <= 1e-14
    assert np.max(np.abs(diffs * scale - ref_diffs[:, cols])) <= 1e-14


@pytest.fixture(scope="module")
def run(system, small_bath):
    pulse = make_pulse(Gaussian(1.0), 50.0)
    amps = discretize_pulse(pulse, small_bath, system)
    h = build_hamiltonian(system, small_bath)
    return evolve(h, photon_in(amps), 7.5, n_out=51)


def measured(run):
    """The environment spectrum of ``run``'s series, as ``compare`` reads
    it (``Observables.from_run``)."""
    return Observables.from_run(run, RANDOM_RUN_SYSTEM,
                                InitialMixture(0.5)).spectrum


class TestMeasure:
    def test_norm_and_spectrum(self, run):
        series = measured(run)
        norm = series.psi_sq + series.n_a + series.n_b
        assert np.max(np.abs(norm - 1.0)) < 1e-10
        assert np.max(np.abs(series.lambdas.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(series.lambdas >= -1e-12)

    def test_initial_snapshot_is_pure(self, run):
        series = measured(run)
        assert series.psi_sq[0] == pytest.approx(0.0, abs=1e-15)
        assert series.n_a[0] == pytest.approx(1.0, abs=1e-12)
        assert series.overlap_sq[0] == pytest.approx(1.0, abs=1e-12)
        assert series.s_e[0] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("n_out", [1, 2, 33])
    def test_partial_snapshot_blocks(self, n_out):
        # every snapshot the loop measures, block by block, against
        # direct sums over the whole run
        _, _, run = random_run(n_out)
        record = Observables.from_run(run, RANDOM_RUN_SYSTEM,
                                      InitialMixture(0.5))
        series = record.spectrum
        n = run.hamiltonian.offsets.size
        a, b = run.states[:, 1:n + 1], run.states[:, n + 1:]
        assert np.array_equal(series.psi_sq, np.abs(run.states[:, 0]) ** 2)
        np.testing.assert_allclose(series.n_a,
                                   np.sum(np.abs(a) ** 2, axis=1),
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(series.n_b,
                                   np.sum(np.abs(b) ** 2, axis=1),
                                   rtol=1e-14, atol=0)
        # the overlap with the free pulse a(0) e^{-i d t}
        free = a[0] * np.exp(-1j * np.outer(run.times,
                                            run.hamiltonian.offsets))
        cross = np.sum(np.conj(a) * free, axis=1)
        np.testing.assert_allclose(
            series.overlap_sq, normalized_overlap_sq(cross, series.n_a),
            rtol=1e-12, atol=0)
        # the work is the photon number the pulse lost
        assert record.w == pytest.approx(2.0 * (1.0 - cross[-1].real),
                                         rel=0, abs=1e-12)


class TestCompare:
    # detuned as on resonance, both sides read the work off their overlap
    # with the free pulse, so no |e> amplitude is turned to another frame
    @pytest.mark.parametrize("delta_l", [0.0, 0.4, -0.4])
    def test_gaussian_within_default_tolerances(self, system, small_bath,
                                                delta_l):
        rep = compare(system, make_pulse(Gaussian(1.2), 50.0 + delta_l),
                      InitialMixture(0.5), small_bath, n_out=151)
        assert rep.passed
        assert rep.failures == ()
        assert set(rep.deviations) == set(DEFAULT_TOLERANCES)
        assert rep.norm_drift <= 1e-10
        assert rep.n_modes == 801

    def test_one_comb_shares_one_decomposition(self, small_bath,
                                               monkeypatch):
        # the cache is keyed on the folded comb, offsets from the line, so
        # a second command at another omega_a solves no secular equation
        calls = []
        roots = oracle._roots

        def counted(*args):
            calls.append(args)
            return roots(*args)

        monkeypatch.setattr(oracle, "_roots", counted)
        oracle._folded_eigh.cache_clear()
        for omega_a in (50.0, 61.3):
            s = LambdaSystem(omega_a=omega_a, gamma_a=1.0, gamma_b=1.0)
            rep = compare(s, make_pulse(Gaussian(1.2), omega_a),
                          InitialMixture(0.5), small_bath, n_out=51)
            assert rep.passed
        assert len(calls) == 1

    def test_tighter_tolerance_flags_failures(self, system, small_bath,
                                              monkeypatch):
        monkeypatch.setitem(DEFAULT_TOLERANCES, "p_e", 1e-12)
        rep = compare(system, make_pulse(Gaussian(1.2), 50.0),
                      InitialMixture(0.5), small_bath, n_out=51)
        assert not rep.passed
        assert "p_e" in rep.failures
        assert rep.tolerances["p_e"] == 1e-12


def oracle_record(system, pulse, mixture, bath, n_out):
    """The ``Observables`` of a discrete-bath run to 15 / Gamma."""
    amps = discretize_pulse(pulse, bath, system)
    run = evolve(build_hamiltonian(system, bath), photon_in(amps),
                 15.0 / system.gamma_total, n_out=n_out)
    return Observables.from_run(run, system, mixture)


class TestObservables:
    @pytest.fixture(scope="class")
    def record(self, system, small_bath):
        return oracle_record(system, make_pulse(Gaussian(1.2), 50.4),
                             InitialMixture(0.5), small_bath, 51)

    def test_self_diff_is_zero(self, record):
        devs = deviations(record, record)
        assert devs == dict.fromkeys(DEFAULT_TOLERANCES, 0.0)

    def test_refuses_records_on_other_times(self, record):
        later = dataclasses.replace(record, times=record.times + 1e-3)
        with pytest.raises(ParameterError):
            deviations(record, later)
        with pytest.raises(ParameterError):
            deviations(record, dataclasses.replace(record, omega_a=60.0))

    @pytest.mark.parametrize("shape", [Rectangular(2.0), Gaussian(1.2),
                                       Exponential(0.5)],
                             ids=["rectangular", "gaussian", "exponential"])
    def test_trajectory_work_is_the_drive_flux(self, system, shape):
        # the analytic record's work is the trajectory's fourth-order
        # flux to T, whatever the snapshot count and the drive's edges
        pulse = make_pulse(shape, 50.0)
        t_final = 15.0 / system.gamma_total
        traj = integrate_psi(system, pulse,
                             SimGrid.auto(system, pulse, t_max=t_final))
        record = Observables.from_trajectory(
            traj, system, pulse, InitialMixture(0.5),
            np.linspace(0.0, t_final, 51))
        assert record.w == pytest.approx(
            drive_energy_flux(traj, pulse, system), rel=0, abs=1e-15)

    def test_refined_comb_agrees(self, system, small_bath, record):
        # a finer comb over the same window, diffed through the same
        # deviations as compare's two sides
        fine = oracle_record(system, make_pulse(Gaussian(1.2), 50.4),
                             InitialMixture(0.5),
                             DiscreteBath(1201, small_bath.bandwidth), 51)
        devs = deviations(record, fine)
        assert set(devs) == set(DEFAULT_TOLERANCES)
        assert all(devs[k] <= DEFAULT_TOLERANCES[k] for k in devs), devs
