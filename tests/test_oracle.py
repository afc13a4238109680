"""Discrete-bath cross-check machinery."""

import math

import numpy as np
import pytest

from lambda_adapt.errors import (BandwidthError, ConfigurationError,
                                 ParameterError)
from lambda_adapt.model import (Exponential, Gaussian, InitialMixture,
                                LambdaSystem, Rectangular, make_pulse)
from lambda_adapt.oracle import (DEFAULT_TOLERANCES, DiscreteBath,
                                 OneExcitationState, _arrowhead_eigh,
                                 build_hamiltonian, compare, discretize_pulse,
                                 evolve, measure_series)


@pytest.fixture(scope="module")
def system():
    return LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)


@pytest.fixture(scope="module")
def small_bath(system):
    return DiscreteBath(n_modes=801, bandwidth=40.0 * system.gamma_total)


def excited_start(bath):
    zeros = np.zeros(bath.n_modes, dtype=complex)
    return OneExcitationState(excited=1.0 + 0.0j, a_modes=zeros,
                              b_modes=zeros.copy())


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
        bath = DiscreteBath(801, 40.0 * system.gamma_total)
        bath.check_against(system)  # fine without a time
        with pytest.raises(ConfigurationError):
            bath.check_against(system, t_final=bath.recurrence_time)


class TestHamiltonian:
    def test_hermitian(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        assert abs(h - h.getH()).max() < 1e-15

    def test_dimensions_and_diagonal(self, system, small_bath):
        n = small_bath.n_modes
        h = build_hamiltonian(system, small_bath)
        assert h.shape == (1 + 2 * n, 1 + 2 * n)
        center = (n - 1) // 2
        assert h[0, 0] == pytest.approx(system.omega_a)
        assert h[1 + center, 1 + center] == pytest.approx(system.omega_a)
        # b-branch diagonal stores photon energy plus the parked delta_ab,
        # which adds back to omega_a on resonance with the b line
        assert h[1 + n + center, 1 + n + center] == pytest.approx(
            system.delta_ab + system.omega_b)

    def test_coupling_magnitudes(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        g_a = math.sqrt(system.gamma_a * small_bath.spacing / (2 * math.pi))
        assert abs(h[0, 1]) == pytest.approx(g_a, rel=1e-12)
        assert h[0, 1] == pytest.approx(h[1, 0].conjugate())

    def test_backward_sector_is_decoupled(self, system, small_bath):
        n = small_bath.n_modes
        h = build_hamiltonian(system, small_bath, include_backward=True)
        assert h.shape == (1 + 3 * n, 1 + 3 * n)
        block = h[:, 1 + 2 * n:].tolil()
        block[1 + 2 * n:, :] = 0.0  # keep only couplings to other sectors
        assert abs(block).max() == 0.0


class TestDiscretizePulse:
    def test_unit_norm(self, system, small_bath):
        amps = discretize_pulse(make_pulse(Gaussian(1.0), 50.0, system),
                                small_bath, system)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_gives_lorentzian_bins(self, system, small_bath):
        pulse = make_pulse(Exponential(1.0), 50.0, system)
        amps = discretize_pulse(pulse, small_bath, system)
        om = system.omega_a + small_bath.offsets()
        lor = 1.0 / ((om - pulse.carrier) ** 2 + 0.25)
        lor /= lor.sum()
        assert np.max(np.abs(np.abs(amps) ** 2 - lor)) < 1e-5

    def test_detuned_carrier_shifts_the_peak(self, system, small_bath):
        pulse = make_pulse(Gaussian(1.0), 50.0 + 5 * small_bath.spacing,
                           system)
        amps = discretize_pulse(pulse, small_bath, system)
        center = (small_bath.n_modes - 1) // 2
        assert int(np.argmax(np.abs(amps))) == center + 5

    @pytest.mark.parametrize("envelope", [Exponential(300.0),
                                          Rectangular(0.02)])
    def test_spectrum_outside_window(self, system, small_bath, envelope):
        with pytest.raises(BandwidthError):
            discretize_pulse(make_pulse(envelope, 50.0, system),
                             small_bath, system)


class TestEvolve:
    def test_golden_rule_decay(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        run = evolve(h, excited_start(small_bath), 2.0, bath=small_bath,
                     system=system, n_out=41)
        p_e = np.abs(run.excited_series()) ** 2
        rate = -np.polyfit(run.times, np.log(p_e), 1)[0]
        assert rate == pytest.approx(system.gamma_total, rel=0.02)

    def test_matches_dense_eigh(self):
        # all sectors populated, shifted b line, unequal rates: every
        # dark, bright and backward amplitude against a full complex eigh
        s = LambdaSystem(omega_a=50.0, delta_ab=0.2, gamma_a=1.0,
                         gamma_b=0.6)
        bath = DiscreteBath(401, 20.0 * s.gamma_total)
        n = bath.n_modes
        h = build_hamiltonian(s, bath, include_backward=True)
        rng = np.random.default_rng(7)
        y0 = rng.normal(size=1 + 3 * n) + 1j * rng.normal(size=1 + 3 * n)
        y0 /= np.linalg.norm(y0)
        run = evolve(h, OneExcitationState.unpack(y0, n), 5.0, bath=bath,
                     system=s, n_out=21)
        shifted = h.toarray() - run.omega_ref * np.eye(1 + 3 * n)
        evals, evecs = np.linalg.eigh(shifted)
        ref = (np.exp(-1j * np.outer(run.times, evals))
               * (evecs.conj().T @ y0)) @ evecs.T
        assert np.max(np.abs(run.states - ref)) <= 1e-12
        assert run.norm_drift <= 1e-12

    def test_energy_conserved(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        run = evolve(h, excited_start(small_bath), 2.0, bath=small_bath,
                     system=system, n_out=21)
        e = run.energy_series(h)
        assert np.max(np.abs(e - e[0])) < 1e-9 * abs(e[0])
        # per-snapshot reference for the vectorized product
        for k in (0, 10, 20):
            y = run.states[k]
            ref = float(np.real(np.vdot(y, h @ y)))
            assert e[k] == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("defect", ["mode_coupling", "unpaired_diagonal",
                                        "not_hermitian"])
    def test_malformed_hamiltonian_refused(self, system, small_bath, defect):
        h = build_hamiltonian(system, small_bath).tolil()
        if defect == "mode_coupling":
            h[1, 2] = h[2, 1] = 0.01
        elif defect == "unpaired_diagonal":
            h[1, 1] += 1e-9
        else:
            h[0, 1] = 2.0 * h[0, 1]
        with pytest.raises(ParameterError):
            evolve(h.tocsr(), excited_start(small_bath), 2.0,
                   bath=small_bath, system=system, n_out=11)

    def test_input_guards(self, system, small_bath):
        h = build_hamiltonian(system, small_bath)
        state = excited_start(small_bath)
        with pytest.raises(ParameterError):
            evolve(h, state, -1.0, bath=small_bath, system=system)
        bad = OneExcitationState(excited=0.5 + 0.0j,
                                 a_modes=np.zeros(801, complex),
                                 b_modes=np.zeros(801, complex))
        with pytest.raises(ParameterError):
            evolve(h, bad, 2.0, bath=small_bath, system=system)

    def test_backward_run_reuses_forward_decomposition(self, system,
                                                       small_bath):
        h = build_hamiltonian(system, small_bath)
        evolve(h, excited_start(small_bath), 2.0, bath=small_bath,
               system=system, n_out=11)
        hits = _arrowhead_eigh.cache_info().hits
        photon = np.zeros(small_bath.n_modes, dtype=complex)
        photon[0] = 1.0
        h_back = build_hamiltonian(system, small_bath, include_backward=True)
        evolve(h_back, OneExcitationState.from_pulse(photon, backward=True),
               2.0, bath=small_bath, system=system, n_out=11)
        assert _arrowhead_eigh.cache_info().hits == hits + 1

    def test_large_bath_evolves(self, system):
        bath = DiscreteBath(2049, 40.0 * system.gamma_total)
        h = build_hamiltonian(system, bath)
        run = evolve(h, excited_start(bath), 1.0, bath=bath, system=system,
                     n_out=11)
        assert run.states.shape == (11, 1 + 2 * 2049)
        assert run.norm_drift <= 1e-12


@pytest.fixture(scope="module")
def run(system, small_bath):
    pulse = make_pulse(Gaussian(1.0), 50.0, system)
    amps = discretize_pulse(pulse, small_bath, system)
    h = build_hamiltonian(system, small_bath)
    return evolve(h, OneExcitationState.from_pulse(amps), 7.5,
                  bath=small_bath, system=system, n_out=51)


class TestMeasure:
    def test_norm_and_spectrum(self, run):
        series = measure_series(run, InitialMixture(0.5, 0.5))
        assert np.max(np.abs(series.norm - 1.0)) < 1e-10
        assert np.max(np.abs(series.lambdas.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(series.lambdas >= -1e-12)
        assert series.p_ab is series.n_b

    def test_initial_snapshot_is_pure(self, run):
        series = measure_series(run, InitialMixture(0.5, 0.5))
        assert series.p_e[0] == pytest.approx(0.0, abs=1e-15)
        assert series.n_a[0] == pytest.approx(1.0, abs=1e-12)
        assert series.overlap_sq[0] == pytest.approx(1.0, abs=1e-12)
        assert series.s_e[0] == pytest.approx(0.0, abs=1e-10)

    def test_backward_sector_stays_empty(self, system, small_bath):
        pulse = make_pulse(Gaussian(1.0), 50.0, system)
        amps = discretize_pulse(pulse, small_bath, system)
        h = build_hamiltonian(system, small_bath, include_backward=True)
        state = OneExcitationState.from_pulse(amps, backward=True)
        run = evolve(h, state, 7.5, bath=small_bath, system=system, n_out=21)
        n = small_bath.n_modes
        leak = np.max(np.sum(np.abs(run.states[:, :1 + 2 * n]) ** 2, axis=1))
        assert leak < 1e-12
        with pytest.raises(ParameterError):
            measure_series(run, InitialMixture(0.5, 0.5))


class TestCompare:
    def test_gaussian_within_default_tolerances(self, system, small_bath):
        rep = compare(system, make_pulse(Gaussian(1.2), 50.0, system),
                      InitialMixture(0.5, 0.5), small_bath, n_out=151)
        assert rep.passed
        assert rep.failures == ()
        assert set(rep.deviations) == set(DEFAULT_TOLERANCES)
        assert rep.norm_drift <= 1e-10
        d = rep.as_dict()
        assert d["passed"] is True
        assert d["n_modes"] == 801

    def test_tighter_tolerance_flags_failures(self, system, small_bath):
        rep = compare(system, make_pulse(Gaussian(1.2), 50.0, system),
                      InitialMixture(0.5, 0.5), small_bath, n_out=51,
                      tolerances={"p_e": 1e-12})
        assert not rep.passed
        assert "p_e" in rep.failures
