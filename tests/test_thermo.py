"""Work and heat bookkeeping on resonant and detuned runs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_adapt import thermo
from lambda_adapt.dynamics import integrate_psi, psi_closed_form
from lambda_adapt.errors import NumericalConsistencyError, ParameterError
from lambda_adapt.model import (Exponential, Gaussian, InitialMixture,
                                LambdaSystem, Rectangular, SimGrid,
                                make_pulse)
from lambda_adapt.thermo import (adaptation_work_check, drive_energy_flux,
                                 energy_ledger, heat_dissipated,
                                 interaction_energy, work_absorbed)


def run(system, envelope, *, detuning=0.0, t_max=None):
    pulse = make_pulse(envelope, system.omega_a + detuning)
    grid = SimGrid.auto(system, pulse, t_max=t_max)
    return pulse, integrate_psi(system, pulse, grid)


class TestWork:
    def test_exponential_value(self):
        # W / (hbar omega_a) = 4 gamma_a / (Gamma + Delta)
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Exponential(1.0))
        w = work_absorbed(traj, pulse, s)
        assert w / s.omega_a == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_off_resonance_refused(self):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Exponential(1.0), detuning=0.5)
        with pytest.raises(ParameterError):
            work_absorbed(traj, pulse, s)

    @pytest.mark.parametrize("detuning", [0.0, 0.8, -2.0])
    def test_flux_transfer_identity(self, detuning):
        # integrating the amplitude equation gives
        # flux = Gamma int p_e = (Gamma / gamma_b) p_ab(inf), any detuning
        s = LambdaSystem(omega_a=30.0, gamma_a=1.0, gamma_b=2.0)
        pulse, traj = run(s, Exponential(1.5), detuning=detuning, t_max=40.0)
        flux = drive_energy_flux(traj, pulse, s)
        want = (s.gamma_total / s.gamma_b) * float(traj.p_ab[-1])
        # both sides are fourth-order quadratures (measured: 1e-12;
        # plain trapezoids left 7e-7)
        assert flux == pytest.approx(want, abs=1e-10)


class TestLedger:
    @pytest.mark.parametrize("envelope", [Exponential(0.4), Exponential(3.0),
                                          Gaussian(1.0), Rectangular(2.5)])
    def test_residual_within_bound(self, envelope):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=0.5)
        pulse, traj = run(s, envelope)
        ledger = energy_ledger(traj, pulse, s)
        bound = 1e-8 * max(abs(ledger.w_abs), s.omega_a)
        assert abs(ledger.residual) <= bound
        assert ledger.q_diss > 0.0

    def test_split_transition_bookkeeping(self):
        # delta_ab != 0: transfers park hbar delta_ab in the system
        s = LambdaSystem(omega_a=5.0, delta_ab=1.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Exponential(1.0))
        ledger = energy_ledger(traj, pulse, s)
        p = ledger.p_ab_infty
        assert ledger.de_sys == pytest.approx(
            s.delta_ab * p, abs=1e-6 * s.omega_a)
        q_direct = heat_dissipated(traj, s)
        assert ledger.q_diss == q_direct

    def test_unconverged_run_refused(self):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Exponential(0.5), t_max=2.0)
        with pytest.raises(NumericalConsistencyError):
            energy_ledger(traj, pulse, s)

    @pytest.mark.parametrize("field, message", [
        # the transfer, read by the convergence check and the heat
        ("p_ab", "not converged"),
        # the amplitude, read by the work: the residual is NaN
        ("psi_hat", "residual nan"),
    ])
    def test_nan_run_refused(self, field, message):
        # the ledger's checks fail on NaN instead of passing it
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Exponential(1.0))
        values = getattr(traj, field).copy()
        values[values.size // 2:] = np.nan
        nan_traj = dataclasses.replace(traj, **{field: values})
        with pytest.raises(NumericalConsistencyError, match=message):
            energy_ledger(nan_traj, pulse, s)

    def test_coarse_step_refused(self, monkeypatch):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse = make_pulse(Exponential(1.0), 5.0)
        grid = SimGrid.auto(s, pulse, dt=0.005)
        traj = integrate_psi(s, pulse, grid)
        monkeypatch.setattr(thermo, "LEDGER_TOL", 1e-14)
        with pytest.raises(NumericalConsistencyError):
            energy_ledger(traj, pulse, s)

    def test_as_dict_round_trip(self):
        # the dict form simulate writes to ledger.json
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Exponential(1.0))
        d = dataclasses.asdict(energy_ledger(traj, pulse, s))
        assert set(d) == {"w_abs", "q_diss", "de_sys", "residual",
                          "w_over_hw", "p_ab_infty", "adaptation_residual"}
        assert d["adaptation_residual"] == adaptation_work_check(
            s, d["p_ab_infty"], d["w_abs"])
        assert d["w_over_hw"] == pytest.approx(
            d["w_abs"] / s.omega_a, rel=1e-15)


class TestDefaultGrid:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from([Exponential, Gaussian, Rectangular]),
           width=st.floats(0.3, 3.0),
           ratio=st.floats(0.25, 4.0),
           delta_ab=st.sampled_from([0.0, 0.2]),
           omega_a=st.floats(1.0, 80.0))
    def test_resonant_run_closes_its_ledger(self, family, width, ratio,
                                            delta_ab, omega_a):
        # width is the spectral scale in units of Gamma
        s = LambdaSystem(omega_a=omega_a, delta_ab=delta_ab, gamma_a=1.0,
                         gamma_b=ratio)
        scale = width * s.gamma_total
        envelope = family(scale if family is Exponential else 1.0 / scale)
        pulse, traj = run(s, envelope)
        ledger = energy_ledger(traj, pulse, s)
        assert abs(adaptation_work_check(s, ledger.p_ab_infty,
                                         ledger.w_abs)) <= 1e-6
        ceiling = 4.0 * s.gamma_a * s.gamma_b / s.gamma_total ** 2
        assert 0.0 <= ledger.p_ab_infty <= ceiling + 1e-9


class TestAdaptationWorkLink:
    @pytest.mark.parametrize("gamma_b", [0.5, 1.0, 4.0])
    def test_residual_small(self, gamma_b):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=gamma_b)
        pulse, traj = run(s, Exponential(1.0))
        ledger = energy_ledger(traj, pulse, s)
        res = adaptation_work_check(s, ledger.p_ab_infty, ledger.w_abs)
        assert abs(res) < 1e-7


class TestInteractionEnergy:
    def test_resonant_vanishes(self):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Gaussian(1.0))
        mix = InitialMixture(0.5)
        for t in np.linspace(0.0, traj.t_max, 17):
            assert abs(interaction_energy(traj, pulse, s, mix, float(t))) \
                <= 1e-10 * s.omega_a

    def test_detuned_is_nonzero(self):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Gaussian(1.0), detuning=2.0)
        mix = InitialMixture(1.0)
        vals = [abs(interaction_energy(traj, pulse, s, mix, float(t)))
                for t in np.linspace(0.0, traj.t_max, 33)]
        assert max(vals) > 1e-6 * s.omega_a

    def test_detuned_between_nodes_at_the_dt_ceiling(self):
        s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
        detuning = 0.3
        pulse = make_pulse(Exponential(1e-3), s.omega_a + detuning)
        traj = integrate_psi(s, pulse, SimGrid.auto(s, pulse, dt=10.0))
        mix = InitialMixture(1.0)
        ts = (traj.times[:-1] + 0.37 * np.diff(traj.times))[::97]
        psi = psi_closed_form(s, pulse, ts)
        drive = (pulse.shape_at(-ts)
                 * np.exp(-1j * detuning * ts))
        g_a = np.sqrt(s.gamma_a / (2.0 * np.pi))
        want = 2.0 * g_a * np.imag(np.conj(psi) * drive)
        got = np.array([interaction_energy(traj, pulse, s, mix, float(t))
                        for t in ts])
        scale = (2.0 * abs(g_a) * np.max(np.abs(psi))
                 * np.max(np.abs(drive)))
        assert np.max(np.abs(got - want)) <= 3e-5 * scale

    def test_time_window_enforced(self):
        s = LambdaSystem(omega_a=5.0, gamma_a=1.0, gamma_b=1.0)
        pulse, traj = run(s, Gaussian(1.0))
        with pytest.raises(ParameterError):
            interaction_energy(traj, pulse, s, InitialMixture(1.0),
                               traj.t_max * 2.0)
