"""First-law bookkeeping of resonant single-photon runs.

For each run the drive quadrature gives the absorbed work W, the
monitored emission gives the heat Q, and W - Q - Delta<H_S> must close
to quadrature accuracy.  The same numbers exhibit the adaptation-work
relation p_ab(inf) = (gamma_b / Gamma) W / (hbar omega_a): the state
that absorbed the most work is the most likely outcome.
"""

from lambda_adapt.dynamics import integrate_psi
from lambda_adapt.model import (Exponential, Gaussian, LambdaSystem,
                                Rectangular, SimGrid, make_pulse)
from lambda_adapt.thermo import adaptation_work_check, energy_ledger


def run_ledger(system, envelope):
    pulse = make_pulse(envelope, system.omega_a)
    grid = SimGrid.auto(system, pulse)
    traj = integrate_psi(system, pulse, grid)
    return energy_ledger(traj, pulse, system)


def main():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)

    print("-- ledger across envelope families (hbar omega_a units) --")
    print(f"{'envelope':12s} {'W':>8s} {'Q':>8s} {'dE_sys':>9s} "
          f"{'residual':>10s} {'p_ab':>7s} {'adapt res':>10s}")
    for envelope in (Exponential(0.5), Exponential(2.0), Gaussian(1.0),
                     Rectangular(2.0)):
        led = run_ledger(s, envelope)
        adapt = adaptation_work_check(s, led.p_ab_infty, led.w_abs)
        name = f"{type(envelope).__name__.lower()}"
        hw = s.omega_a
        print(f"{name:12s} {led.w_abs / hw:8.4f} {led.q_diss / hw:8.4f} "
              f"{led.de_sys / hw:9.2e} {led.residual / hw:10.2e} "
              f"{led.p_ab_infty:7.4f} {adapt:10.2e}")

    print("\n-- narrowband limit: W -> 2 hbar omega_a --")
    print(f"{'Delta':>8s} {'W / hw':>8s} {'4 Ga/(Gamma+Delta)':>20s}")
    for delta in (1.0, 0.3, 0.1, 0.03, 0.01):
        led = run_ledger(s, Exponential(delta))
        want = 4.0 * s.gamma_a / (s.gamma_total + delta)
        print(f"{delta:8.2f} {led.w_over_hw:8.5f} {want:20.5f}")
    print("\nthe photon ends up depositing twice its own energy; the")
    print("emitter immediately re-radiates it, so Q -> 2 hbar omega_a too.")

    print("\n-- split ground states park energy in |b> --")
    s2 = LambdaSystem(omega_a=50.0, delta_ab=5.0, gamma_a=1.0, gamma_b=1.0)
    led = run_ledger(s2, Exponential(1.0))
    print(f"delta_ab = {s2.delta_ab}: dE_sys = {led.de_sys:.4f} "
          f"= delta_ab * p_ab = {s2.delta_ab * led.p_ab_infty:.4f}")


if __name__ == "__main__":
    main()
