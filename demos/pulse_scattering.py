"""Scatter single-photon pulses off the lambda emitter.

Integrates the excited-state amplitude for the three analytic envelope
families, checks the exponential case against its closed form, and shows
how the long-time transfer probability approaches the branching formula
4 gamma_a gamma_b / (gamma_a + gamma_b)^2 as the pulse narrows.
"""

import numpy as np

from lambda_adapt.dynamics import (asymptotic_prob_exponential,
                                   integrate_psi, p_ab_infty,
                                   psi_closed_form)
from lambda_adapt.model import (Exponential, Gaussian, LambdaSystem,
                                Rectangular, SimGrid, make_pulse)


def main():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    print(f"lambda system: gamma_a = {s.gamma_a}, gamma_b = {s.gamma_b}, "
          f"Gamma = {s.gamma_total}")

    print("\n-- envelope families at unit spectral width --")
    for envelope in (Exponential(1.0), Gaussian(1.0), Rectangular(1.0)):
        pulse = make_pulse(envelope, s.omega_a, s)
        traj = integrate_psi(s, pulse, SimGrid.auto(s, pulse))
        name = type(envelope).__name__.lower()
        print(f"{name:12s}  max p_e = {traj.p_e.max():.4f}   "
              f"p_ab(T) = {traj.p_ab_final():.4f}")

    print("\n-- exponential pulse vs closed form --")
    pulse = make_pulse(Exponential(0.8), s.omega_a, s)
    traj = integrate_psi(s, pulse, SimGrid.auto(s, pulse))
    exact = psi_closed_form(s, pulse, traj.times, frame="rotating")
    print(f"max |psi_num - psi_exact| = {np.max(np.abs(traj.psi - exact)):.2e}")

    print("\n-- approach to the monochromatic limit --")
    print(f"{'Delta/Gamma':>12s} {'p_ab(inf)':>10s} {'formula':>10s}")
    for delta in (2.0, 0.5, 0.1, 0.02, 0.004):
        pulse = make_pulse(Exponential(delta * s.gamma_total), s.omega_a, s)
        t_max = 12.0 / pulse.envelope.linewidth + 10.0 / s.gamma_total
        traj = integrate_psi(s, pulse, SimGrid.auto(s, pulse, t_max=t_max))
        p_inf = p_ab_infty(traj, s)
        formula = asymptotic_prob_exponential(s, pulse.envelope.linewidth)
        print(f"{delta:12.3f} {p_inf:10.5f} {formula:10.5f}")
    print("\nnarrow pulses transfer the full population: p_ab -> 1.")


if __name__ == "__main__":
    main()
