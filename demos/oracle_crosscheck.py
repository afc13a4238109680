"""Brute-force check of the analytic pipeline on a discretized bath.

Replaces the two continua by 2001-mode combs, solves the full
one-excitation Schroedinger equation with no Wigner-Weisskopf input, and
compares populations, branch weights, entropy, work and heat against the
analytic machinery.  Also verifies the irreversibility statement: the
mirrored pulse cannot undo the transfer, exactly.
"""

import time

import numpy as np

from lambda_adapt.model import (Exponential, Gaussian, InitialMixture,
                                LambdaSystem, Rectangular, make_pulse)
from lambda_adapt.oracle import (DiscreteBath, OneExcitationState,
                                 build_hamiltonian, compare,
                                 discretize_pulse, evolve)


def main():
    s = LambdaSystem(omega_a=50.0, gamma_a=1.0, gamma_b=1.0)
    pulse = make_pulse(Gaussian(1.2), s.omega_a, s)
    mix = InitialMixture(0.5, 0.5)

    print("-- oracle vs analytic, default bath (2001 modes, B = 40 Gamma) --")
    t0 = time.perf_counter()
    report = compare(s, pulse, mix)
    dt = time.perf_counter() - t0
    print(f"{'quantity':>8s} {'deviation':>12s} {'tolerance':>10s}")
    for name, dev in report.deviations.items():
        print(f"{name:>8s} {dev:12.3e} {report.tolerances[name]:10.0e}")
    print(f"norm drift {report.norm_drift:.2e}, "
          f"verdict: {'pass' if report.passed else 'FAIL'}  ({dt:.1f} s)")

    print("\n-- backward protocol: |b> with the mirrored a photon --")
    bath = DiscreteBath(n_modes=801, bandwidth=40.0 * s.gamma_total)
    h = build_hamiltonian(s, bath, include_backward=True)
    n = bath.n_modes
    for envelope in (Exponential(0.3), Gaussian(1.2), Rectangular(2.0)):
        p = make_pulse(envelope, s.omega_a, s)
        amps = discretize_pulse(p, bath, s)
        # no excited or bright amplitude to start with: evolve only turns
        # the backward phases, and the forward sector stays exactly zero
        state = OneExcitationState.from_pulse(amps, backward=True)
        run = evolve(h, state, 15.0 / s.gamma_total, n_out=51)
        leak = float(np.max(np.sum(np.abs(run.states[:, :1 + 2 * n]) ** 2,
                                   axis=1)))
        print(f"{type(envelope).__name__.lower():12s} "
              f"leak into the forward sector = {leak:.2e}")
    print("\nan a-branch photon cannot raise |b>, so the organized state is")
    print("dynamically frozen: adaptation here is strictly one-way.")


if __name__ == "__main__":
    main()
