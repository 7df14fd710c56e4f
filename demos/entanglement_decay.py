"""Entanglement of the dephasing sub-channel's effective two-qubit state.

The dephasing part of two-qubit amplitude damping leaves populations alone
but shrinks the excited-ground coherence by |L| = exp(-Gamma*t).  Feeding a
maximally coherent state through it yields an X-shaped two-qubit state whose
concurrence is exactly that coherence, so the entanglement decay can be read
off a single exponential.
"""

import math

import numpy as np

from sumdiff.analysis import concurrence, pdc_effective_state, pdc_entanglement_trace
from sumdiff.channels import Ad2Params, ad2_coefficients
from sumdiff.choi import choi_2ad

PARAMS = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.0)


def main():
    print(" Gamma*t   concurrence   exp(-Gamma*t)")
    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        co = ad2_coefficients(PARAMS.at(t=t))
        c = concurrence(pdc_effective_state(choi_2ad(co)))
        print(f"  {t:6.2f}   {c:.9f}   {math.exp(-t):.9f}")

    trace = pdc_entanglement_trace(PARAMS, t_max=50.0, steps=200)
    vals = trace[:, 1]
    print(f"\ntrace over 200 points to Gamma*t = 50:")
    print(f"  monotone nonincreasing = {bool(np.all(np.diff(vals) <= 1e-14))}")
    print(f"  concurrence at t = 0   = {vals[0]:.12f}")
    print(f"  concurrence at t = 50  = {vals[-1]:.2e}")

    # the coherence becomes numerically unresolvable around Gamma*t ~ 35;
    # beyond that the concurrence clamps to exactly zero
    first_zero = trace[np.argmax(vals == 0.0), 0] if np.any(vals == 0.0) else None
    print(f"  first exact zero at Gamma*t = {first_zero:.2f}")


if __name__ == "__main__":
    main()
