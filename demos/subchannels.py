"""Diagonal and dephasing sub-channels of two-qubit amplitude damping.

Zeroing the off-diagonal Choi entries gives a channel that maps everything
to diagonal states (and is entanglement breaking); restoring the coherence
entries on an identity population block gives a channel that dephases while
preserving populations (and is not entanglement breaking at short times).
"""

import numpy as np

from sumdiff.analysis import (
    eb_report,
    holevo_apply,
    holevo_point_form,
    is_ppt,
    mdc_choi,
    mdc_kraus,
    pdc_apply,
    pdc_choi,
    qc_form_test,
)
from sumdiff.channels import (
    Ad2Params,
    ad2_apply,
    ad2_coefficients,
    apply_signed_kraus,
    random_density_matrix,
)
from sumdiff.choi import choi_2ad
from sumdiff.linalg import max_abs

np.set_printoptions(precision=4, suppress=True, linewidth=120)

PARAMS = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.5)


def main():
    co = ad2_coefficients(PARAMS)
    b = choi_2ad(co)
    rng = np.random.default_rng(2)
    rho = random_density_matrix(4, rng)

    mks = mdc_kraus(co)
    out = apply_signed_kraus(rho, mks)
    print("diagonal sub-channel:")
    print(f"  operators: {len(mks.positive)} (all positive)")
    print(f"  off-diagonal mass of output  = {max_abs(out - np.diag(np.diag(out))):.2e}")
    print(f"  trace of output              = {out.trace().real:.12f}")
    print(f"  Choi PPT                     = {is_ppt(mdc_choi(b), 4, 4)}")
    qc_flag, _ = qc_form_test(mdc_choi(b), 4)
    print(f"  quantum-classical Choi form  = {qc_flag}")
    rep = eb_report(mdc_choi(b))
    print(f"  entanglement-breaking signature (Choi PPT) = {rep.ppt_of_choi}")

    print("\ndephasing sub-channel:")
    diag_in = np.diag(np.diag(rho))
    print(f"  preserves diagonal input     = {max_abs(pdc_apply(diag_in, co) - diag_in):.2e}")
    unit = np.zeros((4, 4), dtype=complex)
    unit[0, 1] = 1.0
    dev = max_abs(pdc_apply(unit, co) - ad2_apply(unit, co))
    print(f"  coherence evolution matches the full channel: dev = {dev:.2e}")
    print(f"  Choi PPT                     = {is_ppt(pdc_choi(b), 4, 4)}"
          "   (NPT: still entangled with its reference)")

    # in the long-time limit the full channel collapses to a point channel
    # with an explicit measure-and-prepare realization; collective decay
    # (gamma12 != 0) leaves a slow antisymmetric tail, so take the
    # independent-decay regime where every coherence is gone by Gamma*t = 50
    late = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.0, omega12=2.0,
                                      omega0=10.0, t=50.0))
    rep = eb_report(choi_2ad(late))
    found_point = rep.point_channel is not None
    print(f"\nfull channel at Gamma*t = 50: point channel detected = {found_point}, "
          f"Choi PPT = {rep.ppt_of_choi}")
    if found_point:
        print(f"fixed output state diagonal: {np.diag(rep.point_channel).real}")
    form = holevo_point_form()
    dev = 0.0
    for _ in range(5):
        state = random_density_matrix(4, rng)
        dev = max(dev, max_abs(holevo_apply(form, state) - ad2_apply(state, late)))
    print(f"measure-and-prepare form reproduces it within {dev:.2e}")


if __name__ == "__main__":
    main()
