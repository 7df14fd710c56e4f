"""Acceptance gate: the package's headline guarantees, one line of output each.

Every test prints a single pass/fail line on the real stdout (visible even
under capture) and then asserts, so a full run reads as a checklist.
"""

import math
import sys

import numpy as np

from sumdiff.analysis import (
    concurrence,
    is_ppt,
    mdc_choi,
    mdc_kraus,
    pdc_apply,
    pdc_choi,
    pdc_effective_state,
    pdc_entanglement_trace,
    qc_form_test,
)
from sumdiff.channels import (
    Ad2Params,
    ad2_apply,
    ad2_coefficients,
    apply_signed_kraus,
    check_completeness,
    gad_choi,
    gad_kraus,
    gad_split_choi,
    gad_split_report,
    random_density_matrix,
)
from sumdiff.choi import (
    ad2_signed_kraus,
    charpoly_checks,
    choi_2ad,
    choi_from_channel,
    extract_signed_kraus,
    partition_diag_pairs,
    reconstruct_choi,
)
from sumdiff.linalg import eig_hermitian, max_abs

from master_equation import liouvillian, master_equation_choi


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def random_params(rng) -> Ad2Params:
    gamma = rng.uniform(0.5, 2.0)
    return Ad2Params(
        gamma=gamma,
        gamma12=gamma * rng.uniform(-0.9, 0.9),
        omega12=rng.uniform(-5.0, 5.0),
        omega0=rng.uniform(0.0, 20.0),
        t=rng.uniform(0.0, 5.0 / gamma),
    )


def test_criterion_01_gad_split_rebuilds_choi():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        p, lam = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        plus, minus = gad_split_choi(p, lam)
        worst = max(worst, max_abs(plus - minus - gad_choi(p, lam)))
    record(1, worst <= 1e-12, f"split vs Choi over 20 draws, max dev {worst:.2e}")


def test_criterion_02_gad_extraction_matches_operator_action():
    rng = np.random.default_rng(12)
    worst = 0.0
    for p, lam in ((0.5, 0.36), (0.35, 0.36)):
        part = partition_diag_pairs(gad_choi(p, lam), labels={(0, 3): "corner"})
        ks = extract_signed_kraus(part)
        oracle = gad_kraus(p, lam)
        for _ in range(100):
            rho = random_density_matrix(2, rng)
            worst = max(worst, max_abs(
                apply_signed_kraus(rho, ks) - apply_signed_kraus(rho, oracle)))
    record(2, worst <= 1e-10, f"100 states x 2 points, max dev {worst:.2e}")


def test_criterion_03_choi_constructions_agree():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        co = ad2_coefficients(random_params(rng))
        b = choi_from_channel(lambda rho: ad2_apply(rho, co), 4)
        worst = max(worst, max_abs(b - choi_2ad(co)))
    record(3, worst <= 1e-12, f"columnwise vs entrywise over 50 draws, max dev {worst:.2e}")


def test_criterion_04_extraction_round_trip():
    rng = np.random.default_rng(14)
    worst_recon = worst_comp = worst_action = 0.0
    for _ in range(50):
        co = ad2_coefficients(random_params(rng))
        ks = ad2_signed_kraus(co)
        worst_recon = max(worst_recon, max_abs(reconstruct_choi(ks) - choi_2ad(co)))
        worst_comp = max(worst_comp, check_completeness(ks))
        for _ in range(2):
            rho = random_density_matrix(4, rng)
            worst_action = max(worst_action, max_abs(
                apply_signed_kraus(rho, ks) - ad2_apply(rho, co)))
    # the action bound also holds on a deep sample at one point
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0,
                                    omega0=10.0, t=0.7))
    ks = ad2_signed_kraus(co)
    for _ in range(100):
        rho = random_density_matrix(4, rng)
        worst_action = max(worst_action, max_abs(
            apply_signed_kraus(rho, ks) - ad2_apply(rho, co)))
    ok = worst_recon <= 1e-10 and worst_comp < 1e-10 and worst_action <= 1e-10
    record(4, ok, f"recon {worst_recon:.2e}, completeness {worst_comp:.2e}, "
                  f"action {worst_action:.2e}")


def test_criterion_05_trace_preservation_identities():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(200):
        co = ad2_coefficients(random_params(rng))
        worst = max(worst,
                    abs(co.A + co.C + co.E + co.H - 1.0),
                    abs(co.B + co.F - 1.0),
                    abs(co.D + co.G - 1.0))
    record(5, worst <= 1e-10, f"three identities over 200 draws, max dev {worst:.2e}")


def test_criterion_06_limits():
    rng = np.random.default_rng(16)
    co0 = ad2_coefficients(Ad2Params(gamma=1.3, gamma12=0.4, omega12=3.0,
                                     omega0=7.0, t=0.0))
    worst_id = 0.0
    for j in range(4):
        for k in range(4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[j, k] = 1.0
            worst_id = max(worst_id, max_abs(ad2_apply(unit, co0) - unit))

    # long-time limit in the independent-decay regime: everything lands on
    # the ground state and only the four ground-row operators survive
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.0, omega12=2.0,
                                    omega0=5.0, t=50.0))
    ground = np.zeros((4, 4), dtype=complex)
    ground[3, 3] = 1.0
    worst_point = 0.0
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        worst_point = max(worst_point, max_abs(ad2_apply(rho, co) - ground))

    ks = ad2_signed_kraus(co, cutoff=1e-8)
    targets = []
    for col in range(4):
        op = np.zeros((4, 4), dtype=complex)
        op[3, col] = 1.0
        targets.append(op)
    worst_ops = 0.0
    survivors = ks.positive + ks.negative
    if len(survivors) != 4:
        worst_ops = math.inf
    else:
        for op in survivors:
            worst_ops = max(worst_ops, min(max_abs(op - t) for t in targets))
    ok = worst_id <= 1e-12 and worst_point < 1e-8 and worst_ops < 1e-8
    record(6, ok, f"t=0 dev {worst_id:.2e}, point dev {worst_point:.2e}, "
                  f"{len(survivors)} survivors dev {worst_ops:.2e}")


def test_criterion_07_operator_count_bound():
    rng = np.random.default_rng(17)
    cases = [gad_choi(0.5, 0.36), gad_choi(0.35, 0.9), np.eye(4, dtype=complex)]
    dims = [2, 2, 2]
    for _ in range(20):
        cases.append(choi_2ad(ad2_coefficients(random_params(rng))))
        dims.append(4)
    ok = True
    worst = ""
    for b, d in zip(cases, dims):
        pairs = sum(1 for r in range(d * d) for c in range(r + 1, d * d)
                    if abs(b[r, c]) > 1e-14)
        ks = extract_signed_kraus(partition_diag_pairs(b))
        count = len(ks.positive) + len(ks.negative)
        if not count <= d * d + 2 * pairs <= d ** 4:
            ok = False
            worst = f"count {count} vs bound {d * d + 2 * pairs} at dim {d}"
    record(7, ok, worst or "count <= d^2 + 2 pairs <= d^4 on 23 channels")


def test_criterion_08_partition_spectra():
    rng = np.random.default_rng(18)
    worst_diag = worst_pair = 0.0
    for _ in range(20):
        co = ad2_coefficients(random_params(rng))
        report = charpoly_checks(co)
        if not report["ok"]:
            worst_diag = worst_pair = math.inf
            break
        # direct multiset comparison of the diagonal block spectrum
        part = partition_diag_pairs(choi_2ad(co))
        got = eig_hermitian(part.elements[0]).values
        want = np.sort(np.concatenate([
            [co.A, co.C, co.E, co.H, co.B, co.F, co.D, co.G, 1.0],
            np.zeros(7)]))[::-1]
        worst_diag = max(worst_diag, max_abs(got - want))
        for label, block in report["blocks"].items():
            if label != "diag":
                worst_pair = max(worst_pair, block["error"])
    ok = worst_diag <= 1e-10 and worst_pair <= 1e-12
    record(8, ok, f"diag spectrum dev {worst_diag:.2e}, pair dev {worst_pair:.2e}")


def test_criterion_09_subchannel_split():
    rng = np.random.default_rng(19)
    worst_offdiag = worst_tp = worst_entry = 0.0
    diag_exact = True
    mdc_all_ppt = True
    for _ in range(50):
        co = ad2_coefficients(random_params(rng))
        mks = mdc_kraus(co)
        rho = random_density_matrix(4, rng)
        out = apply_signed_kraus(rho, mks)
        worst_offdiag = max(worst_offdiag, max_abs(out - np.diag(np.diag(out))))
        worst_tp = max(worst_tp, abs(out.trace().real - 1.0))
        mdc_all_ppt = mdc_all_ppt and is_ppt(mdc_choi(choi_2ad(co)), 4, 4)

        diag_in = np.diag(rng.dirichlet(np.ones(4))).astype(complex)
        diag_exact = diag_exact and max_abs(pdc_apply(diag_in, co) - diag_in) == 0.0
        for j in range(4):
            for k in range(4):
                unit = np.zeros((4, 4), dtype=complex)
                unit[j, k] = 1.0
                want = unit if j == k else ad2_apply(unit, co)
                worst_entry = max(worst_entry, max_abs(pdc_apply(unit, co) - want))

    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0,
                                    omega0=10.0, t=0.5))
    pdc_npt = not is_ppt(pdc_choi(choi_2ad(co)), 4, 4)
    ok = (worst_offdiag <= 1e-14 and worst_tp <= 1e-12 and diag_exact
          and worst_entry <= 1e-12 and mdc_all_ppt and pdc_npt)
    record(9, ok, f"mdc offdiag {worst_offdiag:.2e}, pdc entrywise {worst_entry:.2e}, "
                  f"mdc ppt {mdc_all_ppt}, pdc npt {pdc_npt}")


def test_criterion_10_concurrence_and_decay():
    bell = np.zeros((4, 4), dtype=complex)
    for j in (0, 3):
        for k in (0, 3):
            bell[j, k] = 0.5
    bell_dev = abs(concurrence(bell) - 1.0)

    # coherence magnitude 1/2 by choosing t = ln 2 / Gamma
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0,
                                    omega0=10.0, t=math.log(2.0)))
    half_dev = abs(concurrence(pdc_effective_state(choi_2ad(co))) - 0.5)

    trace = pdc_entanglement_trace(
        Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.0),
        t_max=50.0, steps=200)
    vals = trace[:, 1]
    monotone = bool(np.all(np.diff(vals) <= 1e-14))
    final = float(vals[-1])
    ok = bell_dev <= 1e-12 and half_dev <= 1e-10 and monotone and final < 1e-8
    record(10, ok, f"bell dev {bell_dev:.2e}, half dev {half_dev:.2e}, "
                   f"monotone {monotone}, final {final:.2e}")


def test_criterion_11_recorded_discrepancies_are_stable():
    first = gad_split_report(0.5, 0.36)
    second = gad_split_report(0.5, 0.36)
    report_stable = first == second
    ratio_recorded = abs(first["negative_reconstruction_ratio"] - 2.0) < 1e-12

    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0,
                                    omega0=10.0, t=0.7))
    flag_a, blocks_a = qc_form_test(mdc_choi(choi_2ad(co)), 4)
    flag_b, blocks_b = qc_form_test(mdc_choi(choi_2ad(co)), 4)
    qc_stable = flag_a == flag_b and all(
        np.array_equal(x, y) for x, y in zip(blocks_a, blocks_b))
    ok = report_stable and ratio_recorded and qc_stable and flag_a is True
    record(11, ok, f"split ratio {first['negative_reconstruction_ratio']}, "
                   f"qc flag {flag_a}, both runs identical {report_stable and qc_stable}")


def test_criterion_12_ad2_closed_form_is_its_master_equation():
    # the closed-form Choi matrix against exp(L t) of the collective master
    # equation, over drawn points and at |gamma12| next to gamma; the bound is
    # 1e-14 ||L t||_1, what the Taylor series of exp(L t) loses
    rng = np.random.default_rng(12)
    points = [random_params(rng) for _ in range(40)]
    points += [Ad2Params(1.0, sign * (1.0 - 1e-8), 2.0, 10.0, t) for sign in (1.0, -1.0) for t in (0.0, 0.7, 30.0)]
    worst = 0.0
    for params in points:
        rates = (params.gamma, params.gamma12, params.omega12, params.omega0)
        error = max_abs(choi_2ad(ad2_coefficients(params)) - master_equation_choi(*rates, params.t))
        scale = max(1.0, np.abs(liouvillian(*rates) * params.t).sum(axis=0).max())
        worst = max(worst, error / scale)
    record(12, worst <= 1e-14, f"{len(points)} points, max error / max(1, ||L t||_1) {worst:.2e}")
