"""Tests for signed Kraus application and the two concrete channels."""

import math

import numpy as np
import pytest

from sumdiff.channels import (
    Ad2Params,
    SignedKrausSet,
    ad2_apply,
    ad2_coefficients,
    apply_signed_kraus,
    check_completeness,
    check_density_matrix,
    gad_choi,
    gad_kraus,
    gad_split_choi,
    gad_split_report,
    random_density_matrix,
)
from sumdiff.choi import choi_from_channel
from sumdiff.linalg import max_abs


def random_params(rng):
    gamma = float(rng.uniform(0.5, 2.0))
    return Ad2Params(
        gamma=gamma,
        gamma12=float(gamma * rng.uniform(-0.9, 0.9)),
        omega12=float(rng.uniform(-5.0, 5.0)),
        omega0=float(rng.uniform(0.0, 20.0)),
        t=float(rng.uniform(0.0, 5.0 / gamma)),
    )


def matrix_unit(j, k, dim=4):
    m = np.zeros((dim, dim), dtype=complex)
    m[j, k] = 1.0
    return m


def test_signed_set_identity_action():
    ks = SignedKrausSet(positive=[np.eye(2, dtype=complex)])
    rng = np.random.default_rng(0)
    rho = random_density_matrix(2, rng)
    assert max_abs(apply_signed_kraus(rho, ks) - rho) == 0.0


def test_signed_set_cancellation():
    eye = np.eye(2, dtype=complex)
    ks = SignedKrausSet(positive=[eye, eye], negative=[eye])
    assert check_completeness(ks) == 0.0
    rng = np.random.default_rng(1)
    rho = random_density_matrix(2, rng)
    assert max_abs(apply_signed_kraus(rho, ks) - rho) < 1e-15


def test_signed_set_rejects_mixed_dims():
    with pytest.raises(ValueError):
        SignedKrausSet(positive=[np.eye(2, dtype=complex), np.eye(3, dtype=complex)])


def test_signed_set_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        SignedKrausSet(positive=[np.eye(2, dtype=complex)], positive_labels=("a", "b"))


def test_signed_set_auto_labels():
    ks = SignedKrausSet(positive=[np.eye(2, dtype=complex)] * 2,
                        negative=[np.eye(2, dtype=complex)])
    assert ks.positive_labels == ("+0", "+1")
    assert ks.negative_labels == ("-0",)
    assert ks.count == 3
    assert ks.dim == 2


def test_apply_rejects_dimension_mismatch():
    ks = SignedKrausSet(positive=[np.eye(2, dtype=complex)])
    with pytest.raises(ValueError):
        apply_signed_kraus(np.eye(3, dtype=complex) / 3, ks)


def test_random_density_matrix_is_valid():
    rng = np.random.default_rng(2)
    for dim in (2, 4):
        for _ in range(20):
            check_density_matrix(random_density_matrix(dim, rng))


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("count", [1, 3, 17])
def test_random_density_matrix_stack_is_successive_single_draws(dim, count):
    stack = random_density_matrix(dim, np.random.default_rng(5), count=count)
    rng = np.random.default_rng(5)
    singles = np.stack([random_density_matrix(dim, rng) for _ in range(count)])
    assert stack.shape == (count, dim, dim)
    assert stack.tobytes() == singles.tobytes()


def test_check_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue


def test_gad_kraus_lambda_zero_is_identity():
    ks = gad_kraus(0.3, 0.0)
    rng = np.random.default_rng(3)
    rho = random_density_matrix(2, rng)
    assert max_abs(apply_signed_kraus(rho, ks) - rho) < 1e-15
    assert ks.negative == ()


def test_gad_kraus_operator_placement():
    # the jump amplitudes sit at (1,0) under the sqrt(p) weight and at
    # (0,1) under sqrt(1-p); the set is consistent with gad_choi as built
    p, lam = 0.7, 0.4
    ks = gad_kraus(p, lam)
    k1, k2, k3, k4 = ks.positive
    assert max_abs(k1 - math.sqrt(p) * np.diag([1.0, math.sqrt(1 - lam)])) < 1e-15
    want2 = np.zeros((2, 2), dtype=complex)
    want2[1, 0] = math.sqrt(p * lam)
    assert max_abs(k2 - want2) < 1e-15
    assert max_abs(k3 - math.sqrt(1 - p) * np.diag([math.sqrt(1 - lam), 1.0])) < 1e-15
    want4 = np.zeros((2, 2), dtype=complex)
    want4[0, 1] = math.sqrt((1 - p) * lam)
    assert max_abs(k4 - want4) < 1e-15


def test_gad_kraus_completeness_at_half():
    assert check_completeness(gad_kraus(0.5, 0.36)) < 1e-14


def test_gad_kraus_completeness_residual_closed_form():
    # the operator family is balanced only at p = 1/2; off that point the
    # completeness defect is lam*|1-2p| on the diagonal
    for p, lam in ((0.35, 0.36), (0.8, 0.5), (0.0, 0.25)):
        assert abs(check_completeness(gad_kraus(p, lam)) - lam * abs(1 - 2 * p)) < 1e-14


def test_gad_kraus_rejects_out_of_range():
    with pytest.raises(ValueError):
        gad_kraus(-0.1, 0.5)
    with pytest.raises(ValueError):
        gad_kraus(0.5, 1.2)


def test_gad_choi_matches_channel_construction():
    for p, lam in ((0.5, 0.36), (0.2, 0.7), (0.9, 0.1)):
        ks = gad_kraus(p, lam)
        built = choi_from_channel(lambda rho: apply_signed_kraus(rho, ks), 2)
        assert max_abs(built - gad_choi(p, lam)) < 1e-14


def test_gad_choi_closed_form_entries():
    p, lam = 0.5, 0.36
    b = gad_choi(p, lam)
    s = math.sqrt(1 - lam)
    assert np.allclose(np.diag(b), [1 - lam + p * lam, p * lam, (1 - p) * lam, 1 - p * lam])
    assert abs(b[0, 3] - s) < 1e-15
    assert abs(b[3, 0] - s) < 1e-15


def test_gad_split_difference_recovers_choi():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p, lam = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        bplus, bminus = gad_split_choi(p, lam)
        assert max_abs((bplus - bminus) - gad_choi(p, lam)) < 1e-12


def test_gad_split_negative_part_spectrum():
    _, bminus = gad_split_choi(0.5, 0.36)
    vals = np.linalg.eigvalsh(bminus)[::-1]
    assert np.allclose(vals, [0.6, 0.2, 0.0, 0.0], atol=1e-14)


def test_gad_split_report_normalization_ratios():
    rep = gad_split_report(0.5, 0.36)
    # the printed split operators carry a uniform factor sqrt(2) too much,
    # so their reconstructions come out at exactly twice the target blocks
    assert abs(rep["negative_reconstruction_ratio"] - 2.0) < 1e-12
    assert rep["negative_ratio_spread"] < 1e-12
    assert abs(rep["positive_corner_ratio"] - 2.0) < 1e-12
    assert rep["action_max_deviation"] > 0.1


def test_gad_split_report_is_deterministic():
    a = gad_split_report(0.5, 0.36)
    b = gad_split_report(0.5, 0.36)
    assert a == b


def test_ad2_params_validation():
    with pytest.raises(ValueError):
        Ad2Params(gamma=0.0, gamma12=0.0, omega12=1.0, omega0=1.0, t=0.0)
    with pytest.raises(ValueError):
        Ad2Params(gamma=1.0, gamma12=1.0, omega12=1.0, omega0=1.0, t=0.0)
    with pytest.raises(ValueError):
        Ad2Params(gamma=1.0, gamma12=0.0, omega12=1.0, omega0=1.0, t=-0.1)


@pytest.mark.parametrize("name", ["t", "omega12", "omega0", "gamma", "gamma12"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ad2_params_reject_non_finite(name, bad):
    values = dict(gamma=1.0, gamma12=0.3, omega12=1.0, omega0=1.0, t=0.5)
    values[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        Ad2Params(**values)


def test_ad2_params_at_rebinds_time():
    pa = Ad2Params(gamma=1.0, gamma12=0.2, omega12=1.0, omega0=3.0, t=0.0)
    pb = pa.at(2.5)
    assert pb.t == 2.5
    assert pb.gamma == pa.gamma
    assert pa.t == 0.0


def test_ad2_coefficients_at_time_zero():
    co = ad2_coefficients(Ad2Params(gamma=1.3, gamma12=0.4, omega12=2.0, omega0=7.0, t=0.0))
    assert (co.A, co.B, co.D) == (1.0, 1.0, 1.0)
    assert (co.C, co.E, co.F, co.G, co.H) == (0.0, 0.0, 0.0, 0.0, 0.0)
    for name in ("J", "L", "M", "P", "Q", "T"):
        assert getattr(co, name) == 1.0 + 0.0j
    for name in ("U", "V", "R", "S"):
        assert getattr(co, name) == 0.0 + 0.0j


def test_ad2_coefficients_uncoupled_symmetry():
    # gamma12 = 0 reduces to two independent qubits
    gamma, t = 1.1, 0.8
    co = ad2_coefficients(Ad2Params(gamma=gamma, gamma12=0.0, omega12=0.7, omega0=3.0, t=t))
    e = math.exp(-gamma * t)
    assert abs(co.B - e) < 1e-15
    assert abs(co.D - e) < 1e-15
    assert abs(co.C - (1 - e) * e) < 1e-15
    assert abs(co.E - co.C) < 1e-15


def test_ad2_trace_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        co = ad2_coefficients(random_params(rng))
        worst = max(worst,
                    abs(co.A + co.C + co.E + co.H - 1),
                    abs(co.B + co.F - 1),
                    abs(co.D + co.G - 1))
    assert worst < 1e-10


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10])
def test_ad2_trace_identities_near_negative_collective_rate(gap):
    # gamma12 -> -gamma used to cost H its trace identity through cancellation
    worst = 0.0
    for gamma in (0.7, 1.0, 2.0):
        for t in np.linspace(0.0, 40.0 / gamma, 81):
            co = ad2_coefficients(Ad2Params(gamma, -gamma * (1.0 - gap), 1.3, 10.0, float(t)))
            worst = max(worst,
                        abs(co.A + co.C + co.E + co.H - 1),
                        abs(co.B + co.F - 1),
                        abs(co.D + co.G - 1))
    assert worst <= 1e-14


@pytest.mark.parametrize("gamma12, t", [(0.9, 400.0), (0.5, 500.0), (-0.9, 1e4), (0.999999, 800.0)])
def test_ad2_coefficients_at_large_time(gamma12, t):
    # exp(gp t) overflows a float once gp t exceeds about 709.78
    co = ad2_coefficients(Ad2Params(1.0, gamma12, 2.0, 10.0, t))
    assert abs(co.A + co.C + co.E + co.H - 1) <= 1e-14
    assert 0.0 <= co.H <= 1.0


def test_ad2_coefficient_bounds():
    rng = np.random.default_rng(6)
    for _ in range(100):
        co = ad2_coefficients(random_params(rng))
        for name in ("A", "B", "C", "D", "E", "F", "G", "H"):
            val = getattr(co, name)
            assert -1e-12 <= val <= 1 + 1e-12
        for name in ("J", "L", "M", "P", "Q", "T"):
            assert abs(getattr(co, name)) <= 1 + 1e-12


def test_ad2_coefficient_monotonicity():
    # populations A, B, D drain monotonically; F, G fill monotonically
    base = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.0)
    times = np.linspace(0.01, 4.0, 40)
    rows = [ad2_coefficients(base.at(float(t))) for t in times]
    for name, sign in (("A", -1), ("B", -1), ("D", -1), ("F", +1), ("G", +1)):
        vals = np.array([getattr(r, name) for r in rows])
        assert np.all(sign * np.diff(vals) > 0.0)


def test_ad2_asymptotic_limit():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.5, omega12=2.0, omega0=10.0, t=50.0))
    assert abs(co.F - 1) < 1e-8
    assert abs(co.G - 1) < 1e-8
    assert abs(co.H - 1) < 1e-8
    # the slowest coherence decays as exp(-(gamma-gamma12) t / 2), which at
    # these parameters is only ~4e-6; the rest sit below 1e-8
    assert abs(co.Q) == pytest.approx(math.exp(-0.5 * 0.5 * 50.0), rel=1e-12)
    for name in ("A", "B", "C", "D", "E", "J", "L", "M", "P", "T", "U", "V", "R", "S"):
        assert abs(getattr(co, name)) < 1e-5


def test_ad2_asymptotic_limit_uncoupled():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.0, omega12=2.0, omega0=10.0, t=50.0))
    for name in ("A", "B", "C", "D", "E", "J", "L", "M", "P", "Q", "T", "U", "V", "R", "S"):
        assert abs(getattr(co, name)) < 1e-8


def test_ad2_apply_ground_state_fixed():
    rng = np.random.default_rng(7)
    co = ad2_coefficients(random_params(rng))
    ground = matrix_unit(3, 3)
    assert max_abs(ad2_apply(ground, co) - ground) < 1e-15


def test_ad2_apply_excited_populations():
    rng = np.random.default_rng(8)
    co = ad2_coefficients(random_params(rng))
    out = ad2_apply(matrix_unit(0, 0), co)
    assert max_abs(out - np.diag([co.A, co.C, co.E, co.H]).astype(complex)) < 1e-15


def test_ad2_apply_top_coherence():
    rng = np.random.default_rng(9)
    co = ad2_coefficients(random_params(rng))
    plus = np.zeros((4, 4), dtype=complex)
    plus[0, 0] = plus[0, 1] = plus[1, 0] = plus[1, 1] = 0.5
    out = ad2_apply(plus, co)
    assert abs(out[0, 1] - co.J / 2) < 1e-15


def test_ad2_apply_coherence_mixing_rows():
    # the (s,g) and (a,g) coherences receive feed-in from (e,s) and (e,a)
    rng = np.random.default_rng(10)
    co = ad2_coefficients(random_params(rng))
    out = ad2_apply(matrix_unit(0, 1), co)
    assert abs(out[1, 3] - (co.U + 1j * co.V)) < 1e-15
    out = ad2_apply(matrix_unit(0, 2), co)
    assert abs(out[2, 3] - (1j * co.S - co.R)) < 1e-15


def test_ad2_apply_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        co = ad2_coefficients(random_params(rng))
        rho = random_density_matrix(4, rng)
        out = ad2_apply(rho, co)
        assert abs(np.trace(out) - 1) < 1e-10
        assert max_abs(out - out.conj().T) < 1e-12


def test_ad2_apply_identity_at_time_zero():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.0))
    for j in range(4):
        for k in range(4):
            unit = matrix_unit(j, k)
            assert max_abs(ad2_apply(unit, co) - unit) < 1e-12


def test_ad2_apply_stack_matches_single_states():
    rng = np.random.default_rng(12)
    co = ad2_coefficients(random_params(rng))
    states = random_density_matrix(4, rng, count=6).reshape(2, 3, 4, 4)
    out = ad2_apply(states, co)
    assert out.shape == states.shape
    for i in range(2):
        for j in range(3):
            assert out[i, j].tobytes() == ad2_apply(states[i, j], co).tobytes()


def test_ad2_apply_rejects_wrong_dim():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.0, omega12=1.0, omega0=1.0, t=0.1))
    with pytest.raises(ValueError):
        ad2_apply(np.eye(3, dtype=complex) / 3, co)
