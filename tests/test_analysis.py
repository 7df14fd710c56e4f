"""Tests for the derived sub-channels and entanglement diagnostics."""

import math
import warnings

import numpy as np
import pytest

from sumdiff.analysis import (
    HolevoForm,
    _point_output,
    concurrence,
    eb_report,
    holevo_apply,
    holevo_kraus,
    holevo_point_form,
    is_ppt,
    mdc_choi,
    mdc_kraus,
    pdc_apply,
    pdc_choi,
    pdc_effective_state,
    pdc_entanglement_trace,
    pdc_kraus,
    qc_form_test,
)
from sumdiff.channels import (
    Ad2Params,
    ad2_apply,
    ad2_coefficients,
    apply_signed_kraus,
    gad_choi,
    random_density_matrix,
)
from sumdiff.choi import choi_2ad, choi_from_channel
import sumdiff.analysis as analysis
import sumdiff.linalg as linalg
from sumdiff.linalg import dagger, eigvals_hermitian, kron, max_abs, partial_transpose

PROBE = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.7)


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


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    return np.outer(psi, psi.conj())


def random_pure_product(rng):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    psi = np.kron(a, b)
    return np.outer(psi, psi.conj())


def haar_unitary(rng, n=2):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_mdc_output_is_diagonal():
    rng = np.random.default_rng(50)
    co = ad2_coefficients(PROBE)
    ks = mdc_kraus(co)
    for _ in range(30):
        rho = random_density_matrix(4, rng)
        out = apply_signed_kraus(rho, ks)
        off = out - np.diag(np.diag(out))
        assert max_abs(off) < 1e-14


def test_mdc_diagonal_action_matches_full_channel():
    co = ad2_coefficients(PROBE)
    ks = mdc_kraus(co)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert max_abs(apply_signed_kraus(rho, ks) - ad2_apply(rho, co)) < 1e-14


def test_mdc_kills_coherences():
    co = ad2_coefficients(PROBE)
    ks = mdc_kraus(co)
    assert max_abs(apply_signed_kraus(matrix_unit(0, 1), ks)) < 1e-14


def test_mdc_is_trace_preserving():
    rng = np.random.default_rng(51)
    for _ in range(20):
        co = ad2_coefficients(random_params(rng))
        ks = mdc_kraus(co)
        acc = sum(dagger(k) @ k for k in ks.positive)
        assert max_abs(acc - np.eye(4)) < 1e-12


def test_mdc_kraus_labels_and_choi():
    co = ad2_coefficients(PROBE)
    ks = mdc_kraus(co)
    assert ks.positive_labels == ("H", "G", "F", "E", "D", "C", "A", "1", "B")
    assert ks.negative == ()
    from sumdiff.choi import reconstruct_choi
    assert max_abs(reconstruct_choi(ks) - mdc_choi(choi_2ad(co))) < 1e-14
    assert max_abs(mdc_choi(choi_2ad(co)) - np.diag(np.diag(choi_2ad(co)))) == 0.0


def test_mdc_asymptotic_survivors():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.0, omega12=2.0, omega0=10.0, t=50.0))
    ks = mdc_kraus(co)
    live = [lab for op, lab in zip(ks.positive, ks.positive_labels) if max_abs(op) > 1e-8]
    assert set(live) == {"H", "G", "F", "1"}


def test_pdc_preserves_diagonal_inputs():
    co = ad2_coefficients(PROBE)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert max_abs(pdc_apply(rho, co) - rho) == 0.0
    ks = pdc_kraus(co)
    assert max_abs(apply_signed_kraus(rho, ks) - rho) < 1e-12


def test_pdc_dephases_top_coherence():
    # the (e,s) coherence scales by J and feeds the (s,g) position, exactly
    # as under the full channel
    co = ad2_coefficients(PROBE)
    unit = matrix_unit(0, 1)
    want = co.J * unit
    want[1, 3] = co.U + 1j * co.V
    assert max_abs(pdc_apply(unit, co) - want) < 1e-15
    assert max_abs(pdc_apply(unit, co) - ad2_apply(unit, co)) < 1e-15


def test_pdc_identity_at_time_zero():
    co = ad2_coefficients(PROBE.at(0.0))
    for j in range(4):
        for k in range(4):
            unit = matrix_unit(j, k)
            assert max_abs(pdc_apply(unit, co) - unit) < 1e-12


def test_pdc_kraus_action_matches_closed_form():
    rng = np.random.default_rng(52)
    co = ad2_coefficients(PROBE)
    ks = pdc_kraus(co)
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        assert max_abs(apply_signed_kraus(rho, ks) - pdc_apply(rho, co)) < 1e-12


def test_pdc_kraus_contains_projectors():
    co = ad2_coefficients(PROBE)
    ks = pdc_kraus(co)
    found = 0
    for op in ks.positive:
        for i in range(4):
            proj = np.zeros((4, 4), dtype=complex)
            proj[i, i] = 1.0
            if max_abs(op - proj) < 1e-12:
                found += 1
    assert found == 4


def test_channel_splits_into_diagonal_and_dephasing_parts():
    # entrywise: full action = diagonal map on the diagonal plus dephasing
    # map on the off-diagonal
    rng = np.random.default_rng(53)
    for _ in range(20):
        co = ad2_coefficients(random_params(rng))
        rho = random_density_matrix(4, rng)
        diag_part = np.diag(np.diag(rho))
        off_part = rho - diag_part
        combined = ad2_apply(diag_part, co) + pdc_apply(off_part, co)
        assert max_abs(combined - ad2_apply(rho, co)) < 1e-12


def test_is_ppt_diagonal_state():
    assert is_ppt(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), 2, 2)


def test_is_ppt_bell_state():
    assert not is_ppt(bell_state(), 2, 2)


def test_is_ppt_rejects_bad_dims():
    with pytest.raises(ValueError):
        is_ppt(np.eye(6, dtype=complex) / 6, 2, 2)


def test_pdc_choi_npt_at_moderate_time():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.5))
    assert not is_ppt(pdc_choi(choi_2ad(co)), 4, 4)


def test_mdc_choi_ppt_for_all_valid_parameters():
    rng = np.random.default_rng(54)
    for _ in range(30):
        co = ad2_coefficients(random_params(rng))
        assert is_ppt(mdc_choi(choi_2ad(co)), 4, 4)


def test_eb_report_mdc():
    co = ad2_coefficients(PROBE)
    rep = eb_report(mdc_choi(choi_2ad(co)))
    assert rep.ppt_of_choi
    assert rep.is_cp
    assert rep.is_trace_preserving
    assert rep.point_channel is None


def test_eb_report_identity_channel():
    rep = eb_report(choi_from_channel(lambda rho: rho, 4))
    assert not rep.ppt_of_choi
    assert rep.point_channel is None
    assert rep.is_cp
    assert rep.is_trace_preserving


def test_eb_report_asymptotic_point_channel():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.0, omega12=2.0, omega0=10.0, t=50.0))
    b = choi_2ad(co)
    rep = eb_report(b)
    ground = np.zeros((4, 4), dtype=complex)
    ground[3, 3] = 1.0
    assert rep.point_channel is not None
    assert max_abs(rep.point_channel - ground) < 1e-8
    assert rep.ppt_of_choi
    # the Choi matrix itself factorizes as identity (x) ground projector
    assert max_abs(b - kron(np.eye(4), ground)) < 1e-8


def _point_output_by_blocks(b, d, tol):
    """Reference: the point-channel test one d x d block at a time."""
    blocks = b.reshape(d, d, d, d)
    sigma = np.zeros((d, d), dtype=complex)
    for j in range(d):
        sigma += blocks[j, :, j, :]
    sigma /= d
    for j in range(d):
        for k in range(d):
            if max_abs(blocks[j, :, k, :] - (sigma if j == k else 0.0)) > tol:
                return None
    return sigma


def test_point_output_matches_the_blockwise_test():
    chois = [gad_choi(0.5, lam) for lam in (0.0, 0.36, 1.0)]
    chois += [choi_2ad(ad2_coefficients(Ad2Params(1.0, 0.3, 2.0, 10.0, t))) for t in (0.0, 0.7, 40.0, 800.0)]
    chois.append(np.full((16, 16), complex(-0.0, -0.0)))  # sigma sums from zeros: 0.0, not -0.0
    rng = np.random.default_rng(11)
    for b in list(chois):  # one entry moved just inside and just outside the tolerance
        i, j = rng.integers(0, b.shape[0], 2)
        for step in (0.5e-8, 2e-8):
            moved = b.copy()
            moved[i, j] += step
            chois.append(moved)
    found = 0
    for b in chois:
        d = math.isqrt(b.shape[0])
        expected, got = _point_output_by_blocks(b, d, 1e-8), _point_output(b, d, 1e-8)
        assert (got is None) == (expected is None)
        if got is not None:
            found += 1
            assert got.tobytes() == expected.tobytes()
    assert found >= 3


def test_eb_report_flags_unbalanced_channel():
    from sumdiff.channels import gad_choi
    rep = eb_report(gad_choi(0.35, 0.36))
    assert not rep.is_trace_preserving
    assert abs(rep.completeness_residual - 0.36 * 0.3) < 1e-12
    balanced = eb_report(gad_choi(0.5, 0.36))
    assert balanced.is_trace_preserving


def test_eb_report_rejects_non_square_layout():
    with pytest.raises(ValueError):
        eb_report(np.eye(6, dtype=complex))


def test_qc_form_constructed_block_diagonal():
    rng = np.random.default_rng(55)
    blocks = []
    b = np.zeros((16, 16), dtype=complex)
    for m in range(4):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f = g @ dagger(g)
        blocks.append(f)
        unit = np.zeros((4, 4), dtype=complex)
        unit[m, m] = 1.0
        b += kron(f.T, unit)
    ok, got = qc_form_test(b, 4)
    assert ok
    for want, g in zip(blocks, got):
        assert max_abs(g - want.T) < 1e-12


def test_qc_form_identity_choi_fails():
    ok, _ = qc_form_test(choi_from_channel(lambda rho: rho, 4), 4)
    assert not ok


def test_qc_form_mdc_recorded_and_stable():
    co = ad2_coefficients(PROBE)
    first, blocks_a = qc_form_test(mdc_choi(choi_2ad(co)), 4)
    second, blocks_b = qc_form_test(mdc_choi(choi_2ad(co)), 4)
    assert first is True
    assert second is True
    for a, b in zip(blocks_a, blocks_b):
        assert max_abs(a - b) == 0.0


def test_qc_form_rejects_bad_dims():
    with pytest.raises(ValueError):
        qc_form_test(np.eye(16, dtype=complex), 3)


def test_holevo_point_form_povm():
    form = holevo_point_form()
    acc = sum(form.effects)
    assert max_abs(acc - np.eye(4)) == 0.0


def test_holevo_point_form_constant_output():
    rng = np.random.default_rng(56)
    form = holevo_point_form()
    ground = np.zeros((4, 4), dtype=complex)
    ground[3, 3] = 1.0
    for _ in range(20):
        rho = random_density_matrix(4, rng)
        assert max_abs(holevo_apply(form, rho) - ground) < 1e-12


def test_holevo_form_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        HolevoForm(outputs=(eye / 2,), effects=(eye / 2,))  # not a POVM
    with pytest.raises(ValueError):
        HolevoForm(outputs=(eye,), effects=(eye,))  # output trace 2


def test_holevo_form_refuses_outputs_of_unequal_shapes():
    # holevo_apply sums the outputs, so they must share one shape
    effects = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match=r"^outputs must be an array of 3 dimensions"):
        HolevoForm(outputs=(np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 0.0])), effects=effects)
    form = HolevoForm(outputs=[np.diag([0.5, 0.5, 0.0])] * 2, effects=effects)  # a 2-level input, 3-level output
    assert form.outputs.shape == (2, 3, 3) and form.effects.shape == (2, 2, 2)
    assert max_abs(holevo_apply(form, np.diag([0.25, 0.75])) - np.diag([0.5, 0.5, 0.0])) < 1e-15


def test_holevo_kraus_matches_asymptotic_operators():
    form = holevo_point_form()
    ks = holevo_kraus(form)
    assert ks.negative == ()
    assert len(ks.positive) == 4
    # the induced operators are exactly |3><i|
    got = sorted(tuple(np.argwhere(np.abs(op) > 1e-12)[0]) for op in ks.positive)
    assert got == [(3, 0), (3, 1), (3, 2), (3, 3)]
    acc = sum(dagger(k) @ k for k in ks.positive)
    assert max_abs(acc - np.eye(4)) == 0.0


def test_holevo_kraus_action_matches_form():
    rng = np.random.default_rng(57)
    form = holevo_point_form()
    ks = holevo_kraus(form)
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        assert max_abs(apply_signed_kraus(rho, ks) - holevo_apply(form, rho)) < 1e-12


def test_concurrence_bell_state():
    assert abs(concurrence(bell_state()) - 1.0) < 1e-12


def test_concurrence_product_states():
    rng = np.random.default_rng(58)
    for _ in range(20):
        assert concurrence(random_pure_product(rng)) < 1e-10


def test_concurrence_separable_mixtures():
    rng = np.random.default_rng(59)
    for _ in range(10):
        weights = rng.random(4)
        weights /= weights.sum()
        rho = sum(w * random_pure_product(rng) for w in weights)
        assert concurrence(rho) < 1e-10


def test_concurrence_coherence_half_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = 0.25
    assert abs(concurrence(rho) - 0.5) < 1e-10


def test_concurrence_x_state_closed_form():
    # diag(a,b,c,d) with corner z has concurrence 2*max(0, |z|-sqrt(bc))
    rng = np.random.default_rng(60)
    for _ in range(50):
        a, b, c, d = rng.random(4) + 0.05
        s = a + b + c + d
        a, b, c, d = a / s, b / s, c / s, d / s
        z = math.sqrt(a * d) * rng.random() * np.exp(2j * np.pi * rng.random())
        rho = np.diag([a, b, c, d]).astype(complex)
        rho[0, 3] = z
        rho[3, 0] = np.conj(z)
        want = 2 * max(0.0, abs(z) - math.sqrt(b * c))
        assert abs(concurrence(rho) - want) < 1e-12


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(61)
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        base = concurrence(rho)
        u = kron(haar_unitary(rng), haar_unitary(rng))
        rotated = u @ rho @ dagger(u)
        assert abs(concurrence(rotated) - base) < 1e-10


def test_concurrence_range_and_validation():
    rng = np.random.default_rng(62)
    for _ in range(20):
        val = concurrence(random_density_matrix(4, rng))
        assert -1e-12 <= val <= 1 + 1e-12
    with pytest.raises(ValueError):
        concurrence(np.eye(2, dtype=complex) / 2)


def test_effective_state_concurrence_tracks_surviving_coherence():
    rng = np.random.default_rng(63)
    for _ in range(10):
        co = ad2_coefficients(random_params(rng))
        eff = pdc_effective_state(choi_2ad(co))
        assert abs(concurrence(eff) - abs(co.L)) < 1e-10


def test_entanglement_trace_shape_and_limits():
    trace = pdc_entanglement_trace(PROBE, t_max=2.0, steps=5)
    assert trace.shape == (5, 2)
    assert np.allclose(trace[:, 0], np.linspace(0.0, 2.0, 5))
    assert abs(trace[0, 1] - 1.0) < 1e-12
    # the surviving coherence decays as exp(-gamma t)
    for t, c in trace:
        assert abs(c - math.exp(-PROBE.gamma * t)) < 1e-10


def test_entanglement_trace_positive_and_decaying():
    trace = pdc_entanglement_trace(PROBE, t_max=50.0, steps=26)
    ts, vals = trace[:, 0], trace[:, 1]
    assert np.all(np.diff(vals) <= 0.0)
    # strict positivity and strict decay hold as far as doubles can resolve
    # the exp(-gamma t) coherence; beyond that the value settles at zero
    head = vals[ts <= 25.0]
    assert np.all(head > 0.0)
    assert np.all(np.diff(head) < 0.0)
    assert vals[-1] < 1e-8


@pytest.mark.parametrize("params, t_max, steps", [
    (PROBE, 50.0, 26),
    (Ad2Params(2.5, -2.4999, -3.0, 7.0, 0.0), 9.0, 40),  # gamma12 near -gamma
    (Ad2Params(1.0, 0.99999999, 0.0, 10.0, 0.0), 800.0, 33),
])
def test_entanglement_trace_is_the_per_time_loop_bitwise(params, t_max, steps):
    ts = np.linspace(0.0, t_max, steps)
    states = np.stack([pdc_effective_state(choi_2ad(ad2_coefficients(params.at(float(t))))) for t in ts])
    want = np.column_stack((ts, concurrence(states)))
    assert pdc_entanglement_trace(params, t_max=t_max, steps=steps).tobytes() == want.tobytes()


def test_entanglement_trace_rejects_bad_steps():
    with pytest.raises(ValueError):
        pdc_entanglement_trace(PROBE, t_max=1.0, steps=1)


@pytest.mark.parametrize("t_max", [math.inf, math.nan, -1.0, -math.inf])
def test_entanglement_trace_refuses_a_bad_t_max_before_any_warning(t_max):
    # inf made np.linspace warn "invalid value" first, and nan failed naming "times"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t_max must be nonnegative and finite"):
            pdc_entanglement_trace(PROBE, t_max=t_max, steps=5)


@pytest.mark.parametrize("steps", [math.inf, math.nan, "3", 2.5, True])
def test_entanglement_trace_takes_only_an_integer_steps(steps):
    # inf raised OverflowError, nan a ValueError naming no argument, "3" a
    # TypeError, and 2.5 ran with 2 steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^steps must be an integer of at least 2"):
            pdc_entanglement_trace(PROBE, t_max=1.0, steps=steps)


def kraus_route_effective_state(co):
    """Reference: push half of (|e e'> + |g g'>)/sqrt(2) through pdc_kraus
    operator by operator as K (x) 1, then read off {e, g} (x) {e, g}."""
    psi = np.zeros(16, dtype=complex)
    psi[0] = psi[15] = 1.0 / np.sqrt(2.0)
    rho_in = np.outer(psi, psi.conj())
    ks = pdc_kraus(co)
    out = np.zeros((16, 16), dtype=complex)
    for sign, ops in ((1.0, ks.positive), (-1.0, ks.negative)):
        for k in ops:
            big = kron(k, np.eye(4))
            out += sign * (big @ rho_in @ dagger(big))
    return out[np.ix_((0, 3, 12, 15), (0, 3, 12, 15))]


def test_effective_state_matches_kraus_route():
    rng = np.random.default_rng(64)
    params = [random_params(rng) for _ in range(20)]
    params += [PROBE.at(0.0), PROBE.at(28.0), PROBE.at(40.0)]  # |L| above and below the cutoff
    for p in params:
        co = ad2_coefficients(p)
        assert max_abs(pdc_effective_state(choi_2ad(co)) - kraus_route_effective_state(co)) <= 1e-15


def test_stacked_diagnostics_match_single_calls():
    rng = np.random.default_rng(65)
    cos = [ad2_coefficients(random_params(rng)) for _ in range(7)] + [ad2_coefficients(PROBE.at(0.0))]
    fulls = np.stack([choi_2ad(co) for co in cos])
    for sub in (mdc_choi, pdc_choi, pdc_effective_state):  # each row of a stack bitwise
        assert sub(fulls).tobytes() == np.stack([sub(b) for b in fulls]).tobytes()
    states = np.stack([pdc_effective_state(b) for b in fulls])
    chois = np.stack([pdc_choi(b) for b in fulls])
    conc = concurrence(states)
    ppt = is_ppt(chois, 4, 4)
    assert conc.shape == ppt.shape == (len(cos),)
    for state, choi, c, flag in zip(states, chois, conc, ppt):
        assert abs(c - concurrence(state)) <= 1e-14
        assert flag == is_ppt(choi, 4, 4)
    assert isinstance(concurrence(states[0]), float)
    assert isinstance(is_ppt(chois[0], 4, 4), bool)


# ---------------------------------------------------------------------------
# PPT flags without an eigensolve


def _sweep_grid_chois(rng):
    """Choi stack of one drawn ad2 sweep grid: gamma12 near +-gamma or
    anywhere between, omega12 sometimes 0, t out to deep decay."""
    gamma = float(rng.uniform(0.5, 2.0))
    gap = 10.0 ** float(rng.uniform(-8, -1))
    gamma12 = gamma * float(rng.choice([1.0 - gap, -(1.0 - gap), rng.uniform(-0.9, 0.9)]))
    omega12 = float(rng.choice([0.0, rng.uniform(-5.0, 5.0)]))
    base = Ad2Params(gamma=gamma, gamma12=gamma12, omega12=omega12, omega0=float(rng.uniform(0.0, 20.0)), t=0.0)
    return choi_2ad(ad2_coefficients(base, np.linspace(0.0, float(rng.uniform(2.0, 80.0)) / gamma, 60)))


def _no_rotation(*args):
    raise AssertionError("a PPT flag ran a Jacobi rotation")


def test_ppt_flags_take_no_rotation(monkeypatch):
    monkeypatch.setattr(linalg, "_rotate", _no_rotation)
    monkeypatch.setattr(linalg, "_rotate_pairs", _no_rotation)
    chois = np.concatenate([_sweep_grid_chois(np.random.default_rng(seed)) for seed in (70, 71)])
    for x in (chois, mdc_choi(chois), pdc_choi(chois)):
        flags = is_ppt(x, 4, 4)
        assert flags.shape == (len(x),) and is_ppt(x[0], 4, 4) == flags[0]


def test_ppt_flags_agree_with_the_eigenvalue_rule():
    # they may differ only where the smallest eigenvalue lies within 1e-12
    # of -tol, where the eigenvalues carry the solver's own error
    rng = np.random.default_rng(72)
    seen = set()
    for _ in range(24):
        chois = _sweep_grid_chois(rng)
        for x in (chois, mdc_choi(chois), pdc_choi(chois)):
            smallest = eigvals_hermitian(partial_transpose(x, 4, 4), tol=1e-12)[:, -1]
            for tol in (1e-10, 1e-6):
                clear = np.abs(smallest + tol) > 1e-12
                flags = is_ppt(x, 4, 4, tol=tol)
                assert np.array_equal(flags[clear], (smallest >= -tol)[clear])
                seen.update(flags.tolist())
    assert seen == {True, False}


def test_ppt_flags_at_a_subnormal_tolerance_warn_nothing():
    # a pivot of about tol overflowed the columns below it, with a numpy
    # warning; only a block that is not PSD meets one, so the flags stood
    ts = np.linspace(0.0, 3.0, 31)
    chois = choi_2ad(ad2_coefficients(PROBE, ts))
    for part, sub in ((None, lambda b: b), ("pdc", pdc_choi)):
        smallest = np.linalg.eigvalsh(partial_transpose(sub(chois), 4, 4))[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = is_ppt(chois, 4, 4, tol=5e-324, part=part)
        assert np.array_equal(flags, smallest >= -5e-324)


def _no_copy(*args, **kwargs):
    raise AssertionError("a PPT flag built a copy of the matrix")


def test_ppt_flags_read_the_choi_stack_without_a_copy(monkeypatch):
    chois = _sweep_grid_chois(np.random.default_rng(73))
    want = {part: is_ppt(sub(chois), 4, 4) for part, sub in (("mdc", mdc_choi), ("pdc", pdc_choi))}
    monkeypatch.setattr(analysis, "mdc_choi", _no_copy)
    monkeypatch.setattr(analysis, "pdc_choi", _no_copy)
    monkeypatch.setattr(linalg, "partial_transpose", _no_copy)
    for part, flags in want.items():
        assert np.array_equal(is_ppt(chois, 4, 4, part=part), flags)
    assert isinstance(is_ppt(chois[0], 4, 4, part="pdc"), bool)
    assert eb_report(chois[0]).ppt_of_choi == is_ppt(chois[0], 4, 4)


@pytest.mark.parametrize("m, dims, part", [
    (np.eye(4), (2, 2), "mdc"),  # the sub-channels are of 16 x 16 Choi matrices
    (np.eye(16), (4, 4), "full"),
])
def test_is_ppt_rejects_an_unknown_part(m, dims, part):
    with pytest.raises(ValueError, match="^part must be None, or 'mdc' or 'pdc' of a 16 x 16 Choi matrix"):
        is_ppt(m, *dims, part=part)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_is_ppt_rejects_non_finite_entries(bad):
    b = choi_2ad(ad2_coefficients(PROBE))
    b[0, 15] = bad
    with pytest.raises(ValueError, match="^h has non-finite entries$"):
        is_ppt(b, 4, 4)
    with pytest.raises(ValueError, match="^h has non-finite entries$"):
        is_ppt(np.stack([choi_2ad(ad2_coefficients(PROBE)), b]), 4, 4)


def test_sign_only_checks_keep_their_messages():
    with pytest.raises(ValueError, match="^effects must be positive semidefinite$"):
        HolevoForm(outputs=(np.diag([1.0, 0.0]),) * 2, effects=(np.diag([1.0, -0.5]), np.diag([0.0, 1.5])))
    b = np.zeros((16, 16), dtype=complex)
    b[np.arange(16), np.arange(16)] = 1.0
    assert qc_form_test(b, 4)[0] is True
    b[15, 15] = -1e-9  # one diagonal block no longer positive semidefinite
    assert qc_form_test(b, 4)[0] is False
    assert qc_form_test(b, 4, tol=1e-8)[0] is True
