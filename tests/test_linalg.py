"""Tests for the dense complex kernel: vectorization, eigensolves, partial ops."""

import concurrent.futures
import sys
import time

import numpy as np
import pytest

from sumdiff.analysis import mdc_choi, pdc_choi
from sumdiff.channels import Ad2Params, ad2_coefficients, gad_choi
from sumdiff.choi import choi_2ad
import sumdiff.linalg as linalg
from sumdiff.linalg import (
    JacobiConvergenceError,
    dagger,
    eig_hermitian,
    eig_rank2_pair,
    eigvals_hermitian,
    fold,
    is_hermitian,
    is_psd,
    kron,
    max_abs,
    partial_trace,
    partial_transpose,
    unfold,
)

I2 = np.eye(2, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + dagger(g)) / 2


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_kron_identity():
    assert max_abs(kron(I2, I2) - np.eye(4)) == 0.0


def test_kron_projector_expansion():
    assert max_abs(kron(np.diag([1.0, 0.0]), I2) - np.diag([1.0, 1.0, 0.0, 0.0])) == 0.0


def test_kron_sigma_z_pair():
    assert max_abs(kron(SZ, SZ) - np.diag([1.0, -1.0, -1.0, 1.0])) == 0.0


def test_unfold_identity():
    assert np.array_equal(unfold(I2), np.array([1, 0, 0, 1], dtype=complex))


def test_unfold_sigma_z():
    assert np.array_equal(unfold(SZ), np.array([1, 0, 0, -1], dtype=complex))


def test_unfold_component_convention():
    # component at composite index (j,k) is <k|a|j>
    rng = np.random.default_rng(11)
    a = random_matrix(rng, 3)
    v = unfold(a)
    for j in range(3):
        for k in range(3):
            assert v[3 * j + k] == a[k, j]


def test_fold_identity_vector():
    assert max_abs(fold(np.array([1, 0, 0, 1], dtype=complex)) - I2) == 0.0


def test_fold_unfold_round_trip():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        a = random_matrix(rng, n)
        assert max_abs(fold(unfold(a)) - a) == 0.0
        v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        assert max_abs(unfold(fold(v)) - v) == 0.0


def test_fold_rejects_non_square_length():
    with pytest.raises(ValueError):
        fold(np.zeros(3, dtype=complex))


def test_fold_pair_eigenvector_gives_two_level_phase_operator():
    # folding sqrt(|z|/2) * (e_0 + e^{i phi} e_5) in dim 16 lands on
    # diag(1, e^{i phi}, 0, 0) scaled by sqrt(|z|/2)
    phi = -5.6
    v = np.zeros(16, dtype=complex)
    v[0] = 1.0
    v[5] = np.exp(1j * phi)
    z = 0.315
    k = fold(np.sqrt(z / 2) * v)
    want = np.sqrt(z / 2) * np.diag([1.0, np.exp(1j * phi), 0.0, 0.0]).astype(complex)
    assert max_abs(k - want) < 1e-15


def test_rank_one_outer_product_identity():
    # |unfold(A)><unfold(A)| = sum_{jk} |j><k| (x) A|j><k|A^dag
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        a = random_matrix(rng, n)
        v = unfold(a)
        lhs = np.outer(v, v.conj())
        rhs = np.zeros((n * n, n * n), dtype=complex)
        for j in range(n):
            for k in range(n):
                unit = np.zeros((n, n), dtype=complex)
                unit[j, k] = 1.0
                rhs += kron(unit, a @ unit @ dagger(a))
        assert max_abs(lhs - rhs) < 1e-12


def test_eig_sigma_z():
    sys = eig_hermitian(SZ)
    assert np.allclose(sys.values, [1.0, -1.0], atol=1e-14)


def test_eig_diagonal_matrix_returns_diagonal():
    d = np.diag([0.3, 0.9, 0.1, 0.7]).astype(complex)
    sys = eig_hermitian(d)
    assert np.allclose(np.sort(sys.values), [0.1, 0.3, 0.7, 0.9], atol=1e-14)
    assert max_abs(sys.reconstruct() - d) < 1e-14


def test_eig_corner_block_closed_values():
    # [[a,0,0,b],[0,0,0,0],[0,0,0,0],[b,0,0,a]] has eigenvalues a +/- |b|
    s = np.sqrt(1 - 0.36)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = s / 2
    m[0, 3] = m[3, 0] = -s / 4
    sys = eig_hermitian(m)
    assert np.allclose(sys.values, [0.6, 0.2, 0.0, 0.0], atol=1e-14)


def test_eig_random_against_reference_solver():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 5, 8, 13, 16):
        h = random_hermitian(rng, n)
        sys = eig_hermitian(h)
        want = np.linalg.eigvalsh(h)[::-1]
        assert np.allclose(sys.values, want, atol=1e-10)
        assert max_abs(sys.reconstruct() - h) < 1e-10
        gram = dagger(sys.vectors) @ sys.vectors
        assert max_abs(gram - np.eye(n)) < 1e-10


def test_eig_eigenvalues_sorted_descending():
    rng = np.random.default_rng(15)
    for _ in range(10):
        sys = eig_hermitian(random_hermitian(rng, 6))
        assert np.all(np.diff(sys.values) <= 1e-14)


def test_eig_phase_convention():
    # largest-magnitude component of each eigenvector is real nonnegative
    rng = np.random.default_rng(16)
    sys = eig_hermitian(random_hermitian(rng, 7))
    for i in range(7):
        v = sys.vectors[:, i]
        lead = v[np.argmax(np.abs(v))]
        assert abs(lead.imag) < 1e-12
        assert lead.real >= 0.0


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        eig_hermitian(m)


def test_eig_degenerate_spectrum():
    rng = np.random.default_rng(17)
    # projector with a 3-fold degenerate eigenvalue
    q = np.linalg.qr(random_matrix(rng, 5))[0]
    h = q @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0]) @ dagger(q)
    h = (h + dagger(h)) / 2
    sys = eig_hermitian(h)
    assert np.allclose(sys.values, [2, 2, 2, -1, -1], atol=1e-12)
    assert max_abs(sys.reconstruct() - h) < 1e-11


def test_rank2_pair_real_coefficient():
    sys = eig_rank2_pair(1.0, 0, 1, 2)
    assert np.allclose(sys.values, [1.0, -1.0])
    inv = 1 / np.sqrt(2)
    p0 = np.outer(sys.vectors[:, 0], sys.vectors[:, 0].conj())
    want0 = np.full((2, 2), 0.5, dtype=complex)
    assert max_abs(p0 - want0) < 1e-15
    p1 = np.outer(sys.vectors[:, 1], sys.vectors[:, 1].conj())
    want1 = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    assert max_abs(p1 - want1) < 1e-15
    assert abs(np.linalg.norm(sys.vectors[:, 0]) - 1) < 1e-15
    assert abs(inv - abs(sys.vectors[0, 0])) < 1e-15


def test_rank2_pair_imaginary_coefficient():
    # z = i gives eigenvectors (|0> -/+ i|1>)/sqrt(2); compare projectors
    sys = eig_rank2_pair(1j, 0, 1, 2)
    assert np.allclose(sys.values, [1.0, -1.0])
    plus = np.array([1.0, -1j]) / np.sqrt(2)
    minus = np.array([1.0, 1j]) / np.sqrt(2)
    assert max_abs(np.outer(sys.vectors[:, 0], sys.vectors[:, 0].conj()) - np.outer(plus, plus.conj())) < 1e-15
    assert max_abs(np.outer(sys.vectors[:, 1], sys.vectors[:, 1].conj()) - np.outer(minus, minus.conj())) < 1e-15


def test_rank2_pair_matches_iterative_solver():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        r, c = rng.choice(n, size=2, replace=False)
        z = complex(rng.standard_normal(), rng.standard_normal())
        m = np.zeros((n, n), dtype=complex)
        m[r, c] = z
        m[c, r] = np.conj(z)
        pair = eig_rank2_pair(z, int(r), int(c), n)
        assert np.allclose(pair.values, [abs(z), -abs(z)], atol=1e-12)
        recon = (pair.vectors * pair.values) @ dagger(pair.vectors)
        assert max_abs(recon - m) < 1e-12
        full = eig_hermitian(m)
        nonzero = full.values[np.abs(full.values) > 1e-12]
        assert np.allclose(np.sort(nonzero), np.sort(pair.values), atol=1e-12)


def test_rank2_pair_rejects_equal_indices():
    with pytest.raises(ValueError):
        eig_rank2_pair(1.0, 2, 2, 4)


def test_rank2_pair_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        eig_rank2_pair(0.0, 0, 1, 4)


def test_partial_transpose_diagonal_fixed_point():
    d = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert max_abs(partial_transpose(d, 2, 2) - d) == 0.0


def test_partial_transpose_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    pt = partial_transpose(bell, 2, 2)
    vals = np.linalg.eigvalsh(pt)
    assert abs(vals[0] + 0.5) < 1e-14


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(19)
    m = random_matrix(rng, 6)
    assert max_abs(partial_transpose(partial_transpose(m, 2, 3), 2, 3) - m) == 0.0


def test_partial_transpose_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6, dtype=complex), 2, 2)


def test_partial_trace_product_state():
    rng = np.random.default_rng(20)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    m = kron(a, b)
    assert max_abs(partial_trace(m, 2, 3, keep="first") - a * np.trace(b)) < 1e-13
    assert max_abs(partial_trace(m, 2, 3, keep="second") - b * np.trace(a)) < 1e-13


def test_partial_trace_bell_reductions():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert max_abs(partial_trace(bell, 2, 2, keep="second") - I2 / 2) < 1e-15
    assert max_abs(partial_trace(bell, 2, 2, keep="first") - I2 / 2) < 1e-15


def test_partial_trace_composes_to_full_trace():
    rng = np.random.default_rng(21)
    m = random_matrix(rng, 6)
    t1 = np.trace(partial_trace(m, 2, 3, keep="first"))
    t2 = np.trace(partial_trace(m, 2, 3, keep="second"))
    assert abs(t1 - np.trace(m)) < 1e-13
    assert abs(t2 - np.trace(m)) < 1e-13


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5, dtype=complex), 2, 2)


def test_is_hermitian():
    assert is_hermitian(SZ)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_dagger():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert max_abs(dagger(m) - m.conj().T) == 0.0


def test_jacobi_error_is_exported():
    assert issubclass(JacobiConvergenceError, Exception)


# ---------------------------------------------------------------------------
# stacked solves


def _ad2_choi_stack():
    # a t = 0 row, rows at omega12 = 0, and deep-t rows whose decaying
    # coefficients fall below the extraction cutoff
    rows = [(1.0, 0.3, 2.0, 10.0, 0.0), (1.0, 0.3, 0.0, 10.0, 0.7), (0.8, -0.5, 0.0, 3.0, 4.0),
            (1.3, 0.9, 1.5, 7.0, 2.0), (1.0, 0.3, 2.0, 10.0, 30.0), (2.0, -1.2, -3.0, 1.0, 18.0)]
    return np.stack([choi_2ad(ad2_coefficients(Ad2Params(*row))) for row in rows])


def test_eig_stack_matches_single_solves():
    stack = _ad2_choi_stack()
    got = eig_hermitian(stack, tol=1e-12)
    assert got.values.shape == (len(stack), 16)
    assert got.vectors.shape == (len(stack), 16, 16)
    for h, values, vectors in zip(stack, got.values, got.vectors):
        alone = eig_hermitian(h, tol=1e-12)
        bound = 1e-14 * max(1.0, max_abs(h))
        assert max_abs(values - alone.values) <= bound
        assert max_abs(vectors - alone.vectors) <= bound


def test_eig_single_matrix_keeps_its_shapes():
    sys = eig_hermitian(_ad2_choi_stack()[1], tol=1e-12)
    assert sys.values.shape == (16,)
    assert sys.vectors.shape == (16, 16)
    empty = eig_hermitian(np.zeros((0, 0)))
    assert empty.values.shape == (0,) and empty.vectors.shape == (0, 0)


def test_eig_stack_values_match_reference_solver():
    cos = [ad2_coefficients(Ad2Params(1.0, 0.3, 2.0, 10.0, t)) for t in np.linspace(0.0, 30.0, 13)]
    rng = np.random.default_rng(22)
    stacks = [
        np.stack([partial_transpose(mdc_choi(choi_2ad(co)), 4, 4) for co in cos]),
        np.stack([partial_transpose(pdc_choi(choi_2ad(co)), 4, 4) for co in cos]),
        _ad2_choi_stack(),
        np.stack([random_hermitian(rng, 16) for _ in range(5)]),
    ]
    for stack in stacks:
        sys = eig_hermitian(stack, tol=1e-12)
        want = np.linalg.eigvalsh(stack)[:, ::-1]
        assert max_abs(sys.values - want) < 1e-12
        assert max_abs(sys.reconstruct() - stack) < 1e-11


def test_eig_stack_rejects_one_non_hermitian_matrix():
    stack = _ad2_choi_stack()
    stack[2, 0, 5] += 1e-6
    with pytest.raises(ValueError):
        eig_hermitian(stack)


def test_eig_stack_results_do_not_depend_on_stack_mates():
    # a matrix that converges early takes identity rotations while its
    # stack mates keep going.  Mates that leave the components of the
    # combined nonzero pattern as they are leave the rotation order as it
    # is, so the result is bitwise the one the matrix gets alone; a mate
    # that joins two components reorders the rounds, and the result then
    # agrees with the solo one to rounding.
    rng = np.random.default_rng(23)
    easy = np.diag([3.0, 1.0, 2.0, 0.5, -1.5]).astype(complex)  # components {0..3}, {4}
    easy[:4, :4] += 1e-3 * (np.ones((4, 4)) - np.eye(4))
    hard = np.zeros((5, 5), dtype=complex)
    hard[:4, :4] = random_hermitian(rng, 4)
    hard[4, 4] = 1.0
    alone = eig_hermitian(easy)
    together = eig_hermitian(np.stack([easy, hard]))
    assert np.array_equal(together.values[0], alone.values)
    assert np.array_equal(together.vectors[0], alone.vectors)

    hard[3, 4] = hard[4, 3] = 0.7  # joins the two components
    joined = eig_hermitian(np.stack([easy, hard]))
    bound = 1e-14 * max(1.0, max_abs(easy))
    assert max_abs(joined.values[0] - alone.values) <= bound
    assert max_abs(joined.vectors[0] - alone.vectors) <= bound


def test_eig_stack_sweep_limit_raises():
    # one diagonal matrix converges at once; its stack mate needs sweeps
    rng = np.random.default_rng(25)
    stack = np.stack([np.diag([1.0, 2.0, 3.0]).astype(complex), random_hermitian(rng, 3)])
    with pytest.raises(JacobiConvergenceError):
        eig_hermitian(stack, max_sweeps=1)
    assert eig_hermitian(stack[:1], max_sweeps=0).values.shape == (1, 3)


def test_eig_rejects_bad_shapes():
    with pytest.raises(ValueError):
        eig_hermitian(np.zeros((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        eig_hermitian(np.zeros((2, 2, 2, 2), dtype=complex))


def test_partial_transpose_of_stack_is_per_matrix():
    rng = np.random.default_rng(24)
    stack = np.stack([random_matrix(rng, 6) for _ in range(3)])
    got = partial_transpose(stack, 2, 3)
    for m, pt in zip(stack, got):
        assert max_abs(pt - partial_transpose(m, 2, 3)) == 0.0


# ---------------------------------------------------------------------------
# components solved on their own


def test_eig_pair_with_equal_diagonal_is_the_closed_form():
    # one rotation by pi/4, with cos = sin = 1/sqrt(2) exactly (cos(pi/4)
    # rounds one bit higher), gives the eigensystem of eig_rank2_pair
    for z in (1.0, -2.5, 0.3 + 0.4j, 1j):
        m = np.zeros((5, 5), dtype=complex)
        m[1, 3], m[3, 1] = z, np.conj(z)
        sys = eig_hermitian(m, max_sweeps=1)
        pair = eig_rank2_pair(z, 1, 3, 5)
        assert max_abs(sys.values[[0, -1]] - pair.values) <= 1e-15
        assert max_abs(np.abs(sys.vectors[[1, 3]][:, [0, -1]]) - 1 / np.sqrt(2)) == 0.0
        recon = (sys.vectors * sys.values) @ dagger(sys.vectors)
        assert max_abs(recon - m) <= 1e-15


def test_eig_pairs_and_singles_take_one_sweep():
    # components of sizes 1 and 2 only: each pair is exact after one
    # closed-form rotation, so one sweep is enough for any stack
    rng = np.random.default_rng(26)
    stack = np.zeros((9, 6, 6), dtype=complex)
    for h in stack:
        for r, c in ((0, 4), (1, 2)):
            h[r, r], h[c, c] = rng.standard_normal(2)
            h[r, c] = complex(*rng.standard_normal(2))
            h[c, r] = np.conj(h[r, c])
        h[3, 3], h[5, 5] = rng.standard_normal(2)
    sys = eig_hermitian(stack, max_sweeps=1)
    assert max_abs(sys.values - np.linalg.eigvalsh(stack)[:, ::-1]) <= 1e-14 * max(1.0, max_abs(stack))
    with pytest.raises(JacobiConvergenceError):
        eig_hermitian(stack, max_sweeps=0)


def test_eig_diagonal_stack_needs_no_sweep():
    # the MDC partial transpose is diagonal: every component is 1 x 1
    cos = ad2_coefficients(Ad2Params(1.0, 0.3, 2.0, 10.0, 0.0), np.linspace(0.0, 30.0, 13))
    stack = partial_transpose(mdc_choi(choi_2ad(cos)), 4, 4)
    sys = eig_hermitian(stack, max_sweeps=0)
    assert np.array_equal(np.sort(sys.values, axis=1), np.sort(np.diagonal(stack, axis1=1, axis2=2).real, axis=1))
    assert np.array_equal(np.abs(sys.vectors).sum(axis=1), np.ones((13, 16)))


def test_eig_subnormal_pivot_is_left_in_place():
    # |b| below the smallest normal number: b / |b| would overflow
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    m[0, 1], m[1, 0] = 1e-310 + 1e-310j, 1e-310 - 1e-310j
    m[1, 2] = m[2, 1] = 0.5
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # squares may underflow
        sys = eig_hermitian(m)
    assert np.all(np.isfinite(sys.vectors))
    assert max_abs(sys.values - np.linalg.eigvalsh(m)[::-1]) <= 1e-15


# ---------------------------------------------------------------------------
# non-finite input and the positivity test without eigenvalues


def _inf_pivot():
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    m[0, 1] = m[1, 0] = np.inf
    return m


NON_FINITE = {
    "nan_diagonal": lambda: np.diag([np.nan, 1.0]).astype(complex),
    "nan_block": lambda: np.full((4, 4), np.nan, dtype=complex),
    "inf_pivot": _inf_pivot,
}


def _no_rotation(*args):
    raise AssertionError("no rotation may run")


@pytest.mark.parametrize("case", sorted(NON_FINITE))
@pytest.mark.parametrize("check", [eig_hermitian, eigvals_hermitian, lambda h: is_psd(h, 1e-10)],
                         ids=["eig_hermitian", "eigvals_hermitian", "is_psd"])
def test_non_finite_matrix_is_rejected_before_any_work(case, check, monkeypatch):
    # NaN passed the Hermitian check: a NaN diagonal came back as an
    # eigenvalue, a NaN block ran every sweep, an inf pivot failed the
    # reconstruction amid RuntimeWarnings
    monkeypatch.setattr(linalg, "_rotate", _no_rotation)
    monkeypatch.setattr(linalg, "_rotate_pairs", _no_rotation)
    h = NON_FINITE[case]()
    with np.errstate(all="raise"):
        for matrix in (h, np.stack([np.eye(len(h)), h])):
            with pytest.raises(ValueError, match="^h has non-finite entries$"):
                check(matrix)


def test_is_psd_compares_a_diagonal_entry_with_minus_tol():
    tol = 1e-10
    assert is_psd(np.diag([1.0, -tol]), tol) is True
    assert is_psd(np.diag([1.0, np.nextafter(-tol, -1.0)]), tol) is False
    flags = is_psd(np.stack([np.diag([0.5, 0.0]), np.diag([0.5, -2 * tol]), np.eye(2)]), tol)
    assert flags.dtype == bool and flags.tolist() == [True, False, True]
    assert is_psd(np.zeros((0, 3, 3)), tol).shape == (0,)


def test_is_psd_decides_blocks_at_the_shifted_boundary():
    # a 3 x 3 block with smallest eigenvalue -tol +- 1e-11 beside a 2 x 2 one
    rng = np.random.default_rng(30)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    tol = 1e-6
    stack = np.zeros((2, 5, 5), dtype=complex)
    for h, delta in zip(stack, (1e-11, -1e-11)):
        block = (u * [-tol + delta, 0.4, 2.0]) @ dagger(u)
        h[np.ix_([0, 2, 4], [0, 2, 4])] = (block + dagger(block)) / 2
        h[np.ix_([1, 3], [1, 3])] = [[1.0, 0.5j], [-0.5j, 1.0]]
    assert is_psd(stack, tol).tolist() == [True, False]
    assert is_psd(stack[0], tol) is True and is_psd(stack[1], tol) is False


def test_is_psd_decides_a_pair_block_at_the_shifted_boundary():
    # a 2 x 2 block, eliminated in one step, with smallest eigenvalue
    # -tol +- 1e-11 beside a 1 x 1 one
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    tol = 1e-6
    stack = np.zeros((2, 3, 3), dtype=complex)
    for h, delta in zip(stack, (1e-11, -1e-11)):
        block = (u * [-tol + delta, 0.4]) @ dagger(u)
        h[np.ix_([0, 2], [0, 2])] = (block + dagger(block)) / 2
        h[1, 1] = 0.7
    assert np.all(stack[:, 0, 2] != 0)
    assert is_psd(stack, tol).tolist() == [True, False]
    assert is_psd(stack[0], tol) is True and is_psd(stack[1], tol) is False


def _blocks_of_one_two_and_four(rng):
    """An 8 x 8 Hermitian matrix with 1 x 1 blocks {0} and {7}, a 2 x 2
    block {1, 6} and a 4 x 4 block {2, 3, 4, 5}."""
    h = np.zeros((8, 8), dtype=complex)
    h[0, 0], h[7, 7] = 0.3, -0.2
    for members in ([1, 6], [2, 3, 4, 5]):
        h[np.ix_(members, members)] = random_hermitian(rng, len(members))
    return h


# an entry (row, column) of h and the change that breaks Hermiticity there alone
_NOT_HERMITIAN = {"pair off-diagonal": (1, 6, 1e-9), "four off-diagonal": (3, 5, 1e-9j),
                  "four diagonal": (4, 4, 1e-9j)}


@pytest.mark.parametrize("where", sorted(_NOT_HERMITIAN))
@pytest.mark.parametrize("check", [eig_hermitian, eigvals_hermitian, lambda h: is_psd(h, 1e-10)],
                         ids=["eig_hermitian", "eigvals_hermitian", "is_psd"])
def test_a_block_that_alone_is_not_hermitian_is_rejected(where, check):
    rng = np.random.default_rng(32)
    h = _blocks_of_one_two_and_four(rng)
    row, col, change = _NOT_HERMITIAN[where]
    bad = h.copy()
    bad[row, col] += change
    mates = [np.diag(np.arange(1.0, 9.0)).astype(complex), h, _blocks_of_one_two_and_four(rng)]
    check(np.stack(mates))  # the mates alone pass
    for matrix in (bad, np.stack([mates[0], bad, mates[1]]), np.stack([bad, *mates])):
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tol$"):
            check(matrix)


@pytest.mark.parametrize("where", sorted(_NOT_HERMITIAN))
def test_is_psd_rejects_a_mapped_block_that_alone_is_not_hermitian(where):
    # the bad entry of X comes from the map's values, the rest from h
    h = _blocks_of_one_two_and_four(np.random.default_rng(33))
    row, col, change = _NOT_HERMITIAN[where]
    positions = np.arange(64).reshape(8, 8)
    values = np.zeros((8, 8), dtype=complex)
    assert is_psd(h, 1e-10, at=(positions, values)) == is_psd(h, 1e-10)
    positions[row, col], values[row, col] = -1, h[row, col] + change
    for matrix in (h, np.stack([np.eye(8), h])):
        with pytest.raises(ValueError, match="^matrix is not Hermitian within tol$"):
            is_psd(matrix, 1e-10, at=(positions, values))
    values[row, col] = h[row, col]
    assert is_psd(h, 1e-10, at=(positions, values)) == is_psd(h, 1e-10)


@pytest.mark.parametrize("beside_a_pair", [False, True])
def test_a_single_entry_is_off_its_hermitian_part_by_twice_its_imaginary_part(beside_a_pair):
    # a diagonal entry x + iy misses x by 2|y| against its own conjugate;
    # a stack of 1 x 1 blocks alone takes that directly, with no mirror copy
    def matrix(y):
        h = np.diag([2.0, 1.0 + y * 1j, 0.5, 0.25])
        if beside_a_pair:
            h[2, 3] = h[3, 2] = 0.1
        return h

    positions = np.arange(16).reshape(4, 4)
    values = np.zeros((4, 4), dtype=complex)
    for tol, check in ((1e-13, eigvals_hermitian), (1e-12, lambda h: is_psd(h, 0.0)),
                       (1e-12, lambda h: is_psd(h, 0.0, at=(positions, values)))):
        for h in (matrix(0.4 * tol), np.stack([np.eye(4), matrix(0.4 * tol)])):
            check(h)
        for h in (matrix(0.6 * tol), np.stack([np.eye(4), matrix(0.6 * tol)])):
            with pytest.raises(ValueError, match="^matrix is not Hermitian within tol$"):
                check(h)


def test_a_huge_real_single_entry_is_its_own_eigenvalue():
    # (x + conj x) / 2 overflows at x = 1.7e308, so a 1 x 1 block's
    # Hermitian part is its real part, beside a 2 x 2 block that is halved
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0], h[3, 3] = 1.7e308, -1.0
    h[1:3, 1:3] = [[1.0, 0.5j], [-0.5j, 1.0]]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values = eigvals_hermitian(h)
        system = eig_hermitian(h)
        flags = is_psd(np.stack([h, np.diag([1.7e308, 1.0, 2.0, 0.0])]), 1e-10)
    assert values[0] == system.values[0] == 1.7e308
    assert values[-1] == system.values[-1] == -1.0
    assert max_abs(values[1:3] - [1.5, 0.5]) <= 1e-15
    assert np.array_equal(system.vectors[:, 0], [1, 0, 0, 0])
    assert flags.tolist() == [False, True]


def test_is_psd_keeps_the_hermitian_check():
    h = np.diag([1.0, 2.0]).astype(complex)
    h[0, 1] = 2e-12
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(h, 1e-10)
    h[0, 1] = 1e-12
    assert is_psd(h, 1e-10) is True
    h = np.diag([1.0, 2.0 + 1e-11j])
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(h, 1e-10)
    with pytest.raises(ValueError):
        is_psd(np.zeros((2, 3)), 1e-10)


# ---------------------------------------------------------------------------
# the solve cache that eig_hermitian and eigvals_hermitian share


def _counted_solves(monkeypatch) -> list:
    """A list that records the ``with_vectors`` of every ``_jacobi`` run."""
    runs, solve = [], linalg._jacobi
    monkeypatch.setattr(linalg, "_jacobi", lambda h, tol, sweeps, with_vectors: (
        runs.append(with_vectors), solve(h, tol, sweeps, with_vectors))[1])
    return runs


def _kept_sizes_add_up() -> bool:
    """The cache's running size is the sum of its entries' sizes, within the cap."""
    sizes = [size for size, _ in linalg._solves.values()]
    return linalg._solves_size == sum(sizes) <= linalg._SOLVE_CACHE_BYTES


CACHE_CASES = {
    "ad2": lambda: _ad2_choi_stack()[3],
    "gad": lambda: gad_choi(0.3, 0.6),
    "dense5": lambda: random_hermitian(np.random.default_rng(22), 5),
}


@pytest.mark.parametrize("eig_first", [True, False], ids=["eig-first", "eigvals-first"])
@pytest.mark.parametrize("case", CACHE_CASES)
def test_a_kept_solve_is_bitwise_a_fresh_solve(cold_solves, case, eig_first):
    h = CACHE_CASES[case]()
    values, vectors = linalg._jacobi(h, 1e-13, 100, True)
    assert linalg._jacobi(h, 1e-13, 100, False)[0].tobytes() == values.tobytes()
    calls = ["eig", "eigvals"] if eig_first else ["eigvals", "eig"]
    for call in calls * 2:  # the first round fills the cache, the second reads it
        if call == "eig":
            system = eig_hermitian(h)
            assert (system.values.tobytes(), system.vectors.tobytes()) == (values.tobytes(), vectors.tobytes())
        else:
            assert eigvals_hermitian(h).tobytes() == values.tobytes()


def test_a_repeat_takes_no_solve_and_vectors_after_values_take_one(cold_solves, monkeypatch):
    h = _ad2_choi_stack()[3]
    runs = _counted_solves(monkeypatch)
    eigvals_hermitian(h)
    eigvals_hermitian(h.copy())  # the key is the bytes, not the object
    assert runs == [False]
    eig_hermitian(h)  # kept without vectors: solved again, and replaced
    eig_hermitian(h)
    eigvals_hermitian(h)
    assert runs == [False, True]
    assert len(linalg._solves) == 1 and _kept_sizes_add_up()


def test_a_kept_solve_answers_for_no_other_key(cold_solves, monkeypatch):
    # each call below must solve, or fail as a fresh solve does
    h = _ad2_choi_stack()[3]
    runs = _counted_solves(monkeypatch)
    eig_hermitian(h)
    for solve in (eigvals_hermitian, eig_hermitian):
        for options in ({"tol": 1e-12}, {"max_sweeps": 50}):
            runs.clear()
            solve(h, **options)
            assert runs == [solve is eig_hermitian]
    with pytest.raises(ValueError, match="square"):  # the same bytes under another shape
        eigvals_hermitian(h.reshape(8, 32))
    runs.clear()
    for _ in range(2):  # a stack neither reads nor writes the cache
        eig_hermitian(h[None])
        eigvals_hermitian(np.stack([h, h]))
    assert runs == [True, False] * 2
    assert len(linalg._solves) == 3  # h at the defaults, at tol 1e-12 and at max_sweeps 50
    changed = h.copy()
    eig_hermitian(changed)
    changed[0, 0] += 0.5  # in place, after its solve
    runs.clear()
    assert max_abs(eigvals_hermitian(changed) - np.linalg.eigvalsh(changed)[::-1]) <= 1e-14
    assert runs == [False]


def test_plus_and_minus_zero_times_are_solved_apart(cold_solves, monkeypatch):
    # equal in value, not in bytes: each is its own key
    params = Ad2Params(1.0, 0.3, 2.0, 10.0, 0.0)
    plus, minus = (choi_2ad(ad2_coefficients(params.at(t))) for t in (0.0, -0.0))
    assert np.array_equal(plus, minus) and plus.tobytes() != minus.tobytes()
    fresh = [tuple(a.tobytes() for a in linalg._jacobi(b, 1e-13, 100, True)) for b in (plus, minus)]
    runs = _counted_solves(monkeypatch)
    for b, want in zip((plus, minus) * 2, fresh * 2):
        system = eig_hermitian(b)
        assert (system.values.tobytes(), system.vectors.tobytes()) == want
    assert runs == [True, True]


def test_a_failed_solve_is_never_kept(cold_solves, monkeypatch):
    tilted = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    dense = random_hermitian(np.random.default_rng(3), 5)
    runs = _counted_solves(monkeypatch)
    for _ in range(2):
        for solve in (eig_hermitian, eigvals_hermitian):
            with pytest.raises(ValueError, match="not Hermitian"):
                solve(tilted)
            with pytest.raises(JacobiConvergenceError):
                solve(dense, max_sweeps=0)
    assert runs == [True, True, False, False] * 2
    assert linalg._solves == {}


def test_a_solve_over_the_byte_cap_is_never_kept(cold_solves, monkeypatch):
    small, big = _ad2_choi_stack()[3], np.diag(np.arange(300.0))  # big's key alone is 1.44 MB
    eig_hermitian(small)
    runs = _counted_solves(monkeypatch)
    for _ in range(2):
        eig_hermitian(big)
        eigvals_hermitian(big)
    eigvals_hermitian(small)  # kept still: the big solve evicted nothing
    assert runs == [True, False, True, False]
    assert len(linalg._solves) == 1 and _kept_sizes_add_up()


def test_the_least_recently_used_solve_goes_first(cold_solves, monkeypatch):
    # 16 x 16 diagonal matrices, each entry 4,096 + 128 + 4,096 bytes with
    # vectors: 126 fit under the cap
    first, *rest = (np.diag(np.arange(16.0) + k) for k in range(200))
    eig_hermitian(first)
    for h in rest:
        eig_hermitian(h)
        eigvals_hermitian(first)  # first stays the most recent
        assert _kept_sizes_add_up()
    assert len(linalg._solves) == 126
    runs = _counted_solves(monkeypatch)
    eig_hermitian(first)
    eig_hermitian(rest[-125])
    eig_hermitian(rest[-126])  # the oldest left: 200 - 126 solves ago
    assert runs == [True]


def test_writing_into_a_returned_solve_leaves_the_kept_one(cold_solves):
    h = _ad2_choi_stack()[3]
    values, vectors = linalg._jacobi(h, 1e-13, 100, True)
    for _ in range(2):  # a fresh solve's arrays, then a hit's
        system, only = eig_hermitian(h), eigvals_hermitian(h)
        system.values[:], system.vectors[:], only[:] = 7.0, 7.0, 5.0
    system = eig_hermitian(h)
    assert (system.values.tobytes(), system.vectors.tobytes()) == (values.tobytes(), vectors.tobytes())
    assert eigvals_hermitian(h).tobytes() == values.tobytes()
    assert all(not a.flags.writeable for _, kept in linalg._solves.values() for a in kept)


class _YieldingDict(dict):
    """A dict that lets another thread run inside each get and pop, where
    only the cache's lock keeps the running size in step."""

    def get(self, *args):
        time.sleep(0)
        return super().get(*args)

    def pop(self, *args):
        time.sleep(0)
        return super().pop(*args)


def test_threads_sharing_the_cache_get_the_serial_bytes(cold_solves, monkeypatch):
    # four threads on two cores, switching often, over a cap that holds about
    # three of the eight solves, so that inserts and evictions interleave
    rng = np.random.default_rng(8)
    matrices = [random_hermitian(rng, 6) for _ in range(4)] + list(_ad2_choi_stack()[:4])
    serial = [(s.values.tobytes(), s.vectors.tobytes()) for s in map(eig_hermitian, matrices)]
    monkeypatch.setattr(linalg, "_solves", _YieldingDict())
    monkeypatch.setattr(linalg, "_solves_size", 0)
    monkeypatch.setattr(linalg, "_SOLVE_CACHE_BYTES", 20_000)

    def solve_all(start: int) -> list:
        got = []
        for k in range(6 * len(matrices)):
            i = (start + k) % len(matrices)
            if k % 3:
                system = eig_hermitian(matrices[i])
                got.append(((system.values.tobytes(), system.vectors.tobytes()), serial[i]))
            else:
                got.append((eigvals_hermitian(matrices[i]).tobytes(), serial[i][0]))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve_all, (0, 2, 4, 6), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(got == want for result in results for got, want in result)
    assert _kept_sizes_add_up()


# ---------------------------------------------------------------------------
# a solver tolerance outside its range is refused before any work


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-13])
@pytest.mark.parametrize("solve", [eig_hermitian, eigvals_hermitian])
def test_a_solve_refuses_a_tol_outside_zero_to_infinity(monkeypatch, solve, tol):
    # with a NaN tol the solver ran every sweep and then blamed convergence
    runs = _counted_solves(monkeypatch)
    with pytest.raises(ValueError, match="^tol must be a positive number and finite"):
        solve(np.eye(3), tol=tol)
    assert runs == [] and all(0 < key[2] < np.inf for key in linalg._solves)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10])
def test_is_psd_refuses_a_tol_outside_zero_to_infinity(tol):
    # a NaN tol failed -I and an infinite one passed it; the tol is checked
    # before the matrix is
    for h in (-np.eye(2), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="^tol must be a nonnegative number and finite"):
            is_psd(h, tol)
