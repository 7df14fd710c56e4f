"""Tests for Choi construction, Hermitian partitioning, and extraction."""

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
    completeness_residuals,
    gad_choi,
    gad_kraus,
    gad_split_choi,
    random_density_matrix,
    reconstruct_choi_stack,
)
from sumdiff.choi import (
    AD2_DIAG_EXPORT_ORDER,
    AD2_DIAG_LABELS,
    AD2_PAIR_LABELS,
    HermitianPartition,
    PARTITION_REL_THRESHOLD,
    ad2_diag_pairs_operators,
    ad2_partition,
    ad2_signed_kraus,
    charpoly_checks,
    choi_2ad,
    choi_from_channel,
    extract_signed_kraus,
    partition_diag_pairs,
    partition_from_elements,
    partition_from_masks,
    partition_full,
    reconstruct_choi,
    standard_kraus_from_choi,
    trace_preservation_residual,
)
import sumdiff.choi as choi_module
from sumdiff.linalg import dagger, eig_hermitian, eig_rank2_pair, eigvals_hermitian, fold, max_abs, unfold


def random_params(rng):
    gamma = float(rng.uniform(0.5, 2.0))
    return Ad2Params(
        gamma=gamma,
        gamma12=float(gamma * rng.uniform(-0.9, 0.9)),
        omega12=float(rng.uniform(-5.0, 5.0)),
        omega0=float(rng.uniform(0.0, 20.0)),
        t=float(rng.uniform(0.0, 5.0 / gamma)),
    )


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + dagger(g)) / 2


PROBE = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.7)


def test_identity_channel_choi():
    b = choi_from_channel(lambda rho: rho, 2)
    want = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            want[i, j] = 1.0
    assert max_abs(b - want) == 0.0


def test_choi_from_channel_rejects_nonlinear_action():
    with pytest.raises(ValueError):
        choi_from_channel(lambda rho: rho @ rho, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_choi_from_channel_refuses_a_non_finite_action(bad):
    # the linearity check compared with >, which NaN passes, and the Choi
    # matrix came back all NaN
    with pytest.raises(ValueError, match="^action returned a non-finite value"):
        choi_from_channel(lambda rho: rho * bad, 2)


def test_choi_of_gad_action_matches_closed_form():
    p, lam = 0.5, 0.36
    ks = gad_kraus(p, lam)
    b = choi_from_channel(lambda rho: apply_signed_kraus(rho, ks), 2)
    assert max_abs(b - gad_choi(p, lam)) < 1e-14


def test_choi_2ad_identity_at_time_zero():
    co = ad2_coefficients(PROBE.at(0.0))
    b = choi_2ad(co)
    assert max_abs(b - choi_from_channel(lambda rho: rho, 4)) < 1e-15


def test_choi_2ad_entry_placement():
    co = ad2_coefficients(PROBE)
    b = choi_2ad(co)
    assert b[0, 5] == co.J
    assert b[1, 7] == co.U + 1j * co.V
    assert b[7, 1] == np.conj(co.U + 1j * co.V)
    assert b[11, 2] == np.conj(1j * co.S - co.R)
    assert b[2, 11] == 1j * co.S - co.R
    assert b[0, 10] == co.M
    assert b[0, 15] == co.L
    assert b[5, 10] == co.P
    assert b[5, 15] == co.T
    assert b[10, 15] == co.Q
    diag = np.diag(b)
    assert diag[0] == co.A and diag[1] == co.C and diag[2] == co.E and diag[3] == co.H
    assert diag[5] == co.B and diag[7] == co.F and diag[10] == co.D and diag[11] == co.G
    assert diag[15] == 1.0


def test_choi_2ad_trace_is_dim():
    rng = np.random.default_rng(30)
    for _ in range(20):
        co = ad2_coefficients(random_params(rng))
        b = choi_2ad(co)
        assert abs(np.trace(b) - 4.0) < 1e-12
        assert trace_preservation_residual(b) < 1e-12


def test_choi_2ad_matches_channel_construction():
    rng = np.random.default_rng(31)
    for _ in range(25):
        co = ad2_coefficients(random_params(rng))
        built = choi_from_channel(lambda rho: ad2_apply(rho, co), 4)
        assert max_abs(built - choi_2ad(co)) < 1e-12


def test_partition_diagonal_input_single_element():
    part = partition_diag_pairs(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
    assert len(part.elements) == 1
    assert part.labels == ("diag",)


def test_partition_diag_pairs_covers_2ad_layout():
    co = ad2_coefficients(PROBE)
    b = choi_2ad(co)
    part = partition_diag_pairs(b)
    assert len(part.elements) == 9
    assert part.labels[0] == "diag"
    assert set(part.labels[1:]) == {"(0,5)", "(0,10)", "(0,15)", "(1,7)",
                                    "(2,11)", "(5,10)", "(5,15)", "(10,15)"}
    assert max_abs(part.sum_matrix() - b) == 0.0
    for el in part.elements:
        assert max_abs(el - dagger(el)) == 0.0


def test_partition_gad_choi_is_diag_plus_one_pair():
    part = partition_diag_pairs(gad_choi(0.5, 0.36))
    assert len(part.elements) == 2
    assert max_abs(part.sum_matrix() - gad_choi(0.5, 0.36)) == 0.0


def test_partition_threshold_drops_dust():
    b = np.diag([1.0, 1.0]).astype(complex)
    b[0, 1] = 1e-16
    b[1, 0] = 1e-16
    part = partition_diag_pairs(b)
    assert len(part.elements) == 1


def test_partition_validates_hermiticity():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        HermitianPartition(elements=(bad,), labels=("x",))
    # next to Hermitian elements, and as the stack partition_diag_pairs builds
    with pytest.raises(ValueError, match="must be Hermitian"):
        HermitianPartition(elements=(np.eye(2), bad, np.eye(2)), labels=())
    with pytest.raises(ValueError, match="must be Hermitian"):
        HermitianPartition(np.stack([np.eye(2, dtype=complex), bad]), ("diag", "(0,1)"))


@pytest.mark.parametrize("t", [0.0, 0.7, 30.0])
def test_partition_diag_pairs_is_what_the_checked_constructor_builds(t):
    # partition_diag_pairs builds its elements Hermitian and skips the
    # constructor's check; the partition must be the one the check passes
    b = choi_2ad(ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=t)))
    part = partition_diag_pairs(b, labels=AD2_PAIR_LABELS)
    checked = HermitianPartition(part.stack, part.labels)
    assert part.labels == checked.labels
    assert part.stack.tobytes() == checked.stack.tobytes()
    assert all(e.tobytes() == c.tobytes() for e, c in zip(part.elements, checked.elements))
    with pytest.raises(ValueError, match="at least one element"):
        partition_diag_pairs(np.zeros((4, 4), dtype=complex))


def test_partition_from_elements_checks_sum():
    b = gad_choi(0.4, 0.3)
    bplus, bminus = gad_split_choi(0.4, 0.3)
    part = partition_from_elements((bplus, -bminus), ("plus", "minus"), reference=b)
    assert max_abs(part.sum_matrix() - b) < 1e-12
    with pytest.raises(ValueError):
        partition_from_elements((bplus,), ("plus",), reference=b)


def test_partition_from_masks_disjoint_cover():
    b = gad_choi(0.5, 0.36)
    diag_mask = np.eye(4, dtype=bool)
    corner_mask = np.zeros((4, 4), dtype=bool)
    corner_mask[0, 3] = corner_mask[3, 0] = True
    part = partition_from_masks(b, (diag_mask, corner_mask), ("diag", "corner"))
    assert max_abs(part.sum_matrix() - b) == 0.0


def test_partition_from_masks_rejects_overlap_and_gaps():
    b = gad_choi(0.5, 0.36)
    full = np.ones((4, 4), dtype=bool)
    with pytest.raises(ValueError):
        partition_from_masks(b, (full, np.eye(4, dtype=bool)))
    with pytest.raises(ValueError):
        partition_from_masks(b, (np.eye(4, dtype=bool),))  # corners uncovered


def test_ad2_partition_strategies():
    co = ad2_coefficients(PROBE)
    b = choi_2ad(co)
    diag_pairs = ad2_partition(co, "diag-pairs")
    assert len(diag_pairs.elements) == 9
    assert diag_pairs.labels[1:] == ("J", "M", "L", "U+iV", "iS-R", "P", "T", "Q")
    split = ad2_partition(co, "split-real-imag")
    assert len(split.elements) == 11
    assert split.labels[1:] == ("J", "M", "L", "U", "iV", "iS", "-R", "P", "T", "Q")
    for part in (diag_pairs, split):
        assert max_abs(part.sum_matrix() - b) < 1e-15
    spectral = ad2_partition(co, "full-spectral")
    assert len(spectral.elements) == 1
    assert max_abs(spectral.sum_matrix() - b) < 1e-15
    with pytest.raises(ValueError):
        ad2_partition(co, "no-such-strategy")


def test_split_strategy_separates_shared_phase():
    # U and iV overlap at one position; the split must reproduce each
    # coefficient exactly, not the real/imaginary parts of their sum
    co = ad2_coefficients(PROBE)
    split = ad2_partition(co, "split-real-imag")
    u_el = split.elements[split.labels.index("U")]
    iv_el = split.elements[split.labels.index("iV")]
    assert u_el[1, 7] == co.U
    assert iv_el[1, 7] == 1j * co.V
    r_el = split.elements[split.labels.index("-R")]
    is_el = split.elements[split.labels.index("iS")]
    assert r_el[2, 11] == -co.R
    assert is_el[2, 11] == 1j * co.S


def test_extract_diag_block_gives_rank_one_units():
    co = ad2_coefficients(PROBE)
    b = choi_2ad(co)
    diag_only = np.diag(np.diag(b))
    part = partition_diag_pairs(diag_only)
    ks = extract_signed_kraus(part)
    assert ks.negative == ()
    assert len(ks.positive) == 9
    # each operator is sqrt(value) times the fold of a basis vector
    values = {idx: np.diag(b)[idx].real for idx in AD2_DIAG_LABELS}
    for op, label in zip(ks.positive, ks.positive_labels):
        idx = int(label.split("[")[1].rstrip("]"))
        v = np.zeros(16, dtype=complex)
        v[idx] = math.sqrt(values[idx])
        assert max_abs(op - v.reshape(4, 4).T) < 1e-15


def test_extract_pair_elements_are_bitwise_the_rank2_closed_form():
    # the vectorized closed form against eig_rank2_pair, element by element,
    # at any position and dimension, with the diagonal element among them
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        n = d * d
        for _ in range(20):
            pairs = []
            for _ in range(rng.integers(1, 6)):
                r, c = sorted(rng.choice(n, size=2, replace=False).tolist())
                z = complex(*(rng.standard_normal(2) * 10.0 ** rng.integers(-6, 3)))
                z = rng.choice([z, z.real, 1j * z.imag, -z.real])
                el = np.zeros((n, n), dtype=complex)
                el[r, c], el[c, r] = z, np.conj(z)
                pairs.append((el, (z, r, c)))
            diag = np.diag(rng.standard_normal(n)).astype(complex)
            order = rng.permutation(len(pairs) + 1)
            elements = [diag if k == len(pairs) else pairs[k][0] for k in order]
            labels = ["d" if k == len(pairs) else f"p{k}" for k in order]
            ks = extract_signed_kraus(partition_from_elements(elements, labels), cutoff=0.0)
            got = dict(zip(ks.positive_labels + ks.negative_labels, ks.positive + ks.negative))
            for k, (_, (z, r, c)) in enumerate(pairs):
                sys = eig_rank2_pair(z, r, c, n)
                assert got[f"p{k}+"].tobytes() == fold(np.sqrt(sys.values[0]) * sys.vectors[:, 0]).tobytes()
                assert got[f"p{k}-"].tobytes() == fold(np.sqrt(-sys.values[1]) * sys.vectors[:, 1]).tobytes()
            for i, val in enumerate(np.diag(diag).real):
                unit = np.zeros(n, dtype=complex)
                unit[i] = 1.0
                assert got[f"d[{i}]"].tobytes() == fold(np.sqrt(abs(val)) * unit).tobytes()
            # the operators follow the partition's order of elements
            owners = [lab.split("[")[0] if "[" in lab else lab[:-1] for lab in ks.positive_labels]
            positive = np.count_nonzero(np.diag(diag).real > 0)
            assert owners == [lab for lab in labels for _ in range(positive if lab == "d" else 1)]


def test_extract_pair_block_phase_and_magnitude():
    co = ad2_coefficients(PROBE)
    b = choi_2ad(co)
    pair = np.zeros_like(b)
    pair[0, 5] = co.J
    pair[5, 0] = np.conj(co.J)
    part = partition_from_elements((pair,), ("J",), reference=pair)
    ks = extract_signed_kraus(part)
    assert len(ks.positive) == len(ks.negative) == 1
    scale = math.sqrt(abs(co.J) / 2)
    phase = np.exp(-1j * np.angle(co.J))
    want_plus = scale * np.diag([1.0, phase, 0.0, 0.0])
    want_minus = scale * np.diag([1.0, -phase, 0.0, 0.0])
    # compare projectors of unfoldings: global phase is not pinned
    for got, want in ((ks.positive[0], want_plus), (ks.negative[0], want_minus)):
        vg, vw = unfold(got), unfold(want)
        assert max_abs(np.outer(vg, vg.conj()) - np.outer(vw, vw.conj())) < 1e-13


def test_pair_block_action_reproduces_coherence_map():
    co = ad2_coefficients(PROBE)
    ks = ad2_signed_kraus(co)
    jplus = ks.positive[list(ks.positive_labels).index("J+")]
    jminus = ks.negative[list(ks.negative_labels).index("J-")]
    unit = np.zeros((4, 4), dtype=complex)
    unit[0, 1] = 1.0
    out = jplus @ unit @ dagger(jplus) - jminus @ unit @ dagger(jminus)
    assert max_abs(out - co.J * unit) < 1e-15


def test_pair_block_signed_cancellation():
    # positive and negative operators of one pair share a diagonal Gram matrix
    co = ad2_coefficients(PROBE)
    ks = ad2_signed_kraus(co)
    for lab_p, lab_m in (("J+", "J-"), ("P+", "P-"), ("Q+", "Q-")):
        kp = ks.positive[list(ks.positive_labels).index(lab_p)]
        km = ks.negative[list(ks.negative_labels).index(lab_m)]
        gp = dagger(kp) @ kp
        gm = dagger(km) @ km
        assert max_abs(np.diag(np.diag(gp)) - np.diag(np.diag(gm))) < 1e-15
        assert max_abs(gp - gm) < 1e-15


def test_extract_identity_choi_single_operator():
    b = choi_from_channel(lambda rho: rho, 4)
    ks = extract_signed_kraus(partition_full(b))
    assert ks.negative == ()
    assert len(ks.positive) == 1
    assert max_abs(ks.positive[0] - np.eye(4)) < 1e-12


def test_reconstruct_identity_set():
    ks = SignedKrausSet(positive=[np.eye(2, dtype=complex)])
    b = reconstruct_choi(ks)
    assert max_abs(b - choi_from_channel(lambda rho: rho, 2)) == 0.0


def test_round_trip_on_random_hermitian():
    # the partition/extract/reconstruct cycle works for any Hermitian input,
    # not only Choi matrices of CP maps
    rng = np.random.default_rng(32)
    for n in (4, 16):
        h = random_hermitian(rng, n)
        part = partition_diag_pairs(h)
        ks = extract_signed_kraus(part)
        assert max_abs(reconstruct_choi(ks) - h) < 1e-10


def test_round_trip_2ad_extraction():
    rng = np.random.default_rng(33)
    for _ in range(20):
        co = ad2_coefficients(random_params(rng))
        b = choi_2ad(co)
        ks = ad2_signed_kraus(co)
        assert max_abs(reconstruct_choi(ks) - b) < 1e-10
        assert check_completeness(ks) < 1e-10


def test_extraction_action_matches_direct_channel():
    rng = np.random.default_rng(34)
    co = ad2_coefficients(PROBE)
    ks = ad2_signed_kraus(co)
    for _ in range(100):
        rho = random_density_matrix(4, rng)
        assert max_abs(apply_signed_kraus(rho, ks) - ad2_apply(rho, co)) < 1e-10


def test_split_strategy_action_matches_direct_channel():
    rng = np.random.default_rng(35)
    co = ad2_coefficients(PROBE)
    ks = ad2_signed_kraus(co, strategy="split-real-imag")
    assert len(ks.positive) + len(ks.negative) == 29
    for _ in range(50):
        rho = random_density_matrix(4, rng)
        assert max_abs(apply_signed_kraus(rho, ks) - ad2_apply(rho, co)) < 1e-10


def test_standard_kraus_identity_choi():
    ks = standard_kraus_from_choi(choi_from_channel(lambda rho: rho, 2))
    assert len(ks.positive) == 1
    assert ks.negative == ()
    assert max_abs(ks.positive[0] - np.eye(2)) < 1e-13


def test_standard_kraus_gad_action_equivalence():
    p, lam = 0.5, 0.36
    ks = standard_kraus_from_choi(gad_choi(p, lam))
    assert ks.negative == ()
    assert len(ks.positive) == 4
    ref = gad_kraus(p, lam)
    rng = np.random.default_rng(36)
    for _ in range(100):
        rho = random_density_matrix(2, rng)
        assert max_abs(apply_signed_kraus(rho, ks) - apply_signed_kraus(rho, ref)) < 1e-10


def test_standard_kraus_2ad_choi_is_positive():
    rng = np.random.default_rng(37)
    for _ in range(10):
        co = ad2_coefficients(random_params(rng))
        ks = standard_kraus_from_choi(choi_2ad(co))
        assert ks.negative == ()  # no eigenvalue below the cutoff


def test_standard_vs_partition_extraction_action():
    rng = np.random.default_rng(38)
    co = ad2_coefficients(PROBE)
    b = choi_2ad(co)
    spectral = standard_kraus_from_choi(b)
    pairs = ad2_signed_kraus(co)
    for _ in range(100):
        rho = random_density_matrix(4, rng)
        assert max_abs(apply_signed_kraus(rho, spectral) - apply_signed_kraus(rho, pairs)) < 1e-9


def test_operator_count_bound():
    rng = np.random.default_rng(39)
    for _ in range(10):
        co = ad2_coefficients(random_params(rng))
        b = choi_2ad(co)
        ks = ad2_signed_kraus(co)
        pairs = np.count_nonzero(np.triu(np.abs(b), k=1) > 1e-14 * np.max(np.abs(b)))
        d = 4
        assert ks.count <= d * d + 2 * pairs <= d ** 4


def test_ad2_signed_kraus_label_order():
    co = ad2_coefficients(PROBE)
    ks = ad2_signed_kraus(co)
    assert ks.positive_labels[:9] == ("H", "G", "F", "E", "D", "C", "A", "1", "B")
    assert ks.positive_labels[9:] == ("J+", "M+", "L+", "U+iV+", "iS-R+", "P+", "T+", "Q+")
    assert ks.negative_labels == ("J-", "M-", "L-", "U+iV-", "iS-R-", "P-", "T-", "Q-")
    # diagonal operators are the folds of the export-order basis states
    for op, idx in zip(ks.positive[:9], AD2_DIAG_EXPORT_ORDER):
        v = unfold(op)
        assert np.argmax(np.abs(v)) == idx


def test_relabel_moves_every_operator_of_a_shared_label():
    # two elements labelled "d": both d[0] operators take the new label and
    # come first, and none is dropped
    part = partition_from_elements([np.diag([0.5, 0, 0, 0]), np.diag([0.5, 0, 0, 1])], labels=("d", "d"))
    ks = extract_signed_kraus(part, relabel={"d[0]": "X"})
    assert ks.positive_labels == ("X", "X", "d[3]")
    assert ks.negative == ()
    assert check_completeness(ks) <= 1e-15


@pytest.mark.parametrize("cutoff", [math.nan, -1.0, math.inf])
def test_both_extraction_paths_refuse_a_cutoff_outside_zero_to_infinity(cutoff):
    # a NaN or negative cutoff kept zero-weight operators, each path by its own rule
    co = ad2_coefficients(PROBE)
    with pytest.raises(ValueError, match="cutoff must be a nonnegative number and finite"):
        ad2_signed_kraus(co, cutoff=cutoff)
    with pytest.raises(ValueError, match="cutoff must be a nonnegative number and finite"):
        ad2_diag_pairs_operators(choi_2ad(co)[None], cutoff=cutoff)


def test_ad2_signed_kraus_cutoff_drops_decayed_blocks():
    co = ad2_coefficients(Ad2Params(gamma=1.0, gamma12=0.0, omega12=2.0, omega0=10.0, t=50.0))
    ks = ad2_signed_kraus(co, cutoff=1e-8)
    assert ks.negative == ()
    assert set(ks.positive_labels) == {"H", "G", "F", "1"}
    targets = {"H": (3, 0), "G": (3, 2), "F": (3, 1), "1": (3, 3)}
    for op, label in zip(ks.positive, ks.positive_labels):
        want = np.zeros((4, 4), dtype=complex)
        want[targets[label]] = 1.0
        assert max_abs(op - want) < 1e-8


def _cutoff_rule_case(kind):
    """(element, slot and label of one of its operators, that operator's
    eigenvalue) of a diagonal, a pair and a general 3 x 3 element."""
    element = np.zeros((4, 4), dtype=complex)
    if kind == "diag":
        element[[1, 2], [1, 2]] = -0.3, 0.7
        return element, 1, "x[1]", -0.3
    if kind == "pair":
        element[1, 3], element[3, 1] = 0.3 + 0.4j, 0.3 - 0.4j  # |z| = 0.5 exactly
        return element, 5, "x-", -0.5  # after the four diagonal slots, + then -
    element[1:, 1:] = [[0.5, 0.2j, 0.1], [-0.2j, -0.4, 0.3], [0.1, 0.3, 0.2]]
    return element, 3, "x[3]", eig_hermitian(element).values[3]


def _element_operators(kind, element, cutoff):
    """The (operators, signs) of every slot of one element, as extraction makes them."""
    if kind == "general":
        sys = eig_hermitian(element)
        return choi_module._signed_operators(sys.values, sys.vectors.T, cutoff)
    rows, cols = np.nonzero(np.triu(element, 1))
    ops, signs = choi_module._closed_form(4, np.diagonal(element).real[None], np.arange(4),
                                          element[rows, cols][None], rows, cols, cutoff)
    return ops[0], signs[0]


@pytest.mark.parametrize("kind", ["diag", "pair", "general"])
def test_an_eigenvalue_at_the_cutoff_is_dropped_and_one_above_it_kept(kind):
    # one rule for every kind of element: an eigenpair is kept if |value| > cutoff
    element, slot, label, value = _cutoff_rule_case(kind)
    assert value < 0.0
    anchor = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # a positive operator at every cutoff
    partition = partition_from_elements([anchor, element], ["a", "x"])
    for cutoff, sign in ((abs(value), 0), (float(np.nextafter(abs(value), 0.0)), -1)):
        ops, signs = _element_operators(kind, element, cutoff)
        assert signs[slot] == sign and bool(ops[slot].any()) == bool(sign)
        ks = extract_signed_kraus(partition, cutoff=cutoff)
        assert (label in ks.negative_labels) == bool(sign)
        assert kind != "pair" or ("x+" in ks.positive_labels) == bool(sign)  # +|z| goes with -|z|


def test_both_ad2_paths_drop_a_population_equal_to_the_cutoff():
    co = ad2_coefficients(PROBE)
    ops, signs = ad2_diag_pairs_operators(choi_2ad(co)[None], cutoff=co.C)
    ks = ad2_signed_kraus(co, cutoff=co.C)
    labels = [AD2_DIAG_LABELS[r] for r in AD2_DIAG_EXPORT_ORDER] + [
        f"{label}{s}" for label in AD2_PAIR_LABELS.values() for s in "+-"]
    assert {label: sign for label, sign in zip(labels, signs[0].tolist()) if sign} == {
        **dict.fromkeys(ks.positive_labels, 1), **dict.fromkeys(ks.negative_labels, -1)}
    slot = labels.index("C")
    assert signs[0, slot] == 0 and not ops[0, slot].any()


def test_ad2_diag_pairs_operators_stack_rows_match_solo_extraction():
    chois = np.stack([choi_2ad(ad2_coefficients(PROBE.at(t))) for t in (0.0, 0.7, 9.0, 40.0)])
    ops, signs = ad2_diag_pairs_operators(chois)
    assert ops.shape == (4, 25, 4, 4) and signs.shape == (4, 25)
    for b, row_ops, row_signs in zip(chois, ops, signs):
        solo_ops, solo_signs = ad2_diag_pairs_operators(b[None])
        assert row_ops.tobytes() == solo_ops[0].tobytes()
        assert np.array_equal(row_signs, solo_signs[0])
    with pytest.raises(ValueError, match="no positive operators"):
        ad2_diag_pairs_operators(chois, cutoff=2.0)


def test_stacked_residual_kernels_match_loops():
    rng = np.random.default_rng(5)
    ops = rng.standard_normal((3, 6, 4, 4)) + 1j * rng.standard_normal((3, 6, 4, 4))
    signs = rng.choice([1, -1, 0], size=(3, 6))
    completeness = completeness_residuals(ops, signs)
    recon = reconstruct_choi_stack(ops, signs)
    for i in range(3):
        acc = sum(s * dagger(k) @ k for s, k in zip(signs[i], ops[i]))
        assert abs(completeness[i] - max_abs(acc - np.eye(4))) <= 1e-13
        want = sum(s * np.outer(unfold(k), unfold(k).conj()) for s, k in zip(signs[i], ops[i]))
        assert max_abs(recon[i] - want) <= 1e-13


def test_charpoly_checks_generic_point():
    co = ad2_coefficients(PROBE)
    report = charpoly_checks(co)
    assert report["ok"]
    assert report["max_error"] < 1e-10
    diag_block = report["blocks"]["diag"]
    want = sorted([co.A, co.B, co.C, co.D, co.E, co.F, co.G, co.H, 1.0] + [0.0] * 7)
    assert np.allclose(sorted(diag_block["computed"]), want, atol=1e-10)


def test_charpoly_checks_pair_eigenvalues():
    co = ad2_coefficients(PROBE)
    report = charpoly_checks(co)
    p_block = report["blocks"][AD2_PAIR_LABELS[(5, 10)]]
    gamma_t = PROBE.gamma * PROBE.t
    assert np.allclose(sorted(p_block["computed_nonzero"]),
                       [-math.exp(-gamma_t), math.exp(-gamma_t)], atol=1e-12)
    assert np.allclose(sorted(p_block["expected_nonzero"]),
                       [-math.exp(-gamma_t), math.exp(-gamma_t)], atol=1e-15)
    for name, block in report["blocks"].items():
        assert block["ok"], name


def test_charpoly_checks_at_time_zero():
    co = ad2_coefficients(PROBE.at(0.0))
    report = charpoly_checks(co)
    diag = report["blocks"]["diag"]["computed"]
    assert np.allclose(sorted(diag), [0.0] * 12 + [1.0] * 4, atol=1e-12)
    assert report["ok"]


def test_charpoly_checks_solve_every_block_in_one_stack(monkeypatch):
    calls = []

    def counted(h, *args, **kwargs):
        calls.append(np.shape(h))
        return eigvals_hermitian(h, *args, **kwargs)

    monkeypatch.setattr(choi_module, "eigvals_hermitian", counted)
    rng = np.random.default_rng(20)
    points = [PROBE.at(0.0), PROBE.at(30.0), Ad2Params(1.0, 1.0 - 1e-9, 2.0, 10.0, 0.7),
              Ad2Params(1.0, -(1.0 - 1e-9), 2.0, 10.0, 0.7)]
    points += [random_params(rng) for _ in range(8)]
    for params in points:
        calls.clear()
        report = charpoly_checks(ad2_coefficients(params))
        assert calls == [(9, 16, 16)]
        assert list(report["blocks"]) == ["diag", *AD2_PAIR_LABELS.values()]
        assert all(block["ok"] for block in report["blocks"].values()), params
        assert report["ok"]


@pytest.mark.parametrize("step", [0, -1, 1], ids=["at", "below", "above"])
def test_pair_at_the_partition_threshold_is_dropped_by_both_paths(step):
    # a pair at or below PARTITION_REL_THRESHOLD max|B| gives no operator,
    # even at cutoff 0: the stacked path writes it as 0, the export path's
    # partition leaves it out
    co = ad2_coefficients(PROBE)
    b = choi_2ad(co)
    size = PARTITION_REL_THRESHOLD * max_abs(b)
    size = size if step == 0 else np.nextafter(size, step * np.inf)
    b[0, 5] = b[5, 0] = size  # J, the first pair position
    ops, signs = ad2_diag_pairs_operators(b[None], cutoff=0.0)
    labels = ad2_signed_kraus(co, cutoff=0.0, b=b).positive_labels
    if step > 0:
        assert list(signs[0, 9:11]) == [1, -1] and "J+" in labels
    else:
        assert list(signs[0, 9:11]) == [0, 0] and not ops[0, 9:11].any()
        assert "J+" not in labels


def test_choi_2ad_of_coefficients_over_times_is_the_stack():
    params = Ad2Params(gamma=1.0, gamma12=0.3, omega12=2.0, omega0=10.0, t=0.0)
    ts = np.linspace(0.0, 40.0, 17)
    stack = choi_2ad(ad2_coefficients(params, ts))
    assert stack.shape == (17, 16, 16)
    for t, b in zip(ts, stack):
        assert np.array_equal(b, choi_2ad(ad2_coefficients(params.at(float(t)))))
