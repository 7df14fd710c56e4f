"""Property tests over random valid channel parameters (needs hypothesis)."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from sumdiff.analysis import eb_report, is_ppt, mdc_choi, pdc_choi
from sumdiff.channels import (
    Ad2Coefficients,
    Ad2Params,
    SignedKrausSet,
    ad2_coefficients,
    apply_signed_kraus,
    check_completeness,
    gad_choi,
    random_density_matrix,
)
from sumdiff.choi import (
    AD2_DIAG_EXPORT_ORDER,
    AD2_DIAG_LABELS,
    AD2_PAIR_LABELS,
    PARTITION_REL_THRESHOLD,
    ad2_diag_pairs_operators,
    ad2_partition,
    ad2_signed_kraus,
    choi_2ad,
    choi_from_channel,
    extract_signed_kraus,
    partition_diag_pairs,
    partition_from_elements,
    partition_full,
    reconstruct_choi,
    trace_preservation_residual,
)
from sumdiff.cli import (CHANNELS, COMMANDS, MAX_SWEEP_STEPS, MAX_VERIFY_COUNT, OPTIONS, _dumps, _kraus_from_json,
                         _kraus_json, main)
import sumdiff.linalg as linalg
from sumdiff.linalg import (JacobiConvergenceError, dagger, eig_hermitian, eigvals_hermitian, is_psd, max_abs,
                            partial_transpose)

from master_equation import liouvillian, master_equation_choi


def _export_order(ks: SignedKrausSet) -> SignedKrausSet:
    """A general-path diag-pairs set in export order: the positive diagonal
    operators relabeled by coefficient in AD2_DIAG_EXPORT_ORDER, then the
    other positive operators in extraction order; the negative list as is."""
    by_label = dict(zip(ks.positive_labels, ks.positive))
    diag = [i for i in AD2_DIAG_EXPORT_ORDER if f"diag[{i}]" in by_label]
    pos = [by_label[f"diag[{i}]"] for i in diag]
    plab = [AD2_DIAG_LABELS[i] for i in diag]
    for lab, op in zip(ks.positive_labels, ks.positive):
        if not lab.startswith("diag["):
            plab.append(lab)
            pos.append(op)
    return SignedKrausSet(tuple(pos), ks.negative, tuple(plab), ks.negative_labels)


@st.composite
def ad2_params(draw):
    gamma = draw(st.floats(0.05, 5.0))
    gamma12 = gamma * draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    assume(abs(gamma12) < gamma)
    omega12 = draw(st.floats(-10.0, 10.0))
    omega0 = draw(st.floats(-50.0, 50.0))
    # early times, where rounding can leave H just below zero, out to late
    # times, where populations fall below the cutoff
    t = draw(st.one_of(st.floats(1e-12, 1e-6), st.floats(0.0, 60.0))) / gamma
    return Ad2Params(gamma, gamma12, omega12, omega0, t)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(params=ad2_params(), cutoff=st.sampled_from([0.0, 1e-12, 1e-6]))
@example(params=Ad2Params(5.251650328124971, -2.8792758124024886, 0.0, 0.0, 7.923469202366806e-12),
         cutoff=0.0)  # H = -5.0e-17: a negative diagonal operator
def test_ad2_signed_kraus_matches_general_path(params, cutoff):
    co = ad2_coefficients(params)
    ks = ad2_signed_kraus(co, cutoff=cutoff)
    oracle = _export_order(extract_signed_kraus(ad2_partition(co, "diag-pairs"), cutoff=cutoff))
    assert ks.positive_labels == oracle.positive_labels
    assert ks.negative_labels == oracle.negative_labels
    for got, want in zip(ks.positive + ks.negative, oracle.positive + oracle.negative):
        assert got.tobytes() == want.tobytes()
    # each dropped element, of magnitude <= cutoff, owns its Choi entries, so
    # reconstruction misses any entry by at most one cutoff; an entry of
    # sum K^dag K gathers the four Choi entries of one input index pair
    assert max_abs(reconstruct_choi(ks) - choi_2ad(co)) <= 1e-10 + cutoff
    assert check_completeness(ks) <= 1e-10 + 4 * cutoff


# A dropped eigenpair (value, v) of an element, |value| <= cutoff, leaves
# value |v><v| out of the reconstruction; over an orthonormal set of
# eigenvectors that misses no entry by more than one cutoff.  Under
# split-real-imag two elements (U and iV, or iS and -R) share an entry, hence
# two cutoffs.  An entry of sum K^dag K gathers d entries of the Choi matrix.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(params=ad2_params(), strategy=st.sampled_from(["split-real-imag", "full-spectral"]),
       cutoff=st.sampled_from([0.0, 1e-12, 1e-6]))
def test_ad2_extraction_round_trip_and_completeness(params, strategy, cutoff):
    b, ks = CHANNELS["ad2"].extract(dataclasses.asdict(params), strategy, cutoff)
    assert b.tobytes() == choi_2ad(ad2_coefficients(params)).tobytes()
    per_entry = 2 * cutoff if strategy == "split-real-imag" else cutoff
    assert max_abs(reconstruct_choi(ks) - b) <= 1e-10 + per_entry
    assert check_completeness(ks) <= 1e-10 + 4 * per_entry


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(params=ad2_params(), ts=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=5),
       cutoff=st.sampled_from([0.0, 1e-12, 1e-6]))
def test_ad2_stacked_operators_match_export_path(params, ts, cutoff):
    # sweep's stacked extraction against the operators extract exports, row
    # by row: positive operators in slot order, negative ones as a set, since
    # a negative diagonal operator keeps its Choi-index place
    ts = np.array(ts) / params.gamma
    ops, signs = ad2_diag_pairs_operators(choi_2ad(ad2_coefficients(params, ts)), cutoff=cutoff)
    for t, row_ops, row_signs in zip(ts.tolist(), ops, signs):
        ks = ad2_signed_kraus(ad2_coefficients(params.at(t)), cutoff=cutoff)
        assert [op.tobytes() for op in row_ops[row_signs > 0]] == [op.tobytes() for op in ks.positive]
        negative = sorted(op.tobytes() for op in row_ops[row_signs < 0])
        assert negative == sorted(op.tobytes() for op in ks.negative)


# ---------------------------------------------------------------------------
# the ad2 closed form against its master equation, and its time scale


@st.composite
def master_equation_points(draw):
    """Rates and a few times, gamma t up to 30, a third of them with |gamma12|
    within 1e-8 to 1e-1 (relative) of gamma."""
    gamma = draw(st.floats(0.1, 10.0))
    if draw(st.integers(0, 2)):
        gamma12 = gamma * draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        gamma12 = gamma * (1.0 - 10.0 ** draw(st.floats(-8.0, -1.0))) * draw(st.sampled_from([-1.0, 1.0]))
    times = [x / gamma for x in draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3))]
    return Ad2Params(gamma, gamma12, draw(st.floats(-10.0, 10.0)), draw(st.floats(-50.0, 50.0)), 0.0), times


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=master_equation_points())
@example(case=(Ad2Params(1.0, np.nextafter(1.0, 0.0), 2.0, 10.0, 0.0), [0.0, 0.7, 30.0]))
@example(case=(Ad2Params(1.0, -np.nextafter(1.0, 0.0), 2.0, 10.0, 0.0), [0.7]))
def test_ad2_closed_form_is_its_master_equation(case):
    # the scalar and the array path of ad2_coefficients against exp(L t); the
    # Taylor series loses about u ||L t||_1, u the unit roundoff
    params, times = case
    generator = liouvillian(params.gamma, params.gamma12, params.omega12, params.omega0)
    stacked = choi_2ad(ad2_coefficients(params, np.array(times)))
    for t, row in zip(times, stacked):
        want = master_equation_choi(params.gamma, params.gamma12, params.omega12, params.omega0, t)
        bound = 1e-14 * max(1.0, np.abs(generator * t).sum(axis=0).max())
        assert max_abs(choi_2ad(ad2_coefficients(params.at(t))) - want) <= bound
        assert max_abs(row - want) <= bound


def _normal_or_zero(x: float) -> bool:
    return x == 0.0 or sys.float_info.min <= abs(x) < math.inf


def _choi_or_refusal(values: list):
    """``choi_2ad`` at Ad2Params(*values), or the ValueError's message."""
    try:
        return choi_2ad(ad2_coefficients(Ad2Params(*values)))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log_gamma=st.floats(-300.0, 300.0), ratios=st.tuples(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), st.floats(-20.0, 20.0), st.floats(-50.0, 50.0)),
    gamma_t=st.floats(0.0, 30.0))
def test_ad2_channel_takes_rates_only_through_their_products_with_t(log_gamma, ratios, gamma_t):
    # rates times 2^k and t times 2^-k, each scaled exactly, over the float range
    gamma = 10.0 ** log_gamma
    values = [gamma] + [gamma * r for r in ratios] + [gamma_t / gamma]
    assume(all(map(_normal_or_zero, values)))
    base = _choi_or_refusal(values)
    for k in (-40, 40):
        scaled = [x * 2.0**k for x in values[:4]] + [values[4] * 2.0**-k]
        if not all(map(_normal_or_zero, scaled)):
            continue
        other = _choi_or_refusal(scaled)
        if isinstance(base, str) or isinstance(other, str):
            assert isinstance(base, str) and isinstance(other, str)
            continue
        assert max_abs(other - base) <= 1e-14 * max(1.0, max_abs(base))
        assert max(trace_preservation_residual(base), trace_preservation_residual(other)) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_layout_labels_name_the_choi_entries(seed):
    # distinct drawn values, so that a label at the wrong place shows
    rng = np.random.default_rng(seed)
    co = Ad2Coefficients(**{
        f.name: float(rng.uniform(0.1, 0.9)) if f.name in "ABCDEFGH" else complex(*rng.uniform(-0.9, 0.9, 2))
        for f in dataclasses.fields(Ad2Coefficients)})
    value = dataclasses.asdict(co) | {"1": 1.0, "U+iV": co.U + 1j * co.V, "iS-R": 1j * co.S - co.R}
    want = np.zeros((16, 16), dtype=complex)
    for i, label in AD2_DIAG_LABELS.items():
        want[i, i] = value[label]
    for (r, c), label in AD2_PAIR_LABELS.items():
        want[r, c] = value[label]
        want[c, r] = np.conj(want[r, c])
    assert choi_2ad(co).tobytes() == want.tobytes()  # the sign of a zero imaginary part too
    assert "".join(AD2_DIAG_LABELS[i] for i in AD2_DIAG_EXPORT_ORDER) == "HGFEDCA1B"
    assert sorted(AD2_DIAG_EXPORT_ORDER) == list(AD2_DIAG_LABELS)
    assert list(AD2_PAIR_LABELS.values()) == ["J", "M", "L", "U+iV", "iS-R", "P", "T", "Q"]
    assert list(AD2_PAIR_LABELS) == sorted(AD2_PAIR_LABELS) and all(r < c for r, c in AD2_PAIR_LABELS)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0), strategy=st.sampled_from(["diag-pairs", "full-spectral"]),
       cutoff=st.sampled_from([0.0, 1e-12, 1e-6]))
@example(p=0.5, lam=0.36, strategy="diag-pairs", cutoff=1e-12)
@example(p=0.5, lam=1.0, strategy="full-spectral", cutoff=0.0)
def test_gad_extraction_round_trip_and_completeness(p, lam, strategy, cutoff):
    b, ks = CHANNELS["gad"].extract({"p": p, "lam": lam}, strategy, cutoff)
    assert b.tobytes() == gad_choi(p, lam).tobytes()
    assert max_abs(reconstruct_choi(ks) - b) <= 1e-10 + cutoff
    # the family is trace preserving only at p = 1/2; elsewhere sum K^dag K
    # misses the identity by lam |1 - 2p| on the diagonal
    assert abs(check_completeness(ks) - lam * abs(1 - 2 * p)) <= 1e-10 + 2 * cutoff


def _apply_loop(rho, ks: SignedKrausSet) -> np.ndarray:
    """Oracle: sum K+ rho K+^dag - sum K- rho K-^dag, one operator at a time."""
    out = np.zeros_like(rho)
    for k in ks.positive:
        out += k @ rho @ dagger(k)
    for k in ks.negative:
        out -= k @ rho @ dagger(k)
    return out


@st.composite
def signed_sets(draw):
    """Signed operator sets as extract builds them: ad2 under each partition,
    gad under the corner diag-pairs split and the full spectral one."""
    if draw(st.booleans()):
        strategy = draw(st.sampled_from(["diag-pairs", "split-real-imag", "full-spectral"]))
        return ad2_signed_kraus(ad2_coefficients(draw(ad2_params())), strategy)
    b = gad_choi(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    part = partition_full(b) if draw(st.booleans()) else partition_diag_pairs(b, labels={(0, 3): "corner"})
    return extract_signed_kraus(part)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ks=signed_sets(), count=st.sampled_from([None, 1, 2, 7]), seed=st.integers(0, 2**32 - 1))
def test_stacked_apply_matches_operator_loop(ks, count, seed):
    states = random_density_matrix(ks.dim, np.random.default_rng(seed), count=count)
    got = apply_signed_kraus(states, ks)
    want = _apply_loop(states, ks) if count is None else np.stack([_apply_loop(r, ks) for r in states])
    assert got.shape == states.shape
    assert max_abs(got - want) <= 1e-14 * max_abs(want)
    # the superoperator is the reshuffled Choi matrix: S[(a, b), (k, j)] = B[(j, b), (k, a)]
    d = ks.dim
    choi = reconstruct_choi(ks).reshape(d, d, d, d)
    reshuffled = choi.transpose(3, 1, 2, 0).reshape(d * d, d * d)
    assert max_abs(ks.superoperator() - reshuffled) <= 1e-14 * max_abs(reshuffled)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ks=signed_sets())
def test_set_holds_one_stack_and_its_choi_matrix(ks):
    d = ks.dim
    ops, signs = ks.stacked()
    choi, superop = reconstruct_choi(ks), ks.superoperator()
    # the superoperator is bitwise the reshuffled Choi matrix, S[(a, b), (k, j)] = B[(j, b), (k, a)]
    assert superop.tobytes() == choi.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d).tobytes()
    # and the sum of conj(K) (x) K it stands for
    oracle = np.einsum("k,kac,kbe->abce", signs[0], ops[0].conj(), ops[0]).reshape(d * d, d * d)
    assert max_abs(superop - oracle) <= 1e-14 * max_abs(superop)
    for cached in (ops, signs, choi, superop, ks.positive[0]):
        with pytest.raises(ValueError):
            cached[(0,) * cached.ndim] = 0
    # an export read back gives the set built from the operators as tuples
    read = _kraus_from_json(json.loads(_dumps(_kraus_json(ks))))
    built = SignedKrausSet(tuple(ks.positive), tuple(ks.negative), ks.positive_labels, ks.negative_labels)
    for other in (read, built):
        assert (other.positive_labels, other.negative_labels) == (ks.positive_labels, ks.negative_labels)
        assert other.stacked()[0].tobytes() == ops.tobytes()
        assert other.stacked()[1].tobytes() == signs.tobytes()
        assert reconstruct_choi(other).tobytes() == choi.tobytes()
        assert other.superoperator().tobytes() == superop.tobytes()


# ---------------------------------------------------------------------------
# the sum-difference form of any Hermitian-preserving map in dimension 2 to 4


def _kraus_action(kraus):
    """rho -> sum_k K_k rho K_k^dag on one state or a stack."""
    return lambda rho: np.einsum("kab,...bc,kdc->...ad", kraus, rho, kraus.conj())


@st.composite
def hermitian_preserving_maps(draw):
    """(d, action, Kraus rank of a channel or None): random channels in
    dimension d of Kraus rank 1 to d^2, from the rows of a random isometry
    (QR), and maps that need not be CP: the transpose, a channel followed by
    the transpose (the partial transpose of its Choi matrix), and the
    difference of two channels."""
    d = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def channel():
        rank = draw(st.integers(1, d * d))
        g = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
        return rank, _kraus_action(np.linalg.qr(g)[0].reshape(rank, d, d))

    kind = draw(st.sampled_from(["channel", "transpose", "transposed channel", "difference"]))
    if kind == "channel":
        rank, action = channel()
        return d, action, rank
    if kind == "transpose":
        return d, lambda rho: rho.swapaxes(-1, -2), None
    if kind == "transposed channel":
        action = channel()[1]
        return d, lambda rho: action(rho).swapaxes(-1, -2), None
    first, second = channel()[1], channel()[1]
    return d, lambda rho: first(rho) - second(rho), None


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=hermitian_preserving_maps(), seed=st.integers(0, 2**32 - 1))
def test_extraction_holds_for_hermitian_preserving_maps(case, seed):
    d, action, rank = case
    b = choi_from_channel(action, d)
    cutoff, bound = 1e-12, 1e-12 * max(1.0, max_abs(b))
    states = random_density_matrix(d, np.random.default_rng(seed), count=3)
    # sum_k s_k K_k^dag K_k is the transposed partial trace of B over the output
    gram = b.reshape(d, d, d, d).trace(axis1=1, axis2=3).T
    diag_pairs, spectral = (extract_signed_kraus(part, cutoff=cutoff)
                            for part in (partition_diag_pairs(b), partition_full(b)))
    for ks in (diag_pairs, spectral):
        ops, signs = ks.stacked()
        assert max_abs(reconstruct_choi(ks) - b) <= bound
        assert max_abs(np.einsum("k,kba,kbc->ac", signs[0], ops[0].conj(), ops[0]) - gram) <= bound
        assert max_abs(apply_signed_kraus(states, ks) - action(states)) <= bound
    # one operator per diagonal entry and two per pair above the cutoff and
    # the partition's threshold
    above = max(cutoff, PARTITION_REL_THRESHOLD * max_abs(b))
    pairs = np.count_nonzero(np.abs(b[np.triu_indices(d * d, 1)]) > above)
    assert diag_pairs.count == np.count_nonzero(np.abs(b.diagonal()) > cutoff) + 2 * pairs <= d**4
    eigs = np.linalg.eigvalsh(b)
    assert len(spectral.negative) == np.count_nonzero(eigs < -cutoff)
    assert len(spectral.positive) == np.count_nonzero(eigs > cutoff)
    if rank is not None:  # a channel: a standard Kraus set of the Choi rank
        assert not spectral.negative and spectral.count == rank
    assert len(set(_smallest_choi_eigenvalues(b))) == 1


def _clear_solves() -> None:
    """Empty the solve cache that eig_hermitian and eigvals_hermitian share."""
    with linalg._solves_lock:
        linalg._solves.clear()
        linalg._solves_size = 0


def _smallest_choi_eigenvalues(b) -> tuple:
    """The bytes of b's smallest eigenvalue solved afresh, and of
    ``eb_report(b)``'s smallest Choi eigenvalue with no solve kept, with its
    own eigenvalues kept, and just after ``eig_hermitian(b)``."""
    fresh = linalg._jacobi(b, 1e-13, 100, False)[0][-1]
    _clear_solves()
    cold = eb_report(b).min_choi_eigenvalue
    kept = eb_report(b).min_choi_eigenvalue
    _clear_solves()
    eig_hermitian(b)
    warm = eb_report(b).min_choi_eigenvalue
    return tuple(np.float64(v).tobytes() for v in (fresh, cold, kept, warm))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(params=ad2_params(), p=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0))
def test_eb_report_reads_the_default_solve_whether_or_not_it_was_kept(params, p, lam):
    for b in (choi_2ad(ad2_coefficients(params)), gad_choi(p, lam)):
        assert len(set(_smallest_choi_eigenvalues(b))) == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(params=ad2_params(), p=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0),
       calls=st.lists(st.sampled_from(["eig", "eigvals"]), min_size=1, max_size=4))
def test_a_kept_solve_is_bitwise_a_fresh_solve_at_channel_points(params, p, lam, calls):
    # any order of calls, from an empty cache and from one that holds the matrix
    for b in (choi_2ad(ad2_coefficients(params)), gad_choi(p, lam)):
        values, vectors = (a.tobytes() for a in linalg._jacobi(b, 1e-13, 100, True))
        _clear_solves()
        for call in calls * 2:
            if call == "eig":
                system = eig_hermitian(b)
                assert (system.values.tobytes(), system.vectors.tobytes()) == (values, vectors)
            else:
                assert eigvals_hermitian(b).tobytes() == values


def _split_as_dense_elements(co: Ad2Coefficients, b: np.ndarray):
    """Oracle: split-real-imag's partition built one dense matrix per part,
    each composite pair of the diag-pairs partition replaced by its parts
    above the threshold, and summed against b."""
    parts = {"U+iV": (("U", co.U), ("iV", 1j * co.V)), "iS-R": (("iS", 1j * co.S), ("-R", -co.R))}
    position = {label: rc for rc, label in AD2_PAIR_LABELS.items()}
    pairs = partition_diag_pairs(b, labels=AD2_PAIR_LABELS)
    elements, labels = [], []
    for el, label in zip(pairs.elements, pairs.labels):
        if label not in parts:
            elements.append(el)
            labels.append(label)
            continue
        r, c = position[label]
        for name, z in parts[label]:
            if abs(z) > PARTITION_REL_THRESHOLD * max_abs(b):
                el = np.zeros_like(b)
                el[r, c], el[c, r] = z, np.conj(z)
                elements.append(el)
                labels.append(name)
    return partition_from_elements(elements, labels, reference=b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(params=ad2_params(), stratum=st.sampled_from(["any", "omega12 = 0", "t = 0", "+gamma", "-gamma"]),
       gap=st.floats(2.0, 8.0))
@example(params=Ad2Params(1.0, 0.3, 2.0, 10.0, 0.7), stratum="omega12 = 0", gap=2.0)
def test_split_partition_is_the_dense_element_build(params, stratum, gap):
    # the strata of the benchmark's draws: omega12 = 0 drops the parts iV
    # and iS, t = 0 leaves no composite pair, and gamma12 near -gamma makes
    # U and V small
    edge = {"omega12 = 0": {"omega12": 0.0}, "t = 0": {"t": 0.0},
            "+gamma": {"gamma12": params.gamma * (1.0 - 10.0**-gap)},
            "-gamma": {"gamma12": -params.gamma * (1.0 - 10.0**-gap)}}
    params = dataclasses.replace(params, **edge.get(stratum, {}))
    co = ad2_coefficients(params)
    b = choi_2ad(co)
    got, want = ad2_partition(co, "split-real-imag", b=b), _split_as_dense_elements(co, b)
    assert got.labels == want.labels
    assert got.stack.tobytes() == want.stack.tobytes()
    if params.omega12 == 0.0:  # S and V vanish
        assert {"iV", "iS"}.isdisjoint(got.labels)


# ---------------------------------------------------------------------------
# the export writer against the indenting json encoder

_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0])


@st.composite
def export_payloads(draw):
    """Export-shaped payloads whose matrices are complex ndarrays."""
    d = draw(st.sampled_from([2, 4]))
    floats = _EDGE_FLOATS | st.floats(width=64)

    def matrix():
        return np.array(draw(st.lists(floats, min_size=2 * d * d, max_size=2 * d * d))).view(complex).reshape(d, d)

    def entries():
        return [{"label": draw(st.text(max_size=4)), "matrix": matrix()} for _ in range(draw(st.integers(0, 3)))]

    return {
        "dim": d,
        "format": "sumdiff-kraus/1",
        "metadata": {"params": {"p": draw(floats)}, "timestamp": draw(st.text(max_size=4))},
        "operators": {"positive": entries(), "negative": entries()},
        "report": {"is_cp": draw(st.booleans()), "point_channel": matrix() if draw(st.booleans()) else None,
                   "ppt_of_choi": False},
    }


def _as_lists(data):
    """The payload with every ndarray as nested [re, im] lists, entry by entry."""
    if isinstance(data, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in data]
    if isinstance(data, dict):
        return {key: _as_lists(value) for key, value in data.items()}
    if isinstance(data, list):
        return [_as_lists(value) for value in data]
    return data


def _export_payload(d, positive, negative=(), point=None, label="x", scalar=0.5):
    entry = lambda m: {"label": label, "matrix": np.asarray(m, dtype=complex).reshape(d, d)}
    return {"operators": {"positive": [entry(m) for m in positive], "negative": [entry(m) for m in negative]},
            "metadata": {"params": {"p": scalar}}, "report": {"point_channel": point}}


# payloads of one structure, whose template the later ones reuse, with
# signed zeros, NaN and infinities in the scalar leaf and the matrices
_ONE_STRUCTURE = [
    _export_payload(2, [[0.0, -0.0, math.nan, math.inf]], [np.eye(2)],
                    np.full((2, 2), complex(-0.0, math.inf)), scalar=-0.0),
    _export_payload(2, [[-0.0, 0.0, -math.inf, math.nan]], [np.eye(2) * -0.0],
                    np.full((2, 2), complex(math.nan, 0.0)), scalar=math.nan),
    _export_payload(2, [[math.nan, math.inf, -0.0, 0.0]], [np.full((2, 2), math.nan)],
                    np.full((2, 2), -math.inf), scalar=math.inf),
    _export_payload(2, [[math.inf, math.nan, 0.0, -0.0]], [np.full((2, 2), complex(-math.inf, math.inf))],
                    np.zeros((2, 2)), scalar=-math.inf),
    _export_payload(2, [[1.5, -0.0, 0.0, 5e-324]], [np.eye(2)],
                    np.full((2, 2), complex(0.0, -0.0)), scalar=0.0),
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(payload=export_payloads())
@example(payload=_export_payload(2, [[-0.0, 5e-324, 1e308, -1e308]], point=np.full((2, 2), -5e-324 + 1e308j)))
@example(payload=_export_payload(4, [], [np.eye(4) * -0.0]))
@example(payload=_export_payload(2, [np.eye(2)], label="\x000"))  # a string that reads as a placeholder
@example(payload=_export_payload(4, [np.array([-0.0, complex(math.nan, -0.0), complex(math.inf, -math.inf), 5e-324,
                                               -5e-324j, 0.1 + 0.7j, -1.5, 0.0, 1e308, 2.5e-17j, complex(-0.0, math.nan),
                                               math.inf, -math.inf, 1 / 3, -0.0j, 0.0])]))
@example(payload=_ONE_STRUCTURE[0])
@example(payload=_ONE_STRUCTURE[1])
@example(payload=_ONE_STRUCTURE[2])
@example(payload=_ONE_STRUCTURE[3])
@example(payload=_ONE_STRUCTURE[4])
def test_export_writer_matches_indenting_json_encoder(payload):
    assert _dumps(payload) == json.dumps(_as_lists(payload), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# verify's exit codes over mutated exports

_EXPORT_ARGS = {
    "ad2": ["--channel", "ad2", "--gamma", "1", "--gamma12", "0.3", "--omega12", "2",
            "--omega0", "10", "--t", "0.7"],
    "gad": ["--channel", "gad", "--p", "0.5", "--lam", "0.36"],
}


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def fresh_exports(tmp_path_factory):
    folder = tmp_path_factory.mktemp("exports")
    exports = {}
    for channel, args in _EXPORT_ARGS.items():
        path = folder / f"{channel}.json"
        assert _quiet_main(["extract", *args, "--out", str(path)]) == 0
        exports[channel] = json.loads(path.read_text())
    return folder, exports, itertools.count()


_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
_EXTREMES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308])


@st.composite
def mutations(draw):
    """One change to an export, as a tuple that ``_mutate`` applies."""
    kind = draw(st.sampled_from(["drop", "retype", "shape", "entry", "param", "seed", "tolerance"]))
    if kind == "drop":
        return kind, draw(st.lists(st.integers(0, 40), max_size=8))
    if kind == "retype":
        return kind, draw(st.lists(st.integers(0, 40), max_size=8)), draw(_ODD_VALUES)
    if kind == "shape":  # row lengths of the new matrix
        return kind, draw(st.integers(0, 60)), draw(st.lists(st.integers(0, 5), max_size=5))
    if kind == "entry":  # operator, row, column, real or imaginary part
        position = draw(st.tuples(st.integers(0, 60), st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)))
        return kind, position, draw(_EXTREMES)
    if kind == "param":
        return kind, draw(st.integers(0, 4)), draw(_EXTREMES)
    return kind, draw(_ODD_VALUES)


def _walk(data, steps):
    """Container and key reached from the root of ``data``: each step picks a
    child by position, and the walk stops at a leaf or a step of 3 mod 4.
    Returns (None, None) for the root itself."""
    parent, key, node = None, None, data
    for step in steps:
        if not isinstance(node, (dict, list)) or not node or step % 4 == 3:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, list(keys)[step % len(node)]
        node = node[key]
    return parent, key


def _mutate(data, mutation):
    kind, *rest = mutation
    ops = data["operators"]["positive"] + data["operators"]["negative"]
    if kind in ("drop", "retype"):
        parent, key = _walk(data, rest[0])
        value = rest[1] if kind == "retype" else None
        if parent is None:
            return value if kind == "retype" else {}
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = value
    elif kind == "shape":
        index, cols = rest
        ops[index % len(ops)]["matrix"] = [[[0.5, 0.0]] * c for c in cols]
    elif kind == "entry":
        (index, row, col, part), value = rest
        matrix = ops[index % len(ops)]["matrix"]
        matrix[row % len(matrix)][col % len(matrix)][part] = value
    elif kind == "param":
        params = data["metadata"]["params"]
        params[sorted(params)[rest[0] % len(params)]] = rest[1]
    else:
        data["metadata"][kind] = rest[0]
    return data


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(channel=st.sampled_from(["ad2", "gad"]), mutation=mutations(),
       against=st.sampled_from(["direct-action", "standard-kraus"]))
@example(channel="ad2", mutation=("shape", 0, [2, 2]), against="direct-action")
@example(channel="ad2", mutation=("seed", "x"), against="direct-action")
@example(channel="gad", mutation=("seed", -1), against="direct-action")
@example(channel="ad2", mutation=("param", 2, 1e308), against="standard-kraus")  # omega0: NaN Choi entries
@example(channel="ad2", mutation=("retype", [2, 2], [1]), against="direct-action")  # params as a list
@example(channel="ad2", mutation=("retype", [2, 2, 0], 10**400), against="direct-action")  # gamma past float
@example(channel="gad", mutation=("retype", [4, 1, 0, 1, 0, 0, 0], 10**400), against="direct-action")  # entry
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the products of extreme entries
def test_verify_exit_codes_on_mutated_exports(fresh_exports, channel, mutation, against):
    folder, exports, numbers = fresh_exports
    # a fresh name each time: rewriting one path truncates the last export,
    # which costs file systems such as ext4 a flush per example
    path = folder / f"mutated-{next(numbers)}.json"
    path.write_text(json.dumps(_mutate(copy.deepcopy(exports[channel]), mutation)))
    code = _quiet_main(["verify", str(path), "--against", against, "--count", "3"])
    assert code in (0, 2, 3)


# ---------------------------------------------------------------------------
# main over drawn flags, config files and $SUMDIFF_TOLERANCE

_SWEEP_ARGS = ["--channel", "ad2", "--gamma", "1", "--gamma12", "0.3", "--omega12", "2", "--omega0", "10",
               "--t-min", "0", "--t-max", "1", "--steps", "3"]
_NUMBERS = st.one_of(st.integers(-3, 5), st.floats(-10.0, 10.0),
                     st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, -0.0, 1e-10, 1e308, -1e308]))
_OPTION_VALUES = st.one_of(  # numbers three times in four
    _NUMBERS, _NUMBERS, _NUMBERS,
    st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(0, 2), max_size=2)
    | st.sampled_from([10**400, *OPTIONS["partition"].choices, *OPTIONS["against"].choices]),
)
# a call may ask for at most this many steps or states; only values past
# a limit test it, as a call at the limit runs for minutes
_SMALL_LIMITS = {"steps": (5, MAX_SWEEP_STEPS), "count": (5, MAX_VERIFY_COUNT)}


def _option_value(name, value, folder, numbers, flag=False):
    """``value`` for option ``name``, made safe to run: a steps or count of
    more than 5 moves past its limit, and an output path, which a flag's
    text always is, into ``folder``."""
    if name in _SMALL_LIMITS:
        small, limit = _SMALL_LIMITS[name]
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if small < float(value) <= limit:
                return type(value)(limit + 1)
    if name == "out" and value != "" and (flag or isinstance(value, str)):
        return str(folder / f"out-{next(numbers)}")
    return value


@st.composite
def main_calls(draw):
    """(command, channel, flags kept of a call that succeeds, drawn flags,
    config or None, $SUMDIFF_TOLERANCE or None) of a call of main; the
    drawn options are mostly the command's own."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    names = st.sampled_from([*COMMANDS[command][2] * 3, *OPTIONS, "t-min", "t-max"])
    return (command, draw(st.sampled_from(["ad2", "gad"])), draw(st.sampled_from([None] * 4 + [0, 1, 2, 3, 5])),
            draw(st.lists(st.tuples(names, _OPTION_VALUES), max_size=2)),
            draw(st.none() | st.dictionaries(names, _OPTION_VALUES, max_size=2)),
            draw(st.sampled_from([None] * 5 + ["nan", "-inf", "0", "-1e-10", "5e-324", "1e-30", "x", ""])))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(call=main_calls())
@example(call=("extract", "ad2", None, [("tolerance", 5e-324)], None, None))
@example(call=("sweep", "ad2", None, [("tolerance", 5e-324)], None, None))
@example(call=("sweep", "ad2", None, [], None, "5e-324"))
@example(call=("verify", "gad", None, [("count", 3)], {"against": "standard-kraus"}, None))
@example(call=("sweep", "ad2", None, [], {"tolerance": 10**400}, None))  # float() raised OverflowError out of main
def test_main_exits_with_a_code_and_no_warning(fresh_exports, call):
    command, channel, keep, flags, config, env = call
    folder, _, numbers = fresh_exports
    base = {"extract": _EXPORT_ARGS[channel], "verify": [str(folder / f"{channel}.json")], "sweep": _SWEEP_ARGS}[command]
    argv = [command, *base[:None if keep is None else 2 * keep]]
    for name, value in flags:
        value = _option_value(name, value, folder, numbers, flag=True)
        argv.append(f"--{name.replace('_', '-')}={value if isinstance(value, str) else repr(value)}")
    if config is not None:
        path = folder / f"config-{next(numbers)}.json"
        path.write_text(json.dumps({key: _option_value(key, value, folder, numbers) for key, value in config.items()}))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("SUMDIFF_TOLERANCE", None)
    try:
        if env is not None:
            os.environ["SUMDIFF_TOLERANCE"] = env
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.environ.pop("SUMDIFF_TOLERANCE", None)
        if saved is not None:
            os.environ["SUMDIFF_TOLERANCE"] = saved
    assert code in (0, 1, 2, 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    assert "Warning" not in err.getvalue()


# ---------------------------------------------------------------------------
# the component-wise Jacobi solver against LAPACK


@st.composite
def hermitian_stacks(draw):
    """Stacks of 1, 2 or 7 Hermitian matrices whose combined pattern has
    components of sizes 1 to 6 on shuffled indices.  Off-diagonal entries
    carry complex phases, some are exact zeros (a component stays connected
    through a path), a 2 x 2 block may have equal diagonal entries, a matrix
    may be diagonal to within 1e-15, so that it is done before its stack
    mates, and a stack mate may couple two components."""
    count = draw(st.sampled_from([1, 2, 7]))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    stack = np.zeros((count, n, n), dtype=complex)
    start = 0
    for k in sizes:
        members = order[start:start + k]
        start += k
        for h in stack:
            block = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            block = (block + block.conj().T) / 2
            keep = rng.random((k, k)) < draw(st.sampled_from([0.4, 1.0]))
            keep |= np.eye(k, k, 1, dtype=bool)  # the path 0-1-...-(k-1) keeps it connected
            keep = np.triu(keep) | np.triu(keep).T
            block = np.where(keep, block, 0.0)
            if k == 2 and draw(st.booleans()):
                block[1, 1] = block[0, 0]
            off = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-15, 0.0]))
            block = np.where(np.eye(k, dtype=bool), block, off * block)
            h[np.ix_(members, members)] = scale * block
    if count > 1 and len(sizes) > 1 and draw(st.booleans()):
        i, j = order[0], order[-1]  # first and last component
        z = complex(rng.standard_normal(), rng.standard_normal())
        stack[-1, i, j], stack[-1, j, i] = z, z.conjugate()
    return stack


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stack=hermitian_stacks())
def test_eig_hermitian_matches_lapack(stack):
    sys = eig_hermitian(stack)
    assert np.array_equal(eigvals_hermitian(stack), sys.values)
    bound = 1e-12 * max(1.0, max_abs(stack))
    assert max_abs(sys.values - np.linalg.eigvalsh(stack)[:, ::-1]) <= bound
    assert np.all(np.diff(sys.values, axis=1) <= 0.0)
    # the reconstruction budget, 10 tol max(1, max|h|) at tol = 1e-13
    assert max_abs(sys.reconstruct() - stack) <= bound
    assert max_abs(dagger(sys.vectors) @ sys.vectors - np.eye(stack.shape[1])) <= 1e-12
    # each vector's largest-magnitude component is real and nonnegative
    cols = sys.vectors.swapaxes(1, 2)
    lead = np.take_along_axis(cols, np.abs(cols).argmax(axis=2)[..., None], axis=2)
    assert np.all(lead.imag == 0.0) and np.all(lead.real >= 0.0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(k=st.integers(2, 6), count=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**32 - 1))
def test_eig_hermitian_keeps_its_checks(k, count, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, k, k)) + 1j * rng.standard_normal((count, k, k))
    dense = g + dagger(g)
    for solve in (eig_hermitian, eigvals_hermitian):
        with pytest.raises(JacobiConvergenceError):
            solve(dense, max_sweeps=0)
        tilted = dense.copy()
        tilted[-1, 0, 1] += 1e-6  # no longer Hermitian
        with pytest.raises(ValueError):
            solve(tilted)


@st.composite
def shared_pattern_stacks(draw):
    """Stacks of 2 to 4 Hermitian n x n matrices, n from 2 to 8, that share
    one nonzero pattern; one of them is scaled by 1e-14, so that it is done
    before the first sweep and takes identity rotations while its mates go
    on."""
    n, count = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = rng.random((n, n)) < draw(st.sampled_from([0.3, 0.6, 0.9]))
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    stack = np.where(pattern | pattern.T, g + dagger(g), 0.0)
    stack[draw(st.integers(0, count - 1))] *= 1e-14
    return stack


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stack=shared_pattern_stacks())
def test_stacked_solve_equals_the_solo_solves_up_to_the_sign_of_zero(stack):
    # an identity rotation can turn a +0.0 entry of the held matrix into
    # -0.0, so its bytes may differ from the solo solve's, but no value does
    sys, vals = eig_hermitian(stack), eigvals_hermitian(stack)
    for k, h in enumerate(stack):
        solo = eig_hermitian(h)
        assert np.array_equal(sys.values[k], solo.values)
        assert np.array_equal(vals[k], solo.values)
        assert np.array_equal(sys.vectors[k], solo.vectors)


# ---------------------------------------------------------------------------
# the positivity test against LAPACK, at the edge of its tolerance


@st.composite
def psd_boundary_stacks(draw):
    """(stack, tol, tilt): the component patterns of ``hermitian_stacks``,
    each block U diag(lam) U^dag with a random unitary U and smallest
    eigenvalue -tol + delta or -tol - delta, delta at least
    1e-12 max(1, |lam|), the other eigenvalues above -tol + delta; and an
    entry (i, j) at which to break the Hermitian symmetry."""
    count = draw(st.sampled_from([1, 2, 7]))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    tol = draw(st.sampled_from([1e-10, 1e-6, 0.5]))
    delta = 1e-12 * max(1.0, tol + 2.0 * scale) * 10.0 ** draw(st.sampled_from([0, 2, 5]))
    above = draw(st.sampled_from([0.3, 0.7, 0.95]))  # chance that a block's edge lies above -tol
    stack = np.zeros((count, n, n), dtype=complex)
    start = 0
    for k in sizes:
        members = order[start:start + k]
        start += k
        for h in stack:
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            u, _ = np.linalg.qr(g)
            lam = -tol + delta + scale * rng.uniform(0.0, 2.0, k)
            lam[rng.integers(k)] = -tol + (delta if rng.random() < above else -delta)
            block = (u * lam) @ u.conj().T
            h[np.ix_(members, members)] = (block + block.conj().T) / 2
    tilt = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    return stack, tol, tilt


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=psd_boundary_stacks())
def test_is_psd_matches_lapack(case):
    stack, tol, (i, j) = case
    want = np.linalg.eigvalsh(stack)[:, 0] >= -tol
    got = is_psd(stack, tol)
    assert got.dtype == bool and got.tolist() == want.tolist()
    assert [is_psd(h, tol) for h in stack] == want.tolist()
    tilted = stack.copy()
    tilted[-1, i, j] += 1e-6j  # one entry no longer Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(tilted, tol)


# ---------------------------------------------------------------------------
# the positivity test read through a position map, against the built matrix


@st.composite
def ppt_cases(draw):
    """(m, dim_a, dim_b, tol, bad): a stack on A (x) B whose partial transpose
    has random sparse components, with exact zeros outside them, some
    components all zero and the others with a smallest eigenvalue within 4
    ulps of -tol; and an entry (i, j) with a value that breaks m (NaN, inf,
    or a non-Hermitian tilt)."""
    dim_a, dim_b = draw(st.sampled_from([(2, 2), (2, 3), (4, 4)]))
    n = dim_a * dim_b
    count = draw(st.sampled_from([1, 3]))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([1e-10, 1e-6]))
    x = np.zeros((count, n, n), dtype=complex)
    for members in np.split(np.array(order), cuts):
        k = len(members)
        for h in x:
            if rng.random() < 0.2:
                continue  # an all-zero component
            u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            lam = rng.uniform(0.0, 2.0, k)
            lam[rng.integers(k)] = -tol + int(rng.integers(-4, 5)) * np.spacing(tol)
            block = (u * lam) @ u.conj().T
            h[np.ix_(members, members)] = (block + block.conj().T) / 2
    bad = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.sampled_from([np.nan, np.inf, 1e-6j])))
    return partial_transpose(x, dim_a, dim_b), dim_a, dim_b, tol, bad


def _outcome(test):
    """The flags of ``test()`` as a list, or the message of its ValueError."""
    try:
        return np.atleast_1d(test()).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=ppt_cases())
def test_mapped_ppt_test_matches_the_built_partial_transpose(case):
    # a sub-channel drops the broken entry if it lies outside it, and then
    # both routes pass the stack
    m, dim_a, dim_b, tol, (i, j, value) = case
    broken = m.copy()
    broken[-1, i, j] += value
    assert isinstance(_outcome(lambda: is_ppt(broken, dim_a, dim_b, tol=tol)), str)
    for x in (m, broken, m[0]):
        built = _outcome(lambda: is_psd(partial_transpose(x, dim_a, dim_b), tol))
        assert _outcome(lambda: is_ppt(x, dim_a, dim_b, tol=tol)) == built
        if dim_a * dim_b == 16:
            for part, sub in (("mdc", mdc_choi), ("pdc", pdc_choi)):
                built = _outcome(lambda: is_psd(partial_transpose(sub(x), 4, 4), tol))
                assert _outcome(lambda: is_ppt(x, 4, 4, tol=tol, part=part)) == built
                assert _outcome(lambda: is_ppt(sub(x), 4, 4, tol=tol)) == built
