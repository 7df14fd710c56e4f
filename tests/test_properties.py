"""Property tests over random valid channel parameters (needs hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from sumdiff.channels import Ad2Params, SignedKrausSet, ad2_coefficients, check_completeness
from sumdiff.choi import (
    AD2_DIAG_EXPORT_ORDER,
    AD2_DIAG_LABELS,
    ad2_partition,
    ad2_signed_kraus,
    choi_2ad,
    extract_signed_kraus,
    reconstruct_choi,
)
from sumdiff.linalg import max_abs


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
