"""Property tests over random valid channel parameters (needs hypothesis)."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from sumdiff.channels import (
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
    ad2_partition,
    ad2_signed_kraus,
    choi_2ad,
    extract_signed_kraus,
    partition_diag_pairs,
    partition_full,
    reconstruct_choi,
)
from sumdiff.cli import main
from sumdiff.linalg import dagger, max_abs


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
    return folder, exports


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
    folder, exports = fresh_exports
    path = folder / "mutated.json"
    path.write_text(json.dumps(_mutate(copy.deepcopy(exports[channel]), mutation)))
    code = _quiet_main(["verify", str(path), "--against", against, "--count", "3"])
    assert code in (0, 2, 3)
