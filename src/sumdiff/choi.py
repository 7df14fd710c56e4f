"""Choi matrices, Hermitian partitions, and signed-operator extraction.

The Choi matrix used throughout is the unnormalized block form
``B = sum_jk |j><k| (x) E(|j><k|)`` laid out input (x) output, so a
trace-preserving map on a d-level system gives Tr B = d and a partial trace
over the second factor equal to the identity.

Extraction rests on one identity: for any operator K,
``|unfold(K)><unfold(K)| = sum_jk |j><k| (x) K |j><k| K^dag``.  Splitting B
into Hermitian elements, eigendecomposing each, and folding
sqrt(|value|) * vector back into a matrix therefore yields operator lists
whose weighted sum of projectors rebuilds B, and whose sum-difference action
reproduces the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channels import Ad2Coefficients, SignedKrausSet
from .linalg import (
    dagger,
    eig_hermitian,
    eig_rank2_pair,
    eigvals_hermitian,
    fold,
    is_hermitian,
    max_abs,
    partial_trace,
)

__all__ = [
    "AD2_DIAG_EXPORT_ORDER",
    "AD2_DIAG_LABELS",
    "AD2_PAIR_LABELS",
    "HermitianPartition",
    "PARTITIONS",
    "PARTITION_REL_THRESHOLD",
    "ad2_diag_pairs_operators",
    "ad2_partition",
    "ad2_signed_kraus",
    "charpoly_checks",
    "choi_2ad",
    "choi_from_channel",
    "extract_signed_kraus",
    "partition_diag_pairs",
    "partition_from_elements",
    "partition_from_masks",
    "partition_full",
    "reconstruct_choi",
    "reconstruct_choi_stack",
    "standard_kraus_from_choi",
    "trace_preservation_residual",
]

# Names of the partition strategies, the default first.
PARTITIONS = ("diag-pairs", "split-real-imag", "full-spectral")

# Entries of at most this fraction of the largest Choi entry are structural
# zeros to the partitions, and so to the stacked diag-pairs extraction.
PARTITION_REL_THRESHOLD = 1e-14


def choi_from_channel(action: Callable[[np.ndarray], np.ndarray], dim: int,
                      linearity_tol: float = 1e-10) -> np.ndarray:
    """Assemble the Choi matrix of a channel given as a callable on matrices.

    ``action`` is evaluated on each matrix unit |j><k|; block (j, k) of the
    result is E(|j><k|).  Linearity is spot-checked first on a seeded random
    pair of inputs so a silently nonlinear callable fails loudly.
    """
    rng = np.random.default_rng(2718)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    al = complex(rng.standard_normal(), rng.standard_normal())
    be = complex(rng.standard_normal(), rng.standard_normal())
    lhs = action(al * x + be * y)
    rhs = al * action(x) + be * action(y)
    if max_abs(lhs - rhs) > linearity_tol * max(1.0, max_abs(rhs)):
        raise ValueError("action is not linear within tolerance")

    b = np.zeros((dim * dim, dim * dim), dtype=complex)
    unit = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        for k in range(dim):
            unit[j, k] = 1.0
            b[j * dim:(j + 1) * dim, k * dim:(k + 1) * dim] = action(unit)
            unit[j, k] = 0.0
    return b


def trace_preservation_residual(b: np.ndarray) -> float:
    """Max-entry residual of the partial trace over the output factor against identity."""
    b = np.asarray(b, dtype=complex)
    d2 = b.shape[0]
    d = int(round(d2 ** 0.5))
    if d * d != d2 or b.shape != (d2, d2):
        raise ValueError("expected a d^2 x d^2 matrix")
    return max_abs(partial_trace(b, d, d, keep="first") - np.eye(d))


# ---------------------------------------------------------------------------
# the two-qubit damping Choi matrix

# Position of each coherence coefficient in the 16 x 16 Choi matrix (upper
# triangle); the conjugate sits at the mirrored position.
AD2_PAIR_LABELS: dict[tuple[int, int], str] = {
    (0, 5): "J",
    (0, 10): "M",
    (0, 15): "L",
    (1, 7): "U+iV",
    (2, 11): "iS-R",
    (5, 10): "P",
    (5, 15): "T",
    (10, 15): "Q",
}

# Population coefficient sitting at each nonzero diagonal position.
AD2_DIAG_LABELS: dict[int, str] = {
    0: "A", 1: "C", 2: "E", 3: "H", 5: "B", 7: "F", 10: "D", 11: "G", 15: "1",
}

# Export order of the diagonal operators by coefficient label.
AD2_DIAG_EXPORT_ORDER: tuple[int, ...] = (3, 11, 7, 2, 10, 1, 0, 15, 5)  # H G F E D C A 1 B


def _ad2_pair_values(co: Ad2Coefficients) -> dict[tuple[int, int], complex]:
    return {
        (0, 5): co.J,
        (0, 10): co.M,
        (0, 15): co.L,
        (1, 7): co.U + 1j * co.V,
        (2, 11): 1j * co.S - co.R,
        (5, 10): co.P,
        (5, 15): co.T,
        (10, 15): co.Q,
    }


def _ad2_diag_values(co: Ad2Coefficients) -> dict[int, float]:
    return {0: co.A, 1: co.C, 2: co.E, 3: co.H, 5: co.B, 7: co.F, 10: co.D, 11: co.G, 15: 1.0}


def choi_2ad(co: Ad2Coefficients) -> np.ndarray:
    """Closed-form Choi matrix of the two-qubit damping channel.

    Nine populated diagonal entries and eight off-diagonal pairs; every
    placement follows from reading the channel action entrywise on matrix
    units (block (j, k) holds E(|j><k|)).  Coefficients evaluated at an
    array of times (``ad2_coefficients(params, t)``) give the stack
    (len(t), 16, 16).
    """
    lead = (slice(None),) * np.ndim(co.A)  # not an Ellipsis, which indexes slower
    b = np.zeros(np.shape(co.A) + (16, 16), dtype=complex)
    for i, val in _ad2_diag_values(co).items():
        b[lead + (i, i)] = val
    for (r, c), z in _ad2_pair_values(co).items():
        b[lead + (r, c)] = z
        b[lead + (c, r)] = np.conj(z)
    return b


# ---------------------------------------------------------------------------
# Hermitian partitions


@dataclass(frozen=True)
class HermitianPartition:
    """Hermitian matrices summing to a target Hermitian matrix.

    Elements may overlap in support; only Hermiticity of each element and
    (when a reference is supplied at construction) the telescoping sum are
    enforced.
    """

    elements: tuple
    labels: tuple

    def __post_init__(self):
        els = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not els:
            raise ValueError("a partition needs at least one element")
        shape = els[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(e.shape != shape for e in els):
            raise ValueError("every element must be Hermitian and same-shaped")
        # is_hermitian(e, 1e-12 * max(1, max_abs(e))) for the whole stack at once
        stack = np.stack(els)
        asym = np.abs(stack - dagger(stack)).max(axis=(1, 2), initial=0.0)
        if not (asym <= 1e-12 * np.maximum(1.0, np.abs(stack).max(axis=(1, 2), initial=0.0))).all():
            raise ValueError("every element must be Hermitian and same-shaped")
        labs = tuple(self.labels) or tuple(f"E{i}" for i in range(len(els)))
        if len(labs) != len(els):
            raise ValueError("label count must match element count")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "labels", labs)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def sum_matrix(self) -> np.ndarray:
        out = np.zeros_like(self.elements[0])
        for e in self.elements:
            out = out + e
        return out


def partition_from_elements(elements: Sequence, labels: Sequence[str] = (),
                            reference=None, tol: float = 1e-12) -> HermitianPartition:
    """Build a partition from explicit Hermitian elements.

    When ``reference`` is given the elements must sum to it within ``tol``
    (max-entry).  Signed splits such as (B_plus, -B_minus) are expressed by
    passing the negated matrix as an element.
    """
    part = HermitianPartition(tuple(elements), tuple(labels))
    if reference is not None:
        resid = max_abs(part.sum_matrix() - np.asarray(reference, dtype=complex))
        if resid > tol * max(1.0, max_abs(reference)):
            raise ValueError(f"elements do not sum to the reference (residual {resid:.3e})")
    return part


def partition_full(b, label: str = "full") -> HermitianPartition:
    """Trivial partition: the whole matrix as a single element."""
    return HermitianPartition((np.asarray(b, dtype=complex),), (label,))


def _pair_element(b: np.ndarray, r: int, c: int, z: complex) -> np.ndarray:
    """The Hermitian matrix z |r><c| + conj(z) |c><r|, shaped like b."""
    el = np.zeros_like(b)
    el[r, c] = z
    el[c, r] = np.conj(z)
    return el


def partition_diag_pairs(b, rel_threshold: float = PARTITION_REL_THRESHOLD,
                         labels: Mapping[tuple[int, int], str] | None = None) -> HermitianPartition:
    """Split a Hermitian matrix into its diagonal plus one element per
    off-diagonal pair.

    Pair (r, c) with r < c contributes z |r><c| + conj(z) |c><r|.  Entries
    with magnitude at most ``rel_threshold`` times the largest entry are
    treated as structural zeros.  Elements are ordered diagonal first, then
    pairs by ascending (r, c).
    """
    b = np.asarray(b, dtype=complex)
    scale = max(1.0, max_abs(b))
    if not is_hermitian(b, 1e-12 * scale):
        raise ValueError("partition_diag_pairs expects a Hermitian matrix")
    n = b.shape[0]
    thresh = rel_threshold * max_abs(b)
    elements = []
    labs = []
    diag = np.diag(np.diagonal(b).real.astype(complex))
    if max_abs(diag) > thresh:
        elements.append(diag)
        labs.append("diag")
    for r in range(n):
        for c in range(r + 1, n):
            z = b[r, c]
            if abs(z) <= thresh:
                continue
            elements.append(_pair_element(b, r, c, z))
            labs.append(labels.get((r, c), f"({r},{c})") if labels else f"({r},{c})")
    return HermitianPartition(tuple(elements), tuple(labs))


def partition_from_masks(b, masks: Sequence, labels: Sequence[str] = (),
                         rel_threshold: float = PARTITION_REL_THRESHOLD) -> HermitianPartition:
    """Partition by disjoint boolean masks over entry positions.

    Each mask must be symmetric (include (c, r) with (r, c)); together the
    masks must cover every entry above threshold exactly once.  Element i is
    the entrywise product b * mask_i.
    """
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    thresh = rel_threshold * max_abs(b)
    cover = np.zeros((n, n), dtype=int)
    elements = []
    for mk in masks:
        mk = np.asarray(mk, dtype=bool)
        if mk.shape != b.shape:
            raise ValueError("mask shape must match the matrix")
        if not np.array_equal(mk, mk.T):
            raise ValueError("masks must be symmetric")
        cover += mk.astype(int)
        elements.append(np.where(mk, b, 0.0))
    if np.any(cover > 1):
        raise ValueError("masks overlap")
    uncovered = (np.abs(b) > thresh) & (cover == 0)
    if np.any(uncovered):
        raise ValueError("masks leave nonzero entries uncovered")
    return HermitianPartition(tuple(elements), tuple(labels))


def ad2_partition(co: Ad2Coefficients, strategy: str = "diag-pairs",
                  rel_threshold: float = PARTITION_REL_THRESHOLD) -> HermitianPartition:
    """Partition the two-qubit damping Choi matrix by the named strategy.

    diag-pairs        diagonal plus one element per coherence position (1 + up to 8)
    split-real-imag   like diag-pairs but the two composite coherences are split
                      into their named parts, U + iV and iS + (-R) (1 + up to 10)
    full-spectral     the whole matrix as one element
    """
    if strategy not in PARTITIONS:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    b = choi_2ad(co)
    if strategy == "full-spectral":
        return partition_full(b)
    part = partition_diag_pairs(b, rel_threshold=rel_threshold, labels=AD2_PAIR_LABELS)
    if strategy == "diag-pairs":
        return part

    # Splitting U + iV (and iS - R) needs the coefficients themselves: the
    # parts are not the real/imaginary entry components since U and V share
    # a common phase.  A part is at most as large as its pair, so every part
    # above threshold belongs to a pair element.
    split = {"U+iV": (("U", complex(co.U)), ("iV", 1j * co.V)),
             "iS-R": (("iS", 1j * co.S), ("-R", -co.R))}
    position = {label: rc for rc, label in AD2_PAIR_LABELS.items()}
    thresh = rel_threshold * max_abs(b)
    elements, labels = [], []
    for el, label in zip(part.elements, part.labels):
        if label not in split:
            elements.append(el)
            labels.append(label)
            continue
        for name, z in split[label]:
            if abs(z) > thresh:
                elements.append(_pair_element(b, *position[label], z))
                labels.append(name)
    return partition_from_elements(elements, labels, reference=b)


# ---------------------------------------------------------------------------
# extraction


def _classify_element(el: np.ndarray, thresh: float):
    """Return ('diag', None), ('pair', (r, c)), or ('general', None)."""
    off = el.copy()
    np.fill_diagonal(off, 0.0)
    nz = np.argwhere(np.abs(off) > thresh)
    if nz.size == 0:
        return "diag", None
    if len(nz) == 2 and max_abs(np.diagonal(el)) <= thresh:
        (r1, c1), (r2, c2) = nz
        if r1 == c2 and c1 == r2:
            return "pair", (min(r1, c1), max(r1, c1))
    return "general", None


def _element_operators(el: np.ndarray, label: str, cutoff: float,
                       jacobi_tol: float, rel_threshold: float):
    """Signed operators for one Hermitian element, with labels.

    Yields (sign, operator, label) in a deterministic order: diagonal
    elements by ascending basis index, pair elements + then -, general
    elements by descending eigenvalue.
    """
    n = el.shape[0]
    thresh = rel_threshold * max(1.0, max_abs(el))
    kind, pos = _classify_element(el, thresh)
    out = []
    if kind == "diag":
        for i in range(n):
            val = el[i, i].real
            if abs(val) <= cutoff:
                continue
            vec = np.zeros(n, dtype=complex)
            vec[i] = 1.0
            out.append((1 if val > 0 else -1, fold(np.sqrt(abs(val)) * vec), f"{label}[{i}]"))
        return out
    if kind == "pair":
        r, c = pos
        z = el[r, c]
        if abs(z) <= cutoff:
            return out
        sys = eig_rank2_pair(z, r, c, n)
        out.append((1, fold(np.sqrt(sys.values[0]) * sys.vectors[:, 0]), f"{label}+"))
        out.append((-1, fold(np.sqrt(-sys.values[1]) * sys.vectors[:, 1]), f"{label}-"))
        return out
    sys = eig_hermitian(el, tol=jacobi_tol)
    for k, val in enumerate(sys.values):
        if abs(val) <= cutoff:
            continue
        out.append((1 if val > 0 else -1, fold(np.sqrt(abs(val)) * sys.vectors[:, k]), f"{label}[{k}]"))
    return out


def extract_signed_kraus(partition: HermitianPartition, cutoff: float = 1e-12,
                         jacobi_tol: float = 1e-13,
                         rel_threshold: float = 1e-14) -> SignedKrausSet:
    """Extract signed operators from a partitioned Choi matrix.

    Each element is eigendecomposed (closed forms for diagonal and
    single-pair elements, cyclic Jacobi otherwise); eigenpairs with
    |value| <= cutoff are dropped, and fold(sqrt(|value|) * vector) joins the
    positive or negative list by the sign of the eigenvalue.  Operator order
    follows the partition, so equal inputs give byte-equal outputs.
    """
    pos, neg, plab, nlab = [], [], [], []
    for el, label in zip(partition.elements, partition.labels):
        for sign, op, oplabel in _element_operators(el, label, cutoff, jacobi_tol, rel_threshold):
            if sign > 0:
                pos.append(op)
                plab.append(oplabel)
            else:
                neg.append(op)
                nlab.append(oplabel)
    if not pos:
        raise ValueError("extraction produced no positive operators")
    return SignedKrausSet(tuple(pos), tuple(neg), tuple(plab), tuple(nlab))


def reconstruct_choi_stack(ops, signs) -> np.ndarray:
    """Rebuild sum_k signs_k |unfold(K_k)><unfold(K_k)| for each row of a stack.

    ``ops`` has shape (m, k, d, d) and ``signs`` shape (m, k); a sign of 0
    leaves its operator out.  Returns (m, d^2, d^2), one batched product of
    the (m, d^2, k) and (m, k, d^2) matrices of unfolded operators.
    """
    ops = np.asarray(ops, dtype=complex)
    m, k, d, _ = ops.shape
    vecs = ops.swapaxes(-1, -2).reshape(m, k, d * d)  # row k is unfold(K_k)
    weighted = vecs.conj()
    weighted *= signs[:, :, None]
    return vecs.swapaxes(-1, -2) @ weighted


def reconstruct_choi(ks: SignedKrausSet) -> np.ndarray:
    """Rebuild sum |unfold(K+)><unfold(K+)| - sum |unfold(K-)><unfold(K-)|."""
    return reconstruct_choi_stack(*ks.stacked())[0]


def standard_kraus_from_choi(b, cutoff: float = 1e-12, jacobi_tol: float = 1e-13) -> SignedKrausSet:
    """Operators from the full Choi eigensystem (no partitioning).

    For a completely positive channel the negative list comes back empty;
    negative eigenvalues below -cutoff land there otherwise.
    """
    return extract_signed_kraus(partition_full(b, label="S"), cutoff=cutoff, jacobi_tol=jacobi_tol)


# Operator slots of the stacked diag-pairs extraction: the diagonal positions
# in export order, then a + and a - slot per coherence position, ascending.
_AD2_PAIRS = tuple(sorted(AD2_PAIR_LABELS))
_AD2_DIAG_SLOTS = len(AD2_DIAG_EXPORT_ORDER)
_AD2_SLOTS = _AD2_DIAG_SLOTS + 2 * len(_AD2_PAIRS)
_AD2_POSITIVE_LABELS = tuple(AD2_DIAG_LABELS[i] for i in AD2_DIAG_EXPORT_ORDER) + tuple(
    f"{AD2_PAIR_LABELS[pos]}{side}" for pos in _AD2_PAIRS for side in "+-")
_AD2_NEGATIVE_LABELS = tuple(f"diag[{i}]" for i in AD2_DIAG_EXPORT_ORDER) + _AD2_POSITIVE_LABELS[_AD2_DIAG_SLOTS:]
# negative diagonal operators keep the extraction order, ascending Choi index
_AD2_NEGATIVE_ORDER = tuple(sorted(range(_AD2_DIAG_SLOTS), key=lambda k: AD2_DIAG_EXPORT_ORDER[k])) + tuple(
    range(_AD2_DIAG_SLOTS, _AD2_SLOTS))


def ad2_diag_pairs_operators(chois, cutoff: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Diag-pairs signed operators of a stack of two-qubit damping Choi matrices.

    Every element of the diag-pairs partition of ``choi_2ad`` has a closed
    form at fixed positions, so the whole stack (m, 16, 16) is extracted at
    once.  Returns the folded operators (m, 25, 4, 4) and their signs
    (m, 25) in {1, -1, 0}: slots 0-8 hold the diagonal positions in
    ``AD2_DIAG_EXPORT_ORDER``, then each position of ``AD2_PAIR_LABELS``
    (ascending) holds a + and a - slot.  A slot is dropped (sign 0, zero
    operator) under the rules of ``extract_signed_kraus`` on
    ``partition_diag_pairs``: a diagonal value with |value| <= cutoff, a pair
    with |z| <= cutoff or |z| <= PARTITION_REL_THRESHOLD * max|B|.  Only the
    upper triangle at those positions is read; the operators are bitwise the
    ones the general path gives.
    """
    b = np.asarray(chois, dtype=complex)
    if b.ndim != 3 or b.shape[1:] != (16, 16):
        raise ValueError("expected a stack of 16 x 16 Choi matrices")
    m = b.shape[0]
    diag = np.array(AD2_DIAG_EXPORT_ORDER)
    rows, cols = np.array(_AD2_PAIRS).T
    plus = np.arange(_AD2_DIAG_SLOTS, _AD2_SLOTS, 2)

    vals = b[:, diag, diag].real
    z = b[:, rows, cols]
    keep_diag = ~(np.abs(vals) <= cutoff)
    thresh = PARTITION_REL_THRESHOLD * np.abs(b).max(axis=(1, 2), initial=0.0)
    mag = np.abs(z)
    keep_pair = ~(mag <= cutoff) & ~(mag <= thresh[:, None])

    # the eigenvectors of eig_rank2_pair, (|r> +- phase |c>)/sqrt(2); it takes
    # |z| from Python's complex abs, which np.hypot matches bitwise and np.abs
    # does not
    absz = np.hypot(z.real, z.imag)
    root2 = math.sqrt(2.0)
    phase = np.divide(np.conj(z), absz, out=np.zeros_like(z), where=keep_pair)
    vecs = np.zeros((m, _AD2_SLOTS, 16), dtype=complex)
    vecs[:, np.arange(_AD2_DIAG_SLOTS), diag] = 1.0
    vecs[:, plus, rows] = vecs[:, plus + 1, rows] = 1.0 / root2
    vecs[:, plus, cols] = phase / root2
    vecs[:, plus + 1, cols] = -phase / root2
    weights = np.concatenate([np.where(keep_diag, np.sqrt(np.abs(vals)), 0.0),
                              np.repeat(np.where(keep_pair, np.sqrt(absz), 0.0), 2, axis=1)], axis=1)
    signs = np.concatenate([np.where(keep_diag, np.where(vals > 0, 1, -1), 0),
                            np.repeat(keep_pair, 2, axis=1) * np.tile([1, -1], len(_AD2_PAIRS))], axis=1)
    if not (signs > 0).any(axis=1).all():
        raise ValueError("extraction produced no positive operators")
    ops = (weights[..., None] * vecs).reshape(m, _AD2_SLOTS, 4, 4).swapaxes(-1, -2)
    return ops, signs


def ad2_signed_kraus(co: Ad2Coefficients, strategy: str = "diag-pairs",
                     cutoff: float = 1e-12, jacobi_tol: float = 1e-13) -> SignedKrausSet:
    """Signed operators of the two-qubit damping channel, export-ordered.

    Diagonal operators are relabeled by their population coefficient and
    ordered (H, G, F, E, D, C, A, 1, B); pair operators follow by ascending
    Choi position, + before -.  A negative diagonal operator keeps its
    ``diag[i]`` label and its place in the negative list, ahead of the pairs.
    Diag-pairs is ``ad2_diag_pairs_operators`` on a stack of one.
    """
    if strategy == "diag-pairs":
        ops, signs = ad2_diag_pairs_operators(choi_2ad(co)[None], cutoff=cutoff)
        ops, signs = ops[0], signs[0]
        pos = [k for k in range(_AD2_SLOTS) if signs[k] > 0]
        neg = [k for k in _AD2_NEGATIVE_ORDER if signs[k] < 0]
        return SignedKrausSet(tuple(ops[k] for k in pos), tuple(ops[k] for k in neg),
                              tuple(_AD2_POSITIVE_LABELS[k] for k in pos),
                              tuple(_AD2_NEGATIVE_LABELS[k] for k in neg))

    part = ad2_partition(co, strategy)
    ks = extract_signed_kraus(part, cutoff=cutoff, jacobi_tol=jacobi_tol)
    if strategy == "full-spectral":
        return ks

    by_label = dict(zip(ks.positive_labels, ks.positive))
    pos, plab = [], []
    for idx in AD2_DIAG_EXPORT_ORDER:
        key = f"diag[{idx}]"
        if key in by_label:
            pos.append(by_label.pop(key))
            plab.append(AD2_DIAG_LABELS[idx])
    for lab, op in zip(ks.positive_labels, ks.positive):
        if lab in by_label:  # non-diagonal leftovers keep their extraction order
            pos.append(op)
            plab.append(lab)
    return SignedKrausSet(tuple(pos), ks.negative, tuple(plab), ks.negative_labels)


def charpoly_checks(co: Ad2Coefficients, diag_tol: float = 1e-10,
                    pair_tol: float = 1e-12, jacobi_tol: float = 1e-13) -> dict:
    """Compare block spectra of the partitioned Choi matrix with closed forms.

    The diagonal element must carry the nine population coefficients plus
    seven zeros; each pair element contributes exactly ±|coefficient|.
    Spectra are computed with the iterative eigensolver so this doubles as an
    end-to-end check of it.  Returns per-block expected/computed spectra,
    per-block error, and an overall flag.
    """
    b = choi_2ad(co)
    report: dict = {"blocks": {}, "max_error": 0.0, "ok": True}

    diag_el = np.diag(np.diagonal(b))
    computed = eigvals_hermitian(diag_el, tol=jacobi_tol)
    expected = np.sort(np.concatenate([list(_ad2_diag_values(co).values()), np.zeros(7)]))[::-1]
    err = float(np.max(np.abs(np.sort(computed) - np.sort(expected))))
    report["blocks"]["diag"] = {
        "expected": expected.tolist(), "computed": computed.tolist(), "error": err,
        "ok": err <= diag_tol,
    }

    for (r, c), z in _ad2_pair_values(co).items():
        label = AD2_PAIR_LABELS[(r, c)]
        computed = eigvals_hermitian(_pair_element(b, r, c, z), tol=jacobi_tol)
        expected = np.concatenate([[abs(z)], np.zeros(14), [-abs(z)]])
        err = float(np.max(np.abs(np.sort(computed) - np.sort(expected))))
        report["blocks"][label] = {
            "expected_nonzero": [abs(z), -abs(z)],
            "computed_nonzero": [float(computed[0]), float(computed[-1])],
            "error": err, "ok": err <= pair_tol,
        }

    errors = [blk["error"] for blk in report["blocks"].values()]
    report["max_error"] = max(errors)
    report["ok"] = all(blk["ok"] for blk in report["blocks"].values())
    return report
