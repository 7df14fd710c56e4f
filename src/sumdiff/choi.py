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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .channels import Ad2Coefficients, SignedKrausSet
from .linalg import (
    _matrix,
    _number,
    dagger,
    eig_hermitian,
    eigvals_hermitian,
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
    "standard_kraus_from_choi",
    "trace_preservation_residual",
]

# Names of the partition strategies, the default first.
PARTITIONS = ("diag-pairs", "split-real-imag", "full-spectral")

# Entries of at most this fraction of the largest Choi entry are structural
# zeros to the partitions, and so to the stacked diag-pairs extraction.
PARTITION_REL_THRESHOLD = 1e-14


def choi_from_channel(action: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Assemble the Choi matrix of a channel given as a callable on matrices.

    ``action`` is evaluated on each matrix unit |j><k|; block (j, k) of the
    result is E(|j><k|).  Linearity is spot-checked first on a seeded random
    pair of inputs, within 1e-10 relative, so a silently nonlinear callable
    fails loudly; a non-finite output there is refused first.
    """
    if not _number(dim, True) >= 1:
        raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")
    rng = np.random.default_rng(2718)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    al = complex(rng.standard_normal(), rng.standard_normal())
    be = complex(rng.standard_normal(), rng.standard_normal())
    lhs = np.asarray(action(al * x + be * y), dtype=complex)
    if not np.isfinite(lhs).all():
        raise ValueError(f"action returned a non-finite value, {lhs[~np.isfinite(lhs)][0]}")
    rhs = al * action(x) + be * action(y)
    if not max_abs(lhs - rhs) <= 1e-10 * max(1.0, max_abs(rhs)):  # so that a NaN fails too
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
    b = _matrix("b", b, finite=False)
    d = math.isqrt(len(b))
    if d * d != len(b):
        raise ValueError(f"b must be a d^2 x d^2 matrix, got shape {b.shape}")
    traced = partial_trace(b, d, d)
    traced.flat[::d + 1] -= 1.0
    return max_abs(traced)


# ---------------------------------------------------------------------------
# the two-qubit damping Choi matrix

# Where each coefficient sits in the 16 x 16 Choi matrix, as (label, row,
# column) in export order: the nine populations on the diagonal in the order
# of their operators, then the eight coherences at (r, c), r < c, ascending.
# The conjugate of a coherence sits at (c, r).
_AD2_LAYOUT = (
    ("H", 3, 3), ("G", 11, 11), ("F", 7, 7), ("E", 2, 2), ("D", 10, 10),
    ("C", 1, 1), ("A", 0, 0), ("1", 15, 15), ("B", 5, 5),
    ("J", 0, 5), ("M", 0, 10), ("L", 0, 15), ("U+iV", 1, 7), ("iS-R", 2, 11),
    ("P", 5, 10), ("T", 5, 15), ("Q", 10, 15),
)

# From the layout: the coherence coefficient at each position of the upper
# triangle, the population coefficient at each nonzero diagonal position
# (ascending), and the diagonal positions in the export order of their operators.
AD2_PAIR_LABELS: dict[tuple[int, int], str] = {(r, c): label for label, r, c in _AD2_LAYOUT if r != c}
AD2_DIAG_LABELS: dict[int, str] = dict(sorted((r, label) for label, r, c in _AD2_LAYOUT if r == c))
AD2_DIAG_EXPORT_ORDER: tuple[int, ...] = tuple(r for _, r, c in _AD2_LAYOUT if r == c)


def _ad2_values(co: Ad2Coefficients) -> dict:
    """The value of every label of the layout, and of the parts of the two
    composite coherences that split-real-imag separates, given ``co``."""
    parts = {"iV": 1j * co.V, "iS": 1j * co.S, "-R": -co.R}
    return vars(co) | parts | {"1": 1.0, "U+iV": co.U + parts["iV"], "iS-R": parts["iS"] + parts["-R"]}


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
    values = _ad2_values(co)
    for label, r, c in _AD2_LAYOUT:  # the mirror first, so a diagonal entry ends as its value
        b[lead + (c, r)] = np.conj(values[label])
        b[lead + (r, c)] = values[label]
    return b


# ---------------------------------------------------------------------------
# Hermitian partitions


@dataclass(frozen=True, eq=False)  # equal only to itself: its fields hold arrays
class HermitianPartition:
    """Hermitian matrices summing to a target Hermitian matrix.

    Elements may overlap in support; only Hermiticity of each element and
    (when a reference is supplied at construction) the telescoping sum are
    enforced.  ``stack`` holds the elements as one (p, n, n) array.
    """

    elements: tuple
    labels: tuple
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack = _matrix("elements", self.elements, ndims=(3,), finite=False)  # square matrices of one shape
        top = np.abs(stack).max(axis=(1, 2), initial=0.0)
        if not (top < math.inf).all():  # NaN too
            raise ValueError("elements must be finite")
        # is_hermitian(e, 1e-12 * max(1, max_abs(e))) for the whole stack at once
        asym = np.abs(stack - dagger(stack)).max(axis=(1, 2), initial=0.0)
        if not (asym <= 1e-12 * np.maximum(1.0, top)).all():
            raise ValueError("every element must be Hermitian and same-shaped")
        self._keep(stack, self.labels)

    @classmethod
    def _of_hermitian(cls, stack: np.ndarray, labels: tuple) -> "HermitianPartition":
        """The partition of a complex (p, n, n) stack whose elements are
        Hermitian by construction, which is not checked again."""
        part = object.__new__(cls)
        part._keep(stack, labels)
        return part

    def _keep(self, stack: np.ndarray, labels) -> None:
        if not len(stack):
            raise ValueError("a partition needs at least one element")
        labs = tuple(labels) or tuple(f"E{i}" for i in range(len(stack)))
        if len(labs) != len(stack):
            raise ValueError("labels must match elements in count")
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "stack", stack)

    def sum_matrix(self) -> np.ndarray:
        return self.stack.sum(axis=0)


def partition_from_elements(elements: Sequence, labels: Sequence[str] = (), reference=None) -> HermitianPartition:
    """Build a partition from explicit Hermitian elements.

    When ``reference`` is given the elements must sum to it within 1e-12
    max(1, max|reference|) (max-entry).  Signed splits such as (B_plus,
    -B_minus) are expressed by passing the negated matrix as an element.
    """
    part = HermitianPartition(tuple(elements), tuple(labels))
    if reference is not None:
        resid = max_abs(part.sum_matrix() - _matrix("reference", reference, part.stack.shape[1]))
        if resid > 1e-12 * max(1.0, max_abs(reference)):
            raise ValueError(f"elements do not sum to the reference (residual {resid:.3e})")
    return part


def partition_full(b, label: str = "full") -> HermitianPartition:
    """Trivial partition: the whole matrix as a single element."""
    return HermitianPartition((_matrix("b", b, finite=False),), (label,))  # its one element is checked as such


def partition_diag_pairs(b, labels: Mapping[tuple[int, int], str] | None = None) -> HermitianPartition:
    """Split a Hermitian matrix into its diagonal plus one element per
    off-diagonal pair.

    Pair (r, c) with r < c contributes z |r><c| + conj(z) |c><r|.  Entries
    with magnitude at most PARTITION_REL_THRESHOLD times the largest entry
    are treated as structural zeros.  Elements are ordered diagonal first,
    then pairs by ascending (r, c), labelled ``labels[(r, c)]`` or "(r,c)".
    """
    return HermitianPartition._of_hermitian(*_diag_pairs(_matrix("b", b, finite=False), labels)[:2])


def _diag_pairs(b: np.ndarray, labels) -> tuple:
    """The stack and labels of ``partition_diag_pairs(b, labels)``, and max|b|."""
    top = max_abs(b)
    if not top < math.inf:  # NaN too
        raise ValueError(f"b must be finite, got an entry of magnitude {top}")
    if not max_abs(b - dagger(b)) <= 1e-12 * max(1.0, top):
        raise ValueError("partition_diag_pairs expects a Hermitian matrix")
    n = b.shape[0]
    thresh = PARTITION_REL_THRESHOLD * top
    diag = np.diagonal(b).real
    k = int(max_abs(diag) > thresh)  # the diagonal element, if any
    # |z| through np.hypot, bitwise Python's abs of a complex, which np.abs is not
    rows, cols = np.nonzero(np.triu(np.hypot(b.real, b.imag) > thresh, 1))
    z = b[rows, cols]
    stack = np.zeros((k + len(z), n * n), dtype=complex)
    stack[:k, ::n + 1] = diag
    at = np.arange(k, len(stack))
    stack[at, rows * n + cols] = z
    stack[at, cols * n + rows] = z.conj()
    labels = labels or {}
    return stack.reshape(-1, n, n), ("diag",) * k + tuple(
        labels.get((r, c), f"({r},{c})") for r, c in zip(rows.tolist(), cols.tolist())), top


def partition_from_masks(b, masks: Sequence, labels: Sequence[str] = ()) -> HermitianPartition:
    """Partition by disjoint boolean masks over entry positions.

    Each mask must be symmetric (include (c, r) with (r, c)); together the
    masks must cover every entry above PARTITION_REL_THRESHOLD times the
    largest exactly once.  Element i is the entrywise product b * mask_i.
    """
    b = _matrix("b", b)
    n = b.shape[0]
    thresh = PARTITION_REL_THRESHOLD * max_abs(b)
    cover = np.zeros((n, n), dtype=int)
    elements = []
    for mk in masks:
        mk = np.asarray(mk, dtype=bool)
        if mk.shape != b.shape:
            raise ValueError(f"masks must each have the shape of b, {b.shape}, got {mk.shape}")
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


# split-real-imag's parts of each composite coherence, and where it sits
_AD2_SPLIT = {"U+iV": ("U", "iV"), "iS-R": ("iS", "-R")}
_AD2_POSITION = {label: (r, c) for label, r, c in _AD2_LAYOUT}


def ad2_partition(co: Ad2Coefficients, strategy: str = "diag-pairs", b=None) -> HermitianPartition:
    """Partition the two-qubit damping Choi matrix by the named strategy.

    diag-pairs        diagonal plus one element per coherence position (1 + up to 8)
    split-real-imag   like diag-pairs but the two composite coherences are split
                      into their named parts, U + iV and iS + (-R) (1 + up to 10)
    full-spectral     the whole matrix as one element

    ``b`` is ``choi_2ad(co)`` if the caller has built it.
    """
    if strategy not in PARTITIONS:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    b = choi_2ad(co) if b is None else _matrix("b", b, 16, finite=False)
    if strategy == "full-spectral":
        return partition_full(b)
    pairs, pair_labels, top = _diag_pairs(b, AD2_PAIR_LABELS)
    if strategy == "diag-pairs":
        return HermitianPartition._of_hermitian(pairs, pair_labels)

    # Splitting U + iV (and iS - R) needs the coefficients themselves: the
    # parts are not the real/imaginary entry components since U and V share
    # a common phase.  A part is at most as large as its pair, so every part
    # above threshold belongs to a pair element.  Each part takes a copy of
    # its pair's row, with its value written over the pair's two entries.
    values = _ad2_values(co)
    rows, labels, parts = [], [], []
    for i, label in enumerate(pair_labels):
        if label not in _AD2_SPLIT:
            rows.append(i)
            labels.append(label)
            continue
        for name in _AD2_SPLIT[label]:
            if abs(values[name]) > PARTITION_REL_THRESHOLD * top:
                parts.append((len(rows), _AD2_POSITION[label], values[name]))
                rows.append(i)
                labels.append(name)
    stack = pairs.take(rows, axis=0)
    for j, (r, c), z in parts:  # at most four: scalar writes beat a fancy-indexed scatter
        stack[j, r, c] = z
        stack[j, c, r] = np.conj(z)
    resid = float(np.abs(np.add.reduce(stack) - b).max())
    if resid > 1e-12 * max(1.0, top):
        raise ValueError(f"elements do not sum to the reference (residual {resid:.3e})")
    return HermitianPartition._of_hermitian(stack, tuple(labels))


# ---------------------------------------------------------------------------
# extraction


def _signed_operators(values, vectors, cutoff: float) -> tuple:
    """Signed operators of eigenpairs, ``values`` (..., s) and unit ``vectors``
    (..., s, n) as rows, n = d^2, by one rule: a pair is kept if |value|
    exceeds ``cutoff``.  Returns fold(sqrt(|value|) * vector), (..., s, d, d),
    and the signs (..., s) in {1, -1}, 0 and a zero operator if dropped."""
    size = np.abs(values)
    keep = ~(size <= cutoff)
    # a product, not the vectors weighted in place: ``_closed_form``'s zeroed buffer as
    # the operators' base doubled sweep's page faults and cost it 4 % (in-process, 200 steps)
    ops = np.where(keep, np.sqrt(size), 0.0)[..., None] * vectors
    signs = np.where(keep, np.where(values > 0, 1, -1), 0)
    return ops.reshape(*ops.shape[:-1], math.isqrt(ops.shape[-1]), -1).swapaxes(-1, -2), signs


def _closed_form(n: int, vals, diag, z, rows, cols, cutoff: float) -> tuple:
    """``_signed_operators``, without a solve, of the diagonal values ``vals``
    (m, a) at basis indices ``diag`` (a,), eigenvector |i> each, and of the
    pairs z |r><c| + conj(z) |c><r| for ``z`` (m, b) at (``rows``, ``cols``)
    (b,), r < c: eigenvalues +-|z|, vectors (|r> +- (conj(z)/|z|) |c>)/sqrt(2),
    |z| from np.hypot, bitwise Python's complex abs, which np.abs is not.
    The slots (m, a + 2b) are the diagonal ones, then a + and a - slot per
    pair; a zero z has phase 0.
    """
    m, a = vals.shape
    absz = np.hypot(z.real, z.imag)
    phase, root2 = np.divide(z.conj(), absz, out=np.zeros_like(z), where=absz > 0.0), math.sqrt(2.0)
    slots = np.arange(a + 2 * len(rows))
    vecs = np.zeros((m, len(slots), n), dtype=complex)
    vecs[:, slots[:a], diag] = 1.0
    vecs[:, slots[a:], rows.repeat(2)] = 1.0 / root2
    vecs[:, slots[a::2], cols] = phase / root2
    vecs[:, slots[a + 1::2], cols] = -phase / root2
    return _signed_operators(np.concatenate([vals, np.stack([absz, -absz], axis=2).reshape(m, -1)], axis=1),
                             vecs, cutoff)


@functools.lru_cache(maxsize=64)
def _element_kinds(p: int, n: int, pattern: bytes, labels: tuple, relabel: tuple) -> tuple:
    """For a stacked pattern (p, n, n) of entries above threshold: the
    elements with no off-diagonal entry, those that are one mirrored pair off
    an empty diagonal, with its (rows, cols), r < c, and the others; then
    each slot's label as a positive operator (``relabel`` applied) and as a
    negative one, in the order ``extract_signed_kraus`` makes the slots; and
    the stable order of the slots by element, for the positive operators
    with the relabeled ones first, by their rank in ``relabel``."""
    big = np.frombuffer(pattern, dtype=bool).reshape(p, n * n).copy()
    on_diag = big[:, ::n + 1].any(axis=1)
    big[:, ::n + 1] = False
    e, rows, cols = big.reshape(p, n, n).nonzero()
    count = np.bincount(e, minlength=p)
    pair = (count == 2) & (np.bincount(e, big[e, cols * n + rows], minlength=p) == 2) & ~on_diag
    upper = pair[e] & (rows < cols)
    diag, general, pair = (count == 0).nonzero()[0], ((count > 0) & ~pair).nonzero()[0], pair.nonzero()[0]
    slots = ([(e, f"[{i}]") for e in diag.tolist() for i in range(n)] + [(e, s) for e in pair.tolist() for s in "+-"]
             + [(e, f"[{k}]") for e in general.tolist() for k in range(n)])
    names = [f"{labels[e]}{suffix}" for e, suffix in slots]
    rank, renamed = {name: i for i, (name, _) in enumerate(relabel)}, dict(relabel)
    order = np.argsort([e for e, _ in slots], kind="stable")
    first = order[np.argsort([rank.get(names[k], len(rank)) for k in order], kind="stable")]
    kinds = (diag, pair, rows[upper], cols[upper], np.array([renamed.get(name, name) for name in names], dtype=object),
             np.array(names, dtype=object), first, order)
    for shared in kinds:  # every call with this pattern gets these arrays
        shared.flags.writeable = False
    return *kinds[:4], tuple(general.tolist()), *kinds[4:]


def _check_cutoff(cutoff: float) -> None:
    if not 0 <= _number(cutoff) < math.inf:  # a NaN or negative cutoff keeps zero-weight operators
        raise ValueError(f"cutoff must be a nonnegative number and finite, got {cutoff!r}")


def extract_signed_kraus(partition: HermitianPartition, cutoff: float = 1e-12,
                         relabel: Mapping[str, str] | None = None) -> SignedKrausSet:
    """Extract signed operators from a partitioned Choi matrix.

    Each element is eigendecomposed; eigenpairs with |value| <= cutoff are
    dropped, and fold(sqrt(|value|) * vector) joins the positive or negative
    list by the sign of the eigenvalue.  From the pattern of the partition's
    stack above PARTITION_REL_THRESHOLD * max(1, max|element|), the diagonal
    elements (labels ``label[i]``, by basis index) and single-pair ones
    (``label+``, ``label-``) take one ``_closed_form`` together, every other
    element ``eig_hermitian`` alone (``label[k]``, by descending eigenvalue).
    Operator order follows the partition, so equal inputs give byte-equal
    outputs; except that every positive operator whose label is a key of
    ``relabel`` takes its value as label and comes first, by the key's place
    in ``relabel``, then in partition order (elements may share a label).
    ``cutoff`` must be finite and nonnegative.
    """
    _check_cutoff(cutoff)
    stack = partition.stack
    p, n, _ = stack.shape
    mag = np.abs(stack)
    big = mag > (PARTITION_REL_THRESHOLD * np.maximum(1.0, mag.max(axis=(1, 2))))[:, None, None]
    diag, pair, rows, cols, general, pos_labels, neg_labels, first, order = _element_kinds(
        p, n, big.tobytes(), partition.labels, tuple((relabel or {}).items()))
    parts = []  # (operators, signs) of the closed-form elements, then of each general one
    if diag.size or pair.size:
        vals = stack[diag].diagonal(axis1=1, axis2=2).real.reshape(1, -1)
        got = _closed_form(n, vals, np.arange(vals.size) % n, stack[pair, rows, cols][None], rows, cols, cutoff)
        parts.append([x[0] for x in got])
    for e in general:
        sys = eig_hermitian(stack[e])
        parts.append(_signed_operators(sys.values, sys.vectors.T, cutoff))  # column k is vector k
    ops, signs = map(np.concatenate, zip(*parts))
    pos, neg = first[signs[first] > 0], order[signs[order] < 0]
    if not pos.size:
        raise ValueError("extraction produced no positive operators")
    return SignedKrausSet.of_stack(ops[np.concatenate([pos, neg])], len(pos), pos_labels[pos], neg_labels[neg])


def reconstruct_choi(ks: SignedKrausSet) -> np.ndarray:
    """Rebuild sum |unfold(K+)><unfold(K+)| - sum |unfold(K-)><unfold(K-)|:
    the read-only Choi matrix the set computes once, on the first call,
    bitwise ``reconstruct_choi_stack(*ks.stacked())[0]``."""
    return ks._choi


def standard_kraus_from_choi(b) -> SignedKrausSet:
    """Operators from the full Choi eigensystem (no partitioning), cutoff 1e-12.

    For a completely positive channel the negative list comes back empty;
    negative eigenvalues below -1e-12 land there otherwise.
    """
    return extract_signed_kraus(partition_full(b, label="S"))


def ad2_diag_pairs_operators(chois, cutoff: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Diag-pairs signed operators of a stack (m, 16, 16) of two-qubit
    damping Choi matrices, gathered into one ``_closed_form``.

    Returns the folded operators (m, 25, 4, 4) and their signs (m, 25) in
    {1, -1, 0}: slots 0-8 hold the diagonal positions in
    ``AD2_DIAG_EXPORT_ORDER``, then each position of ``AD2_PAIR_LABELS``
    (ascending) a + and a - slot.  A slot is dropped (sign 0, zero operator)
    as ``ad2_signed_kraus`` drops it: |value| <= cutoff, or for a pair |z| <=
    PARTITION_REL_THRESHOLD * max|B|.  The kept operators are bitwise the
    ones ``ad2_signed_kraus`` exports; only the upper triangle is read.
    ``cutoff`` must be finite and nonnegative.
    """
    _check_cutoff(cutoff)
    b = _matrix("chois", chois, 16, (3,), finite=False)
    top = np.abs(b).max(axis=(1, 2), initial=0.0)  # the threshold's pass, which also finds a non-finite entry
    if not (top < math.inf).all():  # NaN too
        raise ValueError("chois must be finite")
    diag = np.array(AD2_DIAG_EXPORT_ORDER)
    rows, cols = np.array(list(AD2_PAIR_LABELS)).T
    z = b[:, rows, cols]
    z[np.hypot(z.real, z.imag) <= PARTITION_REL_THRESHOLD * top[:, None]] = 0.0
    ops, signs = _closed_form(16, b[:, diag, diag].real, diag, z, rows, cols, cutoff)
    if not (signs > 0).any(axis=1).all():
        raise ValueError("extraction produced no positive operators")
    return ops, signs


# the positive diagonal operators of an ad2 export, relabeled in export order
_AD2_DIAG_RELABEL = {f"diag[{r}]": label for label, r, c in _AD2_LAYOUT if r == c}


def ad2_signed_kraus(co: Ad2Coefficients, strategy: str = "diag-pairs",
                     cutoff: float = 1e-12, b=None) -> SignedKrausSet:
    """Signed operators of the two-qubit damping channel, export-ordered:
    ``extract_signed_kraus`` of ``ad2_partition``, the positive diagonal
    operators relabeled by population coefficient in the order (H, G, F, E,
    D, C, A, 1, B), the other positive ones after them in extraction order
    (for diag-pairs by ascending Choi position, + before -).  A negative
    diagonal operator keeps its ``diag[i]`` label and its place.  ``b`` is
    ``choi_2ad(co)`` if the caller has built it."""
    return extract_signed_kraus(ad2_partition(co, strategy, b=b), cutoff=cutoff, relabel=_AD2_DIAG_RELABEL)


def charpoly_checks(co: Ad2Coefficients) -> dict:
    """Compare block spectra of the partitioned Choi matrix with closed forms.

    The diagonal element must carry the nine population coefficients plus
    seven zeros, within 1e-10; each pair element contributes exactly
    ±|coefficient|, within 1e-12.  Spectra are computed with the iterative
    eigensolver, in one solve of the stack of all nine elements, so this
    doubles as an end-to-end check of it.  Returns per-block
    expected/computed spectra, per-block error, and an overall flag.
    """
    b, values = choi_2ad(co), _ad2_values(co)
    report: dict = {"blocks": {}, "max_error": 0.0, "ok": True}

    # the diagonal element, then z |r><c| + conj(z) |c><r| per pair position
    rows, cols = np.array(list(AD2_PAIR_LABELS)).T
    z, at = b[rows, cols], np.arange(1, 1 + len(rows))
    stack = np.zeros((1 + len(rows), 16, 16), dtype=complex)
    stack[0] = np.diag(np.diagonal(b))
    stack[at, rows, cols], stack[at, cols, rows] = z, z.conj()
    spectra = eigvals_hermitian(stack)

    expected = np.sort(np.concatenate([[values[label] for label in AD2_DIAG_LABELS.values()], np.zeros(7)]))[::-1]
    err = float(np.max(np.abs(np.sort(spectra[0]) - np.sort(expected))))
    report["blocks"]["diag"] = {"expected": expected.tolist(), "computed": spectra[0].tolist(), "error": err,
                                "ok": err <= 1e-10}

    for label, size, computed in zip(AD2_PAIR_LABELS.values(), np.hypot(z.real, z.imag).tolist(), spectra[1:]):
        expected = np.concatenate([[size], np.zeros(14), [-size]])
        err = float(np.max(np.abs(np.sort(computed) - np.sort(expected))))
        report["blocks"][label] = {
            "expected_nonzero": [size, -size],
            "computed_nonzero": [float(computed[0]), float(computed[-1])],
            "error": err, "ok": err <= 1e-12,
        }

    report["max_error"] = max(blk["error"] for blk in report["blocks"].values())
    report["ok"] = all(blk["ok"] for blk in report["blocks"].values())
    return report
