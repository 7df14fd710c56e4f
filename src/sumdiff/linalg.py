"""Dense linear-algebra helpers shared across the package.

Two conventions are fixed here and relied on everywhere else:

* ``unfold`` stacks matrix columns, ``unfold(A)[d*j + k] == A[k, j]``.  With
  this convention the projector onto ``unfold(A)`` equals
  ``sum_jk |j><k| (x) A |j><k| A^dag``, which is what ties operator matrices
  to blocks of the Choi matrix.
* Eigenvectors are phase-fixed so their largest-magnitude component is real
  and nonnegative, which makes operators extracted from eigensystems
  reproducible run to run.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSystem",
    "JacobiConvergenceError",
    "dagger",
    "eig_hermitian",
    "eig_rank2_pair",
    "eigvals_hermitian",
    "fold",
    "is_hermitian",
    "is_psd",
    "kron",
    "max_abs",
    "partial_trace",
    "partial_transpose",
    "unfold",
]


_REALS, _INTEGERS = (float, int, np.floating, np.integer), (int, np.integer)


def _number(x, integer: bool = False):
    """``x`` if it is a real number (an integer, with ``integer``) and not a
    bool, else NaN, which fails every range test: for the checks of values."""
    kinds = _INTEGERS if integer else _REALS
    return x if type(x) in kinds or isinstance(x, kinds) and not isinstance(x, bool) else math.nan


def _matrix(name: str, a, n=None, ndims=(2,), finite: bool = True) -> np.ndarray:
    """``a`` as a complex array with a number of dimensions in ``ndims``, the
    last two n x n (square, for n None), and finite entries unless ``finite``
    is False; else ValueError naming ``name``."""
    try:
        a = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):  # a string, or lists of unequal lengths
        a = np.zeros(0)
    side = a.shape[-1] if n is None and a.ndim else n
    if a.ndim not in ndims or a.shape[-2:] != (side, side) or finite and not np.isfinite(a).all():
        dims = f"{ndims[0]} or more" if len(ndims) > 2 else " or ".join(map(str, ndims))
        raise ValueError(f"{name} must be an array of {dims} dimensions of {'finite ' * finite}"
                         f"{f'{n} x {n}' if n else 'square'} matrices, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def max_abs(a) -> float:
    """Largest entry magnitude (max-entry norm)."""
    return float(np.abs(a).max(initial=0.0))


def is_hermitian(a, tol: float = 1e-12) -> bool:
    """True if ``a`` is a finite square matrix equal to its conjugate
    transpose within ``tol``, which must be nonnegative and finite."""
    if not 0 <= _number(tol) < math.inf:
        raise ValueError(f"tol must be a nonnegative number and finite, got {tol!r}")
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.isfinite(a).all():
        return False
    return max_abs(a - dagger(a)) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product, composite row index (i, j) -> i*rows(b) + j."""
    return np.kron(np.asarray(a), np.asarray(b))


def unfold(a) -> np.ndarray:
    """Column-stack a square matrix into a vector: unfold(a)[d*j + k] == a[k, j]."""
    return _matrix("a", a, finite=False).T.reshape(-1)


def fold(v) -> np.ndarray:
    """Inverse of unfold: a length-d^2 vector back into a d x d matrix."""
    try:
        v = np.asarray(v, dtype=complex)
    except (TypeError, ValueError):  # a string, or lists of unequal lengths
        v = np.zeros(())  # fails the check below
    d = math.isqrt(v.size)
    if v.ndim != 1 or d * d != v.size:
        raise ValueError(f"v must be a vector of perfect-square length, got shape {v.shape}")
    return v.reshape(d, d).T.copy()


@dataclass(frozen=True, eq=False)  # equal only to itself: its fields hold arrays
class EigenSystem:
    """Real eigenvalues in descending order with matching unit eigenvectors.

    ``vectors[:, i]`` belongs to ``values[i]``.  May hold fewer pairs than the
    ambient dimension when the remaining eigenvalues are known to vanish.  A
    stacked solve holds ``values`` of shape (m, n) and ``vectors`` of shape
    (m, n, n), with ``vectors[k, :, i]`` belonging to ``values[k, i]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of values[i] * v_i v_i^dag over the stored pairs."""
        return (self.vectors * self.values[..., None, :]) @ dagger(self.vectors)


class JacobiConvergenceError(RuntimeError):
    """Jacobi iteration failed to reach the target off-diagonal norm."""


_HALF_ROOT = 1.0 / math.sqrt(2.0)
# a pivot below the smallest normal number gets the identity rotation: numpy
# divides b / |b| through 1 / |b|, which overflows there
_TINY = sys.float_info.min


def _round_robin(members: list) -> list:
    """Rounds of disjoint pairs that meet every pair of ``members`` once.

    Circle method: the first seat stays put, the others turn one place per
    round, and seat i faces seat len - 1 - i.  An odd count gets an empty
    seat, whose partner sits the round out.
    """
    seats = list(members) + ([None] if len(members) % 2 else [])
    half = len(seats) // 2
    rounds = []
    for _ in range(len(seats) - 1):
        rounds.append([(min(p, q), max(p, q))
                       for p, q in zip(seats[:half], reversed(seats[half:]))
                       if p is not None and q is not None])
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return rounds


@functools.cache
def _jacobi_schedule(k: int) -> list:
    """Rotation rounds for a dense k x k matrix, one round-robin.

    Each round is returned as flat indices into a row-major k x k matrix:
    (pivot, p-diagonal, q-diagonal) entries, the four entries of the
    rotation, and the mirrored pivot entry.
    """
    rounds = []
    for pairs in _round_robin(list(range(k))):
        pivot = [p * k + q for p, q in pairs]
        p_diag = [p * (k + 1) for p, _ in pairs]
        q_diag = [q * (k + 1) for _, q in pairs]
        mirror = [q * k + p for p, q in pairs]
        rounds.append((np.array(pivot + p_diag + q_diag),
                       np.array(p_diag + pivot + mirror + q_diag),
                       np.array(mirror)))
    return rounds


@functools.lru_cache(maxsize=256)
def _components(n: int, pattern: bytes) -> tuple:
    """Connected components of an n x n symmetric boolean pattern, grouped
    by size k ascending: (k, members, (row start, column)) per size, with
    ``members`` the (c, k) array of each component's indices, ascending
    within a component and ordered by the smallest, and the row starts and
    columns of the entries of the components' k x k blocks in a row-major
    n x n matrix, block after block; after the groups, the flat indices of
    all their entries in one array, and for each entry the place in that
    array of its mirror entry (j, i)."""
    links = np.frombuffer(pattern, dtype=bool).reshape(n, n)
    seen = [False] * n
    groups = {}
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for i in component:  # breadth-first: the list grows as it is walked
            for j in np.flatnonzero(links[i]).tolist():
                if not seen[j]:
                    seen[j] = True
                    component.append(j)
        groups.setdefault(len(component), []).append(sorted(component))
    out, flats = [], [np.zeros(0, int)]
    for k, members in sorted(groups.items()):
        members = np.array(members)
        flats.append(flat := (members[:, :, None] * n + members[:, None, :]).ravel())
        out.append((k, members, (flat - flat % n, flat % n)))
    every = np.concatenate(flats)
    place = np.empty(n * n, int)
    place[every] = np.arange(every.size)
    return tuple(out), every, place[every % n * n + every // n]


def _angles(mag: np.ndarray, diff: np.ndarray) -> tuple:
    """cos and sin of the angle theta with tan(2 theta) = 2 mag / diff that
    zeroes a pivot of magnitude ``mag`` between diagonal entries differing
    by ``diff``; a pivot below the smallest normal number is dead and gets
    theta = 0."""
    theta = np.arctan2(2.0 * mag, diff)
    theta *= 0.5
    c, s = np.cos(theta), np.sin(theta)
    dead = mag < _TINY  # arctan2 gives pi for a zero pivot over a negative diff
    c[dead], s[dead] = 1.0, 0.0
    return c, s


def _rotate(a: np.ndarray, vecs: np.ndarray, step: tuple, hold) -> tuple:
    """Apply one round of disjoint Jacobi rotations to every matrix of a stack.

    The rotation of pivot (p, q) has rows (c, -s e) and (s conj(e), c), with
    e the pivot's phase and tan(2 theta) = 2 |a_pq| / (a_pp - a_qq), and
    zeroes the pivot.  A dead pivot (see ``_angles``), or one of a matrix
    flagged in ``hold``, gets the identity rotation.  ``vecs`` None stands
    for the identity.
    """
    m, n = a.shape[:2]
    gather, place, mirror = step
    k = len(mirror)
    g = a.reshape(m, n * n)[:, gather]
    b = g[:, :k] if hold is None else np.where(hold, 0.0, g[:, :k])
    mag = np.abs(b)
    c, s = _angles(mag, (g[:, k:2 * k] - g[:, 2 * k:]).real)
    se = s * (b / np.maximum(mag, _TINY))
    rot = np.zeros((m, n * n), dtype=complex)
    rot[:, ::n + 1] = 1.0
    rot[:, place] = np.concatenate((c, -se, se.conj(), c), axis=1)
    rot = rot.reshape(m, n, n)
    a = dagger(rot) @ a @ rot
    vecs = rot if vecs is None else vecs @ rot
    flat = a.reshape(m, n * n)
    flat[:, gather[:k]] = flat[:, mirror].conj()  # keep each zeroed pair exactly Hermitian
    return a, vecs


def _rotate_pairs(a: np.ndarray, hold) -> tuple:
    """``_rotate`` for a stack of 2 x 2 Hermitian matrices [[p, b], [conj(b), q]].

    One rotation diagonalizes each matrix, so it is done in closed form: the
    new diagonal is c^2 p + s^2 q + 2 c s |b| and s^2 p + c^2 q - 2 c s |b|.
    Equal diagonal entries take c = s = 1/sqrt(2), the value of
    ``eig_rank2_pair``, which cos(pi/4) misses by one bit.  ``hold`` is as
    for ``_rotate``.  Returns the new diagonals (m, 2), which are the
    eigenvalues, and the rotations (m, 2, 2), whose columns are the vectors.
    """
    p, q, b = a[:, 0, :1].real, a[:, 1, 1:].real, a[:, 0, 1:]
    if hold is not None:
        b = np.where(hold, 0.0, b)
    mag = np.abs(b)
    diff = p - q
    c, s = _angles(mag, diff)
    even = (diff == 0.0) & (mag >= _TINY)
    c[even] = s[even] = _HALF_ROOT
    se = s * (b / np.maximum(mag, _TINY))
    cc, ss, twice = c * c, s * s, 2.0 * c * s * mag
    return (np.concatenate((cc * p + ss * q + twice, ss * p + cc * q - twice), axis=1),
            np.concatenate((c, -se, se.conj(), c), axis=1).reshape(-1, 2, 2))


# Single-matrix solves, least recently used first: (shape, bytes, tol,
# max_sweeps) -> (bytes of the matrix and arrays, read-only (values,) or
# (values, vectors)).  A solve is a pure function of its key, and its values
# do not depend on the vectors, so a hit is bitwise what a solve gives.
_SOLVE_CACHE_BYTES = 1 << 20  # the most the sizes sum to
_solves, _solves_lock, _solves_size = {}, threading.Lock(), 0


def _solve(h, tol: float, max_sweeps: int, with_vectors: bool) -> tuple:
    """``_jacobi``'s values, and vectors if asked for; for a single matrix, copies
    of its kept solve, solved and kept first unless kept with them.  A stack is only solved."""
    global _solves_size
    if not 0 < _number(tol) < math.inf:  # a NaN tol never converges, an infinite one stops at once
        raise ValueError(f"tol must be a positive number and finite, got {tol!r}")
    if not _number(max_sweeps, True) >= 0:
        raise ValueError(f"max_sweeps must be an integer of at least 0, got {max_sweeps!r}")
    h = _matrix("h", h, ndims=(2, 3), finite=False)  # _gather checks the entries it solves
    if h.ndim != 2:
        return _jacobi(h, tol, max_sweeps, with_vectors)
    key = h.shape, h.tobytes(), tol, max_sweeps
    with _solves_lock:
        size, kept = _solves.get(key, (0, ()))
    if len(kept) <= with_vectors:  # not kept, or kept without the vectors asked for
        kept = _jacobi(h, tol, max_sweeps, with_vectors)[:1 + with_vectors]
        for a in kept:
            a.flags.writeable = False
        size = len(key[1]) + sum(a.nbytes for a in kept)
    with _solves_lock:  # (re)insert as the most recent, then drop the oldest over the cap
        _solves_size -= _solves.pop(key, (0,))[0]
        if size <= _SOLVE_CACHE_BYTES:
            _solves[key] = size, kept
            _solves_size += size
        while _solves_size > _SOLVE_CACHE_BYTES:
            _solves_size -= _solves.pop(next(iter(_solves)))[0]
    return tuple(a.copy() for a in kept[:1 + with_vectors])


def eig_hermitian(h, tol: float = 1e-13, max_sweeps: int = 100) -> EigenSystem:
    """Diagonalize a Hermitian matrix, or a stack of them, by Jacobi rotations.

    ``h`` is one n x n matrix or a stack of shape (m, n, n); a stack returns
    ``values`` (m, n) and ``vectors`` (m, n, n).  Each connected component
    of the stack's combined nonzero pattern is gathered out of every matrix,
    and the components of equal size k are solved together as one stack of
    k x k blocks; every entry outside the blocks is an exact zero, so the
    gathering changes no value.  A 1 x 1 block is its own eigenvalue, and a
    2 x 2 block is diagonal after one closed-form rotation
    (``_rotate_pairs``), which it takes in the first sweep; only a larger one
    stays in the sweeps, taking rotations in the round-robin ordering of
    Brent & Luk (1985), a round of disjoint pivots at a time.  Sweeps repeat
    until each matrix's whole off-diagonal Frobenius norm, over all its
    blocks, drops below ``tol``; a matrix that got there takes identity
    rotations from then on.  Values and vectors are ordered by one stable
    sort of the values, descending.  When its stack mates leave the
    components of its own pattern unchanged, a matrix's values and vectors
    equal those it gets alone (``np.array_equal``), though not always
    bitwise: an identity rotation can turn a +0.0 entry into -0.0.  A mate
    that joins two components changes the blocks, and the result agrees to
    rounding.  Each matrix must be finite and Hermitian within ``tol``, and
    ``tol`` positive and finite.  Raises JacobiConvergenceError if
    ``max_sweeps`` full sweeps do not reach the target, or if a matrix's
    reconstruction misses it by more than 10 tol max(1, max|h|).

    A single matrix's solve is kept by its shape, bytes, ``tol`` and
    ``max_sweeps`` (see ``_solve``): a repeat, here or in
    ``eigvals_hermitian``, takes no solve and gets a copy.
    """
    return EigenSystem(*_solve(h, tol, max_sweeps, True))


def eigvals_hermitian(h, tol: float = 1e-13, max_sweeps: int = 100) -> np.ndarray:
    """The eigenvalues of ``eig_hermitian(h, tol, max_sweeps)``, descending,
    with the same checks and the same cache, for callers that need no
    eigenvectors: leaving them unfixed and out of place saves about a sixth
    of a single 16 x 16 solve.  A kept solve with vectors answers too."""
    return _solve(h, tol, max_sweeps, False)[0]


def _gather(h, tol: float, at=None) -> tuple:
    """(single, h as a stack, groups) for one n x n matrix or a stack (m, n, n),
    with one group (k, members, (row start, column) of each entry, h's
    blocks, their Hermitian parts) per size k of ``_components`` of the
    stack's combined nonzero pattern: the blocks are (m, c) for k = 1, else
    (m c, k, k), and h is exactly 0 outside them.  With ``at`` (see
    ``is_psd``), the pattern, blocks and checks are those of the matrices
    that ``at`` maps out of h, which are not built.  Raises ValueError if an
    entry is not finite or a block is not Hermitian within ``tol``."""
    h = _matrix("h", h, ndims=(2, 3), finite=False)
    single = h.ndim == 2
    h = h[None] if single else h
    flat = h.reshape(len(h), h.shape[1] ** 2)
    if at is None:
        pattern = h.any(axis=0)
    else:
        pos, mapped, nonzero, fixed_any, values = at if len(at) == 5 else _position_map(*at)
        pattern = np.where(mapped, flat.any(axis=0)[pos], nonzero).reshape(h.shape[1:])
    pattern |= pattern.T  # so that the matrices are 0 wherever the pattern is
    components, every, mirror = _components(len(pattern), pattern.tobytes())
    if at is None:
        every = np.take(flat, every, axis=1)  # the blocks' entries, gathered once, row-major
    else:
        index, source = every, pos[every]
        every = np.take(flat, source, axis=1)
        if fixed_any:
            fixed = source < 0  # these columns read h's last entry until given their values
            every[:, fixed] = values[index[fixed]]
    if not np.isfinite(every).all():
        raise ValueError("h has non-finite entries")
    # every entry against the conjugate of its mirror entry, all blocks at
    # once.  The Hermitian parts are written over the mirror entries, in
    # place: on a stack, new arrays of this size made the allocator hand pages
    # back and fault them in again on every call.  A 1 x 1 block's part is its
    # real part, as the halved sum of a real entry past half the largest float
    # would overflow; its column is zeroed first, so nothing overflows there
    ones = components[0][1].size if components and components[0][0] == 1 else 0
    halved = np.take(every, mirror, axis=1)
    np.conjugate(halved, out=halved)
    if np.abs(every - halved).max(initial=0.0) > tol:
        raise ValueError("matrix is not Hermitian within tol")
    halved[:, :ones] = 0.0
    halved += every
    halved /= 2.0
    groups, start = [], 0
    for k, members, place in components:
        end = start + place[1].size
        if k == 1:
            blk = every[:, start:end]
            groups.append((k, members, place, blk, blk.real))
        else:
            groups.append((k, members, place, every[:, start:end].reshape(-1, k, k),
                           halved[:, start:end].reshape(-1, k, k)))
        start = end
    return single, h, groups


def _position_map(positions, values) -> tuple:
    """An ``is_psd`` map (positions, values) as ``_gather`` reads it: the
    flattened positions, where they are >= 0, where the flattened values
    are nonzero, whether any position is -1, and the flattened values."""
    pos, values = np.asarray(positions).ravel(), np.asarray(values, dtype=complex).ravel()
    return pos, pos >= 0, values != 0, bool((pos < 0).any()), values


def is_psd(h, tol: float, at=None) -> bool | np.ndarray:
    """True if Hermitian ``h`` has no eigenvalue below -tol (a bool array for
    a stack), decided without computing one.  ``h`` is gathered and checked
    as ``eig_hermitian`` does, Hermitian within 1e-12.  A 1 x 1 component
    passes if it is at least -tol, a k x k one if the Cholesky elimination
    of its Hermitian part plus tol I (k - 1 steps over all blocks of that
    size, each pivot read off the diagonal at the end) meets only pivots
    > 0, NaN failing.  Cholesky is backward stable (Higham 2002, Thm 10.3),
    so this misjudges a block only if its smallest eigenvalue lies within
    about k u max|h| of -tol, u the unit roundoff, where it is more accurate
    than a solver's eigenvalues.

    With ``at``, a pair (positions, values) of n x n arrays, the matrix
    tested is X instead: X[i, j] is entry positions[i, j] of h's flattened
    matrix where that is >= 0, and values[i, j] where it is -1.  X is not
    built; its pattern, blocks, checks, errors and flags are those of the
    built X, read from h through the map.  A map used on many calls can be
    passed as ``_position_map(positions, values)``, which derives once what
    each call would derive from the pair.  ``tol`` must be nonnegative and
    finite.
    """
    if not 0 <= _number(tol) < math.inf:  # a NaN tol fails every block, an infinite one passes it
        raise ValueError(f"tol must be a nonnegative number and finite, got {tol!r}")
    single, h, groups = _gather(h, 1e-12, at)
    flags = np.ones(len(h), dtype=bool)
    # pivot j of a block is its diagonal entry j once the steps before it are
    # done, and no later step changes it, so the block is read off its
    # diagonal at the end.  A pivot that is not > 0 fails the block, and its
    # NaN or inf spreads only to that block's later pivots; so does the
    # overflow of a pivot near a subnormal tol, which happens only in a block
    # that is not PSD
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, members, _, _, a in groups:
            if k == 1:
                ok = a >= -tol
            else:
                diagonal = a.reshape(-1, k * k)[:, ::k + 1]
                diagonal += tol
                for j in range(k - 1):
                    col = a[:, j + 1:, j] / np.sqrt(a[:, j, j].real)[:, None]
                    a[:, j + 1:, j + 1:] -= col[:, :, None] * col.conj()[:, None, :]
                ok = (diagonal.real > 0.0).all(axis=1)
            flags &= ok.reshape(len(h), len(members)).all(axis=1)
    return bool(flags[0]) if single else flags


def _jacobi(h, tol: float, max_sweeps: int, with_vectors: bool) -> tuple:
    """(values, vectors) of ``eig_hermitian``; vectors None without ``with_vectors``."""
    single, h, groups = _gather(h, tol)
    m, n = h.shape[:2]
    # each group's [values (m c, k), vectors], vectors None for the identity.
    # A 1 x 1 block is its own eigenvalue; the reconstruction misses h by the
    # imaginary part, which the Hermitian check bounds by tol / 2.  A larger
    # group holds its Hermitian parts (m c, k, k) in place of its values
    # until solved: a 2 x 2 block by one closed-form rotation in the first
    # sweep, and only the larger ones in the sweeps
    solved = [[a.reshape(-1, 1) if k == 1 else a, None] for k, *_, a in groups]
    pairs = [state for (k, *_), state in zip(groups, solved) if k == 2]
    sweeping = [state for (k, *_), state in zip(groups, solved) if k > 2]
    # the off-diagonal norm is summed directly over off-diagonal entries (total
    # minus diagonal would cancel catastrophically once it is tiny), the 2 x 2
    # blocks' entries first in the first sweep
    off = np.zeros(m)
    for a, _ in pairs:
        sq = np.abs(a[:, 0, 1])
        sq *= sq
        sq *= 2.0
        off += sq.reshape(m, -1).sum(axis=1)
    done = np.zeros(m, dtype=bool)  # converged matrices stay converged
    for sweep in range(max_sweeps + 1):
        for a, _ in sweeping:
            k = a.shape[1]
            sq = np.abs(a).reshape(-1, k * k)
            sq *= sq
            sq[:, ::k + 1] = 0.0
            off += sq.reshape(m, -1).sum(axis=1)
        norms, off = np.sqrt(off), np.zeros(m)
        done |= norms < tol
        finished = np.count_nonzero(done)
        if finished == m:
            break
        if sweep == max_sweeps:
            raise JacobiConvergenceError(
                f"off-diagonal norm {np.max(norms[~done]):.3e} after {max_sweeps} sweeps (target {tol:.1e})"
            )
        # a matrix that is done takes identity rotations (``hold``)
        for state in pairs:
            state[:] = _rotate_pairs(state[0], np.repeat(done, len(state[0]) // m)[:, None] if finished else None)
        pairs = []  # solved, and out of the sweeps
        for state in sweeping:
            hold = np.repeat(done, len(state[0]) // m)[:, None] if finished else None
            for step in _jacobi_schedule(state[0].shape[1]):
                state[:] = _rotate(*state, step, hold)
    for state in pairs + sweeping:  # the 2 x 2 blocks if no sweep rotated, and the larger ones
        state[0] = state[0].diagonal(axis1=1, axis2=2).real
    values = np.empty((m, n))
    for (k, members, *_), (vals, _) in zip(groups, solved):
        values[:, members] = vals.reshape(m, -1, k)

    # a block that no sweep rotated keeps the identity, and the stop test and
    # the Hermitian check bound its residual by 1.5 tol; the budget is
    # 10 tol max(1, max|h|), so max|h| matters only above 10 tol, and a NaN
    # residual is over too
    residual = np.zeros(m)
    for (*_, blk, _), (vals, vecs) in zip(groups, solved):
        if vecs is not None:
            err = np.abs((vecs * vals[:, None, :]) @ vecs.conj().swapaxes(1, 2) - blk)
            np.maximum(residual, err.reshape(m, -1).max(axis=1), out=residual)
    budget = 10 * max(tol, 1e-15)
    if not (residual <= budget).all():
        over = ~(residual <= budget * np.maximum(1.0, np.abs(h).reshape(m, -1).max(axis=1)))
        if over.any():
            raise JacobiConvergenceError(f"reconstruction residual {np.max(residual[over]):.3e} exceeds budget")

    # descending order, ties in index order (a stable sort keeps -0.0 and
    # 0.0 where they were); eigenvalue j of matrix b is the rank[b, j]-th
    order = (-values).argsort(axis=1, kind="stable")
    rows = np.arange(m)[:, None]
    values = values[rows, order]
    if not with_vectors:
        return (values[0] if single else values), None
    rank = np.empty_like(order)
    rank[rows, order] = np.arange(n)

    # phase-fix each block's vectors: the largest-magnitude component of
    # each becomes real nonnegative (a unit vector has one of magnitude
    # >= 1/sqrt(k)); then put each vector in the column of its rank
    vectors = np.zeros((m, n * n), dtype=complex)
    for (k, _, (start, col), _, _), (vals, vecs) in zip(groups, solved):
        if vecs is None:
            vecs = np.broadcast_to(np.eye(k), (len(vals), k, k))
        else:
            # vecs[b, :, i] is eigenvector i of block b, and its largest
            # entry sits in row lead[b, i]
            at_lead = (np.arange(len(vecs))[:, None], np.abs(vecs).argmax(axis=1), np.arange(k))
            lead = vecs[at_lead]
            size = np.abs(lead)
            vecs = vecs * (lead.conj() / size)[:, None, :]
            vecs[at_lead] = size
        vectors[rows, start + rank[:, col]] = vecs.reshape(m, -1)
    vectors = vectors.reshape(m, n, n)
    return (values[0], vectors[0]) if single else (values, vectors)


def eig_rank2_pair(z: complex, r: int, c: int, dim: int) -> EigenSystem:
    """Closed-form eigensystem of z |r><c| + conj(z) |c><r|.

    The two nonzero eigenvalues are +|z| and -|z| with eigenvectors
    (|r> ± e^{-i phi} |c>)/sqrt(2) where z = |z| e^{i phi}.  Only those two
    pairs are returned.
    """
    if not (0 <= _number(r, True) < _number(dim, True) and 0 <= _number(c, True) < dim and r != c):
        raise ValueError(f"r and c must be distinct integers in [0, dim), got r={r!r}, c={c!r}, dim={dim!r}")
    if not (isinstance(z, (int, float, complex, np.number)) and z != 0 and cmath.isfinite(z)):
        raise ValueError(f"z must be a nonzero finite number, got {z!r}")
    z = complex(z)
    phase = np.conj(z) / abs(z)
    root2 = math.sqrt(2.0)
    vp = np.zeros(dim, dtype=complex)
    vm = np.zeros(dim, dtype=complex)
    vp[r] = vm[r] = 1.0 / root2
    vp[c] = phase / root2
    vm[c] = -phase / root2
    values = np.array([abs(z), -abs(z)])
    return EigenSystem(values, np.column_stack([vp, vm]))


@functools.cache
def _partial_transpose_positions(dim_a: int, dim_b: int) -> np.ndarray:
    """The n x n positions, n = dim_a dim_b, of the partial transpose's
    entries in a flattened matrix: entry (a b, a' b') is entry (a b', a' b)."""
    n = dim_a * dim_b
    pos = np.arange(n * n).reshape(dim_a, dim_b, dim_a, dim_b).swapaxes(1, 3).reshape(n, n)
    pos.flags.writeable = False  # every call with these dimensions gets this array
    return pos


def partial_transpose(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of an operator on A (x) B.

    Accepts one matrix or a stack of shape (k, n, n).
    """
    if not (_number(dim_a, True) >= 1 and _number(dim_b, True) >= 1):
        raise ValueError(f"dim_a and dim_b must be integers of at least 1, got {dim_a!r} and {dim_b!r}")
    n = dim_a * dim_b
    m = _matrix("m", m, n, (2, 3), finite=False)
    return m.reshape(m.shape[:-2] + (n * n,))[..., _partial_transpose_positions(dim_a, dim_b)]


def partial_trace(m, dim_a: int, dim_b: int, keep: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an operator on A (x) B."""
    if not (_number(dim_a, True) >= 1 and _number(dim_b, True) >= 1):
        raise ValueError(f"dim_a and dim_b must be integers of at least 1, got {dim_a!r} and {dim_b!r}")
    m = _matrix("m", m, dim_a * dim_b, finite=False).reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "first":
        return np.einsum("ibjb->ij", m)
    if keep == "second":
        return np.einsum("aiaj->ij", m)
    raise ValueError("keep must be 'first' or 'second'")
