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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSystem",
    "JacobiConvergenceError",
    "dagger",
    "eig_hermitian",
    "eig_rank2_pair",
    "fold",
    "is_hermitian",
    "kron",
    "max_abs",
    "partial_trace",
    "partial_transpose",
    "unfold",
]


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def max_abs(a) -> float:
    """Largest entry magnitude (max-entry norm)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(a, tol: float = 1e-12) -> bool:
    """True if ``a`` is square and equals its conjugate transpose within ``tol``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return max_abs(a - dagger(a)) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product, composite row index (i, j) -> i*rows(b) + j."""
    return np.kron(np.asarray(a), np.asarray(b))


def unfold(a) -> np.ndarray:
    """Column-stack a square matrix into a vector: unfold(a)[d*j + k] == a[k, j]."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("unfold expects a square matrix")
    return a.T.reshape(-1)


def fold(v) -> np.ndarray:
    """Inverse of unfold: a length-d^2 vector back into a d x d matrix."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError("fold expects a vector")
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError("fold expects a vector of perfect-square length")
    return v.reshape(d, d).T.copy()


@dataclass(frozen=True)
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


def _jacobi_schedule(pattern: np.ndarray) -> list:
    """Rotation rounds for an n x n boolean nonzero pattern.

    Rotations never couple two connected components of the pattern, so each
    component runs its own round-robin; round k of every component forms one
    global round of disjoint pivots.  Each round is returned as flat indices
    into a row-major n x n matrix: (pivot, p-diagonal, q-diagonal) entries,
    the four entries of the rotation, and the mirrored pivot entry.
    """
    n = len(pattern)
    links = [[] for _ in range(n)]
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(pattern))):
        links[i].append(j)
    seen = [False] * n
    per_component = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for i in component:  # breadth-first: the list grows as it is walked
            for j in links[i]:
                if not seen[j]:
                    seen[j] = True
                    component.append(j)
        if len(component) > 1:
            per_component.append(_round_robin(sorted(component)))
    rounds = []
    for k in range(max((len(r) for r in per_component), default=0)):
        pairs = [pair for r in per_component if k < len(r) for pair in r[k]]
        pivot = [p * n + q for p, q in pairs]
        p_diag = [p * (n + 1) for p, _ in pairs]
        q_diag = [q * (n + 1) for _, q in pairs]
        mirror = [q * n + p for p, q in pairs]
        rounds.append((np.array(pivot + p_diag + q_diag),
                       np.array(p_diag + pivot + mirror + q_diag),
                       np.array(mirror)))
    return rounds


def _rotate(a: np.ndarray, vecs: np.ndarray, step: tuple, hold) -> tuple:
    """Apply one round of disjoint Jacobi rotations to every matrix of a stack.

    The rotation of pivot (p, q) has rows (c, -s e) and (s conj(e), c), with
    e the pivot's phase and tan(2 theta) = 2 |a_pq| / (a_pp - a_qq), and
    zeroes the pivot.  A pivot that is exactly 0, or that belongs to a
    matrix flagged in ``hold``, gets the identity rotation.
    """
    m, n = a.shape[:2]
    gather, place, mirror = step
    k = len(mirror)
    g = a.reshape(m, n * n)[:, gather]
    b = g[:, :k] if hold is None else np.where(hold, 0.0, g[:, :k])
    mag = np.abs(b)
    theta = np.arctan2(2.0 * mag, (g[:, k:2 * k] - g[:, 2 * k:]).real)
    theta *= 0.5
    dead = mag == 0.0
    if dead.any():
        theta[dead] = 0.0
        mag = mag + dead
    cs = np.cos(theta)
    se = np.sin(theta) * (b / mag)
    rot = np.zeros((m, n * n), dtype=complex)
    rot[:, ::n + 1] = 1.0
    rot[:, place] = np.concatenate((cs, -se, se.conj(), cs), axis=1)
    rot = rot.reshape(m, n, n)
    a = dagger(rot) @ a @ rot
    flat = a.reshape(m, n * n)
    flat[:, gather[:k]] = flat[:, mirror].conj()  # keep each zeroed pair exactly Hermitian
    return a, vecs @ rot


def eig_hermitian(h, tol: float = 1e-13, max_sweeps: int = 100) -> EigenSystem:
    """Diagonalize a Hermitian matrix, or a stack of them, by Jacobi rotations.

    ``h`` is one n x n matrix or a stack of shape (m, n, n); a stack returns
    ``values`` (m, n) and ``vectors`` (m, n, n).  Rotations follow the
    round-robin ordering of Brent & Luk (1985) inside each connected
    component of the stack's combined nonzero pattern, so every round is a
    set of disjoint pivots applied to the whole stack at once.  Sweeps
    repeat until each matrix's off-diagonal Frobenius norm drops below
    ``tol``; a matrix that got there takes identity rotations from then on.
    A matrix's result is bitwise the one it gets alone when its stack mates
    leave the components of its own pattern unchanged; a mate that joins
    two components reorders the rounds, and the result agrees to rounding.
    Each matrix must be Hermitian within ``tol``.  Raises JacobiConvergenceError if
    ``max_sweeps`` full sweeps do not reach the target.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError("eig_hermitian expects a square matrix or a stack of them")
    if h.shape[-1] == 0:
        return EigenSystem(np.zeros(h.shape[:-1]), h.copy())
    single = h.ndim == 2
    h = h[None] if single else h
    m, n = h.shape[:2]
    hh = dagger(h)
    if max_abs(h - hh) > tol:
        raise ValueError("matrix is not Hermitian within tol")
    a = (h + hh) / 2.0
    vecs = np.zeros((m, n * n), dtype=complex)
    vecs[:, ::n + 1] = 1.0
    vecs = vecs.reshape(m, n, n)
    schedule = _jacobi_schedule((a != 0.0).any(axis=0))

    done = np.zeros(m, dtype=bool)  # converged matrices stay converged
    for sweep in range(max_sweeps + 1):
        # summed directly over off-diagonal entries; total minus diagonal
        # would cancel catastrophically once the off-diagonal part is tiny
        off = np.abs(a).reshape(m, n * n)
        off *= off
        off[:, ::n + 1] = 0.0
        norms = np.sqrt(off.sum(axis=1))
        done |= norms < tol
        if done.all():
            break
        if sweep == max_sweeps:
            raise JacobiConvergenceError(
                f"off-diagonal norm {np.max(norms[~done]):.3e} after {max_sweeps} sweeps (target {tol:.1e})"
            )
        hold = done[:, None] if done.any() else None
        for step in schedule:
            a, vecs = _rotate(a, vecs, step, hold)

    values = a.diagonal(axis1=1, axis2=2).real
    order = (-values).argsort(axis=1, kind="stable")
    rows = np.arange(m)[:, None]
    values = values[rows, order]
    cols = vecs[rows, :, order]  # cols[k, i] is eigenvector i of matrix k
    # phase-fix: each vector's largest-magnitude component becomes real
    # nonnegative (a unit vector has one of magnitude >= 1/sqrt(n))
    at = (rows, np.arange(n), np.abs(cols).argmax(axis=2))
    lead = cols[at]
    size = np.abs(lead)
    cols *= (lead.conj() / size)[:, :, None]
    cols[at] = size
    vecs = cols.swapaxes(1, 2)
    residual = np.abs((vecs * values[:, None, :]) @ cols.conj() - h).max(axis=(1, 2), initial=0.0)
    budget = 10 * max(tol, 1e-15) * np.maximum(1.0, np.abs(h).max(axis=(1, 2), initial=0.0))
    over = residual > budget
    if over.any():
        raise JacobiConvergenceError(f"reconstruction residual {np.max(residual[over]):.3e} exceeds budget")
    return EigenSystem(values[0], vecs[0]) if single else EigenSystem(values, vecs)


def eig_rank2_pair(z: complex, r: int, c: int, dim: int) -> EigenSystem:
    """Closed-form eigensystem of z |r><c| + conj(z) |c><r|.

    The two nonzero eigenvalues are +|z| and -|z| with eigenvectors
    (|r> ± e^{-i phi} |c>)/sqrt(2) where z = |z| e^{i phi}.  Only those two
    pairs are returned.
    """
    if not (0 <= r < dim and 0 <= c < dim):
        raise ValueError("indices out of range")
    if r == c:
        raise ValueError("indices must be distinct")
    z = complex(z)
    if z == 0:
        raise ValueError("coefficient must be nonzero")
    phase = np.conj(z) / abs(z)
    root2 = math.sqrt(2.0)
    vp = np.zeros(dim, dtype=complex)
    vm = np.zeros(dim, dtype=complex)
    vp[r] = vm[r] = 1.0 / root2
    vp[c] = phase / root2
    vm[c] = -phase / root2
    values = np.array([abs(z), -abs(z)])
    return EigenSystem(values, np.column_stack([vp, vm]))


def partial_transpose(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of an operator on A (x) B.

    Accepts one matrix or a stack of shape (k, n, n).
    """
    m = np.asarray(m, dtype=complex)
    n = dim_a * dim_b
    if m.shape[-2:] != (n, n) or m.ndim not in (2, 3):
        raise ValueError(f"expected a {n} x {n} matrix or a stack of them")
    lead = m.shape[:-2]
    return m.reshape(lead + (dim_a, dim_b, dim_a, dim_b)).swapaxes(-3, -1).reshape(m.shape)


def partial_trace(m, dim_a: int, dim_b: int, keep: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an operator on A (x) B."""
    m = np.asarray(m, dtype=complex)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix")
    m = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "first":
        return np.einsum("ibjb->ij", m)
    if keep == "second":
        return np.einsum("aiaj->ij", m)
    raise ValueError("keep must be 'first' or 'second'")
