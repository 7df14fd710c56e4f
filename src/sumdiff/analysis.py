"""Sub-channels of the two-qubit damping family and entanglement diagnostics.

The closed-form Choi matrix splits naturally into a measurement-dominated
part (its diagonal, a channel in its own right) and a phase-damping part
(the coherence pairs plus enough of the diagonal to preserve trace).  This
module builds both as operator sets and provides the tools used to study
them: positivity of the partial transpose, a quantum-classical form test,
Wootters concurrence, a measure-and-prepare (Holevo) form, and the
entanglement decay trace of the phase-damping part.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import (
    Ad2Coefficients,
    Ad2Params,
    SignedKrausSet,
    ad2_apply,
    ad2_coefficients,
    apply_signed_kraus,
)
from .choi import (
    AD2_DIAG_EXPORT_ORDER,
    AD2_DIAG_LABELS,
    AD2_PAIR_LABELS,
    choi_2ad,
    extract_signed_kraus,
    partition_diag_pairs,
    trace_preservation_residual,
)
from .linalg import (EigenSystem, _partial_transpose_positions, _position_map, dagger, eig_hermitian,
                     eigvals_hermitian, fold, is_hermitian, is_psd, kron, max_abs)

__all__ = [
    "ChannelReport",
    "HolevoForm",
    "concurrence",
    "eb_report",
    "holevo_apply",
    "holevo_kraus",
    "holevo_point_form",
    "is_ppt",
    "mdc_choi",
    "mdc_kraus",
    "pdc_apply",
    "pdc_choi",
    "pdc_effective_state",
    "pdc_entanglement_trace",
    "pdc_kraus",
    "qc_form_test",
]


# identity-channel diagonal of the phase-damping Choi matrix: 1 at |jj>|jj>
_PDC_DIAGONAL = np.isin(np.arange(16), (0, 5, 10, 15)).astype(complex)

# each sub-channel's Choi matrix as (kept, values) over a 16 x 16 Choi
# matrix b: entry (i, j) is b[i, j] where kept, values[i, j] elsewhere
_SUB_CHANNELS = {
    "mdc": (np.eye(16, dtype=bool), np.zeros((16, 16), dtype=complex)),
    "pdc": (~np.eye(16, dtype=bool), np.diag(_PDC_DIAGONAL)),
}


# ---------------------------------------------------------------------------
# measurement-dominated sub-channel (diagonal of the Choi matrix)


def mdc_choi(b) -> np.ndarray:
    """Choi matrix of the measurement-dominated sub-channel of a two-qubit
    damping Choi matrix, or of each matrix of a stack (m, 16, 16): the
    diagonal alone."""
    kept, values = _SUB_CHANNELS["mdc"]
    return np.where(kept, np.asarray(b, dtype=complex), values)


def mdc_kraus(co: Ad2Coefficients) -> SignedKrausSet:
    """Nine rank-1 operators of the measurement-dominated sub-channel.

    Ordered by coefficient label (H, G, F, E, D, C, A, 1, B); all positive,
    so this is an ordinary Kraus set, and it preserves trace on its own.
    """
    diag, units = np.diagonal(choi_2ad(co)).real, np.eye(16, dtype=complex)
    ops = tuple(fold(np.sqrt(max(diag[i], 0.0)) * units[i]) for i in AD2_DIAG_EXPORT_ORDER)
    return SignedKrausSet(ops, positive_labels=tuple(AD2_DIAG_LABELS[i] for i in AD2_DIAG_EXPORT_ORDER))


# ---------------------------------------------------------------------------
# phase-damping sub-channel (coherence pairs plus a trace-carrying diagonal)


def pdc_choi(b) -> np.ndarray:
    """Choi matrix of the phase-damping sub-channel of a two-qubit damping
    Choi matrix, or of each matrix of a stack (m, 16, 16).

    The coherence pairs of the full Choi matrix sit on top of an
    identity-channel diagonal, so the sub-channel leaves every diagonal
    entry of a state untouched while coherences evolve exactly as under the
    full channel.
    """
    kept, values = _SUB_CHANNELS["pdc"]
    return np.where(kept, np.asarray(b, dtype=complex), values)


def pdc_kraus(co: Ad2Coefficients) -> SignedKrausSet:
    """Signed operators of the phase-damping sub-channel, cutoff 1e-12.

    Extraction of its Choi matrix yields the four basis projectors (from the
    diagonal) plus a +/- pair per coherence position.
    """
    part = partition_diag_pairs(pdc_choi(choi_2ad(co)), labels=AD2_PAIR_LABELS)
    return extract_signed_kraus(part)


def pdc_apply(rho, co: Ad2Coefficients) -> np.ndarray:
    """Apply the phase-damping sub-channel to a 4 x 4 state.

    Closed form: the diagonal is copied through untouched and the
    off-diagonal part evolves exactly as under the full channel (the
    population map never feeds coherences, so splitting the input is safe).
    """
    rho = np.asarray(rho, dtype=complex)
    diag = np.diag(np.diag(rho))
    return diag + ad2_apply(rho - diag, co)


# ---------------------------------------------------------------------------
# positivity diagnostics


@functools.cache
def _ppt_map(dim_a: int, dim_b: int, part: str | None) -> tuple:
    """``is_psd``'s map (``_position_map``) of the partial transpose of a
    matrix on A (x) B, or of the partial transpose of its sub-channel ``part``."""
    pos = _partial_transpose_positions(dim_a, dim_b)
    values = np.zeros(pos.shape, dtype=complex)
    if part is not None:  # entry pos[i, j] of the sub-channel's Choi matrix
        kept, fixed = (x.ravel()[pos] for x in _SUB_CHANNELS[part])
        pos, values = np.where(kept, pos, -1), np.where(kept, 0.0, fixed)
    at = _position_map(pos, values)
    for shared in at[:3] + at[4:]:  # every call with these arguments gets them
        shared.flags.writeable = False
    return at


def is_ppt(m, dim_a: int, dim_b: int, tol: float = 1e-10, part: str | None = None) -> bool | np.ndarray:
    """True if the partial transpose has no eigenvalue below -tol (``is_psd``).

    For a stack of matrices, returns one flag per matrix as a bool array.
    The partial transpose is read from ``m`` through a cached position map,
    not built.  With ``part`` "mdc" or "pdc", the matrix tested is that of
    ``mdc_choi(m)`` or ``pdc_choi(m)``, read from each 16 x 16 ``m`` the
    same way, with the same flags and errors.
    """
    m = np.asarray(m, dtype=complex)
    n = dim_a * dim_b
    if m.shape[-2:] != (n, n) or m.ndim not in (2, 3):
        raise ValueError(f"expected a {n} x {n} matrix or a stack of them")
    if part is not None and (part not in _SUB_CHANNELS or n != 16):
        raise ValueError(f"part must be None, or 'mdc' or 'pdc' of a 16 x 16 Choi matrix, got {part!r}")
    return is_psd(m, tol, at=_ppt_map(dim_a, dim_b, part))


@dataclass(frozen=True, eq=False)  # equal only to itself: a point channel is an array
class ChannelReport:
    """Diagnostics of a channel given by its Choi matrix."""

    is_cp: bool
    min_choi_eigenvalue: float
    is_trace_preserving: bool
    completeness_residual: float
    ppt_of_choi: bool
    point_channel: np.ndarray | None


def _point_output(b: np.ndarray, d: int, tol: float) -> np.ndarray | None:
    """Common output state if the channel sends everything to one state."""
    dev = b.reshape(d, d, d, d).copy()  # blocks [j, :, k, :], to become their deviations
    diagonal = np.einsum("jajb->jab", dev)  # a view of the blocks j = k
    # summed from zeros in order of j, so that -0.0 entries give 0.0
    sigma = np.add.reduce(diagonal, axis=0, initial=0.0)
    sigma /= d
    diagonal -= sigma
    if max_abs(dev) > tol:
        return None
    return sigma


def eb_report(b, tol: float = 1e-10) -> ChannelReport:
    """Bundle positivity, trace preservation, partial-transpose positivity,
    and point-channel detection for a Choi matrix.

    A positive partial transpose of the (state-normalized) Choi matrix is the
    entanglement-breaking signature this report is named for; the point
    channel (constant output) is its extreme case and is returned as that
    output state when detected within 1e-8 (max-entry).  The smallest Choi
    eigenvalue is ``eigvals_hermitian(b)[-1]``, at the solver's default
    tolerance, so a kept solve of b, as ``eig_hermitian(b)`` leaves, answers it.
    """
    b = np.asarray(b, dtype=complex)
    d = int(round(b.shape[0] ** 0.5))
    if b.shape != (d * d, d * d):
        raise ValueError("expected a d^2 x d^2 Choi matrix")
    smallest = float(eigvals_hermitian(b)[-1])
    completeness = trace_preservation_residual(b)
    return ChannelReport(
        is_cp=bool(smallest >= -tol),
        min_choi_eigenvalue=smallest,
        is_trace_preserving=bool(completeness <= tol),
        completeness_residual=float(completeness),
        ppt_of_choi=is_ppt(b, d, d, tol=tol),
        point_channel=_point_output(b, d, 1e-8),
    )


def qc_form_test(b, d: int, tol: float = 1e-10):
    """Test whether a Choi matrix has quantum-classical block structure.

    Writing composite indices as (j, m), the blocks G_{m m'}[j, k] =
    B[(j, m), (k, m')] must vanish for m != m' and be positive semidefinite
    for m = m'; then B = sum_m G_m (x) |m><m| up to factor ordering, i.e. the
    second factor is classical.  Returns (flag, diagonal blocks).
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (d * d, d * d):
        raise ValueError("expected a d^2 x d^2 matrix")
    blocks = b.reshape(d, d, d, d)  # [j, m, k, mp]
    ok = True
    for m in range(d):
        for mp in range(d):
            if m != mp and max_abs(blocks[:, m, :, mp]) > tol:
                ok = False
    diag_blocks = [blocks[:, m, :, m] for m in range(d)]
    if ok:
        g = np.stack(diag_blocks)
        ok = is_psd((g + dagger(g)) / 2.0, tol).all()
    return bool(ok), diag_blocks


# ---------------------------------------------------------------------------
# measure-and-prepare (Holevo) form


@dataclass(frozen=True, eq=False)  # equal only to itself: its fields hold arrays
class HolevoForm:
    """Measure-and-prepare channel: rho -> sum_i outputs[i] Tr(effects[i] rho).

    Effects must form a POVM (positive, summing to identity); outputs must be
    states.  Checked at construction within 1e-10.
    """

    outputs: tuple
    effects: tuple

    def __post_init__(self):
        outs = tuple(np.asarray(o, dtype=complex) for o in self.outputs)
        effs = tuple(np.asarray(f, dtype=complex) for f in self.effects)
        if len(outs) != len(effs) or not outs:
            raise ValueError("need matching nonempty outputs and effects")
        d = effs[0].shape[0]
        for o in outs:
            if not is_hermitian(o, 1e-10) or abs(o.trace() - 1.0) > 1e-10:
                raise ValueError("outputs must be unit-trace Hermitian")
        acc = np.zeros((d, d), dtype=complex)
        for f in effs:
            if not is_hermitian(f, 1e-10):
                raise ValueError("effects must be Hermitian")
            if not is_psd(f, 1e-10):
                raise ValueError("effects must be positive semidefinite")
            acc += f
        if max_abs(acc - np.eye(d)) > 1e-10:
            raise ValueError("effects must sum to the identity")
        object.__setattr__(self, "outputs", outs)
        object.__setattr__(self, "effects", effs)


def holevo_apply(form: HolevoForm, rho) -> np.ndarray:
    """Evaluate the measure-and-prepare action."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(form.outputs[0])
    for sigma, f in zip(form.outputs, form.effects):
        out = out + sigma * np.trace(f @ rho)
    return out


def holevo_point_form() -> HolevoForm:
    """Constant-output two-qubit channel in measure-and-prepare form.

    Measures in the computational basis and prepares the ground state
    |3><3| regardless of outcome.
    """
    units = np.eye(4, dtype=complex)
    return HolevoForm((np.diag(units[3]),) * 4, tuple(map(np.diag, units)))


def holevo_kraus(form: HolevoForm) -> SignedKrausSet:
    """Kraus operators induced by a measure-and-prepare form.

    Eigendecomposing outputs (weights q_a, vectors r_a) and effects
    (weights f_b, vectors phi_b) gives operators sqrt(q_a f_b) |r_a><phi_b|
    for every q_a and f_b above 1e-12; their completeness follows from the
    POVM property.  All positive.
    """
    ops, labels = [], []
    for i, (sigma, f) in enumerate(zip(form.outputs, form.effects)):
        out_sys = eig_hermitian(sigma, tol=1e-12)
        eff_sys = eig_hermitian(f, tol=1e-12)
        for a, q in enumerate(out_sys.values):
            if q <= 1e-12:
                continue
            for bb, w in enumerate(eff_sys.values):
                if w <= 1e-12:
                    continue
                op = np.sqrt(q * w) * np.outer(out_sys.vectors[:, a], eff_sys.vectors[:, bb].conj())
                ops.append(op)
                labels.append(f"{i}:{a}:{bb}")
    return SignedKrausSet(tuple(ops), positive_labels=tuple(labels))


# ---------------------------------------------------------------------------
# entanglement measures


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = kron(_SIGMA_Y, _SIGMA_Y)


def _spin_flip(rho: np.ndarray) -> np.ndarray:
    return _YY @ rho.conj() @ _YY


def _clip_spectrum(values: np.ndarray) -> np.ndarray:
    """Zero out nonnegative-spectrum dust below a floor of 1e-13.

    The floor is taken relative to the larger of the top eigenvalue and 1,
    the natural scale of trace-one states and their products; a matrix made
    entirely of rounding dust then clips to zero instead of passing its dust
    through the square root.
    """
    out = np.clip(values, 0.0, None)
    out[out < 1e-13 * np.maximum(out[..., :1], 1.0)] = 0.0
    return out


def concurrence(rho) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit state.

    Uses the Hermitian form sqrt(rho) rho~ sqrt(rho): its eigenvalue square
    roots, descending, give C = max(0, l1 - l2 - l3 - l4).  Eigenvalue dust
    below 1e-13 (relative) is zeroed before each square root; the root
    would otherwise amplify O(1e-16) dust of rank-deficient states to O(1e-8)
    in the result.  A stack of states of shape (m, 4, 4) gives an array of
    m concurrences.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError("concurrence is defined here for two-qubit states")
    if not max_abs(rho - dagger(rho)) <= 1e-10:
        raise ValueError("state must be Hermitian")
    sys = eig_hermitian(rho, tol=1e-13)
    root = EigenSystem(np.sqrt(_clip_spectrum(sys.values)), sys.vectors).reconstruct()
    middle = root @ _spin_flip(rho) @ root
    vals = eigvals_hermitian((middle + dagger(middle)) / 2.0, tol=1e-13)
    lam = np.sqrt(_clip_spectrum(vals))
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c


# Choi index 4 j + a holds input j and output a; the effective state is
# ordered (system output a, copy j) over {e, g} = {0, 3}, so its (a, j)
# entry sits at Choi index 4 j + a: the two tensor factors swap.
_EFFECTIVE_STATE_INDEX = np.array([0, 12, 3, 15])
_EFFECTIVE_STATE_ENTRIES = np.ix_(_EFFECTIVE_STATE_INDEX, _EFFECTIVE_STATE_INDEX)


def pdc_effective_state(b) -> np.ndarray:
    """Two-qubit state left after the phase-damping sub-channel of a
    two-qubit damping Choi matrix acts on half of a maximally correlated
    pair; of each matrix of a stack (m, 16, 16), giving (m, 4, 4).

    The input is the even superposition of the doubly excited and ground
    states on system + copy; only the system side passes through the
    sub-channel.  The output is half the sub-channel's Choi matrix
    restricted to {e, g} (x) {e, g}, with the two tensor factors swapped;
    reading it as a two-qubit state (excited -> 0, ground -> 1 on each side)
    is exact.  A coherence of magnitude at most 1e-12 reads as 0, as it does
    when the state is built from ``pdc_kraus`` operators.
    """
    s = np.asarray(b, dtype=complex)[(...,) + _EFFECTIVE_STATE_ENTRIES]  # a copy of 16 entries each
    s[..., range(4), range(4)] = _PDC_DIAGONAL[_EFFECTIVE_STATE_INDEX]  # the sub-channel's diagonal
    s[(np.abs(s) <= 1e-12) & ~np.eye(4, dtype=bool)] = 0.0
    return 0.5 * s


def pdc_entanglement_trace(params: Ad2Params, t_max: float, steps: int = 50) -> np.ndarray:
    """Concurrence decay of the effective pair state under the phase-damping
    sub-channel, sampled at ``steps`` times from 0 to ``t_max`` inclusive.

    Returns an array of (t, concurrence) rows.  The coefficients are
    evaluated at all times at once, each bitwise its scalar value.
    """
    if not 0 <= t_max < np.inf:  # before np.linspace, which warns on inf
        raise ValueError(f"t_max must be nonnegative and finite, got {t_max}")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    ts = np.linspace(0.0, float(t_max), int(steps))
    return np.column_stack((ts, concurrence(pdc_effective_state(choi_2ad(ad2_coefficients(params, ts))))))
