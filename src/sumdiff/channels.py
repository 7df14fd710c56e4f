"""Channel models and signed operator sets.

Two worked channel families live here: a single-qubit generalized damping
channel (``gad_*``) and a driven two-qubit amplitude-damping channel
(``ad2_*``) whose action is known in closed form through eighteen
time-dependent coefficients.

Two-qubit basis ordering is fixed throughout the package: index 0 is the
doubly excited state, 1 and 2 the symmetric and antisymmetric single
excitations, 3 the ground state.  Equivalently (e, s, a, g) <-> (0, 1, 2, 3).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, eig_hermitian, is_hermitian, max_abs

__all__ = [
    "Ad2Coefficients",
    "Ad2Params",
    "SignedKrausSet",
    "ad2_apply",
    "ad2_coefficients",
    "apply_signed_kraus",
    "check_completeness",
    "check_density_matrix",
    "completeness_residuals",
    "gad_choi",
    "gad_kraus",
    "gad_split_choi",
    "gad_split_kraus",
    "gad_split_report",
    "random_density_matrix",
]


# ---------------------------------------------------------------------------
# signed operator sets


@dataclass(frozen=True)
class SignedKrausSet:
    """Operators of a sum-difference representation.

    Action: rho' = sum_i K+_i rho K+_i^dag - sum_k K-_k rho K-_k^dag.
    A plain Kraus set is the special case with an empty negative list.
    """

    positive: tuple
    negative: tuple = ()
    positive_labels: tuple = ()
    negative_labels: tuple = ()

    def __post_init__(self):
        pos = tuple(np.asarray(k, dtype=complex) for k in self.positive)
        neg = tuple(np.asarray(k, dtype=complex) for k in self.negative)
        if not pos:
            raise ValueError("at least one positive operator is required")
        d = pos[0].shape[0]
        for k in pos + neg:
            if k.ndim != 2 or k.shape != (d, d):
                raise ValueError("all operators must be square with a common dimension")
        plab = tuple(self.positive_labels) or tuple(f"+{i}" for i in range(len(pos)))
        nlab = tuple(self.negative_labels) or tuple(f"-{i}" for i in range(len(neg)))
        if len(plab) != len(pos) or len(nlab) != len(neg):
            raise ValueError("label count must match operator count")
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "negative", neg)
        object.__setattr__(self, "positive_labels", plab)
        object.__setattr__(self, "negative_labels", nlab)

    @property
    def dim(self) -> int:
        return self.positive[0].shape[0]

    @property
    def count(self) -> int:
        return len(self.positive) + len(self.negative)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The operators as a stack of one, ``(1, count, d, d)``, with their
        signs ``(1, count)``: positive operators (+1) first, then negative (-1)."""
        ops = np.stack(self.positive + self.negative)[None]
        signs = np.array([1] * len(self.positive) + [-1] * len(self.negative))[None]
        return ops, signs

    def superoperator(self) -> np.ndarray:
        """The d^2 x d^2 matrix S = sum_k s_k conj(K_k) (x) K_k of the map in the
        ``unfold`` (column-stacking) convention: unfold(E(rho)) = S unfold(rho).

        S is a reshuffle of the Choi matrix (Wood, Biamonte & Cory 2015):
        S[(a, b), (k, j)] = B[(j, b), (k, a)].
        """
        ops, signs = self.stacked()
        d = self.dim
        return np.einsum("k,kac,kbe->abce", signs[0], ops[0].conj(), ops[0]).reshape(d * d, d * d)


def apply_signed_kraus(rho, ks: SignedKrausSet) -> np.ndarray:
    """Evaluate sum K+ rho K+^dag - sum K- rho K-^dag on one state or a stack.

    ``rho`` has shape (..., d, d).  The whole stack goes through one matmul
    with the set's superoperator, not one product per operator.  Each state is
    its own 1 x d^2 row product there, so its result does not depend on the
    size of the stack it comes in.
    """
    rho = np.asarray(rho, dtype=complex)
    d = ks.dim
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(f"state dimension {rho.shape} does not match operators ({d})")
    vecs = rho.swapaxes(-1, -2).reshape(-1, 1, d * d)  # unfold(rho_n) as a row
    out = vecs @ ks.superoperator().T
    return out.reshape(rho.shape).swapaxes(-1, -2)


def completeness_residuals(ops, signs) -> np.ndarray:
    """Max-entry residual of sum_k signs_k K_k^dag K_k against the identity,
    for each row of a stack.

    ``ops`` has shape (m, k, d, d) and ``signs`` shape (m, k); a sign of 0
    leaves its operator out.  Row i of operator k becomes row k*d + i of one
    (m, k*d, d) matrix, so the sum is a single batched product.
    """
    ops = np.asarray(ops, dtype=complex)
    m, k, d, _ = ops.shape
    rows = ops.reshape(m, k * d, d)
    weights = np.repeat(signs, d, axis=1)
    acc = (dagger(rows) * weights[:, None, :]) @ rows
    return np.abs(acc - np.eye(d)).max(axis=(1, 2))


def check_completeness(ks: SignedKrausSet) -> float:
    """Max-entry residual of sum K+^dag K+ - sum K-^dag K- against the identity.

    Zero residual is equivalent to the represented map preserving trace.
    """
    return float(completeness_residuals(*ks.stacked())[0])


# ---------------------------------------------------------------------------
# density matrices


def random_density_matrix(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Random full-rank state: normalize G G^dag with G complex Gaussian.

    With ``count`` given, returns a stack (count, dim, dim) drawn as ``count``
    successive single calls would draw it: each state takes the real and then
    the imaginary part of its G from the generator.
    """
    parts = rng.standard_normal((1 if count is None else count, 2, dim, dim))
    g = parts[:, 0] + 1j * parts[:, 1]
    rho = g @ dagger(g)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    return rho[0] if count is None else rho


def check_density_matrix(rho, tol: float = 1e-10) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace, and PSD within tol."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho, tol):
        raise ValueError("state is not Hermitian")
    if abs(rho.trace() - 1.0) > tol:
        raise ValueError(f"state trace {rho.trace():.6g} is not 1")
    smallest = eig_hermitian(rho, tol=1e-12).values[-1]
    if smallest < -tol:
        raise ValueError(f"state has negative eigenvalue {smallest:.3e}")


# ---------------------------------------------------------------------------
# single-qubit generalized damping


def _check_unit_interval(name: str, x: float) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def gad_kraus(p: float, lam: float) -> SignedKrausSet:
    """Standard four-operator Kraus set of the generalized damping channel.

    ``lam`` is the damping strength and ``p`` biases which of the two basis
    states the population relaxes toward.
    """
    p = _check_unit_interval("p", p)
    lam = _check_unit_interval("lam", lam)
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    damp = math.sqrt(1.0 - lam)
    hop = math.sqrt(lam)
    k1 = sp * np.array([[1.0, 0.0], [0.0, damp]], dtype=complex)
    k2 = sp * np.array([[0.0, 0.0], [hop, 0.0]], dtype=complex)
    k3 = sq * np.array([[damp, 0.0], [0.0, 1.0]], dtype=complex)
    k4 = sq * np.array([[0.0, hop], [0.0, 0.0]], dtype=complex)
    return SignedKrausSet((k1, k2, k3, k4), positive_labels=("K1", "K2", "K3", "K4"))


def gad_choi(p: float, lam: float) -> np.ndarray:
    """Closed-form Choi matrix of the generalized damping channel."""
    p = _check_unit_interval("p", p)
    lam = _check_unit_interval("lam", lam)
    damp = math.sqrt(1.0 - lam)
    b = np.zeros((4, 4), dtype=complex)
    b[0, 0] = 1.0 - lam + p * lam
    b[1, 1] = p * lam
    b[2, 2] = (1.0 - p) * lam
    b[3, 3] = 1.0 - p * lam
    b[0, 3] = b[3, 0] = damp
    return b


def gad_split_choi(p: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference corner-weighted split (B_plus, B_minus) with B_plus - B_minus = gad_choi.

    The split inflates the Choi corners so that both parts are Hermitian and
    the difference telescopes back to the channel; B_minus is supported on the
    corner block only.
    """
    base = gad_choi(p, lam)
    damp = math.sqrt(1.0 - float(lam))
    minus = np.zeros((4, 4), dtype=complex)
    minus[0, 0] = minus[3, 3] = damp / 2.0
    minus[0, 3] = minus[3, 0] = -damp / 4.0
    return base + minus, minus


def gad_split_kraus(p: float, lam: float) -> SignedKrausSet:
    """Known closed-form signed operators for the corner-weighted split.

    Kept verbatim for cross-validation: the corner-block operators (both
    negative ones, and the first two positive ones) are each a factor sqrt(2)
    too large, so the negative list reconstructs 2 * B_minus instead of
    B_minus.  ``gad_split_report`` quantifies this; extraction from the split
    matrices themselves does not use these formulas.
    """
    p = _check_unit_interval("p", p)
    lam = _check_unit_interval("lam", lam)
    damp = math.sqrt(1.0 - lam)
    a = 9.0 * (1.0 - lam) + 4.0 * lam**2 * (1.0 - 2.0 * p) ** 2
    sa = math.sqrt(a)
    k1 = (math.sqrt(4.0 + 2.0 * damp - 2.0 * lam - sa) / 2.0) * np.array(
        [[-(2.0 * lam * (1.0 - 2.0 * p) + sa) / (3.0 * damp), 0.0], [0.0, 1.0]], dtype=complex
    )
    k2 = (math.sqrt(4.0 + 2.0 * damp - 2.0 * lam + sa) / 2.0) * np.array(
        [[-(2.0 * lam * (1.0 - 2.0 * p) - sa) / (3.0 * damp), 0.0], [0.0, 1.0]], dtype=complex
    )
    k3 = np.array([[0.0, math.sqrt((1.0 - p) * lam)], [0.0, 0.0]], dtype=complex)
    k4 = np.array([[0.0, 0.0], [math.sqrt(p * lam), 0.0]], dtype=complex)
    quarter = (1.0 - lam) ** 0.25
    m1 = (quarter / 2.0) * np.eye(2, dtype=complex)
    m2 = (math.sqrt(3.0) * quarter / 2.0) * np.diag([1.0, -1.0]).astype(complex)
    return SignedKrausSet(
        (k1, k2, k3, k4),
        (m1, m2),
        positive_labels=("K1+", "K2+", "K3+", "K4+"),
        negative_labels=("K1-", "K2-"),
    )


def gad_split_report(p: float, lam: float) -> dict:
    """Quantify how the closed-form split operators relate to the split matrices.

    Returns entrywise reconstruction ratios on the corner support (2.0 means
    the operators rebuild twice the intended part) plus the action deviation
    of the verbatim signed set from the true channel.
    """
    from .choi import reconstruct_choi  # local import to avoid a cycle

    plus, minus = gad_split_choi(p, lam)
    ks = gad_split_kraus(p, lam)
    neg_only = SignedKrausSet(ks.negative, positive_labels=ks.negative_labels)
    pos_only = SignedKrausSet(ks.positive, positive_labels=ks.positive_labels)
    recon_neg = reconstruct_choi(neg_only)
    recon_pos = reconstruct_choi(pos_only)

    corner = np.abs(minus) > 1e-14
    neg_ratios = (recon_neg[corner] / minus[corner]).real
    pos_corner_ratios = (recon_pos[corner] / plus[corner]).real

    states = random_density_matrix(2, np.random.default_rng(0), count=20)
    action_dev = max_abs(apply_signed_kraus(states, ks) - apply_signed_kraus(states, gad_kraus(p, lam)))
    return {
        "negative_reconstruction_ratio": float(np.mean(neg_ratios)),
        "negative_ratio_spread": float(np.ptp(neg_ratios)),
        "positive_corner_ratio": float(np.mean(pos_corner_ratios)),
        "action_max_deviation": float(action_dev),
    }


# ---------------------------------------------------------------------------
# driven two-qubit amplitude damping


@dataclass(frozen=True)
class Ad2Params:
    """Parameters of the two-qubit damping family.

    gamma     single-atom decay rate (> 0)
    gamma12   collective decay rate, |gamma12| < gamma
    omega12   collective coupling shift
    omega0    bare transition frequency
    t         evolution time (>= 0)

    Every parameter must be finite.
    """

    gamma: float
    gamma12: float
    omega12: float
    omega0: float
    t: float

    def __post_init__(self):
        for name in ("gamma", "gamma12", "omega12", "omega0", "t"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not abs(self.gamma12) < self.gamma:
            raise ValueError("|gamma12| must be smaller than gamma")
        if self.t < 0.0:
            raise ValueError("t must be nonnegative")

    def at(self, t: float) -> "Ad2Params":
        """Same rates at a different time."""
        return Ad2Params(self.gamma, self.gamma12, self.omega12, self.omega0, t)


@dataclass(frozen=True)
class Ad2Coefficients:
    """Closed-form coefficients of the two-qubit damping action.

    The eight real ones (A..H) drive populations, the ten complex ones
    (J..V) drive coherences.  They satisfy A + C + E + H = 1, B + F = 1,
    D + G = 1 exactly (trace preservation).
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    G: float
    H: float
    J: complex
    L: complex
    M: complex
    P: complex
    Q: complex
    T: complex
    R: complex
    S: complex
    U: complex
    V: complex


def ad2_coefficients(params: Ad2Params) -> Ad2Coefficients:
    """Evaluate the two-qubit damping coefficients at the given parameters."""
    gamma, g12 = params.gamma, params.gamma12
    om12, om0, t = params.omega12, params.omega0, params.t
    gp = gamma + g12
    gm = gamma - g12

    # 1 - exp(-x) via expm1 keeps the trace identities tight near t = 0
    f_p = -math.expm1(-gp * t)
    f_m = -math.expm1(-gm * t)
    a = math.exp(-2.0 * gamma * t)
    b = math.exp(-gp * t)
    c = (gp / gm) * f_m * b
    d = math.exp(-gm * t)
    e = (gm / gp) * f_p * d
    # The second term of H is (gm/gp) (f_m - (gm/2gamma)(1 - a)), rewritten
    # with gm + gp = 2 gamma so that nothing cancels as gp -> 0; gp > 0
    # because Ad2Params keeps |gamma12| < gamma, so f_p / gp needs no limit
    # at gp = 0.  d f_p equals a expm1(gp t) but cannot overflow at large t.
    h = (gp / (2.0 * gamma)) * (1.0 - (2.0 / gm) * ((gp / 2.0) * f_m + gm / 2.0) * b) + gm * (
        -d * f_p / gp - math.expm1(-2.0 * gamma * t) / (2.0 * gamma)
    )

    def osc(freq: float, rate: float) -> complex:
        return complex(np.exp(-1j * freq * t) * math.exp(-rate * t))

    j = osc(om0 - om12, (3.0 * gamma + g12) / 2.0)
    l = osc(2.0 * om0, gamma)
    m = osc(om0 + om12, (3.0 * gamma - g12) / 2.0)
    pp = osc(2.0 * om12, gamma)
    q = osc(om0 - om12, gm / 2.0)
    tt = osc(om0 + om12, gp / 2.0)

    # R, S, U and V carry (gamma, 2 omega12) / (gamma^2 + 4 omega12^2).  The
    # rates are scaled by 2^-n, n the exponent of max(gamma, 2|omega12|), so
    # the squares cannot underflow to a zero denominator for tiny rates.  A
    # power of two scales exactly, so elsewhere the scaling changes no value.
    n = math.frexp(max(gamma, 2.0 * abs(om12)))[1]
    g_s, w_s = math.ldexp(gamma, -n), math.ldexp(2.0 * om12, -n)
    decay = math.exp(-gamma * t)
    bracket_cos = w_s * decay * math.sin(2.0 * om12 * t) + g_s * (1.0 - decay * math.cos(2.0 * om12 * t))
    bracket_sin = w_s * (1.0 - decay * math.cos(2.0 * om12 * t)) - g_s * decay * math.sin(2.0 * om12 * t)
    denom = g_s * g_s + w_s * w_s
    gm_s, gp_s = math.ldexp(gm, -n), math.ldexp(gp, -n)
    r = (gm_s / denom) * osc(om0 - om12, gm / 2.0) * bracket_cos
    s = (gm_s / denom) * osc(om0 - om12, gm / 2.0) * bracket_sin
    u = (gp_s / denom) * osc(om0 + om12, gp / 2.0) * bracket_cos
    v = (gp_s / denom) * osc(om0 + om12, gp / 2.0) * bracket_sin

    # finite parameters can still overflow, as 2 omega0 does for omega0 = 1e308
    if not all(map(cmath.isfinite, (a, b, c, d, e, f_p, f_m, h, j, l, m, pp, q, tt, r, s, u, v))):
        raise ValueError(f"the coefficients are not finite at {params}")
    return Ad2Coefficients(
        A=a, B=b, C=c, D=d, E=e, F=f_p, G=f_m, H=h,
        J=j, L=l, M=m, P=pp, Q=q, T=tt, R=r, S=s, U=u, V=v,
    )


# Terms out[i, j] += c * rho[k, l] of the closed-form action, as (i, j, k, l)
# in the order of the coefficient list in ad2_apply; each term comes with its
# mirror out[j, i] += conj(c) * rho[l, k], so the action preserves Hermiticity.
_AD2_TERMS = np.array([
    (0, 0, 0, 0),  # A
    (1, 1, 1, 1), (1, 1, 0, 0),  # B, C
    (2, 2, 2, 2), (2, 2, 0, 0),  # D, E
    (3, 3, 3, 3), (3, 3, 1, 1), (3, 3, 2, 2), (3, 3, 0, 0),  # 1, F, G, H
    (0, 1, 0, 1), (0, 2, 0, 2), (0, 3, 0, 3), (1, 2, 1, 2),  # J, M, L, P
    (1, 3, 1, 3), (1, 3, 0, 1),  # T, U + iV
    (2, 3, 2, 3), (2, 3, 0, 2),  # Q, iS - R
])
# positions of the terms, and of their mirrors, in the 16 x 16 matrix that
# maps the row-major entries 4 k + l of rho to the entries 4 i + j of the result
_AD2_AT = (4 * _AD2_TERMS[:, 0] + _AD2_TERMS[:, 1], 4 * _AD2_TERMS[:, 2] + _AD2_TERMS[:, 3])
_AD2_MIRROR_AT = (4 * _AD2_TERMS[:, 1] + _AD2_TERMS[:, 0], 4 * _AD2_TERMS[:, 3] + _AD2_TERMS[:, 2])


def ad2_apply(rho, co: Ad2Coefficients) -> np.ndarray:
    """Closed-form action of the two-qubit damping channel on a 4 x 4 state,
    or on each state of a stack (..., 4, 4).

    Populations cascade toward the ground state (index 3); coherences pick up
    the complex coefficients, with the (e, s) and (e, a) coherences feeding
    the (s, g) and (a, g) ones through U + iV and iS - R.  Each state goes
    through its own product with the 16 x 16 matrix of these terms, so its
    result does not depend on the stack it comes in.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim < 2 or r.shape[-2:] != (4, 4):
        raise ValueError("expected a 4 x 4 state")
    coeffs = np.array([co.A, co.B, co.C, co.D, co.E, 1.0, co.F, co.G, co.H, co.J, co.M, co.L, co.P,
                       co.T, co.U + 1j * co.V, co.Q, 1j * co.S - co.R], dtype=complex)
    action = np.zeros((16, 16), dtype=complex)
    action[_AD2_MIRROR_AT] = coeffs.conj()
    action[_AD2_AT] = coeffs  # the diagonal terms are their own mirrors, with real coefficients
    return (r.reshape(-1, 1, 16) @ action.T).reshape(r.shape)
