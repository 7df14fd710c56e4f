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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, eigvals_hermitian, is_hermitian, is_psd, max_abs

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
    "reconstruct_choi_stack",
]


# ---------------------------------------------------------------------------
# signed operator sets


@dataclass(frozen=True, eq=False)  # equal only to itself: its fields hold arrays
class SignedKrausSet:
    """Operators of a sum-difference representation.

    Action: rho' = sum_i K+_i rho K+_i^dag - sum_k K-_k rho K-_k^dag.
    A plain Kraus set is the special case with an empty negative list.

    Every set is built through ``of_stack``, which copies its operators into
    one read-only (count, d, d) stack; ``positive`` and ``negative`` are
    views of that stack.  The set's Choi matrix (which
    ``choi.reconstruct_choi`` returns) and its superoperator are computed
    from the stack once, when first asked for, and kept read-only.
    """

    positive: tuple
    negative: tuple = ()
    positive_labels: tuple = ()
    negative_labels: tuple = ()

    def __post_init__(self):
        pos = tuple(self.positive)
        self._keep(pos + tuple(self.negative), len(pos), self.positive_labels, self.negative_labels)

    @classmethod
    def of_stack(cls, ops, positive_count: int, positive_labels=(), negative_labels=()) -> "SignedKrausSet":
        """The set of the operators ``ops`` (count, d, d), of which the first
        ``positive_count`` are positive and the rest negative; labels default
        to ``+i`` and ``-i``.  ValueError if there is no positive operator,
        if the operators are not square of one dimension or not finite, or if
        a label count does not match its operator count."""
        ks = object.__new__(cls)
        ks._keep(ops, positive_count, positive_labels, negative_labels)
        return ks

    def _keep(self, ops, npos: int, positive_labels, negative_labels) -> None:
        if not npos:
            raise ValueError("at least one positive operator is required")
        ops = np.array(ops, dtype=complex)  # ValueError for operators of two shapes
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError("all operators must be square with a common dimension")
        if not np.isfinite(ops).all():
            raise ValueError(f"operator entries must be finite, got {ops[~np.isfinite(ops)][0]}")
        nneg = len(ops) - npos
        plab = tuple(positive_labels) or tuple(f"+{i}" for i in range(npos))
        nlab = tuple(negative_labels) or tuple(f"-{i}" for i in range(nneg))
        if len(plab) != npos or len(nlab) != nneg:
            raise ValueError("label count must match operator count")
        signs = np.repeat([1, -1], (npos, nneg))[None]
        ops.flags.writeable = signs.flags.writeable = False  # before any view is taken, which would stay writeable
        object.__setattr__(self, "positive", tuple(ops[:npos]))
        object.__setattr__(self, "negative", tuple(ops[npos:]))
        object.__setattr__(self, "positive_labels", plab)
        object.__setattr__(self, "negative_labels", nlab)
        object.__setattr__(self, "_stacked", (ops[None], signs))

    # cached_property writes the instance's __dict__, not through the frozen __setattr__
    @functools.cached_property
    def _choi(self) -> np.ndarray:
        choi = reconstruct_choi_stack(*self._stacked)[0]
        choi.flags.writeable = False
        return choi

    @functools.cached_property
    def _superoperator(self) -> np.ndarray:
        d = self.dim
        superop = self._choi.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
        superop.flags.writeable = False
        return superop

    @property
    def dim(self) -> int:
        return self.positive[0].shape[0]

    @property
    def count(self) -> int:
        return len(self.positive) + len(self.negative)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The operators as a stack of one, ``(1, count, d, d)``, with their
        signs ``(1, count)``: positive operators (+1) first, then negative
        (-1).  The set holds its operators as this read-only stack."""
        return self._stacked

    def superoperator(self) -> np.ndarray:
        """The read-only d^2 x d^2 matrix S = sum_k s_k conj(K_k) (x) K_k of
        the map in the ``unfold`` (column-stacking) convention: unfold(E(rho))
        = S unfold(rho).

        S is a reshuffle of the set's Choi matrix (Wood, Biamonte & Cory
        2015), S[(a, b), (k, j)] = B[(j, b), (k, a)], taken once, on the
        first call.
        """
        return self._superoperator


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
    weighted = dagger(rows)
    weighted *= np.repeat(signs, d, axis=1)[:, None, :]  # in place: one (m, d, k d) copy, not two
    return np.abs(weighted @ rows - np.eye(d)).max(axis=(1, 2))


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
    the imaginary part of its G from the generator.  Each state is scaled by
    1 / Re Tr(G G^dag), summed as np.trace sums it, as floats: the trace is
    real but for dust, which a complex division would carry into its bits.
    ``dim`` must be at least 1, and ``count`` None or at least 0.
    """
    if not dim >= 1:
        raise ValueError(f"dim must be at least 1, got {dim!r}")
    if not (count is None or count >= 0):
        raise ValueError(f"count must be None or at least 0, got {count!r}")
    parts = rng.standard_normal((1 if count is None else count, 2, dim, dim))
    g = np.empty((len(parts), dim, dim), dtype=complex)
    g.real, g.imag = parts[:, 0], parts[:, 1]  # bitwise parts[:, 0] + 1j * parts[:, 1], without its multiply
    rho = g @ dagger(g)
    flat = rho.view(float).reshape(len(rho), 2 * dim * dim)  # a view of the real and imaginary parts
    flat *= 1.0 / (0.0 + _pairwise_sum(rho.diagonal(axis1=-2, axis2=-1).real))[:, None]
    return rho[0] if count is None else rho


def _pairwise_sum(x) -> np.ndarray:
    """Sum over the last axis in the order of numpy's complex add-reduce
    (pairwise; Higham 1993), one add per step across the leading axes, so
    ``0.0 + _pairwise_sum(rho.diagonal(...).real)`` is bitwise np.trace's real
    part: below 4 entries in sequence; to 64, four lanes of stride 4 added as
    (l0 + l1) + (l2 + l3), then the rest in sequence; above, halved blocks."""
    m = x.shape[-1]
    if m > 64:
        half = (m - m % 8) // 2
        return _pairwise_sum(x[..., :half]) + _pairwise_sum(x[..., half:])
    total, start = x[..., 0], 1
    if m >= 4:
        lanes = x[..., :4]
        for i in range(4, m - m % 4, 4):
            lanes = lanes + x[..., i:i + 4]
        total, start = (lanes[..., 0] + lanes[..., 1]) + (lanes[..., 2] + lanes[..., 3]), m - m % 4
    for i in range(start, m):
        total = total + x[..., i]
    return total


def check_density_matrix(rho) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace, and PSD within 1e-10."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho, 1e-10):
        raise ValueError("state is not Hermitian")
    if abs(rho.trace() - 1.0) > 1e-10:
        raise ValueError(f"state trace {rho.trace():.6g} is not 1")
    if not is_psd(rho, 1e-10):
        raise ValueError(f"state has negative eigenvalue {eigvals_hermitian(rho, tol=1e-12)[-1]:.3e}")


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
    plus, minus = gad_split_choi(p, lam)
    ks = gad_split_kraus(p, lam)
    recon_neg, recon_pos = (SignedKrausSet(ops)._choi for ops in (ks.negative, ks.positive))

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


def _elementwise(fn):
    """``fn`` of the math module applied to each entry of a 1-D array.  The
    array paths of ``ad2_coefficients`` use it where numpy's own function
    can differ from the math module's in the last bit, as np.exp does."""
    return lambda x: np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


# (exp, expm1, sin, cos, complex result, finiteness test) for a float time
# and for an array of times
_SCALAR_MATH = (math.exp, math.expm1, math.sin, math.cos, complex, cmath.isfinite)
_ARRAY_MATH = (_elementwise(math.exp), _elementwise(math.expm1), _elementwise(math.sin),
               _elementwise(math.cos), np.asarray, lambda x: np.isfinite(x).all())


@np.errstate(all="ignore")  # an overflow shows as a non-finite value, and the check below names it
def ad2_coefficients(params: Ad2Params, t=None) -> Ad2Coefficients:
    """Evaluate the two-qubit damping coefficients at the given parameters.

    With ``t``, a 1-D array of nonnegative finite times, the coefficients
    are evaluated at those times instead of ``params.t``: every field is
    then an array over them, each entry bitwise the value a scalar call at
    that time gives.  Coefficients that are not finite raise ValueError.
    """
    gamma, g12 = params.gamma, params.gamma12
    om12, om0 = params.omega12, params.omega0
    if t is None:
        t = t_max = params.t
        exp, expm1, sin, cos, cast, finite = _SCALAR_MATH
    else:
        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or not np.all((t >= 0.0) & (t < math.inf)):
            raise ValueError("times must be a 1-D array of nonnegative finite values")
        t_max = float(t.max(initial=0.0))
        exp, expm1, sin, cos, cast, finite = _ARRAY_MATH
    gp = gamma + g12
    gm = gamma - g12
    # finite parameters can still overflow a phase, as 2 omega0 t does for
    # omega0 = 1e308; its coefficient is then undefined, and math.sin and
    # math.cos reject the argument.  |w t| grows with t, so t_max decides
    # whether one does.
    freqs = (om0 - om12, 2.0 * om0, om0 + om12, 2.0 * om12)
    if not all(math.isfinite(w * t_max) for w in freqs):
        if np.ndim(t):  # name the first time whose phase overflows
            t = float(t[np.isfinite(np.multiply.outer(freqs, t)).all(axis=0).argmin()])
        raise ValueError(f"the coefficients are not finite at {params.at(t)}")

    # A to H take the rates only through their products with t and their
    # ratios.  The ratios are taken of the rates scaled by 2^-k, k the
    # exponent of gamma, so that neither 2 gamma (gamma near the largest
    # float) nor 2 / gm (gm subnormal) overflows; -2 gamma t is taken as
    # -2 (gamma t).  Doubling and a power of two scale exactly, so elsewhere
    # this changes no value.
    k = math.frexp(gamma)[1]
    g2_k, gp_k, gm_k = math.ldexp(gamma, 1 - k), math.ldexp(gp, -k), math.ldexp(gm, -k)
    neg_2gt = -2.0 * (gamma * t)
    # 1 - exp(-x) via expm1 keeps the trace identities tight near t = 0
    f_p = -expm1(-gp * t)
    f_m = -expm1(-gm * t)
    a = exp(neg_2gt)
    b = exp(-gp * t)
    c = (gp_k / gm_k) * f_m * b
    d = exp(-gm * t)
    e = (gm_k / gp_k) * f_p * d
    # The second term of H is (gm/gp) (f_m - (gm/2gamma)(1 - a)), rewritten
    # with gm + gp = 2 gamma so that nothing cancels as gp -> 0; gp > 0
    # because Ad2Params keeps |gamma12| < gamma, so f_p / gp needs no limit
    # at gp = 0.  d f_p equals a expm1(gp t) but cannot overflow at large t.
    h = (gp_k / g2_k) * (1.0 - (2.0 / gm_k) * ((gp_k / 2.0) * f_m + gm_k / 2.0) * b) + gm_k * (
        -d * f_p / gp_k - expm1(neg_2gt) / g2_k
    )

    # each oscillating coefficient takes rate t as (rate 2^-k) (t 2^k), so that
    # no rate overflows, as 3 gamma can; t 2^k is exact unless it overflows or
    # goes subnormal, where exp(-rate t) is 0.0 or 1.0 either way
    def osc(freq: float, rate_k: float):
        return cast(np.exp(-1j * freq * t) * exp(-rate_k * t_k))

    t_k, g_k, g12_k = np.ldexp(t, k), math.ldexp(gamma, -k), math.ldexp(g12, -k)
    j = osc(om0 - om12, (3.0 * g_k + g12_k) / 2.0)
    l = osc(2.0 * om0, g_k)
    m = osc(om0 + om12, (3.0 * g_k - g12_k) / 2.0)
    pp = osc(2.0 * om12, g_k)
    q = osc(om0 - om12, gm_k / 2.0)
    tt = osc(om0 + om12, gp_k / 2.0)

    # R, S, U and V carry (gamma, 2 omega12) / (gamma^2 + 4 omega12^2).  The
    # rates are scaled by 2^-n, n the exponent of max(gamma, 2|omega12|), so
    # the squares cannot underflow to a zero denominator for tiny rates.  A
    # power of two scales exactly, so elsewhere the scaling changes no value.
    n = math.frexp(max(gamma, 2.0 * abs(om12)))[1]
    g_s, w_s = math.ldexp(gamma, -n), math.ldexp(2.0 * om12, -n)
    decay = exp(-gamma * t)
    sine, cosine = sin(2.0 * om12 * t), cos(2.0 * om12 * t)
    bracket_cos = w_s * decay * sine + g_s * (1.0 - decay * cosine)
    bracket_sin = w_s * (1.0 - decay * cosine) - g_s * decay * sine
    denom = g_s * g_s + w_s * w_s
    gm_s, gp_s = math.ldexp(gm, -n), math.ldexp(gp, -n)
    r = (gm_s / denom) * q * bracket_cos
    s = (gm_s / denom) * q * bracket_sin
    u = (gp_s / denom) * tt * bracket_cos
    v = (gp_s / denom) * tt * bracket_sin

    # large rates can still overflow, as gamma + gamma12 does at gamma = 1.5e308
    values = (a, b, c, d, e, f_p, f_m, h, j, l, m, pp, q, tt, r, s, u, v)
    if not all(map(finite, values)):
        if np.ndim(t):  # name the first time whose coefficients fail
            t = float(t[np.isfinite(values).all(axis=0).argmin()])
        raise ValueError(f"the coefficients are not finite at {params.at(t)}")
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
