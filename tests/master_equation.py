"""Oracle for the two-qubit damping channel: its collective master equation.

The Liouvillian is built in the package's basis (e, s, a, g) with
H = diag(omega0, omega12, -omega12, -omega0) and the two jump operators
sqrt(gamma + gamma12) (|s><e| + |g><s|) and sqrt(gamma - gamma12)
(|a><e| - |g><a|) (Z. Ficek and R. Tanas, Phys. Rep. 372, 369 (2002)), and
exp(L t) comes from a scaling-and-squaring Taylor series, with numpy only.
"""

import numpy as np

_E, _S, _A, _G = np.eye(4)


def liouvillian(gamma: float, gamma12: float, omega12: float, omega0: float) -> np.ndarray:
    """The 16 x 16 generator acting on row-major vec(rho): vec(X rho Y) = (X kron Y^T) vec(rho)."""
    h = np.diag([omega0, omega12, -omega12, -omega0]).astype(complex)
    jumps = (np.sqrt(gamma + gamma12) * (np.outer(_S, _E) + np.outer(_G, _S)),
             np.sqrt(gamma - gamma12) * (np.outer(_A, _E) - np.outer(_G, _A)))
    one = np.eye(4)
    out = -1j * (np.kron(h, one) - np.kron(one, h.T))
    for jump in jumps:
        gram = jump.conj().T @ jump
        out += np.kron(jump, jump.conj()) - 0.5 * (np.kron(gram, one) + np.kron(one, gram.T))
    return out


def expm(m: np.ndarray, terms: int = 24) -> np.ndarray:
    """exp(m) by a Taylor series of m / 2^s, ||m / 2^s||_1 <= 1/2, squared s times."""
    norm = np.abs(m).sum(axis=0).max()
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0 else 0
    x = m / 2.0**s
    out, term = np.eye(len(m), dtype=complex), np.eye(len(m), dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def master_equation_choi(gamma: float, gamma12: float, omega12: float, omega0: float, t: float) -> np.ndarray:
    """Choi matrix of exp(L t) in the package's convention: entry (4 j + a, 4 k + b) is E(|j><k|)[a, b]."""
    sup = expm(liouvillian(gamma, gamma12, omega12, omega0) * t)
    # sup[4 a + b, 4 j + k] is E(|j><k|)[a, b]
    return sup.reshape(4, 4, 4, 4).transpose(2, 0, 3, 1).reshape(16, 16)
