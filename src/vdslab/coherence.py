"""Local coherences of measurement rows with respect to union-of-subspaces priors.

The local coherence of row f_j is the supremum of |f_j* x| over unit-norm x in
the prior's difference set. For a real subspace with orthonormal basis B the
supremum has a closed form: the largest singular value of the 2 x dim real
matrix stacking Re and Im of the transformed basis row. Exact values, the
sparse complex-relaxation upper bound, and the pairwise empirical estimator
for generative priors all live here.
"""

from __future__ import annotations

import numpy as np

from .priors import GenerativeNetwork, Subspace, SubspaceUnion, generative_forward
from .transforms import UnitaryOperator

__all__ = [
    "CoherenceVector",
    "subspace_row_coherence",
    "coherence_vector",
    "sparse_coherence_upper",
    "sparse_coherence_vector",
    "sparse_coherence_exact",
    "empirical_generative_coherence",
    "save_coherence_csv",
    "load_coherence_csv",
]

_METHODS = ("exact", "upper_bound", "empirical")


class CoherenceVector:
    """Per-row coherences alpha with the method that produced them.

    Zero entries mark rows orthogonal to the prior; they are excluded from
    sampling downstream.
    """

    def __init__(self, alpha: np.ndarray, method: str):
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.ndim != 1:
            raise ValueError("alpha must be a vector")
        if not np.all(np.isfinite(alpha)) or np.any(alpha < 0):
            raise ValueError("coherences must be finite and nonnegative")
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        alpha = alpha.copy()
        alpha.setflags(write=False)
        self.alpha = alpha
        self.method = method
        self.n = alpha.size

    def __repr__(self) -> str:
        return f"<CoherenceVector n={self.n} method={self.method}>"


def _row_sup_norms(rows: np.ndarray) -> np.ndarray:
    """sup over real unit w of |r w| for each complex row r, vectorized.

    Equals the top singular value of [Re r; Im r]; computed from the 2x2 Gram
    eigenvalue closed form.
    """
    re, im = rows.real, rows.imag
    a = np.einsum("...j,...j->...", re, re)
    c = np.einsum("...j,...j->...", im, im)
    b = np.einsum("...j,...j->...", re, im)
    lam = 0.5 * (a + c) + np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return np.sqrt(np.maximum(lam, 0.0))


def subspace_row_coherence(f: np.ndarray, basis: np.ndarray) -> float:
    """sup of |f* x| over unit x in the real subspace spanned by ``basis``."""
    f = np.asarray(f)
    basis = np.asarray(basis)
    if np.iscomplexobj(basis):
        raise ValueError("subspace bases must be real")
    # row of the transformed basis: (B^T conj(f))^T has entries f* B e_i
    projected = basis.T @ f.conj()
    return float(_row_sup_norms(projected[None, :])[0])


def _union_subspaces(prior):
    if isinstance(prior, Subspace):
        return (prior,)
    if isinstance(prior, SubspaceUnion):
        return prior.subspaces
    raise TypeError(f"expected a Subspace or SubspaceUnion, got {type(prior).__name__}")


def coherence_vector(op: UnitaryOperator, prior) -> CoherenceVector:
    """Exact coherence of every row of ``op`` against a subspace or subspace union."""
    subspaces = _union_subspaces(prior)
    if any(s.n != op.n for s in subspaces):
        raise ValueError("prior ambient dimension does not match the operator")
    # one batched transform for all bases, then a per-subspace max-reduce
    stacked = op.forward(np.hstack([s.basis for s in subspaces]))
    alpha = np.zeros(op.n)
    start = 0
    for s in subspaces:
        rows = stacked[:, start : start + s.dim]
        np.maximum(alpha, _row_sup_norms(rows), out=alpha)
        start += s.dim
    return CoherenceVector(alpha, "exact")


def sparse_coherence_upper(f: np.ndarray, s: int) -> float:
    """Complex-relaxation bound: root sum of the s largest squared magnitudes."""
    f = np.asarray(f)
    s = int(s)
    if not 1 <= s <= f.size:
        raise ValueError(f"need 1 <= s <= {f.size}, got {s}")
    mags = np.abs(f) ** 2
    top = np.partition(mags, f.size - s)[f.size - s :]
    return float(np.sqrt(np.sum(top)))


def sparse_coherence_vector(op: UnitaryOperator, s: int) -> CoherenceVector:
    """Upper-bound coherences of all rows against s-sparse vectors."""
    s = int(s)
    if not 1 <= s <= op.n:
        raise ValueError(f"need 1 <= s <= {op.n}, got {s}")
    mags = np.abs(op.matrix()) ** 2
    top = np.partition(mags, op.n - s, axis=1)[:, op.n - s :]
    alpha = np.sqrt(np.sum(top, axis=1))
    return CoherenceVector(alpha, "upper_bound")


def sparse_coherence_exact(op: UnitaryOperator, s: int) -> CoherenceVector:
    """Exact real-restricted s-sparse coherences by support enumeration (n <= 20)."""
    from itertools import combinations

    s = int(s)
    if op.n > 20:
        raise ValueError("exact sparse enumeration is limited to n <= 20")
    if not 1 <= s <= op.n:
        raise ValueError(f"need 1 <= s <= {op.n}, got {s}")
    mat = op.matrix()
    supports = np.array(list(combinations(range(op.n), s)))
    alpha = np.zeros(op.n)
    for chunk in np.array_split(supports, max(1, len(supports) // 4096)):
        rows = mat[:, chunk]  # (n, chunk, s)
        np.maximum(alpha, _row_sup_norms(rows).max(axis=1), out=alpha)
    return CoherenceVector(alpha, "exact")


def empirical_generative_coherence(
    net: GenerativeNetwork, op: UnitaryOperator, num_latents: int, rng_seed: int
) -> CoherenceVector:
    """Paper-style estimator: max over sample pairs of |F(x_a - x_b)_j| / ||x_a - x_b||.

    Signals are transformed once and differenced in the transform domain,
    which gives identical values at O(B n log n + B^2 n) cost. Pairs with
    exactly coincident signals are skipped.
    """
    num_latents = int(num_latents)
    if num_latents < 2:
        raise ValueError("need at least two latent samples")
    if net.n != op.n:
        raise ValueError("network output dimension does not match the operator")
    rng = np.random.default_rng(rng_seed)
    z = rng.standard_normal((net.latent_dim, num_latents))
    x = generative_forward(net, z)
    fx = op.forward(x)
    alpha = np.zeros(op.n)
    # the pair blocks reuse two buffers instead of allocating up to n x num_latents
    # temporaries per latent
    dx, dfx = np.empty_like(x), np.empty_like(fx)
    for a in range(num_latents - 1):
        rest = num_latents - 1 - a
        d = np.subtract(x[:, a + 1 :], x[:, a : a + 1], out=dx[:, :rest])
        norms = np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=0))
        norms[norms == 0.0] = np.inf  # a coincident pair then adds 0, which never raises alpha
        r = np.abs(np.subtract(fx[:, a + 1 :], fx[:, a : a + 1], out=dfx[:, :rest]), out=d)
        np.maximum(alpha, np.divide(r, norms, out=r).max(axis=1), out=alpha)
    return CoherenceVector(alpha, "empirical")


def save_coherence_csv(cv: CoherenceVector, path) -> None:
    lines = ["index,alpha,method"]
    lines += [f"{j},{cv.alpha[j]:.17g},{cv.method}" for j in range(cv.n)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_coherence_csv(path) -> CoherenceVector:
    with open(path, newline="") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != "index,alpha,method":
        raise ValueError("malformed coherence CSV header")
    alpha = np.zeros(len(lines) - 1)
    methods = set()
    for row, line in enumerate(lines[1:]):
        idx, val, method = line.split(",")
        if int(idx) != row:
            raise ValueError(f"row {row} has index {idx}")
        alpha[row] = float(val)
        methods.add(method)
    if len(methods) != 1:
        raise ValueError("mixed methods in coherence CSV")
    return CoherenceVector(alpha, methods.pop())
