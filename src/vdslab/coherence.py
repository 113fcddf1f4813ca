"""Local coherences of measurement rows with respect to union-of-subspaces priors.

The local coherence of row f_j is the supremum of |f_j* x| over unit-norm x in
the prior's difference set. Three computations produce it, each for every row
at once:

- ``coherence_vector``: exact, against an explicit ``SubspaceUnion``. For a
  real subspace with orthonormal basis B the supremum is the largest singular
  value of the 2 x dim real matrix stacking Re and Im of the transformed basis
  row.
- ``sparse_coherence_vector``: the complex-relaxation upper bound against
  s-sparse vectors, the root sum of a row's s largest squared magnitudes.
- ``empirical_generative_coherence``: the pairwise estimate for a ReLU
  network, the largest |F(x_a - x_b)_j| / ||x_a - x_b|| over sampled pairs.

Each returns alpha as a read-only float64 vector. Zero entries mark rows
orthogonal to the prior; they are excluded from sampling downstream.
"""

from __future__ import annotations

import numpy as np

from .priors import GenerativeNetwork, SubspaceUnion, generative_forward
from .transforms import UnitaryOperator

__all__ = [
    "coherence_vector",
    "sparse_coherence_vector",
    "empirical_generative_coherence",
    "save_coherence_csv",
]


def _read_only(alpha: np.ndarray) -> np.ndarray:
    alpha.setflags(write=False)
    return alpha


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


def coherence_vector(op: UnitaryOperator, union: SubspaceUnion) -> np.ndarray:
    """Exact coherence of every row of ``op`` against a subspace union."""
    if not isinstance(union, SubspaceUnion):
        raise TypeError(f"expected a SubspaceUnion, got {type(union).__name__}")
    subspaces = union.subspaces
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
    return _read_only(alpha)


def sparse_coherence_vector(op: UnitaryOperator, s: int) -> np.ndarray:
    """Upper-bound coherences of all rows against s-sparse vectors."""
    s = int(s)
    if not 1 <= s <= op.n:
        raise ValueError(f"need 1 <= s <= {op.n}, got {s}")
    mags = np.abs(op.matrix()) ** 2
    top = np.partition(mags, op.n - s, axis=1)[:, op.n - s :]
    alpha = np.sqrt(np.sum(top, axis=1))
    return _read_only(alpha)


def empirical_generative_coherence(
    net: GenerativeNetwork, op: UnitaryOperator, num_latents: int, rng_seed: int
) -> np.ndarray:
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
    return _read_only(alpha)


def save_coherence_csv(alpha, method: str, path) -> None:
    """Write alpha row by row, tagged with the name of the method that computed it."""
    lines = ["index,alpha,method"]
    lines += [f"{j},{a:.17g},{method}" for j, a in enumerate(alpha)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
