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
  It reads the operator's column bands, each a representative column and
  the number of columns that share its row-wise magnitudes (one band for a
  DFT, one per Haar coefficient band for a DFT over a Haar basis, one per
  column otherwise), and streams the representatives through ``forward``
  in blocks of at most ``_BAND_BLOCK`` columns, keeping a running top s of
  (magnitude, count) pairs per row. Its memory is O(n (s + _BAND_BLOCK));
  no n x n matrix is built.
- ``empirical_generative_coherence``: the pairwise estimate for a ReLU
  network, the largest |F(x_a - x_b)_j| / ||x_a - x_b|| over sampled pairs.
  It differences the B transformed signals on one row of each conjugate
  pair (their real parts alone for a real operator) and, since the operator
  is unitary, takes each pair's norm from the same squared magnitudes:
  O(B n log n + B^2 n) time, O(B n) memory.

Each returns alpha as a read-only float64 vector. Zero entries mark rows
orthogonal to the prior; they are excluded from sampling downstream.
"""

from __future__ import annotations

import numpy as np

from .priors import GenerativeNetwork, SubspaceUnion, _basis_blocks, generative_forward
from .transforms import UnitaryOperator, _integer, _read_only

__all__ = [
    "coherence_vector",
    "sparse_coherence_vector",
    "empirical_generative_coherence",
    "save_coherence_csv",
]

_BAND_BLOCK = 128  # band columns per transform of sparse_coherence_vector


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
    if union.n != op.n:
        raise ValueError("prior ambient dimension does not match the operator")
    alpha = np.zeros(op.n)
    for block in _basis_blocks(op.forward, union):
        np.maximum(alpha, _row_sup_norms(block), out=alpha)
    return _read_only(alpha)


def _merge_top(values: np.ndarray, counts: np.ndarray, s: int) -> tuple:
    """Per row, the largest values first, each kept up to its count until s are counted.

    Takes and returns (n, width) values and counts; the result is at most s
    wide, and a row's counts sum to min(s, its total count).
    """
    order = np.argsort(-values, axis=1, kind="stable")[:, :s]
    values = np.take_along_axis(values, order, axis=1)
    capped = np.minimum(np.cumsum(np.take_along_axis(counts, order, axis=1), axis=1), s)
    return values, np.diff(capped, axis=1, prepend=0)


def sparse_coherence_vector(op: UnitaryOperator, s: int) -> np.ndarray:
    """Upper-bound coherences of all rows against s-sparse vectors.

    alpha_j^2 is the sum of the s largest |forward(e_k)[j]|^2 over k, read
    from the operator's column bands without building the matrix.
    """
    s = _integer("s", s)
    if not 1 <= s <= op.n:
        raise ValueError(f"need 1 <= s <= {op.n}, got {s}")
    columns, sizes = op._column_bands()
    values, counts = np.empty((op.n, 0)), np.empty((op.n, 0), dtype=np.int64)
    for start in range(0, len(columns), _BAND_BLOCK):
        mags = np.abs(op._unit_columns(columns[start : start + _BAND_BLOCK])) ** 2
        block_counts = np.broadcast_to(sizes[start : start + _BAND_BLOCK], mags.shape)
        values, counts = _merge_top(np.hstack([values, mags]), np.hstack([counts, block_counts]), s)
    alpha = np.sqrt(np.sum(values * counts, axis=1))
    return _read_only(alpha)


def empirical_generative_coherence(
    net: GenerativeNetwork, op: UnitaryOperator, num_latents: int, rng_seed: int
) -> np.ndarray:
    """Paper-style estimator: max over sample pairs of |F(x_a - x_b)_j| / ||x_a - x_b||.

    The B = num_latents signals are transformed once and differenced in the
    transform domain, on one row of each conjugate pair: for a real signal,
    |F x|_j = |F x|_{Pj} with P = ``op.conjugate_rows()``. Since ``op`` is
    unitary, ||x_a - x_b||^2 is the sum of |F(x_a - x_b)|^2 over all rows, which
    is the kept rows' squared magnitudes weighted by 2 for a row with a partner
    and by 1 for its own partner. A real operator's transforms have no
    imaginary part, so only their real parts are differenced. The cost is
    O(B n log n + B^2 n) time and O(B n) memory. Pairs whose transforms
    coincide, such as two of the zero signals that a ReLU network maps many
    latents to, are skipped.
    """
    num_latents = _integer("num_latents", num_latents)
    rng_seed = _integer("rng_seed", rng_seed)
    if num_latents < 2:
        raise ValueError("need at least two latent samples")
    if net.n != op.n:
        raise ValueError("network output dimension does not match the operator")
    rng = np.random.default_rng(rng_seed)
    z = rng.standard_normal((net.latent_dim, num_latents))
    partner = op.conjugate_rows()
    kept = np.flatnonzero(np.arange(op.n) <= partner)
    weight = np.where(partner[kept] == kept, 1.0, 2.0)
    h = len(kept)
    fx = op.forward(generative_forward(net, z))[kept]
    # one row per latent: [Re | Im], or Re alone for a real operator, whose imaginary half would
    # add only zeros. Both are column-major as transposes of fx (hstack keeps that), and so is
    # every block of differences: the max over pairs reads it fastest, and a real operator's
    # weighted sums add the same terms in the same order as its [Re | Im] sums did
    is_complex = np.iscomplexobj(fx)
    y = np.hstack([fx.real.T, fx.imag.T]) if is_complex else fx.T
    best = np.zeros(h)  # the largest |F(x_b - x_a)|_j^2 / ||x_b - x_a||^2 so far
    for a in range(num_latents - 1):
        mag = y[a + 1 :] - y[a]
        mag *= mag
        if is_complex:
            mag = mag[:, :h] + mag[:, h:]  # rebinding frees the squares at once
        norm2 = mag @ weight
        norm2[norm2 == 0.0] = np.inf  # a coincident pair then adds 0, which never raises alpha
        mag /= norm2[:, None]
        np.maximum(best, mag.max(axis=0), out=best)
    alpha = np.empty(op.n)
    alpha[kept] = alpha[partner[kept]] = np.sqrt(best)
    return _read_only(alpha)


def save_coherence_csv(alpha, method: str, path) -> None:
    """Write alpha row by row, tagged with the name of the method that computed it."""
    lines = ["index,alpha,method"]
    lines += [f"{j},{a:.17g},{method}" for j, a in enumerate(alpha)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
