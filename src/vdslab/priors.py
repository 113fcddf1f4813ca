"""Prior sets contained in unions of subspaces.

Three concrete prior families: explicit subspace unions, k-sparse vectors, and
small ReLU generative networks without biases. Each supports construction of
a subspace union covering the difference set Q - Q; the sparse and generative
priors also have logarithmic subspace-count bounds, and the sparse prior a
Euclidean projection. All subspaces are real.
"""

from __future__ import annotations

import math
import struct
from itertools import combinations

import numpy as np

from .transforms import _integer, _read_only

__all__ = [
    "Subspace",
    "SubspaceUnion",
    "SparsePrior",
    "GenerativeNetwork",
    "EnumerationBudgetError",
    "subspace_from_span",
    "difference_union",
    "subspace_count_bounds",
    "project",
    "generative_forward",
    "generative_pullback",
    "save_network",
    "load_network",
    "save_union",
    "load_union",
]

_RANK_RTOL = 1e-10
_DEDUP_TOL = 1e-10
_ENUMERATION_BUDGET = 100_000
# difference_union's generative enumeration: latent directions probed and their stream
_PATTERN_LATENTS = 4096
_PATTERN_SEED = 0


class Subspace:
    """A linear subspace of R^n given by an n x dim orthonormal basis."""

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis)
        if np.iscomplexobj(basis):
            raise ValueError("subspace bases must be real")
        if basis.ndim != 2 or basis.shape[1] == 0:
            raise ValueError("basis must be a nonempty n x dim matrix")
        if not np.isfinite(basis).all():
            raise ValueError("basis entries must be finite")
        gram = basis.T @ basis
        if not np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-10:  # written so that NaN fails too
            raise ValueError("basis columns are not orthonormal within 1e-10")
        self.basis = _read_only(np.array(basis, dtype=np.float64, order="C"))
        self.n = basis.shape[0]
        self.dim = basis.shape[1]

    def __repr__(self) -> str:
        return f"<Subspace n={self.n} dim={self.dim}>"


class SubspaceUnion:
    """A finite union of nontrivial subspaces of a common ambient space."""

    def __init__(self, subspaces):
        subspaces = tuple(subspaces)
        if not subspaces:
            raise ValueError("union needs at least one subspace")
        n = subspaces[0].n
        for s in subspaces:
            if not isinstance(s, Subspace):
                raise TypeError("union members must be Subspace instances")
            if s.n != n:
                raise ValueError("subspaces live in different ambient dimensions")
        self.subspaces = subspaces
        self.n = n
        self.M = len(subspaces)
        self.max_dim = max(s.dim for s in subspaces)

    def __repr__(self) -> str:
        return f"<SubspaceUnion n={self.n} M={self.M} max_dim={self.max_dim}>"


class SparsePrior:
    """Vectors with at most k nonzero entries in R^n."""

    def __init__(self, n: int, k: int):
        n, k = _integer("n", n), _integer("k", k)
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k

    def __repr__(self) -> str:
        return f"<SparsePrior n={self.n} k={self.k}>"


class GenerativeNetwork:
    """ReLU network z -> W_d relu( ... relu(W_1 z)) with no bias terms.

    layer_widths is (k_0, ..., k_d) with non-decreasing widths; the final
    layer is linear.
    """

    def __init__(self, weights):
        weights = tuple(np.asarray(w) for w in weights)
        if not weights:
            raise ValueError("need at least one weight matrix")
        if any(np.iscomplexobj(w) or w.ndim != 2 for w in weights):
            raise ValueError("weights must be real matrices")
        if not all(np.isfinite(w).all() for w in weights):
            raise ValueError("weights must be finite")
        widths = [weights[0].shape[1]] + [w.shape[0] for w in weights]
        for i, w in enumerate(weights):
            if w.shape[1] != widths[i]:
                raise ValueError(
                    f"layer {i + 1} expects input width {widths[i]}, got {w.shape[1]}"
                )
        if any(widths[i] > widths[i + 1] for i in range(len(widths) - 1)):
            raise ValueError(f"layer widths must be non-decreasing, got {widths}")
        if widths[0] < 1:
            raise ValueError("latent dimension must be positive")
        self.weights = tuple(_read_only(np.array(w, dtype=np.float64, order="C")) for w in weights)
        self.layer_widths = tuple(widths)
        self.depth = len(weights)
        self.latent_dim = widths[0]
        self.n = widths[-1]

    def __repr__(self) -> str:
        return f"<GenerativeNetwork widths={self.layer_widths}>"


class EnumerationBudgetError(Exception):
    """Difference-set enumeration would exceed the budget."""


def subspace_from_span(vectors: np.ndarray) -> Subspace:
    """Orthonormalize the columns of ``vectors`` into a Subspace via SVD."""
    a = np.asarray(vectors, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected an n x r matrix of spanning columns")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > _RANK_RTOL * (s[0] if s.size else 0.0)))
    if rank == 0:
        raise ValueError("spanning set is numerically zero")
    return Subspace(u[:, :rank])


def _dedup_subspaces(subspaces):
    """Drop subspaces whose orthogonal projectors coincide within 1e-10.

    Candidates are bucketed by dimension and by a hashed probe signature so
    only near-identical pairs are compared entrywise.
    """
    if not subspaces:
        return []
    n = subspaces[0].n
    probes = np.random.default_rng(901).standard_normal((n, 3))
    buckets: dict = {}
    kept = []
    for s in subspaces:
        sig = np.round(s.basis @ (s.basis.T @ probes), 6)
        key = (s.dim, sig.tobytes())
        # hash collisions across distinct spans are resolved by exact check
        group = buckets.setdefault(key, [])
        duplicate = False
        for other in group:
            diff = s.basis @ s.basis.T - other.basis @ other.basis.T
            if np.max(np.abs(diff)) <= _DEDUP_TOL:
                duplicate = True
                break
        if not duplicate:
            group.append(s)
            kept.append(s)
    return kept


def _activation_patterns(net: GenerativeNetwork) -> np.ndarray:
    """Realizable hidden-layer sign patterns found by directional sampling, one per row in
    lexicographic order, each the hidden layers' masks end to end.

    Patterns are positively homogeneous (no biases), so latent directions and
    their negations probe every cone that random sampling can reach.
    """
    z = np.random.default_rng(_PATTERN_SEED).standard_normal((net.latent_dim, _PATTERN_LATENTS))
    hidden = _hidden_layers(net, np.concatenate([z, -z], axis=1))[1:]
    rows = (np.concatenate(hidden, axis=0) > 0).T if hidden else np.zeros((1, 0), bool)
    return np.unique(rows, axis=0)


def _piece_matrix(net: GenerativeNetwork, pattern: np.ndarray) -> np.ndarray:
    """Linear map of G on the cone with the given activation pattern."""
    mat, start = net.weights[0], 0
    for w, width in zip(net.weights[1:], net.layer_widths[1:]):
        mat = w @ (pattern[start : start + width, None] * mat)
        start += width
    return mat


def _basis_blocks(forward, union: SubspaceUnion) -> list:
    """``forward`` of every basis of ``union`` in one call on the bases side by side, split back
    into one block per subspace."""
    dims = np.cumsum([s.dim for s in union.subspaces])[:-1]
    return np.split(forward(np.hstack([s.basis for s in union.subspaces])), dims, axis=1)


def _sparse_support_size(n: int, k: int, budget: int = _ENUMERATION_BUDGET) -> int:
    """Support size s = min(2k, n) of a k-sparse difference.

    Raises EnumerationBudgetError when its C(n, s) supports exceed ``budget``.
    """
    s = min(2 * k, n)
    count = math.comb(n, s)
    if count > budget:
        raise EnumerationBudgetError(f"C({n}, {s}) = {count} sparse supports exceed budget {budget}")
    return s


def difference_union(prior, budget: int = _ENUMERATION_BUDGET):
    """Build a SubspaceUnion covering the difference set Q - Q of a prior.

    Raises EnumerationBudgetError when the enumeration would exceed
    ``budget`` subspaces: C(n, min(2k, n)) supports for a sparse prior, the
    pairwise expansion for a subspace union, and the activation-pattern pairs
    for a generative network. A network's activation patterns are those hit
    by 4096 standard-normal latent directions from ``default_rng(0)`` and
    their negations.
    """
    if isinstance(prior, SparsePrior):
        s = _sparse_support_size(prior.n, prior.k, budget)
        eye = np.eye(prior.n)
        subs = [Subspace(eye[:, list(sup)]) for sup in combinations(range(prior.n), s)]
        return SubspaceUnion(subs)

    if isinstance(prior, SubspaceUnion):
        pairs = prior.M * (prior.M + 1) // 2
        if pairs > budget:
            raise EnumerationBudgetError(f"pairwise expansion needs {pairs} subspaces, budget is {budget}")
        sums = []
        for i, a in enumerate(prior.subspaces):
            for b in prior.subspaces[i:]:
                sums.append(subspace_from_span(np.hstack([a.basis, b.basis])))
        return SubspaceUnion(_dedup_subspaces(sums))

    if isinstance(prior, GenerativeNetwork):
        patterns = _activation_patterns(prior)
        n_patterns = len(patterns)
        if n_patterns * n_patterns > budget:
            raise EnumerationBudgetError(f"{n_patterns}^2 pattern pairs exceed budget {budget}")
        pieces = [_piece_matrix(prior, p) for p in patterns]
        subs = []
        for i in range(n_patterns):
            for j in range(i, n_patterns):
                stacked = np.hstack([pieces[i], pieces[j]])
                if np.linalg.norm(stacked) == 0.0:
                    continue  # both pieces are the zero map
                subs.append(subspace_from_span(stacked))
        if not subs:
            raise ValueError("network is identically zero; difference set is trivial")
        return SubspaceUnion(_dedup_subspaces(subs))

    raise TypeError(f"unsupported prior type {type(prior).__name__}")


def subspace_count_bounds(prior) -> tuple[float, int]:
    """Return (log_M_bound, max_dim) for the difference union of a sparse or generative prior.

    Sparse: log C(n, s) <= s*log(e*n/s) with s = min(2k, n). Generative:
    log M <= 2k * sum_i log(2e*k_i/k) over hidden layers, with max_dim 2k.
    An explicit union has no bound here: its exact (M, max_dim) are read off
    ``difference_union(union)``, after duplicate subspaces are dropped.
    """
    if isinstance(prior, SparsePrior):
        s = min(2 * prior.k, prior.n)
        return s * math.log(math.e * prior.n / s), s
    if isinstance(prior, GenerativeNetwork):
        k = prior.latent_dim
        hidden = prior.layer_widths[1:-1]
        log_n_bound = k * sum(math.log(2 * math.e * w / k) for w in hidden)
        return 2 * log_n_bound, min(2 * k, prior.n)
    raise TypeError(f"unsupported prior type {type(prior).__name__}")


def _top_k_support(x: np.ndarray, k: int) -> np.ndarray:
    """Increasing indices of the k largest |x_i|; ties at equal magnitude keep the lowest index.

    O(n): one partition finds the k-th largest magnitude and one pass keeps
    every entry at or above it. Only when that keeps more than k (ties at the
    k-th magnitude) are the entries strictly above it kept and the remaining
    slots given to its lowest-index ties. The partition sorts NaN last, so any
    NaN lies in its top-k slice.
    """
    mag = np.abs(x)
    n = mag.size
    top = np.partition(mag, n - k)[n - k :] if k < n else mag
    if np.isnan(top).any():
        raise ValueError("cannot hard-threshold a vector with NaN entries")
    if k >= n:
        return np.arange(n)
    kth = top[0]
    support = np.flatnonzero(mag >= kth)
    if support.size > k:
        keep = mag > kth
        keep[np.flatnonzero(mag == kth)[: k - np.count_nonzero(keep)]] = True
        support = np.flatnonzero(keep)
    return support


def _hard_threshold(x: np.ndarray, k: int) -> np.ndarray:
    support = _top_k_support(x, k)
    out = np.zeros_like(x)
    out[support] = x[support]
    return out


def project(prior, x: np.ndarray) -> np.ndarray:
    """Euclidean projection of x onto a sparse prior: its k largest entries by magnitude, the
    lowest indices on ties."""
    if isinstance(prior, SparsePrior):
        return _hard_threshold(np.asarray(x, dtype=np.float64), prior.k)
    raise TypeError(f"unsupported prior type {type(prior).__name__}")


def _hidden_layers(net: GenerativeNetwork, z: np.ndarray) -> list:
    """[z, h_1(z), ...]: the latent, then each hidden layer's activation max(w @ a, 0) in order,
    so the last entry feeds the linear last layer. A NaN stays NaN, and a hidden layer's ReLU
    mask is its activation > 0."""
    acts = [np.asarray(z, dtype=np.float64)]
    for w in net.weights[:-1]:
        acts.append(np.maximum(w @ acts[-1], 0.0))
    return acts


def generative_forward(net: GenerativeNetwork, z: np.ndarray) -> np.ndarray:
    """Forward pass; z of shape (k,) or (k, batch)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != net.latent_dim:
        raise ValueError(f"latent length {z.shape[0]} != {net.latent_dim}")
    return net.weights[-1] @ _hidden_layers(net, z)[-1]


def _hidden_pullback(net: GenerativeNetwork, z: np.ndarray):
    """Return (h(z), vjp) for the last hidden activation h, before the linear last layer.

    vjp(g) is J_h(z)^T g, with the ReLU subgradient at exactly zero taken as
    zero. With no hidden layer, h(z) is z and vjp the identity.
    """
    acts = _hidden_layers(net, z)
    masks = [a > 0 for a in acts[1:]]

    def vjp(g):
        for w, mask in zip(reversed(net.weights[:-1]), reversed(masks)):
            g = w.T @ np.where(mask, g, 0.0)
        return g

    return acts[-1], vjp


def generative_pullback(net: GenerativeNetwork, z: np.ndarray):
    """Return (G(z), vjp) where vjp(v) = J_G(z)^T v for the same z.

    The ReLU subgradient at exactly zero is taken as zero. Accepts batched z
    of shape (k, batch), in which case vjp maps (n, batch) to (k, batch).
    """
    h, hidden_vjp = _hidden_pullback(net, z)
    last = net.weights[-1]

    def vjp(v):
        return hidden_vjp(last.T @ np.asarray(v, dtype=np.float64))

    return last @ h, vjp


def _unpack(fmt: str, raw: bytes, offset: int, kind: str) -> tuple:
    try:
        return struct.unpack_from(fmt, raw, offset)
    except struct.error:
        raise ValueError(f"truncated {kind} file") from None


def _floats(raw: bytes, offset: int, count: int, kind: str) -> np.ndarray:
    if offset + 8 * count > len(raw):  # also a header whose sizes overflow a C count
        raise ValueError(f"truncated {kind} file")
    return np.frombuffer(raw, dtype="<f8", count=count, offset=offset)


def save_network(net: GenerativeNetwork, path) -> None:
    """Write a network to the flat little-endian binary layout."""
    with open(path, "wb") as fh:
        fh.write(b"VDSG")
        fh.write(struct.pack("<II", 1, net.depth))
        fh.write(struct.pack(f"<{net.depth + 1}I", *net.layer_widths))
        for w in net.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_network(path) -> GenerativeNetwork:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"VDSG":
        raise ValueError("not a network file (bad magic)")
    version, depth = _unpack("<II", raw, 4, "network")
    if version != 1:
        raise ValueError(f"unsupported network file version {version}")
    widths = _unpack(f"<{depth + 1}I", raw, 12, "network")
    offset = 12 + 4 * (depth + 1)
    weights = []
    for i in range(depth):
        rows, cols = widths[i + 1], widths[i]
        w = _floats(raw, offset, rows * cols, "network")
        weights.append(w.reshape(rows, cols))
        offset += 8 * rows * cols
    if offset != len(raw):
        raise ValueError("trailing bytes in network file")
    return GenerativeNetwork(weights)


def save_union(union: SubspaceUnion, path) -> None:
    """Write a subspace union to the flat little-endian binary layout."""
    with open(path, "wb") as fh:
        fh.write(b"VDSU")
        fh.write(struct.pack("<III", 1, union.M, union.n))
        for s in union.subspaces:
            fh.write(struct.pack("<I", s.dim))
            fh.write(np.ascontiguousarray(s.basis, dtype="<f8").tobytes())


def load_union(path) -> SubspaceUnion:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"VDSU":
        raise ValueError("not a subspace-union file (bad magic)")
    version, m, n = _unpack("<III", raw, 4, "union")
    if version != 1:
        raise ValueError(f"unsupported union file version {version}")
    offset = 16
    subs = []
    for _ in range(m):
        (dim,) = _unpack("<I", raw, offset, "union")
        offset += 4
        b = _floats(raw, offset, n * dim, "union")
        subs.append(Subspace(b.reshape(n, dim)))
        offset += 8 * n * dim
    if offset != len(raw):
        raise ValueError("trailing bytes in union file")
    return SubspaceUnion(subs)
