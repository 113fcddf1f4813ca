"""Prior sets contained in unions of subspaces.

Three concrete prior families: explicit subspace unions, k-sparse vectors, and
small ReLU generative networks without biases. Each supports Euclidean
projection, construction of a subspace union covering the difference set
Q - Q, and logarithmic subspace-count bounds. All subspaces are real.
"""

from __future__ import annotations

import math
import struct
from itertools import combinations

import numpy as np

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
# project's generative projection: Adam starts, steps per start, step size and start stream
_PROJECT_RESTARTS = 10
_PROJECT_ITERS = 500
_PROJECT_STEP = 1e-2
_PROJECT_SEED = 0


def _readonly(a):
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


class Subspace:
    """A linear subspace of R^n given by an n x dim orthonormal basis."""

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis)
        if np.iscomplexobj(basis):
            raise ValueError("subspace bases must be real")
        if basis.ndim != 2 or basis.shape[1] == 0:
            raise ValueError("basis must be a nonempty n x dim matrix")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-10:
            raise ValueError("basis columns are not orthonormal within 1e-10")
        self.basis = _readonly(basis)
        self.n = basis.shape[0]
        self.dim = basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ x)

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
        n, k = int(n), int(k)
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
        self.weights = tuple(_readonly(w) for w in weights)
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


def _activation_patterns(net: GenerativeNetwork):
    """Realizable hidden-layer sign patterns found by directional sampling.

    Patterns are positively homogeneous (no biases), so latent directions and
    their negations probe every cone that random sampling can reach.
    """
    rng = np.random.default_rng(_PATTERN_SEED)
    k = net.latent_dim
    z = rng.standard_normal((k, _PATTERN_LATENTS))
    z = np.concatenate([z, -z], axis=1)
    patterns = {}
    a = z
    masks = []
    for w in net.weights[:-1]:
        pre = w @ a
        masks.append(pre > 0)
        a = np.where(masks[-1], pre, 0.0)
    stacked = np.concatenate(masks, axis=0) if masks else np.zeros((0, z.shape[1]), bool)
    for col in range(stacked.shape[1]):
        patterns.setdefault(stacked[:, col].tobytes(), col)
    keys = sorted(patterns)
    split = np.cumsum([w.shape[0] for w in net.weights[:-1]])[:-1]
    out = []
    for key in keys:
        bits = np.frombuffer(key, dtype=bool)
        out.append(tuple(np.split(bits, split)) if masks else ())
    return out


def _piece_matrix(net: GenerativeNetwork, pattern) -> np.ndarray:
    """Linear map of G on the cone with the given activation pattern."""
    mat = net.weights[0]
    for i, w in enumerate(net.weights[1:]):
        mat = w @ (pattern[i][:, None] * mat)
    return mat


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


def _lex_greatest(candidates):
    best = candidates[0]
    for c in candidates[1:]:
        diff = c - best
        nz = np.nonzero(diff)[0]
        if nz.size and diff[nz[0]] > 0:
            best = c
    return best


def project(prior, x: np.ndarray) -> np.ndarray:
    """Euclidean projection of x onto a sparse, subspace-union or generative prior.

    Exact for sparse priors and subspace unions (a single subspace projects
    with ``Subspace.project``). Generative projection is approximate: 10
    standard-normal latents from ``default_rng(0)``, run as one (k, 10) block
    of 500 Adam steps of size 1e-2 on ||G(z) - x||_2^2.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(prior, SparsePrior):
        return _hard_threshold(x, prior.k)
    if isinstance(prior, SubspaceUnion):
        projections = [s.project(x) for s in prior.subspaces]
        residuals = np.array([np.linalg.norm(x - p) for p in projections])
        tie_tol = 1e-12 * (1.0 + np.linalg.norm(x))
        tied = [p for p, r in zip(projections, residuals) if r <= residuals.min() + tie_tol]
        return _lex_greatest(tied)
    if isinstance(prior, GenerativeNetwork):
        def value_and_grad(z):
            out, vjp = generative_pullback(prior, z)
            r = out - x[:, None]
            return np.sum(r**2, axis=0), out, vjp(2.0 * r)

        # row i is the i-th draw of k values, so the starts match drawing one start at a time
        rng = np.random.default_rng(_PROJECT_SEED)
        starts = rng.standard_normal((_PROJECT_RESTARTS, prior.latent_dim)).T
        (_, out), _ = _latent_adam(value_and_grad, starts, _PROJECT_ITERS, _PROJECT_STEP)
        return out
    raise TypeError(f"unsupported prior type {type(prior).__name__}")


def generative_forward(net: GenerativeNetwork, z: np.ndarray) -> np.ndarray:
    """Forward pass; z of shape (k,) or (k, batch)."""
    a = np.asarray(z, dtype=np.float64)
    if a.shape[0] != net.latent_dim:
        raise ValueError(f"latent length {a.shape[0]} != {net.latent_dim}")
    for w in net.weights[:-1]:
        a = np.maximum(w @ a, 0.0)
    return net.weights[-1] @ a


def generative_pullback(net: GenerativeNetwork, z: np.ndarray):
    """Return (G(z), vjp) where vjp(v) = J_G(z)^T v for the same z.

    The ReLU subgradient at exactly zero is taken as zero. Accepts batched z
    of shape (k, batch), in which case vjp maps (n, batch) to (k, batch).
    """
    a = np.asarray(z, dtype=np.float64)
    masks = []
    for w in net.weights[:-1]:
        pre = w @ a
        masks.append(pre > 0)
        a = np.where(masks[-1], pre, 0.0)
    out = net.weights[-1] @ a

    def vjp(v):
        g = net.weights[-1].T @ np.asarray(v, dtype=np.float64)
        for w, mask in zip(reversed(net.weights[:-1]), reversed(masks)):
            g = w.T @ np.where(mask, g, 0.0)
        return g

    return out, vjp


def _latent_adam(value_and_grad, starts: np.ndarray, iters: int, step: float):
    """Multi-start Adam in latent space, every start a column of one (k, R) block.

    ``value_and_grad(Z)`` returns the per-column objectives (R,), G(Z) and
    the gradients (k, R); each column keeps its own Adam moments and gets
    exactly ``iters`` evaluations, with no early stop. Returns the first
    lowest-objective ``(objective, G(z))`` over every evaluated iterate in
    start-major order (strict ``<`` within a column, the lowest column on
    ties across columns) and the number of evaluations. A non-finite
    objective raises ValueError. ``recover_generative`` runs it on the
    draw's folded system, ``project`` on ||G(z) - x||_2^2.
    """
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    z = np.array(starts, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("latent descent needs a (k, R) block of at least one start")
    m1 = np.zeros_like(z)
    m2 = np.zeros_like(z)
    best_obj = np.full(z.shape[1], np.inf)
    best_x = None
    for it in range(1, iters + 1):
        obj, x, gz = value_and_grad(z)
        if not np.all(np.isfinite(obj)):
            raise ValueError("latent descent met a non-finite objective")
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        if best_x is None:
            best_x = np.array(x)
        else:
            best_x[:, better] = x[:, better]
        if it == iters:
            break  # the budget is spent; a further step would go unevaluated
        m1 = 0.9 * m1 + 0.1 * gz
        m2 = 0.999 * m2 + 0.001 * gz**2
        z = z - step * (m1 / (1.0 - 0.9**it)) / (np.sqrt(m2 / (1.0 - 0.999**it)) + 1e-8)
    col = int(np.argmin(best_obj))
    return (float(best_obj[col]), best_x[:, col].copy()), z.shape[1] * iters


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
    version, depth = struct.unpack_from("<II", raw, 4)
    if version != 1:
        raise ValueError(f"unsupported network file version {version}")
    widths = struct.unpack_from(f"<{depth + 1}I", raw, 12)
    offset = 12 + 4 * (depth + 1)
    weights = []
    for i in range(depth):
        rows, cols = widths[i + 1], widths[i]
        w = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=offset)
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
    version, m, n = struct.unpack_from("<III", raw, 4)
    if version != 1:
        raise ValueError(f"unsupported union file version {version}")
    offset = 16
    subs = []
    for _ in range(m):
        (dim,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        b = np.frombuffer(raw, dtype="<f8", count=n * dim, offset=offset)
        subs.append(Subspace(b.reshape(n, dim)))
        offset += 8 * n * dim
    if offset != len(raw):
        raise ValueError("trailing bytes in union file")
    return SubspaceUnion(subs)
