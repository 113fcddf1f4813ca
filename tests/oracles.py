"""Independent constructions used as test oracles.

The dense matrices are built from explicit formulas (index grids, wavelet
rows, Kronecker products) rather than the package's fast transforms, so
agreement is evidence and not tautology. ``DenseOperator`` wraps such a
matrix, or a random unitary, as an operator, and ``dense_matrix`` reads any
operator back as its n x n matrix. The straightforward kernels at the
end (the sparse coherence read off the dense matrix, a full lexsort hard
threshold, the Haar block matrix by its Kronecker recursion, a Haar
cascade that copies its bands, the m-row scatter adjoint
of the measurement, the latent Adam core that allocates its moments each
step, the batched generative solver that draws and ranks one pool per
restart and allocates each step's residual, the stacked Adam step on a
trial-major (T, H, R) residual, the generative restart loop
with its patience stop, the trial streams spawned from one SeedSequence per
trial, the noise factor's float sort of the draw, the generative coherence's
pair loop over every row with norms from the signal differences) are the
package's earlier implementations, kept as references for the code that
replaced them: bitwise, except the dense coherence, the Haar cascade, the
scatter adjoint, the patience loop and the pair loop, which the band-wise
coherence, the block-matmul Haar, the folded ``SampledOperator``, the batched
solver on the last hidden layer and the pair loop on one row per conjugate
pair with norms from the transform domain match to rounding. Together with
``sampling.apply_measurement(F, sample, x, preconditioned=True)`` and the
target ``sample.d_tilde * b`` they are the m-row D~ S F that the folded
operator replaced in every solver, ``objective`` and ``rip_check``.
"""

import math

import numpy as np

from vdslab.harness import TrialStreams
from vdslab.priors import _hidden_layers, _hidden_pullback, generative_forward, generative_pullback
from vdslab.recovery import _latent_adam, _stack_real
from vdslab.sampling import apply_measurement
from vdslab.transforms import UnitaryOperator

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def dft_matrix(n):
    """Unitary DFT matrix W[j,k] = exp(-2*pi*i*j*k/n)/sqrt(n)."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


def haar_matrix(n, levels):
    """Multi-level orthonormal Haar analysis matrix, coarse coefficients first.

    Row by row from the wavelet formulas, so building it costs O(n^2) at any
    depth: the approximation rows are 2**(-levels/2) on their block of 2**levels
    samples, and a detail row at scale s = 2**l is s**-0.5 on the first half of
    its block and -s**-0.5 on the second; the detail bands run from the coarsest
    scale to the finest. levels = 0 is the identity.
    """
    h = np.zeros((n, n))
    row = 0
    size = 1 << levels
    for start in range(0, n, size):
        h[row, start : start + size] = 1 / np.sqrt(size)
        row += 1
    for level in range(levels, 0, -1):
        size = 1 << level
        for start in range(0, n, size):
            h[row, start : start + size // 2] = 1 / np.sqrt(size)
            h[row, start + size // 2 : start + size] = -1 / np.sqrt(size)
            row += 1
    return h


def dft2d_matrix(side):
    """Separable 2D DFT on row-major flattened side x side images."""
    w = dft_matrix(side)
    return np.kron(w, w)


def haar2d_matrix(side, levels):
    """Separable 2D Haar on row-major flattened side x side images."""
    h = haar_matrix(side, levels)
    return np.kron(h, h)


def random_orthogonal(n, rng):
    """Haar-random real orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_unitary(n, rng):
    """Haar-random complex unitary matrix via QR with phase fixing."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class DenseOperator(UnitaryOperator):
    """An explicit unitary matrix as an operator; the matrix must be unitary within 1e-8."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("dense operator requires a square matrix")
        complex_entries = np.iscomplexobj(matrix)
        mat = matrix.astype(np.complex128 if complex_entries else np.float64)
        if np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat)))) > 1e-8:
            raise ValueError("matrix is not unitary within tolerance 1e-8")
        mat.setflags(write=False)
        super().__init__(len(mat), "complex" if complex_entries else "real")
        self._mat = mat

    def _forward(self, x):
        return self._mat @ x

    def _adjoint(self, y):
        return self._mat.conj().T @ y


def dense_matrix(op):
    """The n x n matrix of an operator: column j is forward(e_j)."""
    return op.forward(np.eye(op.n))


def nearest_subspace_projection(union, x):
    """Projection of x onto the member of a subspace union nearest to it."""
    projections = [s.basis @ (s.basis.T @ x) for s in union.subspaces]
    return min(projections, key=lambda p: np.linalg.norm(x - p))


def dense_sparse_coherence(op, s):
    """Root sum of each row's s largest squared magnitudes, partitioned out of the dense matrix."""
    mags = np.abs(dense_matrix(op)) ** 2
    top = np.partition(mags, op.n - s, axis=1)[:, op.n - s :]
    return np.sqrt(np.sum(top, axis=1))


def lexsort_hard_threshold(x, k):
    """Reference k-sparse projection: a full lexsort by (-|x_i|, i), keep the first k."""
    order = np.lexsort((np.arange(x.size), -np.abs(x)))
    out = np.zeros_like(x)
    out[order[:k]] = x[order[:k]]
    return out


def copying_haar_forward(arr, levels):
    """Reference Haar analysis along axis 0 that copies the even/odd bands each level."""
    out = np.array(arr, dtype=np.result_type(arr.dtype, np.float64), copy=True)
    length = out.shape[0]
    for _ in range(levels):
        half = length // 2
        band = out[:length]
        even = band[0::2].copy()
        odd = band[1::2].copy()
        out[:half] = (even + odd) * _INV_SQRT2
        out[half:length] = (even - odd) * _INV_SQRT2
        length = half
    return out


def copying_haar_adjoint(arr, levels):
    """Reference Haar synthesis along axis 0 that copies the approx/detail bands each level."""
    out = np.array(arr, dtype=np.result_type(arr.dtype, np.float64), copy=True)
    length = out.shape[0] >> levels
    for _ in range(levels):
        double = length * 2
        approx = out[:length].copy()
        detail = out[length:double].copy()
        out[0:double:2] = (approx + detail) * _INV_SQRT2
        out[1:double:2] = (approx - detail) * _INV_SQRT2
        length = double
    return out


def kron_haar_block_matrix(levels):
    """Reference Haar block matrix by its recursion, two Kronecker products a level:
    H_1 = [1], H_2B = [H_B kron (1, 1)/sqrt(2); I_B kron (1, -1)/sqrt(2)]."""
    h = np.ones((1, 1))
    for _ in range(levels):
        h = np.vstack(
            [np.kron(h, [_INV_SQRT2, _INV_SQRT2]), np.kron(np.eye(len(h)), [_INV_SQRT2, -_INV_SQRT2])]
        )
    return h


def copying_haar2d(x, side, levels, step):
    """Separable 2D Haar on a row-major flattened image: ``step`` along image axis 0, then axis 1."""
    img = step(x.reshape(side, side, -1), levels)
    img = np.moveaxis(step(np.moveaxis(img, 1, 0), levels), 0, 1)
    return img.reshape(x.shape)


def scatter_adjoint_measurement(F, sample, v):
    """Reference (D~ S F)* v: scale and weight v, scatter-add it onto the drawn rows, adjoint."""
    weights = sample.scale * sample.d_tilde * v
    u = np.zeros(F.n, dtype=weights.dtype)
    np.add.at(u, sample.omega, weights)
    return F.adjoint(u)


def dense_support_least_squares(dense, sample, b, support):
    """Reference least squares of the m-row ||D~ S F x - D~ b|| over x supported on ``support``.

    ``dense`` is F as an n x n matrix, so the design is the drawn rows of the
    dense matrix, weighted row by row, with real and imaginary parts stacked.
    Returns the length-n x.
    """
    rows = sample.scale * sample.d_tilde[:, None] * dense[sample.omega][:, support]
    target = sample.d_tilde * np.asarray(b)
    w = np.linalg.lstsq(
        np.vstack([rows.real, rows.imag]), np.concatenate([target.real, target.imag]), rcond=None
    )[0]
    x = np.zeros(dense.shape[1])
    x[support] = w
    return x


def allocating_latent_adam(value_and_grad, starts, iters, step):
    """Reference multi-start latent Adam: the moments and the step are new arrays every step.

    One problem, objectives (R,) and points (d, R): returns ((objective, point),
    evaluations) for the first lowest objective over every evaluated iterate,
    the pair ``recovery._latent_adam`` gives for a stack of T = 1.
    """
    z = np.array(starts, dtype=np.float64)
    m1 = np.zeros_like(z)
    m2 = np.zeros_like(z)
    best_obj = np.full(z.shape[1], np.inf)
    best_x = None
    for it in range(1, iters + 1):
        obj, x, gz = value_and_grad(z)
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        if best_x is None:
            best_x = np.array(x)
        else:
            best_x[:, better] = x[:, better]
        if it == iters:
            break
        m1 = 0.9 * m1 + 0.1 * gz
        m2 = 0.999 * m2 + 0.001 * gz**2
        z = z - step * (m1 / (1.0 - 0.9**it)) / (np.sqrt(m2 / (1.0 - 0.999**it)) + 1e-8)
    col = int(np.argmin(best_obj))
    return (float(best_obj[col]), best_x[:, col].copy()), z.shape[1] * iters


def allocating_recover_generative(A, b, net, *, restarts=10, iters=100, step=0.05, init_pool=16, seed=0):
    """Reference batched generative solver: one pool drawn and ranked per restart, a residual
    and a doubled gradient allocated every step, and ``allocating_latent_adam``.

    Same arithmetic as ``recovery.recover_generative`` on the block M = A W_last,
    without its checks: the real-stacked [M | u], with zero rows below it up to
    H + 1 rows, is reduced to the (H + 1) x (H + 1) triangle of its QR, the
    descent runs on ||R h - c||^2 with [R | c] its first H rows, and the
    objective adds the last diagonal entry squared and the fold's constant.
    Returns (x_hat, objective, iterations).
    """
    u, const = A.fold(b)
    forward = _stack_real(A.forward(net.weights[-1]))
    rows, width = forward.shape
    augmented = np.zeros((max(rows, width + 1), width + 1))
    augmented[:rows, :width] = forward
    augmented[:rows, width] = _stack_real(u)
    triangle = np.linalg.qr(augmented, mode="r")
    design, target = triangle[:width, :width], triangle[:width, width:]
    rng = np.random.Generator(np.random.Philox(seed))
    k = net.latent_dim

    def best_of_pool():
        pool = rng.standard_normal((k, init_pool))
        r = design @ _hidden_layers(net, pool)[-1] - target
        return pool[:, int(np.argmin(np.sum(r * r, axis=0)))]

    starts = [best_of_pool() for _ in range(restarts)]

    def value_and_grad(z):
        h, vjp = _hidden_pullback(net, z)
        r = design @ h - target
        return np.sum(r * r, axis=0), h, vjp(2.0 * (design.T @ r))

    (obj, h_hat), total = allocating_latent_adam(value_and_grad, np.column_stack(starts), iters, step)
    return net.weights[-1] @ h_hat, obj + (triangle[width, width] ** 2 + const), total


def trial_major_solve_stack(net, systems, iters, step):
    """Reference ``recovery._solve_stack``: every step's residual a new trial-major (T, H, R)
    array, the targets broadcast over it, the sums of squares taken down its axis 1 and the
    gradient copied to (H, T R) before the pullback.

    ``systems`` are ``recovery._latent_system`` tuples; returns per system the (objective,
    winner) pair, or the ValueError of a system that met a non-finite objective.
    """
    designs = np.stack([s[0] for s in systems])  # (T, H, H)
    targets = np.stack([s[1] for s in systems])  # (T, H, 1)
    starts = np.hstack([s[2] for s in systems])
    trials, width, _ = designs.shape
    restarts = starts.shape[1] // trials
    designs_t2 = (2.0 * designs).transpose(0, 2, 1)

    def value_and_grad(z):
        h, vjp = _hidden_pullback(net, z)
        h = h.reshape(width, trials, restarts)
        r = designs @ h.transpose(1, 0, 2) - targets
        g = (designs_t2 @ r).transpose(1, 0, 2).reshape(width, -1)
        return np.sum(r * r, axis=1), h, vjp(g)

    found = _latent_adam(value_and_grad, starts, iters, step)
    return [ValueError("latent descent met a non-finite objective") if f is None else f for f in found]


def patience_recover_generative(A, b, net, config):
    """Reference generative solver: the Adam restart loop with its patience stop, on the m-row draw.

    ``local_best`` starts at inf, and ``obj < inf - 1e-12 * (1 + inf)`` compares
    against NaN, so the stop counted every step and each restart ran exactly
    min(iters, patience) steps. Returns (x_hat, objective, iterations, starts),
    with ``starts`` the (k, restarts) block of the latents each restart began from.
    """
    cfg = {"restarts": 10, "iters": 2000, "step": 0.05, "patience": 100, "init_pool": 16, "seed": 0, **config}
    target = A.sample.d_tilde * np.asarray(b)
    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    k = net.latent_dim

    def forward(x):
        return apply_measurement(A.F, A.sample, x, preconditioned=True)

    def value_and_grad(z):
        x, vjp = generative_pullback(net, z)
        r = forward(x) - target
        obj = float(np.real(np.vdot(r, r)))
        gx = 2.0 * np.real(scatter_adjoint_measurement(A.F, A.sample, r))
        return obj, x, vjp(gx)

    def best_of_pool():
        pool = rng.standard_normal((k, max(1, cfg["init_pool"])))
        block = forward(generative_forward(net, pool))
        objs = np.sum(np.abs(block - target[:, None]) ** 2, axis=0)
        return pool[:, int(np.argmin(objs))].copy()

    best = None
    total = 0
    starts = []
    for _ in range(cfg["restarts"]):
        z = best_of_pool()
        starts.append(z)
        m1 = np.zeros(k)
        m2 = np.zeros(k)
        local_best = math.inf
        stall = 0
        for it in range(1, cfg["iters"] + 1):
            total += 1
            obj, x, gz = value_and_grad(z)
            if best is None or obj < best[0]:
                best = (obj, x)
            if obj < local_best - 1e-12 * (1.0 + abs(local_best)):
                local_best = obj
                stall = 0
            else:
                stall += 1
                if stall >= cfg["patience"]:
                    break
            m1 = 0.9 * m1 + 0.1 * gz
            m2 = 0.999 * m2 + 0.001 * gz**2
            step = cfg["step"] * (m1 / (1.0 - 0.9**it)) / (np.sqrt(m2 / (1.0 - 0.999**it)) + 1e-8)
            z = z - step
    obj, x_hat = best
    return x_hat, obj, total, np.column_stack(starts)


def spawned_trial_streams(master_seed, cell_index, trial):
    """Reference per-trial streams: the four spawned children of one SeedSequence per trial."""
    root = np.random.SeedSequence(master_seed, spawn_key=(cell_index, trial))
    seed_id = int(root.generate_state(1, dtype=np.uint64)[0])
    signal_ss, draw_ss, noise_ss, solver_ss = root.spawn(4)
    return TrialStreams(
        seed_id,
        np.random.Generator(np.random.Philox(signal_ss)),
        np.random.Generator(np.random.Philox(draw_ss)),
        np.random.Generator(np.random.Philox(noise_ss)),
        int(solver_ss.generate_state(1, dtype=np.uint64)[0]),
    )


def float_sorted_gathers(sample, alpha):
    """Reference noise-factor gathers: d_tilde and alpha on the drawn rows in the order of a
    stable float sort of -d_tilde."""
    alpha = np.asarray(alpha, dtype=np.float64)
    order = np.argsort(-sample.d_tilde, kind="stable")
    return sample.d_tilde[order], alpha[sample.omega[order]]


def pairwise_generative_coherence(net, op, num_latents, rng_seed):
    """Reference generative coherence: every row, each pair's norm taken from the signal
    difference, max over pairs of |F(x_a - x_b)_j| / ||x_a - x_b||, coincident signals skipped."""
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
    return alpha
