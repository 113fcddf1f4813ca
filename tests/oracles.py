"""Independent constructions used as test oracles.

The dense matrices are built from explicit formulas (index grids, wavelet
rows, Kronecker products) rather than the package's fast transforms, so
agreement is evidence and not tautology. The straightforward kernels at the
end (a full lexsort hard threshold, a Haar cascade that copies its bands,
the m-row scatter adjoint of the measurement, the generative restart loop
with its patience stop) are the package's earlier implementations, kept as
references for the code that replaced them: bitwise, except the Haar
cascade, the scatter adjoint and the generative loop, which the block-matmul
Haar, the folded ``SampledOperator`` and the batched folded solver match to
rounding. Together with
``sampling.apply_measurement(F, sample, x, preconditioned=True)`` and the
target ``sample.d_tilde * b`` they are the m-row D~ S F that the folded
operator replaced in every solver, ``objective`` and ``rip_check``.
"""

import math

import numpy as np

from vdslab.priors import generative_forward, generative_pullback
from vdslab.sampling import apply_measurement

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


def patience_recover_generative(A, b, net, config):
    """Reference generative solver: the Adam restart loop with its patience stop, on the m-row draw.

    ``local_best`` starts at inf, and ``obj < inf - 1e-12 * (1 + inf)`` compares
    against NaN, so the stop counted every step and each restart ran exactly
    min(iters, patience) steps. Returns (x_hat, objective, iterations, starts),
    with ``starts`` the (k, restarts) block of the latents each restart began from.
    """
    cfg = {"restarts": 10, "iters": 2000, "step": 0.05, "patience": 100, "init_pool": 16, "seed": 0,
           "init_z": None, **config}
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
    for restart in range(cfg["restarts"]):
        if restart == 0 and cfg["init_z"] is not None:
            z = np.asarray(cfg["init_z"], dtype=np.float64).copy()
        else:
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
