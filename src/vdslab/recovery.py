"""Noisy measurement simulation, recovery solvers, and closed-form error bounds.

Every solver, ``objective`` and ``rip_check`` take the draw's preconditioned
operator A = D~ S F (a SampledOperator), which acts on the draw's distinct
rows. The solvers minimize ||A x - D~ b||_2^2 over their prior set in its
folded form ||A.forward(x) - u||^2 + const, with (u, const) = A.fold(b), and
report that sum as the objective; the sparse solver is hard thresholding
pursuit. The generative solver runs its latent descent on the last hidden
layer through the draw's block M = A W_last, so its steps make no transform:
x is formed, and its objective evaluated, for the winner alone.
Measurements are never pre-scaled; the preconditioner enters at
optimization time only. Only the simulation, the noise factor and the bounds
read the m-row draw. Complex systems are handled by stacking real and
imaginary parts, so least squares, the generative descent and singular
values are always computed over the reals, matching the real-part
convention for complex inner products.
"""

from __future__ import annotations

import math
from operator import index

import numpy as np

from .priors import (
    GenerativeNetwork,
    SubspaceUnion,
    _hidden_pullback,
    _latent_adam,
    _lex_greatest,
    _top_k_support,
)
from .sampling import DrawnSample, SampledOperator, apply_measurement
from .transforms import UnitaryOperator

__all__ = [
    "RecoveryResult",
    "simulate_measurements",
    "objective",
    "recover_oracle",
    "recover_sparse_two_stage",
    "recover_generative",
    "rip_check",
    "theorem_error_bound",
    "deterministic_corollary_bound",
    "relative_recovery_error",
]

_RANK_RTOL = 1e-10


class RecoveryResult:
    """Outcome of one solver run on one measurement set.

    ``flags`` name what the solver could not certify (a support, an
    optimization gap) or what went wrong (rank deficiency, no convergence).
    """

    def __init__(self, x_hat, objective, iterations, flags=()):
        x_hat = np.asarray(x_hat, dtype=np.float64)
        x_hat.setflags(write=False)
        if not objective >= 0:  # written so that NaN fails too
            raise ValueError("objective must be nonnegative")
        self.x_hat = x_hat
        self.objective = float(objective)
        self.iterations = int(iterations)
        self.flags = tuple(flags)

    def __repr__(self) -> str:
        return (
            f"<RecoveryResult objective={self.objective:.6g} iterations={self.iterations}>"
        )


def _integer(name: str, value) -> int:
    # index() takes Python and NumPy integers and refuses a float that int() would truncate;
    # a bool is an int to Python, so it is refused first
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return index(value)


def _stack_real(a: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(a):
        return np.concatenate([a.real, a.imag], axis=0)
    return np.asarray(a, dtype=np.float64)


def _residual_sq(design: np.ndarray, w: np.ndarray, target: np.ndarray) -> float:
    r = design @ w - target
    return float(np.real(np.vdot(r, r)))


def simulate_measurements(
    F: UnitaryOperator, sample: DrawnSample, x0: np.ndarray, sigma: float, seed=0
) -> np.ndarray:
    """Measure a real signal and add seeded Gaussian noise: b = S F x0 + (sigma/sqrt(m)) g.

    Returns b as a read-only length-m array in the operator's field, in draw
    order: b_i and noise draw g_i belong to the i-th drawn row. Complex
    noise has iid real and imaginary parts, so E||eta||_2^2 is 2 sigma^2
    rather than sigma^2. ``seed`` may be an existing Generator, in which case
    the caller owns reproducibility.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or x0.size != F.n:
        raise ValueError("x0 must be a real length-n vector")
    if not sigma >= 0:  # written so that NaN fails too
        raise ValueError("sigma must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(np.random.Philox(seed))
    clean = apply_measurement(F, sample, x0)
    if F.field == "complex":
        g = rng.standard_normal(sample.m) + 1j * rng.standard_normal(sample.m)
    else:
        g = rng.standard_normal(sample.m)
    b = clean + (sigma / math.sqrt(sample.m)) * g
    b.setflags(write=False)
    return b


def objective(A: SampledOperator, x, b) -> float:
    """Squared preconditioned residual ||A x - D~ b||_2^2, as the folded residual plus its constant."""
    u, const = A.fold(b)
    r = A.forward(x) - u
    return float(np.real(np.vdot(r, r))) + const


def recover_oracle(A: SampledOperator, b, union: SubspaceUnion) -> RecoveryResult:
    """Exact minimizer over an enumerated union: per-subspace least squares.

    Each subspace is solved in its basis coordinates through an orthogonal
    factorization with rank tolerance 1e-10 relative to the top singular
    value; a rank-deficient winner takes the minimum-norm solution and flags
    the result. Objective ties go to the lexicographically greatest signal.
    The fits run on the folded system; each objective is the folded residual
    plus its constant.
    """
    if not isinstance(union, SubspaceUnion):
        raise TypeError("recover_oracle needs an explicitly enumerated union")
    u, const = A.fold(b)
    stacked_u = _stack_real(u)
    candidates = []
    for sub in union.subspaces:
        design = A.forward(sub.basis)
        w, _, rank, _ = np.linalg.lstsq(_stack_real(design), stacked_u, rcond=_RANK_RTOL)
        candidates.append((_residual_sq(design, w, u) + const, sub.basis @ w, rank < sub.dim))
    best_obj = min(c[0] for c in candidates)
    tie_tol = 1e-12 * (1.0 + float(np.real(np.vdot(u, u))) + const)  # ||D~ b||^2 = ||u||^2 + const
    tied = [c for c in candidates if c[0] <= best_obj + tie_tol]
    x_hat = _lex_greatest([c[1] for c in tied])
    winner = next(c for c in tied if c[1] is x_hat)
    flags = ("rank_deficient",) if winner[2] else ()
    return RecoveryResult(x_hat, winner[0], union.M, flags)


def recover_sparse_two_stage(A: SampledOperator, b, k: int, *, max_iters: int = 500) -> RecoveryResult:
    """Hard thresholding pursuit (Foucart 2011) on the draw's folded system, from x = 0.

    Each iteration takes S+, the top k of x - Re A*(A x - u)/L with
    L = 1.05 ||A||^2 in closed form from the draw (``A.norm_sq``), and stops
    when S+ is the current support; otherwise x becomes the exact least
    squares on S+. As 1/L < 1/||A||^2 the residual never increases, so the
    last iterate is the result: optimal on its support, which stays
    uncertified (flagged). No support repeat within ``max_iters`` adds a
    warning flag. The objective is the folded residual plus its constant.
    """
    if _integer("max_iters", max_iters) < 1:
        raise ValueError("max_iters must be at least 1")
    n = A.F.n
    k = _integer("k", k)
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    u, const = A.fold(b)
    stacked_u = _stack_real(u)
    lam = 1.05 * A.norm_sq

    # an iteration costs one adjoint, and a support change one forward of the
    # k support columns as a batch; the fit's residual is carried into the
    # next step, and at x = 0 it is -u
    x = np.zeros(n)
    r = -u
    support = None
    converged = False
    for used in range(1, max_iters + 1):  # max_iters >= 1, so the first pass fits
        candidate = _top_k_support(x - np.real(A.adjoint(r)) / lam, k)
        if support is not None and np.array_equal(candidate, support):
            converged = True
            break
        support = candidate
        columns = np.zeros((n, k))
        columns[support, np.arange(k)] = 1.0
        design = A.forward(columns)
        w, _, rank, _ = np.linalg.lstsq(_stack_real(design), stacked_u, rcond=_RANK_RTOL)
        x = np.zeros(n)
        x[support] = w
        r = design @ w - u

    flags = ["support_uncertified"]
    if not converged:
        flags.append("stage1_not_converged")
    if rank < k:
        flags.append("rank_deficient")
    obj = float(np.real(np.vdot(r, r))) + const
    return RecoveryResult(x, obj, used, tuple(flags))


def recover_generative(
    A: SampledOperator, b, net: GenerativeNetwork, *, restarts: int = 10, iters: int = 100,
    step: float = 0.05, init_pool: int = 16, seed=0, init_z=None,
) -> RecoveryResult:
    """Multi-restart latent descent with exact reverse-mode gradients.

    Adam on f(z) = ||A G(z) - D~ b||_2^2. Each restart starts from the
    best of ``init_pool`` candidate latents drawn from ``seed`` (``init_z`` pins
    the first restart instead) and runs exactly ``iters`` Adam steps; there is no
    early stop. G's last layer W is linear, so A G(z) = M h(z) with h the last
    hidden activation and M = A W, built by one batched transform per call:
    the pool ranking and the restarts, run as one (k, restarts) block, read
    only M and the folded target, in real-stacked form. x_hat = W h is formed
    for the winner alone, and its objective is ``objective(A, x_hat, b)``, one
    more transform. Returns the best iterate ever evaluated; its gap to the
    global minimum is unknown and flagged epsilon_uncertified.
    """
    if not isinstance(net, GenerativeNetwork):
        raise TypeError("recover_generative needs a GenerativeNetwork")
    for key, value in (("restarts", restarts), ("iters", iters), ("init_pool", init_pool)):
        if _integer(key, value) < 1:
            raise ValueError(f"{key} must be at least 1")
    if not step > 0:
        raise ValueError("step must be positive")
    u, const = A.fold(b)  # reads no rng
    # ||A W h - u||^2 = ||M h - u||^2 over the reals, with M = A W and u stacked real
    design = _stack_real(A.forward(net.weights[-1]))
    target = _stack_real(u)[:, None]
    rng = np.random.Generator(np.random.Philox(seed))
    k = net.latent_dim

    def best_of_pool():
        # the folded residuals rank as the m-row ones: they differ by the shared const
        pool = rng.standard_normal((k, init_pool))
        r = design @ _hidden_pullback(net, pool)[0] - target
        return pool[:, int(np.argmin(np.sum(r * r, axis=0)))]

    if init_z is not None:
        init_z = np.asarray(init_z, dtype=np.float64)
        if init_z.shape != (k,):
            raise ValueError("init_z must have the latent dimension")
    # drawn eagerly in restart order: the rng is read exactly as one restart at a time would
    starts = [init_z if r == 0 and init_z is not None else best_of_pool() for r in range(restarts)]

    def value_and_grad(z):
        h, vjp = _hidden_pullback(net, z)
        r = design @ h - target
        return np.sum(r * r, axis=0), h, vjp(2.0 * (design.T @ r))

    (_, h_hat), total = _latent_adam(value_and_grad, np.column_stack(starts), iters, step)
    x_hat = net.weights[-1] @ h_hat
    return RecoveryResult(x_hat, objective(A, x_hat, b), total, ("epsilon_uncertified",))


def rip_check(A: SampledOperator, union: SubspaceUnion) -> dict:
    """Exact per-subspace restricted-isometry deviations of A = D~ S F.

    The blocks are A's distinct-row form; its Gram is that of the m-row
    D~ S F, so the singular values are the same. Complex blocks are stacked
    into real matrices of twice the rows before the singular-value
    computation; deviation per subspace is
    max(sigma_max - 1, 1 - sigma_min), and the property holds when the worst
    deviation is at most 1/3.
    """
    if not isinstance(union, SubspaceUnion):
        raise TypeError("rip_check needs an explicitly enumerated union")
    block = A.forward(np.hstack([s.basis for s in union.subspaces]))
    devs = np.empty(union.M)
    start = 0
    for i, sub in enumerate(union.subspaces):
        cols = _stack_real(block[:, start : start + sub.dim])
        s = np.linalg.svd(cols, compute_uv=False)
        smin = s[-1] if cols.shape[0] >= cols.shape[1] else 0.0
        devs[i] = max(s[0] - 1.0, 1.0 - smin)
        start += sub.dim
    devs.setflags(write=False)
    worst = float(devs.max())
    return {"max_deviation": worst, "holds": bool(worst <= 1.0 / 3.0), "per_subspace": devs}


def theorem_error_bound(
    nf: float,
    m: int,
    sigma: float,
    max_dim: int,
    log_subspace_count: float,
    *,
    delta: float | None = None,
    t: float | None = None,
    epsilon: float = 0.0,
    mismatch_norm: float = 0.0,
    preconditioned_mismatch_norm: float = 0.0,
) -> float:
    """Full recovery bound: noise, model-mismatch, and optimization terms.

    Evaluates 9 (sigma/sqrt(m)) nf (sqrt(max_dim) + sqrt(log_subspace_count) + t)
    + mismatch_norm + 6 preconditioned_mismatch_norm + (3/2) sqrt(epsilon),
    where nf is the noise factor of the m-row draw (``sampling.noise_factor``).
    Given delta instead of the tail parameter, t = sqrt(log(2/delta)) so the
    bound fails with probability at most delta over the noise. The mismatch norms are ||x - proj(x)||_2 and
    its preconditioned-measurement image.
    """
    if (delta is None) == (t is None):
        raise ValueError("supply exactly one of delta or t")
    if delta is not None:
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        t = math.sqrt(math.log(2.0 / delta))
    # every check is written so that NaN fails too
    if not (nf >= 0 and m >= 1 and t >= 0 and sigma >= 0 and epsilon >= 0 and max_dim >= 1
            and log_subspace_count >= 0):
        raise ValueError("invalid bound inputs")
    if not (mismatch_norm >= 0 and preconditioned_mismatch_norm >= 0):
        raise ValueError("mismatch norms must be nonnegative")
    noise_term = (
        9.0
        * (sigma / math.sqrt(m))
        * nf
        * (math.sqrt(max_dim) + math.sqrt(log_subspace_count) + t)
    )
    return noise_term + mismatch_norm + 6.0 * preconditioned_mismatch_norm + 1.5 * math.sqrt(epsilon)


def deterministic_corollary_bound(sample: DrawnSample, alpha, sigma: float) -> float:
    """Non-denoising comparison noise term from the deterministic-noise analysis.

    (sigma/sqrt(m)) ||alpha||_2 sum_i 1/(sqrt(n) alpha_{omega_i}); for flat
    coherences this grows like sigma sqrt(m) instead of decaying.
    """
    if not sigma >= 0:  # written so that NaN fails too
        raise ValueError("sigma must be nonnegative")
    alpha = np.asarray(alpha, dtype=np.float64)
    gathered = alpha[sample.omega]
    if np.any(gathered <= 0):
        raise ValueError("every drawn row must have positive coherence")
    terms = 1.0 / (math.sqrt(alpha.size) * gathered)
    return float(sigma / math.sqrt(sample.m) * np.linalg.norm(alpha) * np.sum(terms))


def relative_recovery_error(x0, x_hat) -> float:
    """||x0 - x_hat||_2 / ||x0||_2."""
    x0 = np.asarray(x0, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    denom = float(np.linalg.norm(x0))
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero truth signal")
    return float(np.linalg.norm(x0 - x_hat) / denom)
