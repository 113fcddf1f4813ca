"""Noisy measurement simulation, recovery solvers, and closed-form error bounds.

Every solver, ``objective`` and ``rip_check`` take the draw's preconditioned
operator A = D~ S F (a SampledOperator), which acts on the draw's distinct
rows. The solvers minimize ||A x - D~ b||_2^2 over their prior set in its
folded form ||A.forward(x) - u||^2 + const, with (u, const) = A.fold(b), and
report that sum as the objective. The sparse solver is hard thresholding
pursuit, which refits on the support columns ``A.columns(S)``: a gather in
closed form, with no transform, on a DFT or a DFT over a Haar basis. The
generative solver, ``recover_generative_stack``, solves a list of draws
with one stacked multi-start Adam run, whose core (``_latent_adam``) lives
here; ``recover_generative`` is its one-draw call. It descends on the
last hidden layer through the H x H triangle of each draw's block
M = A W_last, whose residual plus a constant of the draw is the objective,
so a draw makes one fold, and a stacked call one forward transform of
W_last per operator, each draw gathering its rows of it. Every step works on
(H, T R) blocks, a column per restart of each of T draws. Measurements are
never pre-scaled; the preconditioner enters at optimization time only. Only
the simulation, the noise factor and the bounds read the m-row draw. Complex
systems are handled by stacking real and imaginary parts, so least squares,
the generative descent and singular values are always computed over the
reals, matching the real-part convention for complex inner products.
"""

from __future__ import annotations

import math

import numpy as np

from .priors import (
    _RANK_RTOL,
    GenerativeNetwork,
    SubspaceUnion,
    _basis_blocks,
    _hidden_layers,
    _hidden_pullback,
    _top_k_support,
)
from .sampling import DrawnSample, SampledOperator, apply_measurement
from .transforms import UnitaryOperator, _integer

__all__ = [
    "RecoveryResult",
    "simulate_measurements",
    "objective",
    "recover_oracle",
    "recover_sparse_two_stage",
    "recover_generative",
    "recover_generative_stack",
    "rip_check",
    "theorem_error_bound",
    "deterministic_corollary_bound",
    "relative_recovery_error",
]


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
    if not 0 <= sigma < math.inf:  # written so that NaN fails too
        raise ValueError("sigma must be finite and nonnegative")
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


def _lex_greatest(candidates):
    best = candidates[0]
    for c in candidates[1:]:
        diff = c - best
        nz = np.nonzero(diff)[0]
        if nz.size and diff[nz[0]] > 0:
            best = c
    return best


def recover_oracle(A: SampledOperator, b, union: SubspaceUnion) -> RecoveryResult:
    """Exact minimizer over an enumerated union: per-subspace least squares.

    Each subspace is solved in its basis coordinates through an orthogonal
    factorization with rank tolerance 1e-10 relative to the top singular
    value; a rank-deficient winner takes the minimum-norm solution and flags
    the result. Objective ties go to the lexicographically greatest signal.
    The fits run on the folded system, whose blocks come from one transform
    of all the bases; each objective is the folded residual plus its constant.
    """
    if not isinstance(union, SubspaceUnion):
        raise TypeError("recover_oracle needs an explicitly enumerated union")
    u, const = A.fold(b)
    stacked_u = _stack_real(u)
    candidates = []
    for sub, design in zip(union.subspaces, _basis_blocks(A.forward, union)):
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
    squares on S+, whose design is the support columns ``A.columns(S+)``.
    As 1/L < 1/||A||^2 the residual never increases, so the last iterate
    is the result: optimal on its support, which stays uncertified
    (flagged). No support repeat within ``max_iters`` adds a warning flag.
    The objective is the folded residual plus its constant.
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

    # an iteration costs one adjoint, and a support change its k columns; the
    # fit's residual is carried into the next step, and at x = 0 it is -u
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
        design = A.columns(support)
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


def _latent_adam(value_and_grad, starts: np.ndarray, iters: int, step: float) -> list:
    """Multi-start Adam in latent space over a stack of T independent problems.

    Every start is a column of one (k, R) block, problem t's R / T starts side
    by side in columns t R / T to (t + 1) R / T - 1. ``value_and_grad(Z)``
    returns the objectives (T, R / T), the points (d, T, R / T) and the
    gradients (k, R); each column keeps its own Adam moments and gets exactly
    ``iters`` evaluations, with no early stop. Returns a list with, per
    problem, the first lowest-objective ``(objective, point)`` over every
    evaluated iterate in start-major order (strict ``<`` within a column, the
    lowest column on ties across columns), or None for a problem that met a
    non-finite objective. Such a problem's columns run on; its NaNs reach no
    other problem as long as ``value_and_grad`` works per column or per
    problem. The running best is updated in place, so memory stays O(d R) at
    any ``iters``. ``_solve_stack`` runs it on stacked draws' triangular
    systems with the last hidden activation as the point.
    """
    z = np.array(starts, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("latent descent needs a (k, R) block of at least one start")
    m1 = np.zeros_like(z)
    m2 = np.zeros_like(z)
    update = np.empty_like(z)
    denom = np.empty_like(z)
    best_x = None
    for it in range(1, iters + 1):
        obj, x, gz = value_and_grad(z)
        if best_x is None:  # the first step beats inf in every column
            best_obj = np.full(obj.shape, np.inf)
            better = np.empty(obj.shape, dtype=bool)
            best_x = np.empty_like(x)
            solved = np.ones(obj.shape[:-1], dtype=bool)
        solved &= np.isfinite(obj).all(axis=-1)
        np.less(obj, best_obj, out=better)
        np.copyto(best_obj, obj, where=better)
        np.copyto(best_x, x, where=better)
        if it == iters:
            break  # the budget is spent; a further step would go unevaluated
        # in place, and in the order of m1 = 0.9 m1 + 0.1 g, m2 = 0.999 m2 + 0.001 g^2 and
        # z -= step (m1 / c1) / (sqrt(m2 / c2) + 1e-8), so every iterate is bitwise that of
        # the allocating form
        m1 *= 0.9
        np.multiply(gz, 0.1, out=update)
        m1 += update
        m2 *= 0.999
        np.multiply(gz, gz, out=update)
        update *= 0.001
        m2 += update
        np.divide(m2, 1.0 - 0.999**it, out=denom)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        np.divide(m1, 1.0 - 0.9**it, out=update)
        update *= step
        update /= denom
        z -= update
    cols = np.argmin(best_obj, axis=-1)
    return [
        (float(best_obj[t, col]), best_x[:, t, col].copy()) if ok else None
        for t, (col, ok) in enumerate(zip(cols, solved))
    ]


def _latent_system(A: SampledOperator, b, net: GenerativeNetwork, f_last, restarts, init_pool, seed):
    """(R, c, starts, floor) of one draw, with ||A W_last h - D~ b||^2 = ||R h - c||^2 + floor:
    R (H, H) and c (H, 1) from the QR of the real-stacked [M | u] (M = A W_last, gathered from
    ``f_last`` = F W_last, and u the folded target), and the (k, restarts) starts picked from the
    pools of the draw's solver stream."""
    u, const = A.fold(b)  # reads no rng
    width = net.weights[-1].shape[1]
    # the QR's last row gives ||M h - u||^2 = ||R h - c||^2 + e^2 over the reals, with e the
    # same for every h (Golub & Van Loan, ch. 5); zero rows below [M | u] make the triangle
    # square, with its e, when it has fewer than H + 1 rows
    augmented = _stack_real(np.column_stack([A.gather(f_last), u]))
    padding = np.zeros((max(width + 1 - augmented.shape[0], 0), width + 1))
    triangle = np.linalg.qr(np.vstack([augmented, padding]), mode="r")
    design, target = triangle[:width, :width], triangle[:width, width:]
    rng = np.random.Generator(np.random.Philox(seed))
    k = net.latent_dim
    # every pool in one draw reads the rng as one restart at a time would, and one block
    # ranks them all
    pools = rng.standard_normal((restarts, k, init_pool))
    r = design @ _hidden_layers(net, pools.transpose(1, 0, 2).reshape(k, -1))[-1] - target
    picks = np.argmin(np.sum(r * r, axis=0).reshape(restarts, init_pool), axis=1)
    return design, target, pools[np.arange(restarts), :, picks].T, triangle[width, width] ** 2 + const


def _solve_stack(net: GenerativeNetwork, systems, iters: int, step: float) -> list:
    """One Adam run over the starts of every ``_latent_system`` in ``systems``, side by side in
    one (k, T R) block. Returns per system the (||R h - c||^2, h) of its winner h, the last
    hidden activation, or the ValueError of a system that met a non-finite objective."""
    designs = np.stack([s[0] for s in systems])  # (T, H, H)
    starts = np.hstack([s[2] for s in systems])
    trials, width, _ = designs.shape
    restarts = starts.shape[1] // trials
    # every per-step array is an (H, T R) block in C order, column t R + j restart j of system t:
    # each product is one matmul over the (T, H, H) stack, written through a (T, H, R) view of
    # its block, so every system's columns meet only its own R and c; the subtraction runs over
    # one block, and the gradient reaches the pullback with no copy. NumPy sums the squares down
    # the H rows in order, as it does a one-system block of several columns; a lone column
    # (restarts 1) it sums pairwise, so there the sums run along the rows of a (T, H) copy.
    # 2 R^T r is (2 R^T) r bitwise, as doubling is exact
    targets = np.repeat(np.hstack([s[1] for s in systems]), restarts, axis=1)
    designs_t2 = (2.0 * designs).transpose(0, 2, 1)
    r, g, squares = (np.empty((width, trials * restarts)) for _ in range(3))
    r_view, g_view = (a.reshape(width, trials, restarts).transpose(1, 0, 2) for a in (r, g))

    def value_and_grad(z):
        h, vjp = _hidden_pullback(net, z)
        h = h.reshape(width, trials, restarts)
        np.matmul(designs, h.transpose(1, 0, 2), out=r_view)
        np.subtract(r, targets, out=r)
        np.matmul(designs_t2, r_view, out=g_view)
        np.multiply(r, r, out=squares)
        sums = np.sum(squares, axis=0) if restarts > 1 else np.sum(squares.T.copy(), axis=1)
        return sums.reshape(trials, restarts), h, vjp(g)

    found = _latent_adam(value_and_grad, starts, iters, step)
    return [ValueError("latent descent met a non-finite objective") if f is None else f for f in found]


def recover_generative_stack(
    systems, net: GenerativeNetwork, *, restarts: int = 10, iters: int = 100, step: float = 0.05,
    init_pool: int = 16,
) -> list:
    """Multi-restart latent descent with exact reverse-mode gradients, on every (A, b, seed) of
    ``systems`` with one Adam run for all.

    Adam on f(z) = ||A G(z) - D~ b||_2^2 for each draw. Each restart starts
    from the best of ``init_pool`` candidate latents drawn from the draw's
    ``seed`` and runs exactly ``iters`` Adam steps; there is no early stop.
    G's last layer W is linear, so A G(z) = M h(z) with h the last hidden
    activation and M = A W, gathered from F W: one forward transform of W per
    operator in ``systems``, shared by all of its draws. The QR
    of the real-stacked [M | u], with u the folded target, reduces the draw to
    an H x H triangle R and an H-vector c (H the last hidden width), as
    ||M h - u||^2 = ||R h - c||^2 plus a constant of the draw: the pool ranking
    and the restarts read only R and c. A draw's pools are drawn in one call
    and ranked by one product with R. The restarts of every draw then run as
    one stacked block, each product one matmul over the draws' R, so every
    draw's columns meet only its own R and c; draws of any operators stack.
    Each step's residual, targets, squares and gradient are (H, T R) blocks
    in C order, column t R + j restart j of draw t.
    x_hat = W h is formed for each draw's winner, its objective ||R h - c||^2
    plus that constant, so a draw makes one fold and no transform of its own.
    The result is the best iterate ever evaluated, after restarts * iters
    iterations; its gap to the global minimum is unknown and flagged
    epsilon_uncertified.

    Returns per draw its RecoveryResult, or the exception that failed it: a
    draw that fails, in its set-up or in its descent (a non-finite objective
    raises ValueError), fails alone. A draw's result is the one it gets alone
    (``recover_generative``) bitwise when ``restarts`` is at least 2 (a lone
    column's products take BLAS's matrix-vector path, which rounds
    differently). ``step`` must be positive and finite.
    """
    if not isinstance(net, GenerativeNetwork):
        raise TypeError("recover_generative needs a GenerativeNetwork")
    for key, value in (("restarts", restarts), ("iters", iters), ("init_pool", init_pool)):
        if _integer(key, value) < 1:
            raise ValueError(f"{key} must be at least 1")
    if not 0 < step < math.inf:  # written so that NaN fails too
        raise ValueError(f"step must be positive and finite, got {step!r}")
    last = net.weights[-1]
    transformed = {}  # operator -> F W_last, one forward per operator
    staged = []
    for A, b, seed in systems:
        try:
            if A.F not in transformed:
                transformed[A.F] = A.F.forward(last)
            staged.append(_latent_system(A, b, net, transformed[A.F], restarts, init_pool, seed))
        except Exception as exc:
            staged.append(exc)
    live = [s for s in staged if not isinstance(s, Exception)]
    found = iter(_solve_stack(net, live, iters, step) if live else ())
    results = []
    for system in staged:
        outcome = system if isinstance(system, Exception) else next(found)
        if not isinstance(outcome, Exception):
            obj, h = outcome
            x_hat = last @ h
            outcome = RecoveryResult(x_hat, obj + system[3], restarts * iters, ("epsilon_uncertified",))
        results.append(outcome)
    return results


def recover_generative(
    A: SampledOperator, b, net: GenerativeNetwork, *, restarts: int = 10, iters: int = 100,
    step: float = 0.05, init_pool: int = 16, seed=0,
) -> RecoveryResult:
    """``recover_generative_stack`` on the one draw (A, b) with solver stream ``seed``: its
    RecoveryResult, or the exception that failed it, raised."""
    (result,) = recover_generative_stack(
        [(A, b, seed)], net, restarts=restarts, iters=iters, step=step, init_pool=init_pool
    )
    if isinstance(result, Exception):
        raise result
    return result


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
    devs = np.empty(union.M)
    for i, block in enumerate(_basis_blocks(A.forward, union)):
        cols = _stack_real(block)
        s = np.linalg.svd(cols, compute_uv=False)
        smin = s[-1] if cols.shape[0] >= cols.shape[1] else 0.0
        devs[i] = max(s[0] - 1.0, 1.0 - smin)
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
    delta: float,
    epsilon: float = 0.0,
) -> float:
    """Recovery bound: noise and optimization terms.

    Evaluates 9 (sigma/sqrt(m)) nf (sqrt(max_dim) + sqrt(log_subspace_count) + t)
    + (3/2) sqrt(epsilon), where nf is the noise factor of the m-row draw
    (``sampling.noise_factor``) and t = sqrt(log(2/delta)), so the bound fails with
    probability at most delta over the noise. The paper's model-mismatch terms are
    zero here: every prior's signals lie in its model.
    """
    # every check is written so that NaN fails too
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    t = math.sqrt(math.log(2.0 / delta))
    if not (nf >= 0 and m >= 1 and sigma >= 0 and epsilon >= 0 and max_dim >= 1
            and log_subspace_count >= 0):
        raise ValueError("invalid bound inputs")
    noise_term = (
        9.0
        * (sigma / math.sqrt(m))
        * nf
        * (math.sqrt(max_dim) + math.sqrt(log_subspace_count) + t)
    )
    return noise_term + 1.5 * math.sqrt(epsilon)


def deterministic_corollary_bound(sample: DrawnSample, alpha, sigma: float) -> float:
    """Non-denoising comparison noise term from the deterministic-noise analysis.

    (sigma/sqrt(m)) ||alpha||_2 sum_i 1/(sqrt(n) alpha_{omega_i}); for flat
    coherences this grows like sigma sqrt(m) instead of decaying.
    """
    if not sigma >= 0:  # written so that NaN fails too
        raise ValueError("sigma must be nonnegative")
    alpha = np.asarray(alpha, dtype=np.float64)
    gathered = alpha[sample.omega]
    if not np.all(gathered > 0):  # written so that NaN fails too
        raise ValueError("every drawn row must have positive coherence")
    norm = np.linalg.norm(alpha)
    if not np.isfinite(norm):
        raise ValueError("coherences must be finite")
    terms = 1.0 / (math.sqrt(alpha.size) * gathered)
    return float(sigma / math.sqrt(sample.m) * norm * np.sum(terms))


def relative_recovery_error(x0, x_hat) -> float:
    """||x0 - x_hat||_2 / ||x0||_2."""
    x0 = np.asarray(x0, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    denom = float(np.linalg.norm(x0))
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero truth signal")
    return float(np.linalg.norm(x0 - x_hat) / denom)
