"""Noisy measurement simulation, recovery solvers, and closed-form error bounds.

Every solver, ``objective`` and ``rip_check`` take the draw's preconditioned
operator A = D~ S F (a SampledOperator), which acts on the draw's distinct
rows. The solvers minimize ||A x - D~ b||_2^2 over their prior set in its
folded form ||A.forward(x) - u||^2 + const, with (u, const) = A.fold(b), and
report that sum as the objective. Measurements are never pre-scaled; the
preconditioner enters at optimization time only. Only the simulation, the
noise factor and the bounds read the m-row draw. Complex systems are handled
by stacking real and imaginary parts, so least squares and singular values
are always computed over the reals, matching the real-part convention for
complex inner products.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .priors import (
    GenerativeNetwork,
    SubspaceUnion,
    _hard_threshold,
    _latent_adam,
    _lex_greatest,
    _top_k_support,
    generative_forward,
    generative_pullback,
)
from .sampling import DrawnSample, SampledOperator, _as_alpha, apply_measurement
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
    "save_signal",
    "load_signal",
]

_RANK_RTOL = 1e-10
_SIGNAL_MAGIC = b"VDSX"

_SPARSE_DEFAULTS = {"max_iters": 500, "tol": 1e-8}
_GENERATIVE_DEFAULTS = {
    "restarts": 10,
    "iters": 100,
    "step": 0.05,
    "init_pool": 16,
    "seed": 0,
    "init_z": None,
}

# the least legal value of each numeric solver setting; step must be above 0
_SETTING_FLOORS = {"max_iters": 1, "tol": 0, "restarts": 1, "iters": 1, "init_pool": 1}


class RecoveryResult:
    """Outcome of one solver run on one measurement set.

    ``flags`` name what the solver could not certify (a support, an
    optimization gap) or what went wrong (rank deficiency, no convergence).
    """

    def __init__(self, x_hat, objective, solver, iterations, flags=()):
        x_hat = np.asarray(x_hat, dtype=np.float64)
        x_hat.setflags(write=False)
        if not objective >= 0:  # written so that NaN fails too
            raise ValueError("objective must be nonnegative")
        self.x_hat = x_hat
        self.objective = float(objective)
        self.solver = str(solver)
        self.iterations = int(iterations)
        self.flags = tuple(flags)

    def __repr__(self) -> str:
        return (
            f"<RecoveryResult solver={self.solver} objective={self.objective:.6g}"
            f" iterations={self.iterations}>"
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
    return RecoveryResult(x_hat, winner[0], "oracle", union.M, flags)


def _merge_config(defaults: dict, config, prefix: str = "") -> dict:
    """``defaults`` updated by ``config``; unknown keys and out-of-range values raise ValueError.

    Messages name each key with ``prefix`` in front (the experiment config
    spells solver settings ``solver_<key>``).
    """
    merged = dict(defaults)
    if config:
        unknown = set(config) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(prefix + key for key in unknown)}")
        merged.update(config)
    for key, low in _SETTING_FLOORS.items():
        if key in merged and not merged[key] >= low:  # written so that NaN fails too
            raise ValueError(f"{prefix}{key} must be at least {low}")
    if "step" in merged and not merged["step"] > 0:
        raise ValueError(f"{prefix}step must be positive")
    return merged


def recover_sparse_two_stage(A: SampledOperator, b, k: int, config=None) -> RecoveryResult:
    """Two-stage sparse solver: hard-threshold descent, then support least squares.

    Both stages run on the draw's folded system. Stage 1 is iterative hard
    thresholding with step 1/L, L = 1.05 ||A||^2 in closed form from the draw
    (``A.norm_sq``), so step * ||A||^2 < 1. Stage 2 re-fits exactly
    on the support of the best stage-1 iterate, so the result is optimal within
    that fixed support only; the support itself stays uncertified (flagged).
    Stage-1 non-convergence keeps the best iterate's support and adds a
    warning flag. The objective is the folded residual plus its constant.
    """
    cfg = _merge_config(_SPARSE_DEFAULTS, config)
    n = A.F.n
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    u, const = A.fold(b)
    lam = 1.05 * A.norm_sq

    # each iteration costs one forward and one adjoint transform: the residual
    # of the accepted iterate is carried into the next gradient step, and at
    # x = 0 it is -u
    x = np.zeros(n)
    r = -u
    best_x, best_obj = x, float(np.real(np.vdot(r, r)))
    converged = False
    used = 0
    for used in range(1, cfg["max_iters"] + 1):
        g = np.real(A.adjoint(r))
        x_next = _hard_threshold(x - g / lam, k)
        r_next = A.forward(x_next) - u
        obj = float(np.real(np.vdot(r_next, r_next)))
        if obj < best_obj:
            best_x, best_obj = x_next, obj
        step = x_next - x
        if math.sqrt(step @ step) <= cfg["tol"] * max(1.0, math.sqrt(x @ x)):
            converged = True
            break
        x, r = x_next, r_next

    support = _top_k_support(best_x, k)
    columns = np.zeros((n, k))
    columns[support, np.arange(k)] = 1.0
    design = A.forward(columns)
    w, _, rank, _ = np.linalg.lstsq(_stack_real(design), _stack_real(u), rcond=_RANK_RTOL)
    x_hat = np.zeros(n)
    x_hat[support] = w
    flags = ["support_uncertified"]
    if not converged:
        flags.append("stage1_not_converged")
    if rank < k:
        flags.append("rank_deficient")
    obj = _residual_sq(design, w, u) + const
    return RecoveryResult(x_hat, obj, "sparse_two_stage", used, tuple(flags))


def recover_generative(A: SampledOperator, b, net: GenerativeNetwork, config=None) -> RecoveryResult:
    """Multi-restart latent descent with exact reverse-mode gradients.

    Adam on f(z) = ||A G(z) - D~ b||_2^2. Each restart starts from the
    best of ``init_pool`` seeded candidate latents (config key init_z pins the
    first restart instead) and runs exactly ``iters`` Adam steps; there is no
    early stop. The restarts run as one (k, restarts) block on the folded
    system, and the objective is the folded residual plus its constant.
    Returns the best iterate ever evaluated; its gap to the global minimum is
    unknown and flagged epsilon_uncertified.
    """
    if not isinstance(net, GenerativeNetwork):
        raise TypeError("recover_generative needs a GenerativeNetwork")
    cfg = _merge_config(_GENERATIVE_DEFAULTS, config)
    u, const = A.fold(b)  # reads no rng
    rng = np.random.Generator(np.random.Philox(cfg["seed"]))
    k = net.latent_dim

    def best_of_pool():
        # the folded residuals rank as the m-row ones: they differ by the shared const
        pool = rng.standard_normal((k, cfg["init_pool"]))
        r = A.forward(generative_forward(net, pool)) - u[:, None]
        return pool[:, int(np.argmin(np.sum(np.abs(r) ** 2, axis=0)))]

    init_z = cfg["init_z"]
    if init_z is not None:
        init_z = np.asarray(init_z, dtype=np.float64)
        if init_z.shape != (k,):
            raise ValueError("init_z must have the latent dimension")
    # drawn eagerly in restart order: the rng is read exactly as one restart at a time would
    starts = [init_z if r == 0 and init_z is not None else best_of_pool() for r in range(cfg["restarts"])]

    def value_and_grad(z):
        x, vjp = generative_pullback(net, z)
        r = A.forward(x) - u[:, None]
        return np.sum((r * r.conj()).real, axis=0), x, vjp(2.0 * np.real(A.adjoint(r)))

    (obj, x_hat), total = _latent_adam(value_and_grad, np.column_stack(starts), cfg["iters"], cfg["step"])
    return RecoveryResult(x_hat, obj + const, "generative_descent", total, ("epsilon_uncertified",))


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
    vec = _as_alpha(alpha)
    gathered = vec[sample.omega]
    if np.any(gathered <= 0):
        raise ValueError("every drawn row must have positive coherence")
    terms = 1.0 / (math.sqrt(vec.size) * gathered)
    return float(sigma / math.sqrt(sample.m) * np.linalg.norm(vec) * np.sum(terms))


def relative_recovery_error(x0, x_hat) -> float:
    """||x0 - x_hat||_2 / ||x0||_2."""
    x0 = np.asarray(x0, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    denom = float(np.linalg.norm(x0))
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero truth signal")
    return float(np.linalg.norm(x0 - x_hat) / denom)


def save_signal(x: np.ndarray, path) -> None:
    """Dump a real signal as flat little-endian float64 after a 16-byte header."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("signals are one-dimensional")
    with open(path, "wb") as fh:
        fh.write(_SIGNAL_MAGIC)
        fh.write(struct.pack("<IQ", 1, x.size))
        fh.write(x.astype("<f8").tobytes())


def load_signal(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != _SIGNAL_MAGIC:
        raise ValueError("not a signal file (bad magic)")
    version, n = struct.unpack_from("<IQ", raw, 4)
    if version != 1:
        raise ValueError(f"unsupported signal file version {version}")
    if len(raw) != 16 + 8 * n:
        raise ValueError("signal payload size mismatch")
    return np.frombuffer(raw, dtype="<f8", count=n, offset=16).astype(np.float64)
