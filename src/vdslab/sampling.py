"""Sampling plans, with-replacement draws, preconditioners, and noise bounds.

A plan fixes per-row probabilities p and the preconditioner diagonal
d_i = (n p_i)^(-1/2). A draw gathers m rows i.i.d. from p, scaled by
sqrt(n/m), and keeps them in draw order: measurement i, its noise and its
gathered preconditioner entry belong to the i-th drawn row. Only the noise
factor sorts the draw, so the gathered preconditioner entries are
non-increasing there. The gathered diagonal d_omega carries no sqrt(n/m)
factor; the scale lives in the sampling matrix applied to vectors. That
convention makes the preconditioned measurement matrix equal the plain
sampling matrix applied to the preconditioned transform, and keeps the chain
noise_factor <= max(gathered d) <= max(d) valid in the compressed regime.
"""

from __future__ import annotations

import math

import numpy as np

from .transforms import UnitaryOperator

__all__ = [
    "SamplingPlan",
    "DrawnSample",
    "SampledOperator",
    "uniform_plan",
    "make_plan",
    "optimized_probabilities",
    "complexity_mu",
    "draw_sample",
    "unit_truncation",
    "noise_factor",
    "noise_factor_bounds",
    "sample_complexity",
    "apply_measurement",
    "save_plan_csv",
    "load_plan_csv",
]

_SIMPLEX_TOL = 1e-12


class SamplingPlan:
    """Row probabilities p with the matching preconditioner diagonal d.

    Excluded rows carry p_i = 0 and d_i = 0 and are never drawn; on the
    support d_i * sqrt(n * p_i) = 1.
    """

    def __init__(self, p: np.ndarray, d: np.ndarray):
        p = np.asarray(p, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        if p.ndim != 1 or p.shape != d.shape:
            raise ValueError("p and d must be vectors of equal length")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(p.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1 within 1e-12")
        n = p.size
        support = p > 0
        if not np.all(np.abs(d[support] * np.sqrt(n * p[support]) - 1.0) <= _SIMPLEX_TOL):
            raise ValueError("d_i * sqrt(n p_i) != 1 on the support")
        if np.any(d[~support] != 0.0):
            raise ValueError("excluded rows must carry d_i = 0")
        p = p.copy()
        d = d.copy()
        p.setflags(write=False)
        d.setflags(write=False)
        self.p = p
        self.d = d
        self.n = n

    def __repr__(self) -> str:
        excluded = int(np.sum(self.p == 0))
        return f"<SamplingPlan n={self.n} excluded={excluded}>"


class DrawnSample:
    """A with-replacement draw omega from ``plan``, kept in draw order.

    ``omega`` holds the drawn rows and ``d_tilde = plan.d[omega]`` their
    preconditioner entries, both read-only and in draw order. Every drawn row
    must be in range and in the plan's support (d > 0). ``scale`` is the
    sqrt(n/m) row normalization for signals of dimension ``n``.
    """

    def __init__(self, plan: SamplingPlan, omega):
        omega = np.array(omega, dtype=np.int64)
        if omega.ndim != 1:
            raise ValueError("omega must be a vector of row indices")
        if omega.size == 0:
            raise ValueError("the draw is empty: a sample needs m >= 1 drawn rows")
        if np.any(omega < 0) or np.any(omega >= plan.n):
            raise ValueError("omega indices outside the plan")
        d_tilde = plan.d[omega]
        if not np.all(d_tilde > 0):
            raise ValueError("every drawn row needs d_tilde > 0 (a row the plan excludes was drawn)")
        omega.setflags(write=False)
        d_tilde.setflags(write=False)
        self.omega = omega
        self.d_tilde = d_tilde
        self.n = plan.n
        self.m = omega.size
        self.scale = math.sqrt(self.n / self.m)

    def __repr__(self) -> str:
        return f"<DrawnSample m={self.m} scale={self.scale:.6g}>"


def uniform_plan(n: int) -> SamplingPlan:
    """Flat probabilities 1/n with identity preconditioner."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    return SamplingPlan(np.full(n, 1.0 / n), np.ones(n))


def make_plan(p: np.ndarray) -> SamplingPlan:
    """Plan from arbitrary simplex probabilities; d computed on the support."""
    p = np.asarray(p, dtype=np.float64)
    d = np.zeros_like(p)
    support = p > 0
    d[support] = 1.0 / np.sqrt(p.size * p[support])
    return SamplingPlan(p, d)


def optimized_probabilities(alpha) -> SamplingPlan:
    """Coherence-proportional plan p_i = alpha_i^2 / ||alpha||^2."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not (np.all(np.isfinite(alpha)) and np.all(alpha >= 0)):
        raise ValueError("coherences must be finite and nonnegative")
    total = np.sum(alpha**2)
    if total <= 0:
        raise ValueError("coherence vector is identically zero")
    p = alpha**2 / total
    p = p / p.sum()  # renormalize away float drift
    return make_plan(p)


def complexity_mu(alpha, p) -> float:
    """Sampling complexity max_j alpha_j / sqrt(p_j) over the support of alpha."""
    alpha = np.asarray(alpha, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if alpha.shape != p.shape:
        raise ValueError("alpha and p must have equal length")
    active = alpha > 0
    if np.any(p[active] <= 0):
        raise ValueError("alpha_j > 0 with p_j = 0: complexity is infinite")
    if not np.any(active):
        return 0.0
    return float(np.max(alpha[active] / np.sqrt(p[active])))


def draw_sample(plan: SamplingPlan, m: int, rng_seed) -> DrawnSample:
    """Draw m i.i.d. row indices by inverse CDF on a counter-based stream."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be at least 1")
    if isinstance(rng_seed, np.random.Generator):
        rng = rng_seed
    else:
        rng = np.random.Generator(np.random.Philox(rng_seed))
    cum = np.cumsum(plan.p)
    # close the table exactly from the last supported row on: u < 1 always lands on a supported row
    cum[np.flatnonzero(plan.p)[-1] :] = 1.0
    return DrawnSample(plan, np.searchsorted(cum, rng.random(m), side="right"))


def _truncation_index(v: np.ndarray) -> int:
    """0-based index I-1 of the adjusted entry; error if ||v|| < 1."""
    c = np.cumsum(v**2)
    if c[-1] < 1.0 - 1e-12:
        raise ValueError(f"cannot unit-truncate: ||v||^2 = {c[-1]!r} < 1")
    idx = int(np.searchsorted(c, 1.0, side="left"))
    return min(idx, v.size - 1)


def unit_truncation(v: np.ndarray) -> np.ndarray:
    """Truncate a nonnegative vector to unit norm at its defining index.

    Entries are copied while the cumulative norm stays below 1; the next entry
    is adjusted so the output norm is exactly 1 and the rest are zeroed.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty vector")
    if np.any(v < 0):
        raise ValueError("unit truncation is defined for nonnegative vectors")
    idx = _truncation_index(v)
    out = np.zeros_like(v)
    out[:idx] = v[:idx]
    head = np.sum(v[:idx] ** 2)
    out[idx] = np.sqrt(max(1.0 - head, 0.0))
    return out


def _sorted_gathers(sample: DrawnSample, alpha) -> tuple[np.ndarray, np.ndarray]:
    """d_tilde and alpha on the drawn rows, sorted so d_tilde is non-increasing (stable in draw position)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size != sample.n:
        raise ValueError("alpha length does not match the sample")
    order = np.argsort(-sample.d_tilde, kind="stable")
    return sample.d_tilde[order], alpha[sample.omega[order]]


def noise_factor(sample: DrawnSample, alpha) -> float:
    """||D~ T(S D alpha)||_2 with rows sorted so the gathered d is non-increasing."""
    d_tilde, alpha_sorted = _sorted_gathers(sample, alpha)
    truncated = unit_truncation(sample.scale * d_tilde * alpha_sorted)
    return float(np.linalg.norm(d_tilde * truncated))


def noise_factor_bounds(plan: SamplingPlan, sample: DrawnSample, alpha, t: float) -> dict:
    """The paper's upper bounds on the noise factor, for runs and property tests.

    max_Sd and max_d bound every draw; truncated_SD2alpha_norm restricts
    S D^2 alpha to the truncation window; optimized_closed_bound(t) holds with
    probability at least 1 - t under optimized sampling, for t > 0.
    """
    if not t > 0:  # written so that NaN fails too
        raise ValueError(f"t must be positive, got {t!r}")
    alpha = np.asarray(alpha, dtype=np.float64)
    d_tilde, alpha_sorted = _sorted_gathers(sample, alpha)
    sd_alpha = sample.scale * d_tilde * alpha_sorted
    idx = _truncation_index(sd_alpha)
    truncated_norm = float(np.linalg.norm(sample.scale * d_tilde[: idx + 1] ** 2 * alpha_sorted[: idx + 1]))
    active = alpha > 0
    closed = float(
        np.linalg.norm(alpha)
        * min(1.0 / math.sqrt(t), 1.0 / (math.sqrt(plan.n) * np.min(alpha[active])))
    )
    return {
        "max_Sd": float(d_tilde[0]),
        "max_d": float(np.max(plan.d)),
        "truncated_SD2alpha_norm": truncated_norm,
        "optimized_closed_bound": closed,
    }


def sample_complexity(mu: float, ell: int, log_M: float, delta: float, C: float) -> int:
    """m = ceil(C * mu^2 * (log ell + log M + log(1/delta))), at least 1."""
    if mu < 0 or ell < 1 or log_M < 0 or not 0 < delta <= 1 or C <= 0:
        raise ValueError("invalid sample-complexity inputs")
    raw = C * mu**2 * (math.log(ell) + log_M + math.log(1.0 / delta))
    return max(1, math.ceil(raw))


def apply_measurement(
    F: UnitaryOperator, sample: DrawnSample, x: np.ndarray, preconditioned: bool = False
) -> np.ndarray:
    """Measure x: one full transform, then a scaled gather of the drawn rows.

    Entry i is sqrt(n/m) * (Fx)_{omega_i} for the i-th drawn row, additionally
    multiplied by d_{omega_i} when ``preconditioned``. The
    preconditioned form is the m-row D~ S F x, row for row; the solvers read
    the same least squares folded onto distinct rows (``SampledOperator``).
    """
    fx = F.forward(x)
    rows = fx[sample.omega]
    if preconditioned:
        weights = sample.d_tilde if rows.ndim == 1 else sample.d_tilde[:, None]
        rows = rows * weights
    return sample.scale * rows


class SampledOperator:
    """A = D~ S F for one draw, written on the draw's distinct rows.

    A row j drawn several times acts as one row of weight sqrt(c_j), with
    c_j = (n/m) sum_{i: omega_i = j} d~_i^2: ``rows`` holds each drawn row
    once (increasing) and ``weights`` its sqrt(c_j). ``forward`` takes (n,) or
    (n, R) inputs and ``adjoint`` the matching (r,) or (r, R) ones; A's Gram
    is F* diag(c) F, the Gram of the m-row D~ S F, so ``norm_sq``, ||A||^2 on
    real inputs, is max_j (c_j + c_{P j}) / 2 with P = F.conjugate_rows().
    Every solver minimizes ||A x - u||^2 + const, with (u, const) = ``fold(b)``.
    """

    def __init__(self, F: UnitaryOperator, sample: DrawnSample):
        if sample.n != F.n:
            raise ValueError("sample and operator dimensions differ")
        self.F = F
        self.sample = sample
        w = sample.scale * sample.d_tilde
        c = np.bincount(sample.omega, weights=w * w, minlength=F.n)
        self.rows = np.flatnonzero(c)
        self.weights = np.sqrt(c[self.rows])
        self.norm_sq = float(np.max(c + c[F.conjugate_rows()])) / 2.0
        self.rows.setflags(write=False)
        self.weights.setflags(write=False)

    def _weigh(self, v: np.ndarray) -> np.ndarray:
        return v * (self.weights if v.ndim == 1 else self.weights[:, None])

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._weigh(self.F.forward(x)[self.rows])

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Assign the weighted rows (they are distinct, so nothing adds up), then one adjoint transform."""
        weighted = self._weigh(v)
        full = np.zeros((self.F.n,) + weighted.shape[1:], dtype=weighted.dtype)
        full[self.rows] = weighted
        return self.F.adjoint(full)

    def fold(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """(u, const) with ||D~ S F x - D~ b||^2 = ||forward(x) - u||^2 + const, exactly.

        For a length-m measurement vector b and t = D~ b, the folded target is
        u_j = sum_{i: omega_i = j} sqrt(n/m) d~_i t_i / sqrt(c_j), and
        const = ||t||^2 - ||u||^2 >= 0 by Cauchy-Schwarz (clamped at 0 against
        rounding).
        """
        values = np.asarray(b)
        if values.shape != (self.sample.m,):
            raise ValueError("b length does not match the draw")
        t = self.sample.d_tilde * values
        index = self.sample.omega
        wt = self.sample.scale * self.sample.d_tilde * t
        n = self.F.n
        if np.iscomplexobj(wt):
            folded_t = np.bincount(index, wt.real, n) + 1j * np.bincount(index, wt.imag, n)
        else:
            folded_t = np.bincount(index, wt, n)
        u = folded_t[self.rows] / self.weights
        const = float(np.real(np.vdot(t, t)) - np.real(np.vdot(u, u)))
        return u, max(const, 0.0)


def save_plan_csv(plan: SamplingPlan, path) -> None:
    lines = ["index,p,d"]
    lines += [f"{j},{plan.p[j]:.17g},{plan.d[j]:.17g}" for j in range(plan.n)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_plan_csv(path) -> SamplingPlan:
    with open(path, newline="") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != "index,p,d":
        raise ValueError("malformed plan CSV header")
    p = np.zeros(len(lines) - 1)
    d = np.zeros(len(lines) - 1)
    for row, line in enumerate(lines[1:]):
        idx, pv, dv = line.split(",")
        if int(idx) != row:
            raise ValueError(f"row {row} has index {idx}")
        p[row], d[row] = float(pv), float(dv)
    return SamplingPlan(p, d)
