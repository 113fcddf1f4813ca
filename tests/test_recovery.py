"""Measurement simulation, the three solvers, and the closed-form bounds."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_support_least_squares,
    dft_matrix,
    haar_matrix,
    patience_recover_generative,
    random_orthogonal,
    random_unitary,
    scatter_adjoint_measurement,
)

from vdslab import recovery
from vdslab.coherence import coherence_vector
from vdslab.priors import (
    GenerativeNetwork,
    Subspace,
    SubspaceUnion,
    _latent_adam,
    generative_forward,
    generative_pullback,
)
from vdslab.recovery import (
    RecoveryResult,
    deterministic_corollary_bound,
    objective,
    recover_generative,
    recover_oracle,
    recover_sparse_two_stage,
    relative_recovery_error,
    rip_check,
    simulate_measurements,
    theorem_error_bound,
)
from vdslab.sampling import (
    DrawnSample,
    SampledOperator,
    apply_measurement,
    draw_sample,
    noise_factor,
    optimized_probabilities,
    uniform_plan,
)
from vdslab.transforms import (
    UnitaryOperator,
    compose_measurement_basis,
    make_dense_operator,
    make_dft_operator,
    make_haar_operator,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _full_sample(n):
    """Deterministic draw hitting every row once (uniform plan, d = 1)."""
    return DrawnSample(uniform_plan(n), np.arange(n))


def _random_union(n, M, dim, rng):
    subs = []
    for _ in range(M):
        q = random_orthogonal(n, rng)
        subs.append(Subspace(q[:, :dim]))
    return SubspaceUnion(subs)


def _coordinate_pair_union(n):
    eye = np.eye(n)
    subs = []
    for i in range(n):
        for j in range(i + 1, n):
            subs.append(Subspace(eye[:, [i, j]]))
    return SubspaceUnion(subs)


def _dense_preconditioned(F, sample):
    """Dense D~ S F for small checks."""
    mat = F.matrix()
    return sample.scale * sample.d_tilde[:, None] * mat[sample.omega]


def _point_in(union, rng, subspace_index=None):
    idx = rng.integers(union.M) if subspace_index is None else subspace_index
    sub = union.subspaces[idx]
    return sub.basis @ rng.standard_normal(sub.dim)


# ---------------------------------------------------------------- measurements


def test_sigma_zero_measures_exactly():
    n = 16
    F = make_dft_operator(n)
    plan = uniform_plan(n)
    sample = draw_sample(plan, 12, 3)
    x0 = _rng(0).standard_normal(n)
    b = simulate_measurements(F, sample, x0, 0.0, seed=5)
    assert np.array_equal(b, apply_measurement(F, sample, x0))
    assert b.shape == (12,) and b.dtype == np.complex128
    assert not b.flags.writeable


def test_fixed_seed_reproduces_measurements():
    n = 8
    F = make_dft_operator(n)
    sample = draw_sample(uniform_plan(n), 6, 1)
    x0 = _rng(1).standard_normal(n)
    a = simulate_measurements(F, sample, x0, 0.7, seed=42)
    b = simulate_measurements(F, sample, x0, 0.7, seed=42)
    c = simulate_measurements(F, sample, x0, 0.7, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_second_moment_real_field():
    # E||eta||^2 = sigma^2 for the real field; ||eta||^2 concentrates at m = 1e4
    n = 16
    F = make_dense_operator(random_orthogonal(n, _rng(2)))
    sample = draw_sample(uniform_plan(n), 10_000, 4)
    x0 = np.zeros(n)
    b = simulate_measurements(F, sample, x0, 1.0, seed=9)
    assert b.dtype == np.float64
    assert abs(np.sum(b**2) - 1.0) < 0.05


def test_noise_second_moment_complex_field():
    n = 16
    F = make_dft_operator(n)
    sample = draw_sample(uniform_plan(n), 10_000, 5)
    b = simulate_measurements(F, sample, np.zeros(n), 1.0, seed=10)
    assert b.dtype == np.complex128
    assert abs(np.sum(np.abs(b) ** 2) - 2.0) < 0.1


def test_measurement_set_validation():
    """simulate_measurements rejects a negative or NaN sigma before drawing noise."""
    n = 8
    F = make_dft_operator(n)
    sample = draw_sample(uniform_plan(n), 4, 0)
    for sigma in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="sigma"):
            simulate_measurements(F, sample, np.zeros(n), sigma)


def test_fold_rejects_b_of_the_wrong_length():
    A = SampledOperator(make_dense_operator(np.eye(4)), _full_sample(4))
    u, const = A.fold(np.ones(4))
    assert np.array_equal(u, np.ones(4)) and const == 0.0
    for b in (np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ValueError, match="length"):
            A.fold(b)


def test_sampled_operator_rejects_dimension_mismatch():
    sample = draw_sample(uniform_plan(8), 5, 0)
    with pytest.raises(ValueError, match="dimensions differ"):
        SampledOperator(make_dft_operator(16), sample)


@st.composite
def _adjoint_cases(draw):
    """(F, draw, v, x): real and complex operators, flat and skewed plans, m up to 3n."""
    n = draw(st.sampled_from([4, 8, 16]))
    kind = draw(st.sampled_from(["dft", "haar", "dense_real", "dense_complex"]))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    F = {
        "dft": lambda: make_dft_operator(n),
        "haar": lambda: make_haar_operator(n, 2),
        "dense_real": lambda: make_dense_operator(random_orthogonal(n, rng)),
        "dense_complex": lambda: make_dense_operator(random_unitary(n, rng)),
    }[kind]()
    # a skewed plan puts most of the mass on a few rows, so draws repeat rows often
    skewed = draw(st.booleans())
    plan = optimized_probabilities(0.05 + rng.random(n) ** 4) if skewed else uniform_plan(n)
    sample = draw_sample(plan, draw(st.integers(1, 3 * n)), rng)
    v = rng.standard_normal(sample.m)
    if F.field == "complex":
        v = v + 1j * rng.standard_normal(sample.m)
    return F, sample, v, rng.standard_normal(n)


@settings(max_examples=150, deadline=None)
@given(_adjoint_cases())
def test_adjoint_identity_against_dense_operator(case):
    """Re<M x, v> = <x, Re M* v> for real x, with M the dense m-row D~ S F, M x the preconditioned
    measurement and M* the scatter reference; the same identity for the folded operator's pair."""
    F, sample, v, x = case
    dense = _dense_preconditioned(F, sample)
    measured = apply_measurement(F, sample, x, preconditioned=True)
    adjoint_v = scatter_adjoint_measurement(F, sample, v)
    assert np.allclose(measured, dense @ x, atol=1e-12)
    assert np.allclose(adjoint_v, dense.conj().T @ v, atol=1e-12)
    lhs = float(np.real(np.vdot(v, measured)))
    rhs = float(np.dot(x, np.real(adjoint_v)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    A = SampledOperator(F, sample)
    w = v[: A.rows.size]  # any vector on the distinct rows
    lhs = float(np.real(np.vdot(w, A.forward(x))))
    rhs = float(np.dot(x, np.real(A.adjoint(w))))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- objective


def test_objective_zero_at_truth_noiseless():
    n = 16
    F = make_dft_operator(n)
    plan = uniform_plan(n)
    sample = draw_sample(plan, 12, 7)
    x0 = _rng(3).standard_normal(n)
    ms = simulate_measurements(F, sample, x0, 0.0)
    assert objective(SampledOperator(F, sample), x0, ms) == pytest.approx(0.0, abs=1e-24)


def test_objective_flat_preconditioner_is_plain_residual():
    n = 8
    F = make_dft_operator(n)
    plan = uniform_plan(n)  # d identically one
    sample = draw_sample(plan, 6, 11)
    rng = _rng(4)
    x = rng.standard_normal(n)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    plain = np.sum(np.abs(apply_measurement(F, sample, x) - b) ** 2)
    assert objective(SampledOperator(F, sample), x, b) == pytest.approx(plain, rel=1e-12)


def test_objective_matches_dense_evaluation():
    n = 8
    rng = _rng(5)
    F = make_dft_operator(n)
    alpha = 0.5 + rng.random(n)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 10, 13)
    x = rng.standard_normal(n)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    dense = np.linalg.norm(_dense_preconditioned(F, sample) @ x - sample.d_tilde * b) ** 2
    assert objective(SampledOperator(F, sample), x, b) == pytest.approx(dense, rel=1e-10)


# -------------------------------------------------------------------- oracle


def test_oracle_noiseless_exact_recovery():
    n = 32
    rng = _rng(6)
    F = make_dft_operator(n)
    union = _random_union(n, 5, 3, rng)
    alpha = coherence_vector(F, union)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 150, 17)
    assert rip_check(SampledOperator(F, sample), union)["holds"]
    x0 = _point_in(union, rng, 2)
    ms = simulate_measurements(F, sample, x0, 0.0)
    res = recover_oracle(SampledOperator(F, sample), ms, union)
    assert np.linalg.norm(res.x_hat - x0) < 1e-8
    assert res.iterations == union.M and res.flags == ()


def test_oracle_picks_dominant_axis():
    eye = np.eye(2)
    F = make_dense_operator(eye)
    sample = _full_sample(2)
    union = SubspaceUnion([Subspace(eye[:, [0]]), Subspace(eye[:, [1]])])
    res = recover_oracle(SampledOperator(F, sample), np.array([1.0, 1e-9]), union)
    assert res.x_hat[1] == 0.0
    assert res.x_hat[0] == pytest.approx(1.0, rel=1e-9)


def test_oracle_beats_random_candidates():
    n = 16
    rng = _rng(7)
    F = make_dft_operator(n)
    union = _random_union(n, 6, 2, rng)
    plan = optimized_probabilities(coherence_vector(F, union))
    sample = draw_sample(plan, 20, 19)
    x0 = _point_in(union, rng)
    ms = simulate_measurements(F, sample, x0, 0.4, seed=23)
    res = recover_oracle(SampledOperator(F, sample), ms, union)
    target = sample.d_tilde * ms
    best_random = math.inf
    for sub in union.subspaces:
        design = apply_measurement(F, sample, sub.basis, preconditioned=True)
        w = 3.0 * rng.standard_normal((sub.dim, 10_000 // union.M + 1))
        objs = np.sum(np.abs(design @ w - target[:, None]) ** 2, axis=0)
        best_random = min(best_random, float(objs.min()))
    assert res.objective <= best_random + 1e-9
    assert objective(SampledOperator(F, sample), res.x_hat, ms) == pytest.approx(res.objective, rel=1e-9)


def test_oracle_flags_rank_deficiency():
    n = 4
    F = make_dense_operator(np.eye(n))
    # single row cannot determine two coordinates
    sample = DrawnSample(uniform_plan(n), [0])
    union = SubspaceUnion([Subspace(np.eye(n)[:, :2])])
    res = recover_oracle(SampledOperator(F, sample), np.array([1.0]), union)
    assert "rank_deficient" in res.flags
    # minimum-norm solution: second coordinate stays zero
    assert res.x_hat[1] == pytest.approx(0.0, abs=1e-12)


def test_oracle_requires_explicit_union():
    n = 4
    F = make_dense_operator(np.eye(n))
    sample = _full_sample(n)
    with pytest.raises(TypeError, match="enumerated"):
        recover_oracle(SampledOperator(F, sample), np.zeros(n), object())


def test_oracle_tie_breaks_lexicographically_greatest():
    # orthogonal axes fit b = 0 equally well (both give x = 0); a tie between
    # sign-flipped bases of the same line must also resolve deterministically
    eye = np.eye(2)
    F = make_dense_operator(eye)
    sample = _full_sample(2)
    union = SubspaceUnion([Subspace(eye[:, [0]]), Subspace(eye[:, [1]])])
    res = recover_oracle(SampledOperator(F, sample), np.zeros(2), union)
    assert np.array_equal(res.x_hat, np.zeros(2))


# ------------------------------------------------------------ two-stage sparse


def test_sparse_full_sampling_exact():
    n = 16
    rng = _rng(8)
    F = make_dft_operator(n)
    sample = _full_sample(n)
    x0 = np.zeros(n)
    x0[[2, 7, 11]] = rng.standard_normal(3)
    ms = simulate_measurements(F, sample, x0, 0.0)
    res = recover_sparse_two_stage(SampledOperator(F, sample), ms, 3)
    assert np.linalg.norm(res.x_hat - x0) < 1e-8
    assert "support_uncertified" in res.flags


def test_sparse_zero_signal_returns_zero():
    n = 8
    F = make_dft_operator(n)
    sample = _full_sample(n)
    res = recover_sparse_two_stage(SampledOperator(F, sample), np.zeros(n, dtype=complex), 2)
    assert np.array_equal(res.x_hat, np.zeros(n))
    assert res.objective == 0.0


def test_sparse_matches_exhaustive_oracle():
    n, k, m, trials = 16, 2, 40, 200
    F = make_dft_operator(n)
    plan = uniform_plan(n)  # flat coherence: optimized sampling is uniform
    union = _coordinate_pair_union(n)
    matches = 0
    for trial in range(trials):
        rng = _rng(1000 + trial)
        sample = draw_sample(plan, m, rng)
        x0 = np.zeros(n)
        support = rng.choice(n, size=k, replace=False)
        x0[support] = rng.standard_normal(k)
        ms = simulate_measurements(F, sample, x0, 0.02, seed=rng)
        res = recover_sparse_two_stage(SampledOperator(F, sample), ms, k)
        ref = recover_oracle(SampledOperator(F, sample), ms, union)
        assert res.objective <= 1.1 * ref.objective + 1e-12
        if np.linalg.norm(res.x_hat - ref.x_hat) <= 1e-6 * (1.0 + np.linalg.norm(ref.x_hat)):
            matches += 1
    assert matches >= 0.95 * trials


class _CountingOperator(UnitaryOperator):
    """Pass-through wrapper that counts forward and adjoint applications."""

    kind = "counting"

    def __init__(self, inner):
        super().__init__(inner.n, inner.field)
        self.inner = inner
        self.forward_calls = 0
        self.adjoint_calls = 0

    def _forward(self, x):
        self.forward_calls += 1
        return self.inner.forward(x)

    def _adjoint(self, y):
        self.adjoint_calls += 1
        return self.inner.adjoint(y)

    def conjugate_rows(self):
        return self.inner.conjugate_rows()


@pytest.mark.parametrize("m, converges", [(20, False), (96, True)])
def test_sparse_transform_calls_per_iteration(m, converges):
    """One adjoint per HTP iteration, and one batched forward per support change."""
    n, k = 64, 3
    max_iters = 60 if converges else 1
    F = _CountingOperator(compose_measurement_basis(make_dft_operator(n), make_haar_operator(n, 3)))
    plan = uniform_plan(n)
    sample = draw_sample(plan, m, _rng(4))
    x0 = np.zeros(n)
    x0[[3, 17, 40]] = [1.5, -2.0, 0.7]
    ms = simulate_measurements(F.inner, sample, x0, 0.1, seed=9)
    res = recover_sparse_two_stage(SampledOperator(F, sample), ms, k, max_iters=max_iters)
    assert ("stage1_not_converged" not in res.flags) == converges
    assert (res.iterations < max_iters) == converges
    # the step comes from the draw and the residual at x = 0 is -u, so no
    # transform runs before the loop: one adjoint per iteration, and one
    # forward of the k support columns for every iteration but the one that
    # finds its support repeated
    assert F.adjoint_calls == res.iterations
    assert F.forward_calls == res.iterations - converges


def _dft_haar_trial(n, levels, k, m, sigma, seed):
    """A seeded DFT.Haar sparse trial: (F, sample, b, dense F) with a k-sparse Haar signal."""
    rng = _rng(seed)
    F = compose_measurement_basis(make_dft_operator(n), make_haar_operator(n, levels))
    sample = draw_sample(uniform_plan(n), m, rng)
    x0 = np.zeros(n)
    x0[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    b = simulate_measurements(F, sample, x0, sigma, seed=rng)
    return F, sample, b, dft_matrix(n) @ haar_matrix(n, levels).T


@pytest.mark.parametrize("m, sigma", [(40, 0.25), (80, 1.0), (160, 0.25), (160, 1.0)])
def test_sparse_fixed_point_is_the_dense_least_squares_on_its_support(m, sigma):
    n, levels, k = 256, 4, 6
    F, sample, b, dense = _dft_haar_trial(n, levels, k, m, sigma, seed=500 + m)
    A = SampledOperator(F, sample)
    res = recover_sparse_two_stage(A, b, k)
    assert "stage1_not_converged" not in res.flags
    support = np.flatnonzero(res.x_hat)
    assert support.size == k
    ref = dense_support_least_squares(dense, sample, b, support)
    assert np.linalg.norm(res.x_hat - ref) <= 1e-12 * np.linalg.norm(ref)
    # a fixed point: the dense gradient step from x_hat keeps the same top k
    rows = sample.scale * sample.d_tilde[:, None] * dense[sample.omega]
    grad = np.real(rows.conj().T @ (rows @ ref - sample.d_tilde * b))
    step = np.abs(ref - grad / (1.05 * A.norm_sq))
    assert set(np.argsort(-step)[:k]) == set(support)
    dense_obj = np.linalg.norm(rows @ ref - sample.d_tilde * b) ** 2
    assert res.objective == pytest.approx(dense_obj, rel=1e-10)


def test_sparse_objective_does_not_increase_with_max_iters():
    n, levels, k = 256, 4, 6
    # a draw on which the support changes three times before it repeats
    F, sample, b, _ = _dft_haar_trial(n, levels, k, 24, 1.0, seed=32)
    A = SampledOperator(F, sample)
    results = [recover_sparse_two_stage(A, b, k, max_iters=j) for j in range(1, 6)]
    objectives = [r.objective for r in results]
    assert [r.iterations for r in results] == [1, 2, 3, 4, 4]
    assert ["stage1_not_converged" in r.flags for r in results] == [True, True, True, False, False]
    assert all(later <= earlier for earlier, later in zip(objectives, objectives[1:]))
    assert objectives[2] < objectives[1] < objectives[0]
    for r in results:
        assert r.objective == pytest.approx(objective(A, r.x_hat, b), rel=1e-10)


def test_sparse_config_rejects_unknown_keys():
    n = 8
    F = make_dft_operator(n)
    with pytest.raises(TypeError, match="unexpected keyword argument 'steps'"):
        recover_sparse_two_stage(SampledOperator(F, _full_sample(n)), np.zeros(n, dtype=complex), 2, steps=3)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"max_iters": 0}, "max_iters must be at least 1"),
        ({"max_iters": True}, "max_iters must be an integer, got True"),
        ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"k": True}, "k must be an integer, got True"),
        ({"k": 1.5}, "k must be an integer, got 1.5"),
    ],
)
def test_sparse_rejects_out_of_range_config(config, message):
    n = 8
    config = {"k": 2, **config}
    # a bool or a float for a count is a TypeError that names the setting, a count below 1 a ValueError
    with pytest.raises(TypeError if "integer" in message else ValueError, match=message):
        recover_sparse_two_stage(
            SampledOperator(make_dft_operator(n), _full_sample(n)), np.zeros(n, dtype=complex), **config
        )


def test_sparse_k_validation():
    n = 8
    F = make_dft_operator(n)
    with pytest.raises(ValueError, match="k must"):
        recover_sparse_two_stage(SampledOperator(F, _full_sample(n)), np.zeros(n, dtype=complex), 0)


# ----------------------------------------------------------------- generative


def _random_net(widths, rng, scale=1.0):
    weights = [scale * rng.standard_normal((widths[i + 1], widths[i])) for i in range(len(widths) - 1)]
    return GenerativeNetwork(weights)


def test_generative_seeded_at_truth_is_exact():
    n = 16
    rng = _rng(9)
    net = _random_net((2, 8, 16), rng)
    F = make_dft_operator(n)
    sample = _full_sample(n)
    z0 = rng.standard_normal(2)
    x0 = generative_forward(net, z0)
    ms = simulate_measurements(F, sample, x0, 0.0)
    res = recover_generative(SampledOperator(F, sample), ms, net, init_z=z0, restarts=1, iters=5)
    assert res.objective == 0.0
    assert np.array_equal(res.x_hat, x0)
    assert res.flags == ("epsilon_uncertified",)


def test_generative_gradient_matches_finite_differences():
    n = 16
    rng = _rng(10)
    net = _random_net((3, 8, 16), rng)
    F = make_dft_operator(n)
    alpha = 0.5 + rng.random(n)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 12, 29)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    A = SampledOperator(F, sample)

    def value(z):
        return objective(A, generative_forward(net, z), b)

    checked = 0
    attempt = 0
    while checked < 5 and attempt < 50:
        attempt += 1
        z = rng.standard_normal(3)
        # stay away from activation kinks so the objective is smooth locally
        pre = net.weights[0] @ z
        if np.min(np.abs(pre)) < 1e-2:
            continue
        x, vjp = generative_pullback(net, z)
        r = apply_measurement(F, sample, x, preconditioned=True) - sample.d_tilde * b
        analytic = vjp(2.0 * np.real(scatter_adjoint_measurement(F, sample, r)))
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-5
            fd[i] = (value(z + e) - value(z - e)) / 2e-5
        assert np.linalg.norm(analytic - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))
        checked += 1
    assert checked == 5


def test_generative_recovery_success_rate():
    n, trials = 32, 50
    F = make_dft_operator(n)
    hits = 0
    for trial in range(trials):
        rng = _rng(3000 + trial)
        net = _random_net((2, 8, 32), rng)
        alpha = 0.5 + rng.random(n)  # generous surrogate coherence profile
        plan = optimized_probabilities(alpha)
        sample = draw_sample(plan, 24, rng)
        z0 = rng.standard_normal(2)
        x0 = generative_forward(net, z0)
        if np.linalg.norm(x0) < 1e-6:
            hits += 1  # degenerate truth, nothing to recover
            continue
        ms = simulate_measurements(F, sample, x0, 0.0)
        res = recover_generative(
            SampledOperator(F, sample), ms, net, restarts=6, iters=100, seed=trial
        )
        if relative_recovery_error(x0, res.x_hat) <= 1e-3:
            hits += 1
    assert hits >= 0.8 * trials


def test_generative_init_z_shape_checked():
    n = 16
    rng = _rng(11)
    net = _random_net((2, 8, 16), rng)
    F = make_dft_operator(n)
    with pytest.raises(ValueError, match="init_z"):
        recover_generative(
            SampledOperator(F, _full_sample(n)), np.zeros(n, dtype=complex), net, init_z=np.zeros(3)
        )


@st.composite
def _generative_cases(draw):
    """(A, b, net, config): real Haar and complex DFT draws, iters <= 100, with and without init_z."""
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([16, 32]))
    F = make_haar_operator(n, 2) if draw(st.booleans()) else make_dft_operator(n)
    net = _random_net((draw(st.integers(1, 3)), 8, n), rng)
    plan = optimized_probabilities(0.5 + rng.random(n))
    sample = draw_sample(plan, draw(st.integers(1, 2 * n)), rng)
    x0 = generative_forward(net, rng.standard_normal(net.latent_dim))
    ms = simulate_measurements(F, sample, x0, draw(st.sampled_from([0.0, 0.5])), seed=rng)
    config = {
        "restarts": draw(st.integers(1, 4)),
        "iters": draw(st.integers(1, 100)),
        "init_pool": draw(st.integers(1, 16)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    if draw(st.booleans()):
        config["init_z"] = rng.standard_normal(net.latent_dim)
    return SampledOperator(F, sample), ms, net, config


@settings(max_examples=60, deadline=None)
@given(_generative_cases())
def test_generative_matches_patience_loop(case):
    """Within the 100 steps the old patience stop allowed, the batched folded core is the
    one-restart-at-a-time loop on the m-row draw, up to rounding."""
    A, ms, net, config = case
    res = recover_generative(A, ms, net, **config)
    x_hat, obj, iterations, _ = patience_recover_generative(A, ms, net, config)
    assert res.iterations == iterations
    # norm-wise: an entry near zero can carry a larger share of the rounding
    assert np.linalg.norm(res.x_hat - x_hat) <= 1e-12 * np.linalg.norm(x_hat)
    target = A.sample.d_tilde * ms
    assert abs(res.objective - obj) <= 1e-12 * (1.0 + np.real(np.vdot(target, target)))


@settings(max_examples=30, deadline=None)
@given(_generative_cases())
def test_generative_start_block_is_the_patience_loops_starts(case):
    """The eager start block, with and without init_z, holds bitwise the latents the lazy loop starts from."""
    A, ms, net, config = case
    blocks = []

    def spy(value_and_grad, starts, iters, step):
        blocks.append(np.array(starts))
        return _latent_adam(value_and_grad, starts, iters, step)

    pinned = {**config, "init_z": np.linspace(-1.0, 1.0, net.latent_dim)}
    for cfg in ({k: v for k, v in config.items() if k != "init_z"}, pinned):
        blocks.clear()
        with mock.patch.object(recovery, "_latent_adam", spy):
            recover_generative(A, ms, net, **cfg)
        *_, starts = patience_recover_generative(A, ms, net, cfg)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], starts)


def test_generative_non_finite_objective_raises():
    n = 16
    rng = _rng(14)
    net = _random_net((2, 8, n), rng)
    F = make_dft_operator(n)
    sample = draw_sample(optimized_probabilities(0.5 + rng.random(n)), 12, rng)
    b = np.full(sample.m, np.nan, dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        recover_generative(SampledOperator(F, sample), b, net, restarts=2, iters=3)


def test_generative_runs_the_full_iteration_budget():
    n = 16
    rng = _rng(12)
    net = _random_net((2, 8, n), rng)
    F = make_dft_operator(n)
    sample = draw_sample(optimized_probabilities(0.5 + rng.random(n)), 12, rng)
    ms = simulate_measurements(F, sample, generative_forward(net, rng.standard_normal(2)), 0.5, seed=3)
    res = recover_generative(SampledOperator(F, sample), ms, net, restarts=3, iters=150)
    assert res.iterations == 450


@pytest.mark.parametrize(
    "config, message",
    [
        ({"patience": 5}, "unexpected keyword argument 'patience'"),
        ({"iters": 0}, "iters must be at least 1"),
        ({"restarts": 0}, "restarts must be at least 1"),
        ({"init_pool": 0}, "init_pool must be at least 1"),
        ({"step": -1.0}, "step must be positive"),
        ({"step": 0.0}, "step must be positive"),
        ({"step": math.nan}, "step must be positive"),
        ({"restarts": True}, "restarts must be an integer, got True"),
        ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
        ({"iters": 2.5}, "iters must be an integer, got 2.5"),
        ({"init_pool": 2.5}, "init_pool must be an integer, got 2.5"),
        ({"iters": math.nan}, "iters must be an integer, got nan"),
    ],
)
def test_generative_rejects_bad_config(config, message):
    n = 16
    net = _random_net((2, 8, n), _rng(13))
    # an unknown setting, or a bool or a float for a count, is a TypeError; an out-of-range one a ValueError
    with pytest.raises(TypeError if "patience" in config or "integer" in message else ValueError, match=message):
        recover_generative(
            SampledOperator(make_dft_operator(n), _full_sample(n)), np.zeros(n, dtype=complex), net, **config
        )


# ------------------------------------------------------------------ rip check


def test_rip_full_sampling_flat_deviation_zero():
    n = 16
    F = make_dft_operator(n)
    sample = _full_sample(n)
    union = _random_union(n, 4, 3, _rng(12))
    report = rip_check(SampledOperator(F, sample), union)
    assert report["max_deviation"] < 1e-10
    assert report["holds"]
    assert report["per_subspace"].shape == (4,)


def test_rip_matches_random_search():
    n = 16
    rng = _rng(13)
    F = make_dft_operator(n)
    alpha = 0.5 + rng.random(n)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 10, 31)
    union = _random_union(n, 3, 2, rng)
    report = rip_check(SampledOperator(F, sample), union)
    brute = 0.0
    for sub in union.subspaces:
        design = apply_measurement(F, sample, sub.basis, preconditioned=True)
        w = rng.standard_normal((sub.dim, 100_000))
        w /= np.linalg.norm(w, axis=0)
        norms = np.sqrt(np.sum(np.abs(design @ w) ** 2, axis=0))
        brute = max(brute, float(np.max(np.abs(norms - 1.0))))
    assert brute <= report["max_deviation"] + 1e-12
    assert brute >= report["max_deviation"] - 1e-3


def test_rip_wide_subspace_cannot_hold():
    # one drawn row against a 2-dimensional subspace: sigma_min is zero
    n = 4
    F = make_dense_operator(np.eye(n))
    sample = DrawnSample(uniform_plan(n), [0])
    union = SubspaceUnion([Subspace(np.eye(n)[:, :2])])
    report = rip_check(SampledOperator(F, sample), union)
    assert report["per_subspace"][0] >= 1.0
    assert not report["holds"]


def test_rip_holds_with_generous_oversampling():
    n = 64
    rng = _rng(14)
    F = make_dft_operator(n)
    union = _random_union(n, 10, 3, rng)
    plan = optimized_probabilities(coherence_vector(F, union))
    held = sum(
        rip_check(SampledOperator(F, draw_sample(plan, 600, 100 + s)), union)["holds"] for s in range(10)
    )
    assert held == 10


@st.composite
def _folded_union_cases(draw):
    """(F, sample, union, b): real Haar, complex DFT and DFT.Haar, flat and skewed plans, m up to
    4n so rows repeat, a random union of 1- to 3-dimensional subspaces, sigma 0 or 0.5."""
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([8, 16, 32]))
    F = {
        "haar": lambda: make_haar_operator(n, 2),
        "dft": lambda: make_dft_operator(n),
        "dft_haar": lambda: compose_measurement_basis(make_dft_operator(n), make_haar_operator(n, 2)),
    }[draw(st.sampled_from(["haar", "dft", "dft_haar"]))]()
    skewed = draw(st.booleans())
    plan = optimized_probabilities(0.05 + rng.random(n) ** 4) if skewed else uniform_plan(n)
    sample = draw_sample(plan, draw(st.integers(1, 4 * n)), rng)
    union = _random_union(n, draw(st.integers(1, 5)), draw(st.integers(1, 3)), rng)
    x0 = _point_in(union, rng)
    b = simulate_measurements(F, sample, x0, draw(st.sampled_from([0.0, 0.5])), seed=rng)
    return F, sample, union, b


@settings(max_examples=80, deadline=None)
@given(_folded_union_cases())
def test_folded_rip_check_and_oracle_match_the_dense_draw(case):
    """rip_check's deviations are the singular values of the dense m-row D~ S F on each subspace,
    and recover_oracle's objective is the dense m-row residual of its x_hat."""
    F, sample, union, b = case
    A = SampledOperator(F, sample)
    dense = _dense_preconditioned(F, sample)
    report = rip_check(A, union)
    for sub, dev in zip(union.subspaces, report["per_subspace"]):
        block = recovery._stack_real(dense @ sub.basis)
        s = np.linalg.svd(block, compute_uv=False)
        smin = s[-1] if block.shape[0] >= block.shape[1] else 0.0
        assert abs(dev - max(s[0] - 1.0, 1.0 - smin)) <= 1e-12

    res = recover_oracle(A, b, union)
    t = sample.d_tilde * b
    r = dense @ res.x_hat - t
    assert abs(res.objective - np.real(np.vdot(r, r))) <= 1e-12 * (1.0 + np.real(np.vdot(t, t)))


# ------------------------------------------------------------------ the bounds


def _local_noise_factor(sample, alpha):
    """Spreadsheet-style reimplementation of the theorem's noise factor."""
    order = sorted(range(sample.m), key=lambda i: -sample.d_tilde[i])  # stable: ties keep draw position
    d_sorted = sample.d_tilde[order]
    a_sorted = np.asarray(alpha)[sample.omega[order]]
    v = sample.scale * d_sorted * a_sorted
    c = np.cumsum(v**2)
    idx = min(int(np.searchsorted(c, 1.0, side="left")), v.size - 1)
    trunc = np.zeros_like(v)
    trunc[:idx] = v[:idx]
    head = c[idx - 1] if idx > 0 else 0.0
    trunc[idx] = math.sqrt(max(1.0 - head, 0.0))
    return math.sqrt(float(np.sum((d_sorted * trunc) ** 2)))


def test_theorem_bound_zero_case():
    n = 8
    sample = _full_sample(n)
    alpha = np.ones(n)
    assert theorem_error_bound(noise_factor(sample, alpha), sample.m, 0.0, 2, math.log(3), t=1.0) == 0.0


def test_theorem_bound_linear_in_sigma():
    n = 16
    rng = _rng(15)
    alpha = 0.5 + rng.random(n)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 9, 37)
    nf = noise_factor(sample, alpha)
    one = theorem_error_bound(nf, sample.m, 1.0, 3, math.log(7), t=2.0)
    two = theorem_error_bound(nf, sample.m, 2.0, 3, math.log(7), t=2.0)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_theorem_bound_hand_computed():
    n = 64
    rng = _rng(16)
    alpha = 0.25 + rng.random(n)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 21, 41)
    sigma, ell, log_m_count, t, eps = 0.3, 4, math.log(11), 1.7, 1e-4
    by_hand = (
        9.0 * (sigma / math.sqrt(21)) * _local_noise_factor(sample, alpha)
        * (math.sqrt(ell) + math.sqrt(log_m_count) + t)
        + 0.25
        + 6.0 * 0.125
        + 1.5 * math.sqrt(eps)
    )
    value = theorem_error_bound(
        noise_factor(sample, alpha), sample.m, sigma, ell, log_m_count,
        t=t, epsilon=eps, mismatch_norm=0.25, preconditioned_mismatch_norm=0.125,
    )
    assert value == pytest.approx(by_hand, rel=1e-12)


def test_theorem_bound_delta_maps_to_tail():
    n = 8
    rng = _rng(17)
    alpha = 0.5 + rng.random(n)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 5, 43)
    nf = noise_factor(sample, alpha)
    via_delta = theorem_error_bound(nf, sample.m, 1.0, 2, 0.0, delta=0.05)
    via_t = theorem_error_bound(nf, sample.m, 1.0, 2, 0.0, t=math.sqrt(math.log(40.0)))
    assert via_delta == pytest.approx(via_t, rel=1e-15)


def test_bounds_reject_nan_sigma():
    """NaN fails every input check of both bounds, not only sigma's."""
    sample = _full_sample(4)
    nf = noise_factor(sample, np.ones(4))
    nan = math.nan
    with pytest.raises(ValueError, match="invalid"):
        theorem_error_bound(nf, 4, nan, 2, 0.0, t=1.0)
    with pytest.raises(ValueError, match="sigma"):
        deterministic_corollary_bound(sample, np.ones(4), nan)
    for args, kwargs in (
        ((nan, 4, 1.0, 2, 0.0), {"t": 1.0}),
        ((nf, 4, 1.0, 2, nan), {"t": 1.0}),
        ((nf, 4, 1.0, 2, 0.0), {"t": nan}),
        ((nf, 4, 1.0, 2, 0.0), {"t": 1.0, "epsilon": nan}),
    ):
        with pytest.raises(ValueError, match="invalid"):
            theorem_error_bound(*args, **kwargs)
    with pytest.raises(ValueError, match="delta"):
        theorem_error_bound(nf, 4, 1.0, 2, 0.0, delta=nan)
    for key in ("mismatch_norm", "preconditioned_mismatch_norm"):
        with pytest.raises(ValueError, match="mismatch"):
            theorem_error_bound(nf, 4, 1.0, 2, 0.0, t=1.0, **{key: nan})


def test_theorem_bound_input_validation():
    n = 4
    nf, m = noise_factor(_full_sample(n), np.ones(n)), n
    with pytest.raises(ValueError, match="exactly one"):
        theorem_error_bound(nf, m, 1.0, 2, 0.0)
    with pytest.raises(ValueError, match="exactly one"):
        theorem_error_bound(nf, m, 1.0, 2, 0.0, delta=0.1, t=1.0)
    with pytest.raises(ValueError, match="delta"):
        theorem_error_bound(nf, m, 1.0, 2, 0.0, delta=1.5)
    for bad_nf, bad_m in ((-1.0, m), (nf, 0)):
        with pytest.raises(ValueError, match="invalid"):
            theorem_error_bound(bad_nf, bad_m, 1.0, 2, 0.0, t=1.0)


def test_corollary_flat_alpha_grows_with_m():
    n = 16
    alpha = 0.7 * np.ones(n)
    plan = optimized_probabilities(alpha)
    single = draw_sample(plan, 8, 47)
    double = draw_sample(plan, 16, 53)
    sigma = 0.9
    assert deterministic_corollary_bound(single, alpha, sigma) == pytest.approx(
        sigma * math.sqrt(8), rel=1e-12
    )
    ratio = deterministic_corollary_bound(double, alpha, sigma) / deterministic_corollary_bound(
        single, alpha, sigma
    )
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_corollary_single_measurement():
    n = 9
    rng = _rng(18)
    alpha = 0.5 + rng.random(n)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 1, 59)
    expect = 0.4 * np.linalg.norm(alpha) / (math.sqrt(n) * alpha[sample.omega[0]])
    assert deterministic_corollary_bound(sample, alpha, 0.4) == pytest.approx(expect, rel=1e-12)


def test_corollary_rejects_zero_coherence_rows():
    sample = DrawnSample(uniform_plan(4), [1])
    with pytest.raises(ValueError, match="positive coherence"):
        deterministic_corollary_bound(sample, np.array([1.0, 0.0, 1.0, 1.0]), 0.5)


def test_relative_recovery_error_examples():
    assert relative_recovery_error(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 0.0
    assert relative_recovery_error(np.array([3.0, 4.0]), np.zeros(2)) == 1.0
    assert relative_recovery_error(np.array([3.0, 4.0]), np.array([0.0, 4.0])) == pytest.approx(0.6)
    with pytest.raises(ValueError, match="zero truth"):
        relative_recovery_error(np.zeros(3), np.ones(3))


# ------------------------------------------------------------------ invariants


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_noiseless_exactness_both_fields(kind):
    n = 32
    rng = _rng(19)
    if kind == "complex":
        F = make_dft_operator(n)
    else:
        F = make_dense_operator(random_orthogonal(n, rng))
    union = _random_union(n, 5, 2, rng)
    plan = optimized_probabilities(coherence_vector(F, union))
    for trial in range(10):
        sample = draw_sample(plan, 60, 500 + trial)
        if not rip_check(SampledOperator(F, sample), union)["holds"]:
            continue
        x0 = _point_in(union, rng)
        ms = simulate_measurements(F, sample, x0, 0.0)
        res = recover_oracle(SampledOperator(F, sample), ms, union)
        assert np.linalg.norm(res.x_hat - x0) <= 1e-6 * (1.0 + np.linalg.norm(x0))


def test_bound_validity_rate():
    n, trials = 32, 120
    rng = _rng(20)
    F = make_dft_operator(n)
    union = _random_union(n, 6, 2, rng)
    alpha = coherence_vector(F, union)
    plan = optimized_probabilities(alpha)
    log_m_count = math.log(union.M)
    valid = 0
    for trial in range(trials):
        sample = draw_sample(plan, 48, 700 + trial)
        x0 = _point_in(union, rng)
        ms = simulate_measurements(F, sample, x0, 0.5, seed=9000 + trial)
        res = recover_oracle(SampledOperator(F, sample), ms, union)
        bound = theorem_error_bound(
            noise_factor(sample, alpha), sample.m, 0.5, union.max_dim, log_m_count, delta=0.05
        )
        if np.linalg.norm(res.x_hat - x0) <= bound:
            valid += 1
    assert valid >= 0.95 * trials


def test_objective_consistency_oracle():
    n = 16
    rng = _rng(21)
    F = make_dft_operator(n)
    union = _random_union(n, 4, 2, rng)
    plan = optimized_probabilities(coherence_vector(F, union))
    from vdslab.priors import project

    for trial in range(25):
        sample = draw_sample(plan, 14, 1500 + trial)
        x0 = _point_in(union, rng) + 0.05 * rng.standard_normal(n)
        ms = simulate_measurements(F, sample, x0, 0.3, seed=1600 + trial)
        res = recover_oracle(SampledOperator(F, sample), ms, union)
        reference = objective(SampledOperator(F, sample), project(union, x0), ms)
        assert res.objective <= reference + 1e-9


def test_recovery_result_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        RecoveryResult(np.zeros(2), -1.0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        RecoveryResult(np.zeros(2), math.nan, 1)
