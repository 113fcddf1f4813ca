"""Sampling plans, draws, truncation, noise factors, and their bounds."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_orthogonal, random_unitary, scatter_adjoint_measurement

from vdslab.sampling import (
    DrawnSample,
    SampledOperator,
    SamplingPlan,
    _sorted_gathers,
    apply_measurement,
    complexity_mu,
    draw_sample,
    load_plan_csv,
    make_plan,
    noise_factor,
    noise_factor_bounds,
    optimized_probabilities,
    sample_complexity,
    save_plan_csv,
    uniform_plan,
    unit_truncation,
)
from vdslab.transforms import (
    compose_measurement_basis,
    make_dense_operator,
    make_dft_operator,
    make_haar_operator,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _positive_alpha(n, rng):
    return 0.5 + rng.random(n)


# ---------------------------------------------------------------- plans


def test_optimized_flat_coherences():
    plan = optimized_probabilities(np.ones(4))
    assert np.allclose(plan.p, 0.25, atol=1e-15)
    assert np.allclose(plan.d, 1.0, atol=1e-15)


def test_optimized_matches_normalized_squares():
    plan = optimized_probabilities(np.array([2.0, 1.0, 1.0]))
    assert np.allclose(plan.p, [4 / 6, 1 / 6, 1 / 6], atol=1e-15)


def test_optimized_excludes_zero_rows():
    plan = optimized_probabilities(np.array([1.0, 0.0, 1.0]))
    assert np.allclose(plan.p, [0.5, 0.0, 0.5], atol=1e-15)
    assert plan.d[1] == 0.0
    assert np.allclose(plan.d[[0, 2]], math.sqrt(2) / math.sqrt(3), atol=1e-15)


def test_optimized_rejects_zero_alpha():
    with pytest.raises(ValueError):
        optimized_probabilities(np.zeros(3))


@pytest.mark.parametrize("alpha", [[-0.1, 0.5], [0.1, np.inf], [0.1, np.nan]])
def test_optimized_rejects_negative_or_nonfinite_alpha(alpha):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        optimized_probabilities(np.array(alpha))


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(np.array([0.5, 0.4]), np.ones(2))  # sums to 0.9
    with pytest.raises(ValueError):
        SamplingPlan(np.array([0.5, 0.5]), np.array([1.0, 2.0]))  # d mismatch
    with pytest.raises(ValueError):
        SamplingPlan(np.array([1.0, 0.0]), np.array([1.0 / math.sqrt(2), 3.0]))


def test_uniform_plan_identity_preconditioner():
    plan = uniform_plan(8)
    assert np.allclose(plan.d, 1.0, atol=1e-15)


# ---------------------------------------------------------------- complexity


def test_mu_flat():
    assert complexity_mu(np.array([1.0, 1.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.sqrt(2)
    )


def test_mu_optimized_equals_alpha_norm():
    rng = _rng(40)
    alpha = _positive_alpha(16, rng)
    plan = optimized_probabilities(alpha)
    assert complexity_mu(alpha, plan.p) == pytest.approx(np.linalg.norm(alpha), abs=1e-12)


def test_mu_uniform_example():
    got = complexity_mu(np.array([2.0, 1.0, 1.0]), np.full(3, 1 / 3))
    assert got == pytest.approx(2 * math.sqrt(3), abs=1e-12)


def test_mu_infinite_reported():
    with pytest.raises(ValueError):
        complexity_mu(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_mu_optimality_over_random_plans():
    """p' minimizes mu uniquely: 100 random alphas, 50 perturbed plans each worse."""
    rng = _rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        alpha = _positive_alpha(n, rng)
        plan = optimized_probabilities(alpha)
        mu_opt = complexity_mu(alpha, plan.p)
        assert mu_opt == pytest.approx(np.linalg.norm(alpha), abs=1e-12)
    alpha = _positive_alpha(16, _rng(42))
    plan = optimized_probabilities(alpha)
    mu_opt = complexity_mu(alpha, plan.p)
    for _ in range(50):
        q = plan.p * (1 + 0.2 * _rng(43).random(16)) + 1e-3 * _rng(44).random(16)
        q = q / q.sum()
        if np.allclose(q, plan.p, atol=1e-15):
            continue
        assert complexity_mu(alpha, q) > mu_opt


# ---------------------------------------------------------------- draws


def test_degenerate_plan_draws_single_row():
    plan = make_plan(np.array([1.0]))
    sample = draw_sample(plan, 5, 0)
    assert np.array_equal(sample.omega, np.zeros(5, dtype=np.int64))


def test_draw_frequencies_near_uniform():
    """Law of large numbers: 1e5 draws within one percentage point of 1/4."""
    plan = uniform_plan(4)
    sample = draw_sample(plan, 100_000, 7)
    freq = np.bincount(sample.omega, minlength=4) / sample.m
    assert np.max(np.abs(freq - 0.25)) <= 0.01


def test_draw_never_hits_excluded_rows():
    plan = optimized_probabilities(np.array([1.0, 0.0, 1.0]))
    sample = draw_sample(plan, 10_000, 8)
    assert not np.any(sample.omega == 1)


def test_draw_never_lands_on_an_excluded_last_row():
    """p sums to 1 - 4e-13, which the plan accepts, and its last row is excluded: a u above the
    last supported row's cumulative sum still draws that row."""
    plan = make_plan(np.array([0.3, 0.7 - 4e-13, 0.0]))
    rng = mock.Mock(spec=np.random.Generator)
    rng.random.return_value = np.array([1.0 - 1e-13])
    assert draw_sample(plan, 1, rng).omega.tolist() == [1]


def test_draw_keeps_draw_order():
    """omega and d_tilde stay in draw order, read-only, with d_tilde gathered from the plan."""
    rng = _rng(45)
    plan = optimized_probabilities(_positive_alpha(32, rng))
    sample = draw_sample(plan, 50, 9)
    assert np.array_equal(sample.d_tilde, plan.d[sample.omega])
    assert np.any(np.diff(sample.d_tilde) > 0)  # this draw is not sorted by d
    assert not sample.omega.flags.writeable and not sample.d_tilde.flags.writeable
    assert sample.scale == pytest.approx(math.sqrt(32 / 50))


def test_draw_order_sorts_d_nonincreasing():
    """The noise factor's gathers sort d_tilde non-increasing, gathered from the plan, and lead
    with noise_factor_bounds' max_Sd."""
    rng = _rng(45)
    alpha = _positive_alpha(32, rng)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 50, 9)
    d_sorted, alpha_sorted = _sorted_gathers(sample, alpha)
    order = np.argsort(-sample.d_tilde, kind="stable")
    assert np.all(np.diff(d_sorted) <= 0)
    assert np.array_equal(d_sorted, plan.d[sample.omega[order]])
    assert np.array_equal(alpha_sorted, alpha[sample.omega[order]])
    assert d_sorted[0] == noise_factor_bounds(plan, sample, alpha, 1.0)["max_Sd"] == sample.d_tilde.max()
    assert sample.scale == pytest.approx(math.sqrt(32 / 50))


def test_draw_tie_break_is_stable_in_draw_position():
    """Tied d_tilde keep draw position in the noise factor's sort; an all-tied uniform draw
    keeps its draw order."""
    rng = _rng(46)
    alpha = np.repeat(_positive_alpha(8, rng), 4)  # every coherence tied four ways
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 50, 9)
    d_sorted, alpha_sorted = _sorted_gathers(sample, alpha)
    order = sorted(range(sample.m), key=lambda i: -sample.d_tilde[i])  # Python's sort is stable
    assert np.array_equal(d_sorted, sample.d_tilde[order])
    assert np.array_equal(alpha_sorted, alpha[sample.omega[order]])

    flat = draw_sample(uniform_plan(4), 20, 10)
    _, alpha_flat = _sorted_gathers(flat, alpha[:4])
    assert np.array_equal(alpha_flat, alpha[:4][flat.omega])


def test_draws_deterministic_per_seed():
    plan = uniform_plan(16)
    a = draw_sample(plan, 64, 123)
    b = draw_sample(plan, 64, 123)
    c = draw_sample(plan, 64, 124)
    assert np.array_equal(a.omega, b.omega)
    assert not np.array_equal(a.omega, c.omega)


# ---------------------------------------------------------------- truncation


def test_truncation_first_entry_unit():
    out = unit_truncation(np.array([1.0, 0.5, 0.2]))
    assert np.array_equal(out, [1, 0, 0])


def test_truncation_oversized_entry():
    assert np.array_equal(unit_truncation(np.array([2.0, 2.0])), [1, 0])


def test_truncation_adjusts_third_entry():
    out = unit_truncation(np.array([0.6, 0.6, 0.6]))
    assert np.allclose(out, [0.6, 0.6, math.sqrt(0.28)], atol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_truncation_rejects_short_vectors():
    with pytest.raises(ValueError):
        unit_truncation(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        unit_truncation(np.array([0.1, -0.2, 2.0]))


def test_truncation_handles_exactly_unit_input():
    out = unit_truncation(np.array([0.6, 0.8]))
    assert np.allclose(out, [0.6, 0.8], atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=20).filter(
        lambda v: sum(x * x for x in v) >= 1.0
    )
)
def test_truncation_properties(entries):
    v = np.array(entries)
    out = unit_truncation(v)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)
    assert np.all(out <= v + 1e-12)  # never grows an entry
    nz = np.nonzero(out)[0]
    if nz.size:
        assert np.array_equal(out[: nz[-1]], v[: nz[-1]])  # prefix copied


# ---------------------------------------------------------------- noise factor


def test_noise_factor_optimized_truncation_count():
    """Optimized plans feed a constant vector into the truncation, which then
    keeps ceil(m / ||alpha||^2) entries."""
    rng = _rng(46)
    alpha = _positive_alpha(32, rng)
    plan = optimized_probabilities(alpha)
    m = 48
    assert m >= np.sum(alpha**2)  # truncation defined
    sample = draw_sample(plan, m, 11)
    sd_alpha = sample.scale * sample.d_tilde * alpha[sample.omega]
    assert np.allclose(sd_alpha, np.linalg.norm(alpha) / math.sqrt(m), atol=1e-12)
    kept = np.count_nonzero(unit_truncation(sd_alpha))
    assert kept == math.ceil(m / np.sum(alpha**2))
    noise_factor(sample, alpha)  # defined, no error


def test_noise_factor_uniform_flat_is_one():
    """With d identically 1 the factor is the norm of a unit truncation: 1."""
    n, s, m = 16, 3, 8
    plan = uniform_plan(n)
    alpha = np.full(n, math.sqrt(s / n))
    sample = draw_sample(plan, m, 12)
    assert noise_factor(sample, alpha) == pytest.approx(1.0, abs=1e-12)


def test_noise_factor_matches_dense_evaluation():
    rng = _rng(47)
    alpha = _positive_alpha(16, rng)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 20, 13)
    got = noise_factor(sample, alpha)
    # independent dense arithmetic, straight from the definitions
    omega = sample.omega[np.argsort(-plan.d[sample.omega], kind="stable")]
    d_t = plan.d[omega]
    v = math.sqrt(16 / 20) * d_t * alpha[omega]
    c = np.cumsum(v**2)
    i = int(np.searchsorted(c, 1.0, side="left"))
    t = np.zeros_like(v)
    t[:i] = v[:i]
    t[i] = math.sqrt(1 - (c[i - 1] if i else 0.0))
    assert got == pytest.approx(float(np.linalg.norm(d_t * t)), abs=1e-12)


def test_noise_factor_short_vector_error_propagates():
    alpha = np.full(4, 0.5)  # ||alpha|| = 1
    plan = optimized_probabilities(alpha)
    # m=0 invalid anyway; use m < ||alpha||^2 boundary: m must satisfy m >= 1
    sample = draw_sample(plan, 1, 14)
    # S D alpha has a single entry 1/sqrt(1) = 1 -> fine at the boundary
    assert noise_factor(sample, alpha) == pytest.approx(1.0, abs=1e-12)


def test_noise_factor_rejects_alpha_of_the_wrong_length():
    sample = draw_sample(uniform_plan(8), 5, 17)
    with pytest.raises(ValueError, match="alpha length"):
        noise_factor(sample, np.ones(16))


def test_bounds_coincide_for_flat_unit_alpha():
    alpha = np.full(4, 0.5)  # ||alpha|| = 1, optimized plan is uniform
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 4, 15)
    nf = noise_factor(sample, alpha)
    bounds = noise_factor_bounds(plan, sample, alpha, t=1.0)
    assert nf == pytest.approx(1.0, abs=1e-12)
    for key in ("max_Sd", "max_d", "truncated_SD2alpha_norm", "optimized_closed_bound"):
        assert bounds[key] == pytest.approx(1.0, abs=1e-12)


def test_noise_factor_below_bounds_over_draws():
    """1000 optimized draws: the factor never exceeds any reported bound."""
    rng = _rng(48)
    alpha = _positive_alpha(16, rng)
    plan = optimized_probabilities(alpha)
    stream = _rng(49)
    t = 16 * np.min(alpha) ** 2  # closed bound reduces to its deterministic part
    for _ in range(1000):
        sample = draw_sample(plan, 12, stream)
        nf = noise_factor(sample, alpha)
        bounds = noise_factor_bounds(plan, sample, alpha, t=min(t, 1.0))
        assert nf <= bounds["max_Sd"] + 1e-12
        assert bounds["max_Sd"] <= bounds["max_d"] + 1e-12
        assert nf <= bounds["truncated_SD2alpha_norm"] + 1e-12
        assert nf <= bounds["optimized_closed_bound"] + 1e-12


@pytest.mark.parametrize("t", [float("nan"), 0.0, -0.5])
def test_noise_factor_bounds_reject_nonpositive_t(t):
    alpha = np.full(4, 0.5)
    plan = optimized_probabilities(alpha)
    with pytest.raises(ValueError, match="t must be positive"):
        noise_factor_bounds(plan, draw_sample(plan, 4, 15), alpha, t)


def test_optimized_max_d_closed_form():
    rng = _rng(50)
    alpha = _positive_alpha(8, rng)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, 10, 16)
    bounds = noise_factor_bounds(plan, sample, alpha, t=0.5)
    expected = np.linalg.norm(alpha) / (math.sqrt(8) * np.min(alpha))
    assert bounds["max_d"] == pytest.approx(expected, abs=1e-12)


def test_markov_tail_fraction():
    """Fraction of draws with factor above ||alpha||/sqrt(t) stays below t."""
    rng = _rng(51)
    alpha = _positive_alpha(64, rng)
    plan = optimized_probabilities(alpha)
    stream = _rng(52)
    draws = 10_000
    factors = np.empty(draws)
    for i in range(draws):
        factors[i] = noise_factor(draw_sample(plan, 16, stream), alpha)
    norm = np.linalg.norm(alpha)
    for t in (0.1, 0.25):
        assert np.mean(factors > norm / math.sqrt(t)) <= t


def test_mean_preconditioner_mass():
    """E ||S d||^2 = n within 2 percent, estimated from 1e5 draws."""
    rng = _rng(53)
    n, m, draws = 16, 4, 100_000
    alpha = _positive_alpha(n, rng)
    plan = optimized_probabilities(alpha)
    stream = _rng(54)
    omegas = np.searchsorted(
        np.cumsum(plan.p), stream.random((draws, m)), side="right"
    )
    mass = (n / m) * np.sum(plan.d[omegas] ** 2, axis=1)
    assert abs(np.mean(mass) - n) <= 0.02 * n


def test_isotropy_of_preconditioned_matrix():
    """Average of (SDF)*(SDF) over 2e4 draws stays within 0.05 of identity."""
    rng = _rng(55)
    n, m, draws = 16, 4, 20_000
    alpha = _positive_alpha(n, rng)
    plan = optimized_probabilities(alpha)
    f = make_dft_operator(n).matrix()
    stream = _rng(56)
    omegas = np.searchsorted(np.cumsum(plan.p), stream.random((draws, m)), side="right")
    counts = np.bincount(omegas.ravel(), minlength=n)
    weights = (n / m) * plan.d**2 * counts / draws
    avg = f.conj().T @ (weights[:, None] * f)
    dev = np.linalg.norm(avg - np.eye(n), ord=2)
    assert dev <= 0.05


# ---------------------------------------------------------------- complexity function


def test_sample_complexity_degenerate_clamps_to_one():
    assert sample_complexity(1.0, 1, 0.0, 1.0, C=2.0) == 1


def test_sample_complexity_quadratic_in_mu():
    base = sample_complexity(2.0, 4, 1.0, 0.1, C=1.0)
    doubled = sample_complexity(4.0, 4, 1.0, 0.1, C=1.0)
    raw = 4.0 * (math.log(4) + 1.0 + math.log(10))
    assert base == math.ceil(raw)
    assert doubled == math.ceil(4 * raw)


def test_sample_complexity_optimized_shape():
    alpha = np.array([1.0, 2.0, 0.5])
    mu = float(np.linalg.norm(alpha))
    m = sample_complexity(mu, 3, math.log(7), 0.05, C=1.5)
    assert m == math.ceil(1.5 * mu**2 * (math.log(3) + math.log(7) + math.log(20)))


# ---------------------------------------------------------------- measurement


def test_apply_measurement_repeated_row():
    plan = make_plan(np.array([0.0, 1.0]))
    sample = draw_sample(plan, 2, 17)
    assert np.array_equal(sample.omega, [1, 1])
    out = apply_measurement(make_haar_operator(2, 0), sample, np.array([3.0, 5.0]))
    assert np.allclose(out, [5.0, 5.0], atol=1e-15)


def test_apply_measurement_flat_preconditioner_is_noop():
    plan = optimized_probabilities(np.ones(8))
    sample = draw_sample(plan, 6, 18)
    op = make_dft_operator(8)
    x = _rng(57).standard_normal(8)
    plain = apply_measurement(op, sample, x, preconditioned=False)
    pre = apply_measurement(op, sample, x, preconditioned=True)
    assert np.allclose(plain, pre, atol=1e-15)


def test_apply_measurement_matches_dense_oracle():
    rng = _rng(58)
    n, m = 8, 5
    op = make_dense_operator(random_orthogonal(n, rng))
    alpha = _positive_alpha(n, rng)
    plan = optimized_probabilities(alpha)
    sample = draw_sample(plan, m, 19)
    x = rng.standard_normal((n, 3))
    dense = op.matrix()[sample.omega] * math.sqrt(n / m)
    assert np.max(np.abs(apply_measurement(op, sample, x) - dense @ x)) < 1e-10
    dense_pre = (plan.d[sample.omega][:, None] * op.matrix()[sample.omega]) * math.sqrt(n / m)
    got_pre = apply_measurement(op, sample, x, preconditioned=True)
    assert np.max(np.abs(got_pre - dense_pre @ x)) < 1e-10


# ---------------------------------------------------------------- diagonal projection lemmas


def test_diagonal_projection_bound_500_instances():
    """||D~ proj_U|| <= ||D~ T(beta)|| for random subspaces and sorted d."""
    rng = _rng(59)
    for _ in range(500):
        m = int(rng.integers(2, 65))
        ell = int(rng.integers(1, min(m, 8) + 1))
        basis = np.linalg.qr(rng.standard_normal((m, ell)))[0]
        d_tilde = np.sort(0.1 + rng.random(m))[::-1]
        beta = np.linalg.norm(basis, axis=1)  # canonical-basis coherences
        lhs = np.linalg.svd(d_tilde[:, None] * basis, compute_uv=False)[0]
        rhs = np.linalg.norm(d_tilde * unit_truncation(beta))
        assert lhs <= rhs + 1e-10


def test_paired_diagonal_projection_bound_500_instances():
    """Same bound with coordinate pairs (2i-1, 2i) sharing d~_i in R^{2m}."""
    rng = _rng(60)
    for _ in range(500):
        m = int(rng.integers(2, 65))
        ell = int(rng.integers(2, min(2 * m, 8) + 1))
        basis = np.linalg.qr(rng.standard_normal((2 * m, ell)))[0]
        d_tilde = np.sort(0.1 + rng.random(m))[::-1]
        # beta_i: exact sup of sqrt(u_{2i-1}^2 + u_{2i}^2) over unit u
        pairs = basis.reshape(m, 2, ell)
        beta = np.linalg.svd(pairs, compute_uv=False)[:, 0]
        d_bar = np.repeat(d_tilde, 2)
        lhs = np.linalg.svd(d_bar[:, None] * basis, compute_uv=False)[0]
        rhs = np.linalg.norm(d_tilde * unit_truncation(beta))
        assert lhs <= rhs + 1e-10


# ---------------------------------------------------------------- serialization


def test_plan_csv_round_trip(tmp_path):
    plan = optimized_probabilities(np.array([2.0, 1.0, 1.0]))
    path = tmp_path / "plan.csv"
    save_plan_csv(plan, path)
    back = load_plan_csv(path)
    assert np.array_equal(back.p, plan.p)
    assert np.array_equal(back.d, plan.d)


# ---------------------------------------------------------------- folded system


# operator kind -> (constructor from (n, rng), whether conjugate_rows is an exact P);
# the inexact ones are complex maps with no conjugate-row permutation
_FOLD_KINDS = {
    "dft1d": (lambda n, rng: make_dft_operator(n), True),
    "dft2d": (lambda n, rng: make_dft_operator(n, two_dim=True), True),
    "haar1d": (lambda n, rng: make_haar_operator(n, 2), True),
    "haar2d": (lambda n, rng: make_haar_operator(n, 2, two_dim=True), True),
    "dense_real": (lambda n, rng: make_dense_operator(random_orthogonal(n, rng)), True),
    "dft_haar": (
        lambda n, rng: compose_measurement_basis(make_dft_operator(n), make_haar_operator(n, 2)), True
    ),
    "dft2_haar2": (
        lambda n, rng: compose_measurement_basis(
            make_dft_operator(n, two_dim=True), make_haar_operator(n, 2, two_dim=True)
        ),
        True,
    ),
    "dense_complex": (lambda n, rng: make_dense_operator(random_unitary(n, rng)), False),
    "dft_dft": (lambda n, rng: compose_measurement_basis(make_dft_operator(n), make_dft_operator(n)), False),
    "haar_dft": (
        lambda n, rng: compose_measurement_basis(make_haar_operator(n, 2), make_dft_operator(n)), False
    ),
}


@st.composite
def _folded_cases(draw):
    """(A, b, X, exact): every operator kind, 1-D and 2-D, draws of up to 4n rows (so rows
    repeat), flat and skewed plans (some skewed rows excluded), sigma 0 or 0.5; X holds the
    truth and random signals, and ``exact`` says whether the kind has a conjugate-row permutation."""
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(sorted(_FOLD_KINDS)))
    make, exact = _FOLD_KINDS[kind]
    n = draw(st.sampled_from([16, 64] if kind in ("dft2d", "haar2d", "dft2_haar2") else [8, 16, 32]))
    F = make(n, rng)
    if draw(st.booleans()):
        plan = uniform_plan(n)
    else:
        p = rng.random(n) ** 4 * (rng.random(n) > 0.25)
        p[rng.integers(n)] += 1.0
        plan = make_plan(p / p.sum())
    m = draw(st.integers(1, 4 * n))
    sample = draw_sample(plan, m, rng)
    x = rng.standard_normal((n, 3))
    noise = rng.standard_normal(m) + (1j * rng.standard_normal(m) if F.field == "complex" else 0.0)
    b = apply_measurement(F, sample, x[:, 0]) + draw(st.sampled_from([0.0, 0.5])) / math.sqrt(m) * noise
    return SampledOperator(F, sample), b, x, exact


@settings(max_examples=80, deadline=None)
@given(_folded_cases())
def test_folded_system_matches_the_raw_draw(case):
    """Folded residual plus const is ||M x - D~ b||^2, and 2 Re of the folded adjoint of the
    folded residual is the gradient 2 Re M*(M x - D~ b), both checked on the m-row M = D~ S F
    (the preconditioned measurement and the scatter adjoint)."""
    A, b, x, _ = case
    u, const = A.fold(b)
    t = A.sample.d_tilde * b
    assert const >= 0.0
    assert np.array_equal(A.rows, np.unique(A.sample.omega))

    raw_fx = apply_measurement(A.F, A.sample, x, preconditioned=True)
    raw_r = raw_fx - t[:, None]
    fold_r = A.forward(x) - u[:, None]
    raw_obj = np.sum(np.abs(raw_r) ** 2, axis=0)
    fold_obj = np.sum(np.abs(fold_r) ** 2, axis=0) + const
    size = np.sum(np.abs(raw_fx) ** 2, axis=0) + np.real(np.vdot(t, t))
    assert np.all(np.abs(fold_obj - raw_obj) <= 1e-12 * (1.0 + size))

    def adjoint(v):
        return scatter_adjoint_measurement(A.F, A.sample, v)

    fold_g = 2.0 * np.real(A.adjoint(fold_r))
    for j in range(x.shape[1]):
        raw_g = 2.0 * np.real(adjoint(raw_r[:, j]))
        g_size = np.linalg.norm(adjoint(raw_fx[:, j])) + np.linalg.norm(adjoint(t))
        assert np.linalg.norm(fold_g[:, j] - raw_g) <= 1e-12 * (1.0 + g_size)
        single_g = 2.0 * np.real(A.adjoint(A.forward(x[:, j]) - u))
        assert np.linalg.norm(single_g - fold_g[:, j]) <= 1e-12 * (1.0 + g_size)


def test_drawn_row_of_zero_weight_is_rejected():
    """A row the plan excludes (d = 0) cannot be part of a draw, wherever it sits."""
    n = 16
    p = np.ones(n)
    p[3] = 0.0
    plan = make_plan(p / p.sum())
    for omega in ([3, 5, 5, 7, 3, 9], [5, 7, 3], [3, 5, 7], [3]):
        with pytest.raises(ValueError, match="d_tilde > 0"):
            DrawnSample(plan, omega)
    DrawnSample(plan, [5, 7, 2])  # every row in the support


def test_drawn_row_out_of_range_is_rejected():
    """Indices below 0 or at n and beyond are outside the plan."""
    plan = uniform_plan(8)
    for omega in ([2, 8], [0, -1], [8], [3, 100]):
        with pytest.raises(ValueError, match="outside the plan"):
            DrawnSample(plan, omega)


def test_empty_draw_is_rejected():
    """A DrawnSample with m = 0 names the empty draw."""
    with pytest.raises(ValueError, match="draw is empty"):
        DrawnSample(uniform_plan(8), np.array([], dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(_folded_cases())
def test_folded_norm_is_the_dense_gram_norm(case):
    """conj(F x) == (F x)[P] for real x, and the closed-form norm_sq is ||Re(M^H M)||_2 of the
    dense m-row M = D~ S F: equal where P exists, an upper bound where not."""
    A, b, x, exact = case
    M = apply_measurement(A.F, A.sample, np.eye(A.F.n), preconditioned=True)
    want = np.linalg.norm(np.real(M.conj().T @ M), 2)
    if exact:
        fx = A.F.forward(x)
        assert np.allclose(np.conj(fx), fx[A.F.conjugate_rows()], rtol=0, atol=1e-12 * np.abs(fx).max())
        assert A.norm_sq == pytest.approx(want, rel=1e-12)
    else:
        assert A.norm_sq >= want * (1.0 - 1e-12)
