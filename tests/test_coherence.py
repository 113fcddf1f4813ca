"""Local coherence closed forms, bounds, and the empirical estimator."""

import math
from itertools import combinations

import numpy as np
import pytest

from oracles import random_orthogonal

from vdslab.coherence import (
    CoherenceVector,
    coherence_vector,
    empirical_generative_coherence,
    load_coherence_csv,
    save_coherence_csv,
    sparse_coherence_exact,
    sparse_coherence_upper,
    sparse_coherence_vector,
    subspace_row_coherence,
)
from vdslab.priors import (
    GenerativeNetwork,
    Subspace,
    SubspaceUnion,
    difference_union,
    generative_forward,
    subspace_from_span,
    SparsePrior,
)
from vdslab.transforms import make_dense_operator, make_dft_operator, make_haar_operator, row_vector


def _identity_op(n):
    return make_haar_operator(n, 0)


def _brute_row_coherence(f, basis, rng, samples=100_000):
    """Random-search lower bound on sup |f* x| over unit x in span(basis)."""
    r = basis.T @ np.conj(f)
    w = rng.standard_normal((basis.shape[1], samples))
    w /= np.linalg.norm(w, axis=0)
    return float(np.max(np.abs(r @ w)))


def _svd_row_coherence(f, basis):
    """Exact sup via the stacked real/imaginary SVD."""
    r = basis.T @ np.conj(f)
    return float(np.linalg.svd(np.vstack([r.real, r.imag]), compute_uv=False)[0])


def test_row_coherence_aligned_and_orthogonal():
    e = np.eye(3)
    assert subspace_row_coherence(e[:, 0], e[:, [0]]) == pytest.approx(1.0, abs=1e-14)
    assert subspace_row_coherence(e[:, 0], e[:, [1]]) == pytest.approx(0.0, abs=1e-14)


def test_row_coherence_matches_brute_force():
    """Closed form dominates and is approached by random search (+0/-1e-3)."""
    rng = np.random.default_rng(21)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    basis = subspace_from_span(rng.standard_normal((8, 3))).basis
    closed = subspace_row_coherence(f, basis)
    brute = _brute_row_coherence(f, basis, rng)
    assert brute <= closed + 1e-12
    assert closed - brute <= 1e-3


def test_row_coherence_matches_svd():
    rng = np.random.default_rng(22)
    for _ in range(10):
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        basis = subspace_from_span(rng.standard_normal((6, 2))).basis
        assert subspace_row_coherence(f, basis) == pytest.approx(
            _svd_row_coherence(f, basis), abs=1e-12
        )


def test_coherence_vector_identity_lines():
    """Identity rows against the 1-sparse lines give all-ones coherence."""
    union = difference_union(SparsePrior(4, 1))
    lines = SubspaceUnion([Subspace(np.eye(4)[:, [j]]) for j in range(4)])
    cv = coherence_vector(_identity_op(4), lines)
    assert np.allclose(cv.alpha, np.ones(4), atol=1e-12)
    assert cv.method == "exact"
    # the 2-sparse difference union only enlarges it
    cv2 = coherence_vector(_identity_op(4), union)
    assert np.all(cv2.alpha >= cv.alpha - 1e-12)


def test_coherence_single_line_is_entry_magnitude():
    cv = coherence_vector(make_dft_operator(4), Subspace(np.eye(4)[:, [0]]))
    assert np.allclose(cv.alpha, 0.5 * np.ones(4), atol=1e-12)


def test_coherence_vector_agrees_with_row_function():
    rng = np.random.default_rng(23)
    op = make_dft_operator(8)
    union = SubspaceUnion(
        [subspace_from_span(rng.standard_normal((8, d))) for d in (1, 2, 3)]
    )
    cv = coherence_vector(op, union)
    for j in (1, 3, 8):
        expected = max(
            subspace_row_coherence(row_vector(op, j), s.basis) for s in union.subspaces
        )
        assert cv.alpha[j - 1] == pytest.approx(expected, abs=1e-12)


def test_sparse_upper_bound_trivial_rows():
    assert sparse_coherence_upper(np.array([1.0, 0, 0, 0]), 2) == pytest.approx(1.0)
    op = make_dft_operator(8)
    for j in (1, 5):
        assert sparse_coherence_upper(row_vector(op, j), 3) == pytest.approx(
            math.sqrt(3 / 8), abs=1e-12
        )


def test_sparse_vector_flat_for_dft():
    """DFT rows have flat magnitudes, so every bound equals sqrt(s/n)."""
    cv = sparse_coherence_vector(make_dft_operator(8), 3)
    assert np.allclose(cv.alpha, math.sqrt(3 / 8), atol=1e-12)
    assert cv.method == "upper_bound"


def test_sparse_exact_matches_supportwise_svd():
    rng = np.random.default_rng(24)
    op = make_dft_operator(8)
    s = 2
    cv = sparse_coherence_exact(op, s)
    mat = op.matrix()
    eye = np.eye(8)
    for j in range(8):
        f = mat[j].conj()  # row as measured: f* x = (Fx)_j
        best = max(
            _svd_row_coherence(f, eye[:, list(sup)]) for sup in combinations(range(8), s)
        )
        assert cv.alpha[j] == pytest.approx(best, abs=1e-12)


def test_sparse_upper_dominates_exact():
    rng = np.random.default_rng(25)
    op = make_haar_operator(6, 0)  # identity; replace rows directly below
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    eye = np.eye(6)
    exact = max(
        _svd_row_coherence(f, eye[:, list(sup)]) for sup in combinations(range(6), 2)
    )
    assert sparse_coherence_upper(f, 2) >= exact - 1e-12


def test_sparse_exact_vs_explicit_union():
    """Support enumeration equals exact coherence on the explicit union."""
    op = make_dft_operator(8)
    union = difference_union(SparsePrior(8, 1))  # all 2-sparse supports
    assert np.allclose(
        sparse_coherence_exact(op, 2).alpha, coherence_vector(op, union).alpha, atol=1e-12
    )


def test_empirical_single_pair():
    rng = np.random.default_rng(26)
    ws = [rng.standard_normal((4, 2)), rng.standard_normal((8, 4))]
    net = GenerativeNetwork(ws)
    op = make_dft_operator(8)
    cv = empirical_generative_coherence(net, op, 2, rng_seed=5)
    z = np.random.default_rng(5).standard_normal((2, 2))
    x = generative_forward(net, z)
    diff = x[:, 0] - x[:, 1]
    expected = np.abs(op.forward(diff)) / np.linalg.norm(diff)
    assert np.allclose(cv.alpha, expected, atol=1e-12)
    assert cv.method == "empirical"


def test_empirical_matches_pairwise_loop_with_coincident_pairs():
    """The estimator equals a plain loop over every pair of distinct signals. The net maps each
    latent with z_0 < 0 to exactly 0, so about half the pairs coincide and are skipped."""
    rng = np.random.default_rng(31)
    net = GenerativeNetwork([np.array([[1.0, 0.0], [2.0, 0.0]]), rng.standard_normal((16, 2))])
    op = make_dft_operator(16)
    got = empirical_generative_coherence(net, op, 40, rng_seed=8).alpha
    x = generative_forward(net, np.random.default_rng(8).standard_normal((2, 40)))
    assert np.sum(~np.any(x, axis=0)) >= 10
    expected = np.zeros(16)
    for a in range(40):
        for b in range(a + 1, 40):
            diff = x[:, b] - x[:, a]
            if np.any(diff):
                expected = np.maximum(expected, np.abs(op.forward(diff)) / np.linalg.norm(diff))
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_empirical_linear_net_approaches_subspace_coherence():
    """A negated pass-through net is linear; its estimator converges to the
    closed-form coherence of the range subspace."""
    rng = np.random.default_rng(27)
    a = rng.standard_normal((8, 2))
    net = GenerativeNetwork(
        [np.vstack([np.eye(2), -np.eye(2)]), np.hstack([a, -a])]
    )
    z = rng.standard_normal(2)
    assert np.allclose(generative_forward(net, z), a @ z, atol=1e-12)  # linearity
    op = make_dft_operator(8)
    exact = coherence_vector(op, subspace_from_span(a)).alpha
    emp = empirical_generative_coherence(net, op, 200, rng_seed=6).alpha
    assert np.all(emp <= exact + 1e-12)
    assert np.all(emp >= exact * (1 - 1e-3))


def test_empirical_below_exact_difference_union():
    rng = np.random.default_rng(28)
    net = GenerativeNetwork([rng.standard_normal((3, 2)), rng.standard_normal((8, 3))])
    op = make_dft_operator(8)
    exact = coherence_vector(op, difference_union(net)).alpha
    emp = empirical_generative_coherence(net, op, 60, rng_seed=7).alpha
    assert np.all(emp <= exact + 1e-10)


def test_monotone_in_union_size():
    rng = np.random.default_rng(29)
    op = make_dft_operator(8)
    subs = [subspace_from_span(rng.standard_normal((8, 2))) for _ in range(4)]
    small = coherence_vector(op, SubspaceUnion(subs[:2])).alpha
    large = coherence_vector(op, SubspaceUnion(subs)).alpha
    assert np.all(large >= small - 1e-14)


def test_scale_invariance():
    rng = np.random.default_rng(30)
    op = make_dft_operator(8)
    span = rng.standard_normal((8, 3))
    a = coherence_vector(op, subspace_from_span(span)).alpha
    b = coherence_vector(op, subspace_from_span(3.7 * span)).alpha
    assert np.max(np.abs(a - b)) < 1e-10


def test_exactness_certificate_small_scale():
    """Closed form vs random search at n <= 8, dim <= 3, +0/-1e-3."""
    rng = np.random.default_rng(31)
    op = make_dft_operator(8)
    union = SubspaceUnion(
        [subspace_from_span(rng.standard_normal((8, d))) for d in (2, 3)]
    )
    cv = coherence_vector(op, union)
    for j in (1, 4, 7):
        brute = max(
            _brute_row_coherence(row_vector(op, j), s.basis, rng) for s in union.subspaces
        )
        assert brute <= cv.alpha[j - 1] + 1e-12
        assert cv.alpha[j - 1] - brute <= 1e-3


def test_exact_alpha_norm_at_least_one():
    """||alpha||_2 >= 1 for exact coherence under any unitary operator."""
    rng = np.random.default_rng(32)
    ops = [
        make_dft_operator(8),
        make_haar_operator(8, 2),
        make_dense_operator(random_orthogonal(8, rng)),
    ]
    for op in ops:
        union = SubspaceUnion([subspace_from_span(rng.standard_normal((8, 2)))])
        assert np.linalg.norm(coherence_vector(op, union).alpha) >= 1 - 1e-12


def test_coherence_csv_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    cv = CoherenceVector(rng.random(6), "exact")
    path = tmp_path / "alpha.csv"
    save_coherence_csv(cv, path)
    back = load_coherence_csv(path)
    assert np.array_equal(back.alpha, cv.alpha)  # bit-exact through decimal
    assert back.method == "exact"


def test_coherence_vector_validation():
    with pytest.raises(ValueError):
        CoherenceVector(np.array([-0.1, 0.5]), "exact")
    with pytest.raises(ValueError):
        CoherenceVector(np.array([0.1, np.inf]), "exact")
    with pytest.raises(ValueError):
        CoherenceVector(np.array([0.1]), "guessed")
