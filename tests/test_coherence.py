"""Local coherence closed forms, bounds, and the empirical estimator."""

import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    DenseOperator,
    dense_matrix,
    dense_sparse_coherence,
    pairwise_generative_coherence,
    random_orthogonal,
    random_unitary,
)

from vdslab.coherence import (
    coherence_vector,
    empirical_generative_coherence,
    save_coherence_csv,
    sparse_coherence_vector,
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
from vdslab.transforms import (
    UnitaryOperator,
    _Dft,
    compose_measurement_basis,
    make_dft_operator,
    make_haar_operator,
)


def _identity_op(n):
    return make_haar_operator(n, 0)


def _one_subspace(basis):
    return SubspaceUnion([Subspace(basis)])


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
    """Against the line through e_0, identity row 0 is aligned and the others orthogonal."""
    alpha = coherence_vector(_identity_op(3), _one_subspace(np.eye(3)[:, [0]]))
    assert alpha[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(alpha[1:], 0.0, atol=1e-14)


def test_row_coherence_matches_brute_force():
    """Closed form dominates and is approached by random search (+0/-1e-3), complex rows."""
    rng = np.random.default_rng(21)
    mat = random_unitary(8, rng)
    basis = subspace_from_span(rng.standard_normal((8, 3))).basis
    closed = coherence_vector(DenseOperator(mat), _one_subspace(basis))
    for j in (0, 5):
        brute = _brute_row_coherence(mat[j].conj(), basis, rng)
        assert brute <= closed[j] + 1e-12
        assert closed[j] - brute <= 1e-3


def test_row_coherence_matches_svd():
    rng = np.random.default_rng(22)
    for _ in range(10):
        mat = random_unitary(6, rng)
        basis = subspace_from_span(rng.standard_normal((6, 2))).basis
        alpha = coherence_vector(DenseOperator(mat), _one_subspace(basis))
        expected = [_svd_row_coherence(row.conj(), basis) for row in mat]
        assert np.allclose(alpha, expected, rtol=0, atol=1e-12)


def test_coherence_vector_identity_lines():
    """Identity rows against the 1-sparse lines give all-ones coherence."""
    union = difference_union(SparsePrior(4, 1))
    lines = SubspaceUnion([Subspace(np.eye(4)[:, [j]]) for j in range(4)])
    cv = coherence_vector(_identity_op(4), lines)
    assert np.allclose(cv, np.ones(4), atol=1e-12)
    # the 2-sparse difference union only enlarges it
    cv2 = coherence_vector(_identity_op(4), union)
    assert np.all(cv2 >= cv - 1e-12)


def test_coherence_single_line_is_entry_magnitude():
    cv = coherence_vector(make_dft_operator(4), _one_subspace(np.eye(4)[:, [0]]))
    assert np.allclose(cv, 0.5 * np.ones(4), atol=1e-12)


def test_coherence_vector_agrees_with_row_function():
    """Each row is the largest per-subspace SVD row coherence, f_j = conj(matrix()[j])."""
    rng = np.random.default_rng(23)
    op = make_dft_operator(8)
    union = SubspaceUnion(
        [subspace_from_span(rng.standard_normal((8, d))) for d in (1, 2, 3)]
    )
    cv = coherence_vector(op, union)
    mat = dense_matrix(op)
    for j in (0, 2, 7):
        expected = max(_svd_row_coherence(mat[j].conj(), s.basis) for s in union.subspaces)
        assert cv[j] == pytest.approx(expected, abs=1e-12)


def test_coherence_vector_takes_only_a_union():
    with pytest.raises(TypeError, match="SubspaceUnion"):
        coherence_vector(make_dft_operator(4), Subspace(np.eye(4)[:, [0]]))


def test_sparse_upper_bound_trivial_rows():
    """Identity rows bound at 1; a complex unitary's rows at the root sum of their s largest
    squared magnitudes, taken from a full sort of each row."""
    assert np.allclose(sparse_coherence_vector(_identity_op(4), 2), 1.0, atol=1e-12)
    mat = random_unitary(8, np.random.default_rng(34))
    got = sparse_coherence_vector(DenseOperator(mat), 3)
    expected = np.sqrt(np.sort(np.abs(mat) ** 2, axis=1)[:, -3:].sum(axis=1))
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_sparse_vector_flat_for_dft():
    """DFT rows have flat magnitudes, so every bound equals sqrt(s/n)."""
    cv = sparse_coherence_vector(make_dft_operator(8), 3)
    assert np.allclose(cv, math.sqrt(3 / 8), atol=1e-12)


def _every_depth(kind, n):
    """The named transform on n, once for a DFT and at every depth from 0 to the maximum for a Haar."""
    if kind in ("dft", "dft2"):
        return [make_dft_operator(n, two_dim=kind == "dft2")]
    two_dim = kind == "haar2"
    deepest = (math.isqrt(n) if two_dim else n).bit_length() - 1
    return [make_haar_operator(n, levels, two_dim=two_dim) for levels in range(deepest + 1)]


@pytest.mark.parametrize("n", (16, 64, 256))
@pytest.mark.parametrize("sparsity", ("none", "haar", "haar2"))
@pytest.mark.parametrize("measurement", ("dft", "dft2", "haar", "haar2"))
def test_sparse_coherence_matches_the_dense_build(measurement, sparsity, n):
    """Every (measurement, sparsity) pair a config accepts, at every depth of each Haar, agrees
    with the dense matrix's row-wise top s to 1e-12 relative. DFT pairs read one band per Haar
    coefficient band, the others one band per column (two blocks at n = 256)."""
    for meas in _every_depth(measurement, n):
        for basis in [None] if sparsity == "none" else _every_depth(sparsity, n):
            op = meas if basis is None else compose_measurement_basis(meas, basis)
            for s in (1, 3, n // 3, n):
                expected = dense_sparse_coherence(op, s)
                np.testing.assert_allclose(sparse_coherence_vector(op, s), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", (16, 64, 256))
def test_sparse_coherence_matches_the_dense_build_on_a_complex_unitary(n):
    op = DenseOperator(random_unitary(n, np.random.default_rng(n)))
    for s in (1, 3, n // 3, n):
        np.testing.assert_allclose(
            sparse_coherence_vector(op, s), dense_sparse_coherence(op, s), rtol=1e-12, atol=0
        )


def test_sparse_coherence_never_builds_the_matrix(monkeypatch):
    ops = [
        make_dft_operator(64),
        compose_measurement_basis(make_dft_operator(256), make_haar_operator(256, 3)),
        compose_measurement_basis(
            make_dft_operator(256, two_dim=True), make_haar_operator(256, 2, two_dim=True)
        ),
        compose_measurement_basis(make_haar_operator(256, 2), make_haar_operator(256, 4, two_dim=True)),
        DenseOperator(random_unitary(16, np.random.default_rng(36))),
    ]
    expected = [dense_sparse_coherence(op, 5) for op in ops]
    widths = []
    for op, want in zip(ops, expected):

        def counting(x, forward=op.forward):
            widths[-1] += x.shape[1]
            return forward(x)

        widths.append(0)
        monkeypatch.setattr(op, "forward", counting)
        np.testing.assert_allclose(sparse_coherence_vector(op, 5), want, rtol=1e-12, atol=0)
    # only one representative column per band goes through forward: one band for a bare DFT,
    # (L + 1) or (L + 1)^2 for a DFT over a Haar basis, n for an operator without translate bands
    assert widths == [1, 4, 9, 256, 16]


def _support_union(n, s):
    eye = np.eye(n)
    return SubspaceUnion([Subspace(eye[:, list(sup)]) for sup in combinations(range(n), s)])


def test_sparse_exact_matches_supportwise_svd():
    """Exact s-sparse coherence is coherence_vector on the union of all s-supports."""
    op = make_dft_operator(8)
    supports = _support_union(8, 2)
    cv = coherence_vector(op, supports)
    mat = dense_matrix(op)
    for j in range(8):
        f = mat[j].conj()  # row as measured: f* x = (Fx)_j
        best = max(_svd_row_coherence(f, sub.basis) for sub in supports.subspaces)
        assert cv[j] == pytest.approx(best, abs=1e-12)


def test_sparse_upper_dominates_exact():
    op = DenseOperator(random_unitary(6, np.random.default_rng(25)))
    exact = coherence_vector(op, _support_union(6, 2))
    assert np.all(sparse_coherence_vector(op, 2) >= exact - 1e-12)


def test_sparse_exact_vs_explicit_union():
    """The difference union of a 1-sparse prior gives the explicit 2-support union's coherences."""
    op = make_dft_operator(8)
    union = difference_union(SparsePrior(8, 1))  # all 2-sparse supports
    explicit = _support_union(8, 2)
    assert np.allclose(coherence_vector(op, union), coherence_vector(op, explicit), atol=1e-12)


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
    assert np.allclose(cv, expected, atol=1e-12)


def test_empirical_matches_pairwise_loop_with_coincident_pairs():
    """The estimator equals a plain loop over every pair of distinct signals. The net maps each
    latent with z_0 < 0 to exactly 0, so about half the pairs coincide and are skipped."""
    rng = np.random.default_rng(31)
    net = GenerativeNetwork([np.array([[1.0, 0.0], [2.0, 0.0]]), rng.standard_normal((16, 2))])
    op = make_dft_operator(16)
    got = empirical_generative_coherence(net, op, 40, rng_seed=8)
    x = generative_forward(net, np.random.default_rng(8).standard_normal((2, 40)))
    assert np.sum(~np.any(x, axis=0)) >= 10
    expected = np.zeros(16)
    for a in range(40):
        for b in range(a + 1, 40):
            diff = x[:, b] - x[:, a]
            if np.any(diff):
                expected = np.maximum(expected, np.abs(op.forward(diff)) / np.linalg.norm(diff))
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def _relu_net(n, rng):
    return GenerativeNetwork([rng.standard_normal((4, 2)), rng.standard_normal((n, 4))])


_PAIR_OPERATORS = {
    "dft": lambda rng: make_dft_operator(64),
    "dft-odd": lambda rng: _Dft((15,)),  # no Nyquist row: only DC is its own partner
    "dft2": lambda rng: make_dft_operator(64, two_dim=True),
    "haar": lambda rng: make_haar_operator(64, 3),
    "haar2": lambda rng: make_haar_operator(64, 2, two_dim=True),
    "dft-haar": lambda rng: compose_measurement_basis(make_dft_operator(64), make_haar_operator(64, 3)),
    "unitary": lambda rng: DenseOperator(random_unitary(16, rng)),  # identity conjugate rows
}


@pytest.mark.parametrize("name", list(_PAIR_OPERATORS))
def test_empirical_matches_the_pairwise_oracle(name):
    """One row per conjugate pair with norms from the transform domain gives the x-domain
    pair loop's alpha on every row, to rounding."""
    rng = np.random.default_rng(36)
    op = _PAIR_OPERATORS[name](rng)
    net = _relu_net(op.n, rng)
    got = empirical_generative_coherence(net, op, 50, rng_seed=9)
    expected = pairwise_generative_coherence(net, op, 50, rng_seed=9)
    assert np.all(expected > 0)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_empirical_matches_the_pairwise_oracle_on_the_sweep_network():
    """The benchmark's generative sweep network, (3, 16, 64) under the DFT, at 256 latents."""
    rng = np.random.Generator(np.random.Philox(11))
    net = GenerativeNetwork(
        [rng.standard_normal((16, 3)) / math.sqrt(3), rng.standard_normal((64, 16)) / math.sqrt(16)]
    )
    op = make_dft_operator(64)
    got = empirical_generative_coherence(net, op, 256, rng_seed=1)
    assert np.allclose(got, pairwise_generative_coherence(net, op, 256, 1), rtol=1e-12, atol=0)


class _ComplexValued(UnitaryOperator):
    """A real operator read as complex: its forward with a zero imaginary part."""

    def __init__(self, op):
        super().__init__(op.n, "complex")
        self.op = op

    def _forward(self, x):
        return self.op.forward(x).astype(np.complex128)

    def _adjoint(self, y):
        return self.op.adjoint(y)


@pytest.mark.parametrize("name", ["haar", "haar2"])
def test_empirical_on_a_real_operator_skips_the_zero_imaginary_half(name):
    """A real operator's transforms are differenced on their real parts alone, and alpha is
    bitwise that of the same operator read as complex, whose imaginary half is all zeros; both
    are the pairwise oracle's to 1e-12, at the sweep's 256 latents."""
    rng = np.random.default_rng(39)
    op = _PAIR_OPERATORS[name](rng)
    net = _relu_net(op.n, rng)
    got = empirical_generative_coherence(net, op, 256, rng_seed=4)
    assert np.array_equal(got, empirical_generative_coherence(net, _ComplexValued(op), 256, rng_seed=4))
    assert np.allclose(got, pairwise_generative_coherence(net, op, 256, 4), rtol=1e-12, atol=0)


@pytest.mark.parametrize("two_dim", [False, True])
def test_empirical_is_equal_on_conjugate_rows(two_dim):
    """|F x|_j = |F x|_{Pj} for a real signal, and the estimator returns the same bits on both."""
    rng = np.random.default_rng(37)
    op = make_dft_operator(64, two_dim=two_dim)
    alpha = empirical_generative_coherence(_relu_net(64, rng), op, 60, rng_seed=10)
    assert np.array_equal(alpha[op.conjugate_rows()], alpha)


def test_empirical_all_coincident_signals_give_zero():
    """A zero last layer maps every latent to 0: every pair is skipped, quietly."""
    net = GenerativeNetwork([np.eye(2), np.zeros((16, 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = empirical_generative_coherence(net, make_dft_operator(16), 20, rng_seed=2)
    assert np.array_equal(alpha, np.zeros(16))


def test_empirical_memory_is_linear_in_the_latents():
    """At 1024 latents and n = 64 the peak stays near that of the one forward transform of the
    signals (their 0.5 MB, NumPy's working copy and the output, about 2.6 MB in all); a
    latents x latents x n temporary would take 537 MB."""
    rng = np.random.default_rng(38)
    net = GenerativeNetwork([rng.standard_normal((16, 3)), rng.standard_normal((64, 16))])
    op = make_dft_operator(64)
    empirical_generative_coherence(net, op, 4, rng_seed=0)  # the FFT caches its plan once
    tracemalloc.start()
    try:
        empirical_generative_coherence(net, op, 1024, rng_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


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
    exact = coherence_vector(op, SubspaceUnion([subspace_from_span(a)]))
    emp = empirical_generative_coherence(net, op, 200, rng_seed=6)
    assert np.all(emp <= exact + 1e-12)
    assert np.all(emp >= exact * (1 - 1e-3))


def test_empirical_below_exact_difference_union():
    rng = np.random.default_rng(28)
    net = GenerativeNetwork([rng.standard_normal((3, 2)), rng.standard_normal((8, 3))])
    op = make_dft_operator(8)
    exact = coherence_vector(op, difference_union(net))
    emp = empirical_generative_coherence(net, op, 60, rng_seed=7)
    assert np.all(emp <= exact + 1e-10)


def test_monotone_in_union_size():
    rng = np.random.default_rng(29)
    op = make_dft_operator(8)
    subs = [subspace_from_span(rng.standard_normal((8, 2))) for _ in range(4)]
    small = coherence_vector(op, SubspaceUnion(subs[:2]))
    large = coherence_vector(op, SubspaceUnion(subs))
    assert np.all(large >= small - 1e-14)


def test_scale_invariance():
    rng = np.random.default_rng(30)
    op = make_dft_operator(8)
    span = rng.standard_normal((8, 3))
    a = coherence_vector(op, SubspaceUnion([subspace_from_span(span)]))
    b = coherence_vector(op, SubspaceUnion([subspace_from_span(3.7 * span)]))
    assert np.max(np.abs(a - b)) < 1e-10


def test_exactness_certificate_small_scale():
    """Closed form vs random search at n <= 8, dim <= 3, +0/-1e-3."""
    rng = np.random.default_rng(31)
    op = make_dft_operator(8)
    union = SubspaceUnion(
        [subspace_from_span(rng.standard_normal((8, d))) for d in (2, 3)]
    )
    cv = coherence_vector(op, union)
    mat = dense_matrix(op)
    for j in (0, 3, 6):
        brute = max(_brute_row_coherence(mat[j].conj(), s.basis, rng) for s in union.subspaces)
        assert brute <= cv[j] + 1e-12
        assert cv[j] - brute <= 1e-3


def test_exact_alpha_norm_at_least_one():
    """||alpha||_2 >= 1 for exact coherence under any unitary operator."""
    rng = np.random.default_rng(32)
    ops = [
        make_dft_operator(8),
        make_haar_operator(8, 2),
        DenseOperator(random_orthogonal(8, rng)),
    ]
    for op in ops:
        union = SubspaceUnion([subspace_from_span(rng.standard_normal((8, 2)))])
        assert np.linalg.norm(coherence_vector(op, union)) >= 1 - 1e-12


def test_coherence_profiles_are_read_only_float64():
    rng = np.random.default_rng(35)
    net = GenerativeNetwork([rng.standard_normal((4, 2)), rng.standard_normal((8, 4))])
    op = make_dft_operator(8)
    for alpha in (
        coherence_vector(op, difference_union(SparsePrior(8, 1))),
        sparse_coherence_vector(op, 2),
        empirical_generative_coherence(net, op, 4, rng_seed=1),
    ):
        assert alpha.dtype == np.float64 and alpha.shape == (8,)
        assert not alpha.flags.writeable


def test_coherence_csv_round_trip(tmp_path):
    alpha = np.random.default_rng(33).random(6)
    path = tmp_path / "alpha.csv"
    save_coherence_csv(alpha, "exact", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,alpha,method"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(6))
    assert np.array_equal([float(row[1]) for row in rows], alpha)  # bit-exact through decimal
    assert {row[2] for row in rows} == {"exact"}
