"""Unitary operator construction, application, and dense matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    copying_haar2d,
    copying_haar_adjoint,
    copying_haar_forward,
    dft2d_matrix,
    dft_matrix,
    haar2d_matrix,
    haar_matrix,
    random_orthogonal,
)

from vdslab.transforms import (
    compose_measurement_basis,
    make_dense_operator,
    make_dft_operator,
    make_haar_operator,
)


def _all_operator_kinds(rng):
    dft = make_dft_operator(16)
    haar = make_haar_operator(16, 3)
    return [
        dft,
        make_dft_operator(16, two_dim=True),
        haar,
        make_haar_operator(16, 2, two_dim=True),
        make_dense_operator(random_orthogonal(16, rng)),
        compose_measurement_basis(dft, haar),
    ]


def test_dft_two_point_canonical():
    """2-point DFT of e_1 is the constant 1/sqrt(2) vector."""
    op = make_dft_operator(2)
    out = op.forward(np.array([1.0, 0.0]))
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_dft_constant_vector_concentrates():
    """4-point DFT of the all-ones vector is (2, 0, 0, 0)."""
    op = make_dft_operator(4)
    out = op.forward(np.ones(4))
    assert np.allclose(out, [2, 0, 0, 0], atol=1e-12)


def test_dft_matches_dense_oracle():
    rng = np.random.default_rng(11)
    op = make_dft_operator(8)
    w = dft_matrix(8)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.max(np.abs(op.forward(x) - w @ x)) < 1e-10
    assert np.max(np.abs(op.adjoint(x) - w.conj().T @ x)) < 1e-10
    assert np.max(np.abs(op.matrix() - w)) < 1e-10


def test_haar_constant_signal():
    """Constant signal carries only the scaling coefficient."""
    op = make_haar_operator(2, 1)
    assert np.allclose(op.forward(np.array([1.0, 1.0])), [np.sqrt(2), 0], atol=1e-12)


def test_haar_round_trip():
    op = make_haar_operator(4, 2)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(op.adjoint(op.forward(x)), x, atol=1e-12)


def test_haar_matches_dense_oracle():
    rng = np.random.default_rng(12)
    op = make_haar_operator(8, 3)
    h = haar_matrix(8, 3)
    x = rng.standard_normal(8)
    assert np.max(np.abs(op.forward(x) - h @ x)) < 1e-10
    assert np.max(np.abs(op.adjoint(x) - h.T @ x)) < 1e-10


def test_haar_level_zero_is_identity():
    op = make_haar_operator(6, 0)
    x = np.arange(6.0)
    assert np.array_equal(op.forward(x), x)


@pytest.mark.parametrize(
    "build,oracle",
    [
        (lambda: make_dft_operator(64), lambda: dft_matrix(64)),
        (lambda: make_dft_operator(64, two_dim=True), lambda: dft2d_matrix(8)),
        (lambda: make_haar_operator(64, 6), lambda: haar_matrix(64, 6)),
        (lambda: make_haar_operator(64, 3, two_dim=True), lambda: haar2d_matrix(8, 3)),
    ],
)
def test_fast_transforms_match_dense_oracles(build, oracle):
    """Dense-oracle equivalence for every fast transform at n = 64."""
    op = build()
    assert np.max(np.abs(op.matrix() - oracle())) < 1e-10


@st.composite
def _haar_case(draw, two_dim):
    # past 5 levels (one 32-sample block step) the 1D transform takes a second step
    levels = draw(st.integers(0, 4 if two_dim else 7))
    length = (1 << levels) * draw(st.integers(1, 3))
    n = length * length if two_dim else length
    batch = draw(st.sampled_from([None, 1, 3]))
    shape = (n,) if batch is None else (n, batch)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    if draw(st.booleans()):
        x = x + 1j * rng.standard_normal(shape)
    return make_haar_operator(n, levels, two_dim=two_dim), length, levels, x


def _assert_normwise_close(got, want, x):
    """Block sums round differently from the cascade's butterflies: equal to 1e-13 ||x||."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(x)


@settings(max_examples=100, deadline=None)
@given(_haar_case(two_dim=False))
def test_haar_1d_matches_copying_cascade(case):
    op, _, levels, x = case
    _assert_normwise_close(op.forward(x), copying_haar_forward(x, levels), x)
    _assert_normwise_close(op.adjoint(x), copying_haar_adjoint(x, levels), x)


@settings(max_examples=60, deadline=None)
@given(_haar_case(two_dim=True))
def test_haar_2d_matches_copying_cascade(case):
    op, side, levels, x = case
    _assert_normwise_close(op.forward(x), copying_haar2d(x, side, levels, copying_haar_forward), x)
    _assert_normwise_close(op.adjoint(x), copying_haar2d(x, side, levels, copying_haar_adjoint), x)


@pytest.mark.parametrize("two_dim", [False, True])
def test_haar_full_depth_matches_dense_oracle_and_cascade(two_dim):
    """Full depth at n = 4096 (levels 12 in 1D, 6 on a 64 x 64 image) runs several block steps."""
    if two_dim:
        op, dense = make_haar_operator(4096, 6, two_dim=True), haar2d_matrix(64, 6)

        def cascade(x, step):
            return copying_haar2d(x, 64, 6, step)
    else:
        op, dense = make_haar_operator(4096, 12), haar_matrix(4096, 12)

        def cascade(x, step):
            return step(x, 12)
    rng = np.random.default_rng(21)
    real = rng.standard_normal((4096, 3))
    batch = real + 1j * rng.standard_normal((4096, 3))
    for x in (real[:, 0], batch[:, 0], real, batch):
        _assert_normwise_close(op.forward(x), dense @ x, x)
        _assert_normwise_close(op.adjoint(x), dense.T @ x, x)
        _assert_normwise_close(op.forward(x), cascade(x, copying_haar_forward), x)
        _assert_normwise_close(op.adjoint(x), cascade(x, copying_haar_adjoint), x)


def test_haar_cached_blocks_are_read_only():
    for op in (make_haar_operator(4096, 12), make_haar_operator(4096, 6, two_dim=True)):
        assert len(op._steps) > 1
        for _, matrix, index, inverse in op._steps:
            for a in (matrix, index, inverse):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]


def test_composition_with_identity_is_measurement():
    f = make_dft_operator(8)
    identity = make_haar_operator(8, 0)
    composed = compose_measurement_basis(f, identity)
    x = np.random.default_rng(13).standard_normal(8)
    assert np.allclose(composed.forward(x), f.forward(x), atol=1e-12)


def test_composition_with_self_is_identity():
    f = make_dft_operator(8)
    composed = compose_measurement_basis(f, f)
    x = np.random.default_rng(14).standard_normal(8) * 1j + 1.0
    assert np.max(np.abs(composed.forward(x) - x)) < 1e-10


def test_composed_matches_dense_product():
    """DFT after inverse Haar equals the product of the dense factors."""
    rng = np.random.default_rng(15)
    op = compose_measurement_basis(make_dft_operator(8), make_haar_operator(8, 3))
    dense = dft_matrix(8) @ haar_matrix(8, 3).conj().T
    x = rng.standard_normal(8)
    assert np.max(np.abs(op.forward(x) - dense @ x)) < 1e-10
    assert np.max(np.abs(op.matrix() - dense)) < 1e-10


def test_composition_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_measurement_basis(make_dft_operator(8), make_haar_operator(4, 1))


def test_unitarity_all_kinds():
    """Norm preservation within 1e-10 for 100 random vectors per operator kind."""
    rng = np.random.default_rng(17)
    for op in _all_operator_kinds(rng):
        x = rng.standard_normal((op.n, 100))
        ratios = np.linalg.norm(op.forward(x), axis=0) / np.linalg.norm(x, axis=0)
        assert np.max(np.abs(ratios - 1)) < 1e-10


def test_adjoint_inverts_forward_all_kinds():
    rng = np.random.default_rng(18)
    for op in _all_operator_kinds(rng):
        x = rng.standard_normal((op.n, 5))
        back = op.adjoint(op.forward(x))
        assert np.max(np.abs(back - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))


def test_batched_application_matches_columnwise():
    rng = np.random.default_rng(19)
    for op in _all_operator_kinds(rng):
        x = rng.standard_normal((op.n, 4))
        batched = op.forward(x)
        for b in range(4):
            assert np.max(np.abs(batched[:, b] - op.forward(x[:, b]))) < 1e-12


def test_dense_operator_applies_matrix():
    rng = np.random.default_rng(20)
    q = random_orthogonal(8, rng)
    op = make_dense_operator(q)
    x = rng.standard_normal(8)
    assert np.allclose(op.forward(x), q @ x, atol=1e-12)
    assert np.allclose(op.adjoint(x), q.T @ x, atol=1e-12)


def test_dense_operator_rejects_non_unitary():
    with pytest.raises(ValueError):
        make_dense_operator(np.eye(4) * 1.001)  # off by 1e-3 > 1e-8 gate
    with pytest.raises(ValueError):
        make_dense_operator(np.ones((3, 4)))


def test_dft_rejects_bad_lengths():
    for bad in (0, 1, 3, 12):
        with pytest.raises(ValueError):
            make_dft_operator(bad)
    with pytest.raises(ValueError):
        make_dft_operator(8, two_dim=True)  # 8 is not a perfect square


def test_haar_rejects_incompatible_depth():
    with pytest.raises(ValueError):
        make_haar_operator(6, 2)  # 6 not divisible by 4
    with pytest.raises(ValueError):
        make_haar_operator(16, 3, two_dim=True)  # side 4 not divisible by 8


def test_operator_metadata():
    op = make_dft_operator(16, two_dim=True)
    assert (op.n, op.field) == (16, "complex")
    haar = make_haar_operator(8, 2)
    assert (haar.n, haar.field) == (8, "real")
    composed = compose_measurement_basis(make_dft_operator(8), haar)
    assert (composed.n, composed.field) == (8, "complex")


def test_forward_rejects_wrong_shape():
    op = make_dft_operator(8)
    with pytest.raises(ValueError):
        op.forward(np.zeros(7))
    with pytest.raises(ValueError):
        op.forward(np.zeros((8, 2, 2)))
