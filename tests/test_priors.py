"""Prior sets: projection, difference unions, count bounds, serialization."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lexsort_hard_threshold

from vdslab.priors import (
    EnumerationBudgetError,
    GenerativeNetwork,
    SparsePrior,
    Subspace,
    SubspaceUnion,
    difference_union,
    generative_forward,
    generative_pullback,
    load_network,
    load_union,
    project,
    save_network,
    save_union,
    subspace_count_bounds,
    subspace_from_span,
)
from vdslab.priors import _activation_patterns, _hard_threshold, _latent_adam, _top_k_support


def _coordinate_union(n, supports):
    eye = np.eye(n)
    return SubspaceUnion([Subspace(eye[:, list(s)]) for s in supports])


def _random_net(widths, rng):
    ws = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(len(widths) - 1)]
    return GenerativeNetwork(ws)


def _forward_oracle(net, z):
    """Straight-line re-evaluation of the network, independent of the package."""
    a = np.asarray(z, float)
    for i, w in enumerate(net.weights):
        a = w @ a
        if i < len(net.weights) - 1:
            a = np.maximum(a, 0.0)
    return a


def _exact_pattern_count_2d(w1):
    """Exact activation-pattern count for a depth-2 net with 2D latent.

    Rows of w1 are lines through the origin; sweeping a direction around the
    circle and evaluating the sign vector at sector midpoints enumerates every
    realizable pattern exactly.
    """
    angles = []
    for row in np.asarray(w1):
        if np.linalg.norm(row) == 0:
            continue
        base = np.arctan2(row[1], row[0]) + np.pi / 2  # boundary of row.z > 0
        angles.extend([base % (2 * np.pi), (base + np.pi) % (2 * np.pi)])
    if not angles:
        return 1
    angles = np.sort(np.unique(np.round(angles, 12)))
    mids = (angles + np.diff(np.append(angles, angles[0] + 2 * np.pi)) / 2) % (2 * np.pi)
    patterns = {
        tuple(np.asarray(w1) @ np.array([np.cos(t), np.sin(t)]) > 0) for t in mids
    }
    return len(patterns)


# ---------------------------------------------------------------- types


def test_subspace_validates_orthonormality():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Subspace(np.array([[1j], [0]]))


def test_union_metadata():
    u = _coordinate_union(4, [(0,), (1, 2)])
    assert (u.M, u.max_dim, u.n) == (2, 2, 4)


def test_sparse_prior_bounds_k():
    with pytest.raises(ValueError):
        SparsePrior(4, 0)
    with pytest.raises(ValueError):
        SparsePrior(4, 5)


def test_network_validates_shape_chain():
    with pytest.raises(ValueError):
        GenerativeNetwork([np.ones((3, 2)), np.ones((4, 2))])  # 2 != 3
    with pytest.raises(ValueError):
        GenerativeNetwork([np.ones((3, 2)), np.ones((2, 3))])  # widths decrease


def test_subspace_from_span_orthonormalizes():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((6, 2))
    redundant = np.hstack([mat, mat @ rng.standard_normal((2, 3))])
    sub = subspace_from_span(redundant)
    assert sub.dim == 2  # rank recovered despite redundant columns
    assert np.max(np.abs(sub.basis.T @ sub.basis - np.eye(2))) < 1e-10


# ---------------------------------------------------------------- difference_union


def test_sparse_difference_enumerates_coordinate_planes():
    """n=4, k=1 gives all C(4,2)=6 coordinate planes."""
    union = difference_union(SparsePrior(4, 1))
    assert union.M == 6
    supports = {tuple(np.nonzero(s.basis.sum(axis=1))[0]) for s in union.subspaces}
    assert supports == set(combinations(range(4), 2))
    assert all(s.dim == 2 for s in union.subspaces)


def test_sparse_difference_over_budget_raises():
    with pytest.raises(EnumerationBudgetError, match=f"C\\(30, 6\\) = {math.comb(30, 6)}"):
        difference_union(SparsePrior(30, 3), budget=10)
    assert difference_union(SparsePrior(4, 1), budget=6).M == 6  # at the budget still enumerates


def test_single_subspace_union_is_self_difference():
    sub = subspace_from_span(np.array([[1.0], [1.0], [0.0]]))
    out = difference_union(SubspaceUnion([sub]))
    assert out.M == 1
    assert np.max(np.abs(out.subspaces[0].basis @ out.subspaces[0].basis.T - sub.basis @ sub.basis.T)) < 1e-10


def test_union_difference_expands_pairwise_and_dedups():
    u = _coordinate_union(3, [(0,), (1,), (0, 1)])
    out = difference_union(u)
    # 6 pairs: e0, e1, and the plane {e0,e1} reached four ways
    assert out.M == 3
    assert sorted(s.dim for s in out.subspaces) == [1, 1, 2]


def test_union_difference_respects_budget():
    u = _coordinate_union(3, [(0,), (1,), (2,)])
    with pytest.raises(EnumerationBudgetError):
        difference_union(u, budget=5)


def test_generative_difference_covers_latent_grid():
    """Differences G(z1) - G(z2) over a 50 x 50 pair sweep lie in the union."""
    rng = np.random.default_rng(7)
    net = _random_net((2, 3, 4), rng)
    union = difference_union(net)
    z1 = rng.standard_normal((2, 50))
    z2 = rng.standard_normal((2, 50))
    g1 = generative_forward(net, z1)
    g2 = generative_forward(net, z2)
    diffs = g1[:, :, None] - g2[:, None, :]  # (n, 50, 50)
    flat = diffs.reshape(4, -1)
    best = np.full(flat.shape[1], np.inf)
    for s in union.subspaces:
        resid = np.linalg.norm(flat - s.basis @ (s.basis.T @ flat), axis=0)
        best = np.minimum(best, resid)
    assert np.max(best) <= 1e-8 * (1 + np.max(np.linalg.norm(flat, axis=0)))


def test_generative_difference_pattern_counts_match_exact_sweep():
    rng = np.random.default_rng(8)
    w1 = rng.standard_normal((3, 2))
    net = GenerativeNetwork([w1, rng.standard_normal((4, 3))])
    union = difference_union(net)
    exact = _exact_pattern_count_2d(w1)
    assert len(_activation_patterns(net)) == exact
    assert union.M <= exact * (exact + 1) // 2


def test_generative_difference_budget():
    rng = np.random.default_rng(9)
    net = _random_net((2, 3, 4), rng)
    with pytest.raises(EnumerationBudgetError):
        difference_union(net, budget=3)


@pytest.mark.parametrize("kind", ["sparse", "generative"])
def test_difference_soundness_random_pairs(kind):
    """x - y stays in the union for 200 random pairs drawn from the prior."""
    rng = np.random.default_rng(10)
    if kind == "sparse":
        prior = SparsePrior(10, 2)
        union = difference_union(prior)

        def draw():
            x = np.zeros(10)
            sup = rng.choice(10, size=2, replace=False)
            x[sup] = rng.standard_normal(2)
            return x

    else:
        prior = _random_net((2, 4, 6), rng)
        union = difference_union(prior)

        def draw():
            return generative_forward(prior, rng.standard_normal(2))

    for _ in range(200):
        d = draw() - draw()
        resid = min(np.linalg.norm(d - s.project(d)) for s in union.subspaces)
        assert resid <= 1e-8 * (1 + np.linalg.norm(d))


# ---------------------------------------------------------------- count bounds


def test_sparse_count_bound_example():
    bound, ell = subspace_count_bounds(SparsePrior(64, 2))
    assert ell == 4
    # log C(64,4) = 13.36...; the bound must dominate it
    assert bound >= math.log(math.comb(64, 4))


def test_sparse_count_bound_full_support():
    """2k = n leaves a single subspace; the bound stays nonnegative."""
    bound, ell = subspace_count_bounds(SparsePrior(4, 2))
    assert ell == 4
    assert bound >= 0.0


def test_generative_count_bound_formula():
    rng = np.random.default_rng(11)
    net = _random_net((2, 4, 8), rng)
    bound, ell = subspace_count_bounds(net)
    assert ell == 4
    assert bound == pytest.approx(2 * 2 * math.log(2 * math.e * 4 / 2))


def test_count_bounds_reject_an_explicit_union():
    """A union's exact (M, max_dim) come from its difference union, so it has no bound here."""
    union = SubspaceUnion([Subspace(np.eye(4)[:, :1]), Subspace(np.eye(4)[:, 1:2])])
    with pytest.raises(TypeError, match="unsupported prior type SubspaceUnion"):
        subspace_count_bounds(union)


def test_count_bounds_dominate_exact_sparse():
    for n in range(2, 13):
        for k in range(1, n + 1):
            s = min(2 * k, n)
            bound, ell = subspace_count_bounds(SparsePrior(n, k))
            assert ell == s
            assert bound >= math.log(math.comb(n, s)) - 1e-12


def test_count_bounds_dominate_exact_generative():
    rng = np.random.default_rng(12)
    for trial in range(5):
        w1 = rng.standard_normal((3, 2))
        net = GenerativeNetwork([w1, rng.standard_normal((5, 3))])
        bound, _ = subspace_count_bounds(net)
        exact_pairs = _exact_pattern_count_2d(w1) ** 2
        assert bound >= math.log(exact_pairs)


# ---------------------------------------------------------------- projection


def test_project_sparse_dominant_entry():
    out = project(SparsePrior(4, 1), np.array([3.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(out, [3, 0, 0, 0])


def test_project_sparse_tie_keeps_lowest_index():
    out = project(SparsePrior(4, 2), np.array([1.0, -1.0, 1.0, 0.5]))
    assert np.array_equal(out, [1, -1, 0, 0])


def test_project_single_subspace():
    sub = subspace_from_span(np.array([[1.0], [1.0], [0.0]]))
    out = sub.project(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.5, 0.5, 0.0], atol=1e-12)


def test_project_union_lexicographic_tie():
    """Equal residuals resolve to the lexicographically greatest candidate."""
    union = _coordinate_union(2, [(0,), (1,)])
    out = project(union, np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0], atol=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=9, max_size=9), st.integers(1, 4))
def test_project_sparse_matches_exhaustive(entries, k):
    """Thresholding attains the exhaustive minimum over all k-supports."""
    x = np.array(entries)
    got = np.linalg.norm(x - project(SparsePrior(9, k), x))
    best = min(
        np.linalg.norm(x - np.where(np.isin(np.arange(9), sup), x, 0.0))
        for sup in combinations(range(9), k)
    )
    assert got <= best + 1e-12 * (1 + np.linalg.norm(x))


# magnitudes from a small set, so most draws carry many ties
_TIED_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, np.inf])


@st.composite
def _tied_vector_and_k(draw):
    n = draw(st.integers(1, 40))
    x = np.array(draw(st.lists(_TIED_VALUES, min_size=n, max_size=n)))
    if draw(st.booleans()):
        x = x.astype(complex)  # set the imaginary part directly: 1j * inf has a NaN real part
        x.imag = draw(st.lists(_TIED_VALUES, min_size=n, max_size=n))
    return x, draw(st.integers(1, n))


@settings(max_examples=400, deadline=None)
@given(_tied_vector_and_k())
def test_hard_threshold_matches_lexsort_reference(case):
    x, k = case
    got = _hard_threshold(x, k)
    assert got.dtype == x.dtype
    assert np.array_equal(got, lexsort_hard_threshold(x, k))
    support = _top_k_support(x, k)
    assert np.array_equal(support, np.sort(np.lexsort((np.arange(x.size), -np.abs(x)))[:k]))


def test_hard_threshold_rejects_nan():
    # the lexsort reference ranks NaN below every number; the partition would not
    x = np.array([1.0, np.nan, 3.0, 0.5])
    with pytest.raises(ValueError, match="NaN"):
        _hard_threshold(x, 2)
    with pytest.raises(ValueError, match="NaN"):
        project(SparsePrior(4, 2), x)


@pytest.mark.parametrize(
    "x, k",
    [
        ([np.nan, 1.0, np.nan, 2.0, np.nan], 2),  # more NaNs than k fill the top-k slice
        ([1.0, np.nan, 3.0], 3),  # k = n takes no partition
        ([2.0, 1.0, np.nan, -1.0, 1.0], 2),  # a NaN beside ties at the k-th magnitude
        ([1.0, 1.0, complex(1.0, np.nan), 1.0], 1),  # a complex entry of NaN magnitude among ties
    ],
)
def test_hard_threshold_rejects_nan_wherever_it_sits(x, k):
    x = np.array(x)
    with pytest.raises(ValueError, match="NaN"):
        _top_k_support(x, k)
    with pytest.raises(ValueError, match="NaN"):
        _hard_threshold(x, k)


def test_project_union_beats_every_member():
    rng = np.random.default_rng(13)
    subs = [subspace_from_span(rng.standard_normal((6, d))) for d in (1, 2, 3)]
    union = SubspaceUnion(subs)
    for _ in range(20):
        x = rng.standard_normal(6)
        got = np.linalg.norm(x - project(union, x))
        for s in subs:
            assert got <= np.linalg.norm(x - s.project(x)) + 1e-12


def test_project_generative_nonnegative_orthant():
    """relu-identity net projects onto the nonnegative orthant."""
    net = GenerativeNetwork([np.eye(2), np.eye(2)])
    out = project(net, np.array([1.0, -1.0]))
    assert np.linalg.norm(out - np.array([1.0, 0.0])) < 1e-3


def test_latent_adam_fixed_budget_keeps_the_first_lowest_objective():
    """Flat objectives tie every iterate while the latents move: within a column the first
    iterate wins, across columns the lowest column, and each start gets iters evaluations."""
    blocks = []

    def flat(z):
        blocks.append(z.copy())
        return np.ones(z.shape[1]), z.copy(), np.ones_like(z)

    (obj, x), total = _latent_adam(flat, np.array([[1.0, 2.0, 3.0]]), 7, 0.1)
    assert (obj, x.tolist(), total) == (1.0, [1.0], 21)
    assert len(blocks) == 7 and all(b.shape == (1, 3) for b in blocks)
    assert np.all(blocks[-1] < blocks[0])  # the ties were between distinct iterates


def test_latent_adam_columns_run_independently():
    """Each column keeps its own Adam moments: the block gives the single-column runs."""
    centre = np.array([[0.5], [-2.0]])

    def quadratic(z):
        r = z - centre
        return np.sum(r**2, axis=0), z.copy(), 2.0 * r

    block = np.array([[3.0, -1.0, 0.2], [1.0, 4.0, -0.7]])
    (obj, x), _ = _latent_adam(quadratic, block, 25, 0.05)
    singles = [_latent_adam(quadratic, block[:, [j]], 25, 0.05)[0] for j in range(3)]
    best = min(singles, key=lambda pair: pair[0])
    assert obj == best[0] and np.array_equal(x, best[1])


def test_latent_adam_rejects_non_finite_objectives_and_empty_blocks():
    with pytest.raises(ValueError, match="non-finite"):
        _latent_adam(lambda z: (np.array([1.0, np.nan]), z, z), np.ones((1, 2)), 3, 0.1)
    with pytest.raises(ValueError, match="at least one start"):
        _latent_adam(lambda z: (np.ones(0), z, z), np.ones((1, 0)), 3, 0.1)


# ---------------------------------------------------------------- forward / pullback


def test_forward_linear_when_relu_inactive():
    net = GenerativeNetwork([np.eye(3), np.eye(3)])
    z = np.array([1.0, 2.0, 0.5])
    assert np.array_equal(generative_forward(net, z), z)


def test_forward_zero_latent_gives_zero():
    rng = np.random.default_rng(14)
    net = _random_net((2, 5, 7), rng)
    assert np.array_equal(generative_forward(net, np.zeros(2)), np.zeros(7))


def test_forward_matches_reimplementation():
    rng = np.random.default_rng(15)
    net = _random_net((3, 4, 6, 8), rng)
    z = rng.standard_normal(3)
    assert np.max(np.abs(generative_forward(net, z) - _forward_oracle(net, z))) < 1e-12


def test_forward_batched_matches_loop():
    rng = np.random.default_rng(16)
    net = _random_net((2, 4, 5), rng)
    z = rng.standard_normal((2, 7))
    batched = generative_forward(net, z)
    for b in range(7):
        # gemm vs gemv rounding may differ in the last ulp
        assert np.max(np.abs(batched[:, b] - generative_forward(net, z[:, b]))) < 1e-12


def test_pullback_matches_finite_differences():
    rng = np.random.default_rng(17)
    net = _random_net((3, 5, 6), rng)
    z = rng.standard_normal(3)
    out, vjp = generative_pullback(net, z)
    v = rng.standard_normal(6)
    grad = vjp(v)
    eps = 1e-6
    for i in range(3):
        dz = np.zeros(3)
        dz[i] = eps
        fd = (v @ generative_forward(net, z + dz) - v @ generative_forward(net, z - dz)) / (2 * eps)
        assert abs(grad[i] - fd) < 1e-5 * (1 + abs(fd))


# ---------------------------------------------------------------- serialization


def test_network_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    net = _random_net((2, 3, 5), rng)
    path = tmp_path / "net.vdsg"
    save_network(net, path)
    back = load_network(path)
    assert back.layer_widths == net.layer_widths
    for a, b in zip(back.weights, net.weights):
        assert np.array_equal(a, b)


def test_network_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.vdsg"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ValueError):
        load_network(path)


def test_union_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    subs = [subspace_from_span(rng.standard_normal((5, d))) for d in (1, 3)]
    union = SubspaceUnion(subs)
    path = tmp_path / "t.vdsu"
    save_union(union, path)
    back = load_union(path)
    assert back.M == 2
    for a, b in zip(back.subspaces, subs):
        assert np.array_equal(a.basis, b.basis)
